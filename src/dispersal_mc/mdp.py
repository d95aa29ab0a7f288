"""Explicit-state Markov decision processes with exact rational probabilities.

States are valuations of bounded integer variables. Models are built either
directly (for tests and small examples) or by expanding symbolic transition
templates. Parallel composition acts on templates, before expansion
(``compose_templates``).
"""

from __future__ import annotations

import functools
import math
from array import array
from bisect import bisect_right
from collections import deque
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction


# Exploration refuses to index more states than this.
STATE_CAP = 5_000_000


class ModelError(Exception):
    """Structural problem in a model definition."""


class CompositionError(ModelError):
    """Illegal parallel composition (variable or action-name conflicts)."""


class ExplorationError(ModelError):
    """State-space exploration left a declared variable range."""


class Distribution(tuple):
    """Exact probability masses over outcomes 1..k: entry i - 1 is outcome i's.

    Zeros are kept in place; a negative mass or a total other than 1 is
    refused. It is left for channel routing (``models.Channel``).
    """

    __slots__ = ()

    def __new__(cls, masses):
        masses = tuple(Fraction(m) for m in masses)
        if any(mass < 0 for mass in masses):
            raise ValueError(f"negative mass {min(masses)}")
        total = sum(masses, Fraction(0))
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        return super().__new__(cls, masses)

    @classmethod
    def uniform(cls, m: int) -> "Distribution":
        """The uniform distribution over outcomes 1..m."""
        if m < 1:
            raise ValueError("uniform distribution needs at least one outcome")
        return cls((Fraction(1, m),) * m)


@dataclass(frozen=True)
class VarDecl:
    """A bounded integer model variable with its initial value."""

    name: str
    low: int
    high: int
    init: int = 0

    def __post_init__(self):
        if self.low > self.high:
            raise ModelError(f"variable {self.name}: empty range [{self.low}, {self.high}]")
        if not self.low <= self.init <= self.high:
            raise ModelError(f"variable {self.name}: init {self.init} outside range")


GUARD_OPS = ("=", "<", ">=")
UPDATE_OPS = ("=", "+")


def _atoms(atoms, ops: tuple[str, ...], where: str) -> tuple[tuple[str, str, int], ...]:
    """Normalise ``(var, op, const)`` atoms to a tuple, refusing unknown operators."""
    atoms = tuple(tuple(a) for a in atoms)
    for var, op, _ in atoms:
        if op not in ops:
            raise ModelError(f"{where}: unknown operator {op!r} on {var!r}")
    return atoms


@dataclass(frozen=True)
class Branch:
    """One weighted outcome of a transition template.

    ``update`` is a tuple of ``(var, "=", k)`` and ``(var, "+", k)`` atoms,
    all evaluated on the source valuation; unassigned variables keep their
    value.
    """

    weight: Fraction
    update: tuple[tuple[str, str, int], ...] = ()

    def __post_init__(self):
        update = _atoms(self.update, UPDATE_OPS, "update")
        written = [var for var, _, _ in update]
        if len(set(written)) != len(written):
            raise ModelError(f"update {update} writes one variable twice")
        object.__setattr__(self, "update", update)


@dataclass(frozen=True)
class TransitionTemplate:
    """A guarded probabilistic transition in symbolic form.

    ``guard`` is a conjunction of ``(var, op, const)`` atoms with ``op`` one
    of ``=``, ``<`` and ``>=``; the empty guard is always true.
    """

    action: str
    guard: tuple[tuple[str, str, int], ...]
    branches: tuple[Branch, ...]

    def __post_init__(self):
        object.__setattr__(self, "guard",
                           _atoms(self.guard, GUARD_OPS, f"action {self.action!r}"))
        object.__setattr__(self, "branches", tuple(self.branches))
        total = Fraction(0)
        for b in self.branches:
            if not 0 <= b.weight <= 1:
                raise ModelError(f"action {self.action!r}: branch weight {b.weight} outside [0, 1]")
            total += b.weight
        if total != 1:
            raise ModelError(f"action {self.action!r}: branch weights sum to {total}, not 1")


@dataclass(frozen=True)
class TemplateModule:
    """A named set of variables, the templates that may update them, and labels.

    ``labels`` maps each atomic proposition to the guard of the states that
    carry it. Guards may read foreign variables (see :attr:`reads`), but
    updates write only declared ones.
    """

    name: str
    variables: tuple[VarDecl, ...]
    templates: tuple[TransitionTemplate, ...]
    labels: Mapping[str, tuple[tuple[str, str, int], ...]] = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "templates", tuple(self.templates))
        object.__setattr__(self, "labels", {
            prop: _atoms(guard, GUARD_OPS, f"label {prop!r}")
            for prop, guard in dict(self.labels).items()})
        names = set(self.var_names)
        if len(names) != len(self.variables):
            raise ModelError(f"module {self.name}: duplicate variable declarations")
        for t in self.templates:
            for b in t.branches:
                for var, _, _ in b.update:
                    if var not in names:
                        raise ModelError(f"module {self.name}: action {t.action!r} "
                                         f"writes undeclared variable {var!r}")

    @property
    def reads(self) -> tuple[str, ...]:
        """Foreign variables that guards consult, sorted.

        A module with any only becomes expandable after composition with the
        module that declares them.
        """
        guards = [t.guard for t in self.templates] + list(self.labels.values())
        return tuple(sorted({var for g in guards for var, _, _ in g} - set(self.var_names)))

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.variables)

    @property
    def actions(self) -> frozenset[str]:
        return frozenset(t.action for t in self.templates)


class MdpBuilder:
    """Collects an MDP's choices, state by state, in the flat layout of :class:`Mdp`.

    The one place where a choice's repeated outcomes are merged and its
    targets sorted. Action names and exact masses are interned in tables.
    """

    def __init__(self):
        self.actions: list[str] = []
        self.weights: list[Fraction] = []
        self._ids: dict = {}  # names and masses never compare equal: one index serves both
        self.first_choice, self.first_edge = array("q", [0]), array("q", [0])
        self.choice_action, self.targets, self.weight_ids = array("i"), array("i"), array("i")

    def _intern(self, table: list, item) -> int:
        i = self._ids.get(item)
        if i is None:
            i = self._ids[item] = len(table)
            table.append(item)
        return i

    def weight_id(self, mass: Fraction) -> int:
        return self._intern(self.weights, mass)

    def add_state(self, choices: list[tuple[str, list[tuple[int, int]]]]) -> None:
        """Append the next state's choices, each ``(action, pairs)``."""
        for action, pairs in choices:
            self.add_choice(self._intern(self.actions, action), pairs)
        self.first_choice.append(len(self.choice_action))

    def add_choice(self, aid: int, pairs: list[tuple[int, int]]) -> None:
        """Append a choice of action id ``aid`` to the state being built; its
        ``(target, weight id)`` pairs may repeat a target and come in any order."""
        targets, ids, weights = self.targets, self.weight_ids, self.weights
        pairs.sort()
        last = -1
        for t, w in pairs:
            if t == last:
                ids[-1] = self.weight_id(weights[ids[-1]] + weights[w])
            else:
                targets.append(t)
                ids.append(w)
                last = t
        self.choice_action.append(aid)
        self.first_edge.append(len(targets))


def radices(ranges) -> list[int]:
    """Each position's place value in a state code: the product of the earlier range sizes."""
    return [math.prod(high - low + 1 for low, high in ranges[:p]) for p in range(len(ranges))]


def decode(code: int, ranges) -> tuple[int, ...]:
    """The valuation, over the ``(low, high)`` ranges, whose state code is ``code``."""
    return tuple(code // r % (high - low + 1) + low
                 for r, (low, high) in zip(radices(ranges), ranges))


class _Valuations(Sequence):
    """A model's state valuations, each decoded only when it is read."""

    def __init__(self, m: "Mdp"):
        self.m = m

    def __len__(self) -> int:
        return self.m.state_count

    def __getitem__(self, s: int) -> tuple[int, ...]:
        return decode(self.m.codes[s], self.m.ranges)


class Mdp:
    """An explicit-state MDP over valuations of bounded integer variables.

    State ``s`` is one integer, ``codes[s]``: the code sum((x_p - low_p) * r_p) of
    its valuation over the declared ``ranges``, with r_p from :func:`radices`.
    ``codes`` is an ``array("Q")``, or a list where codes may be wider than 64 bits.
    :attr:`states` decodes valuations on access; :meth:`reader` reads digits.
    Transitions are stored flat, as in sparse matrices with row groups (Hensel
    et al., "The probabilistic model checker Storm", STTT 24, 2022): state
    ``s`` owns the choices ``first_choice[s]`` up to ``first_choice[s + 1]``,
    choice ``c`` is labelled ``actions[choice_action[c]]`` and owns the edges
    ``first_edge[c]`` up to ``first_edge[c + 1]``, and edge ``e`` goes to
    ``targets[e]`` with the exact mass ``weights[weight_ids[e]]``. Within a
    choice, targets strictly increase. State 0 is initial. ``labels[s]`` (state
    ``s``'s propositions) and ``ap`` (the model's) are frozensets, kept as given. Instances
    are treated as immutable once built; any number of concurrent readers is safe.
    """

    __slots__ = ("variables", "ranges", "codes", "labels", "ap", "actions", "weights",
                 "first_choice", "choice_action", "first_edge", "targets", "weight_ids")

    def __init__(self, variables, ranges, codes, labels, rows: MdpBuilder, ap):
        self.variables, self.ranges, self.codes = tuple(variables), tuple(ranges), codes
        self.labels, self.ap = labels, ap
        self.actions, self.weights = tuple(rows.actions), tuple(rows.weights)
        self.first_choice, self.choice_action, self.first_edge = (
            rows.first_choice, rows.choice_action, rows.first_edge)
        self.targets, self.weight_ids = rows.targets, rows.weight_ids
        if not len(codes) == len(self.first_choice) - 1 == len(self.labels):
            raise ModelError("state codes, transition rows and labels must have equal length")

    @property
    def state_count(self) -> int:
        return len(self.codes)

    @property
    def states(self) -> Sequence[tuple[int, ...]]:
        return _Valuations(self)

    def reader(self, names: Sequence[str]) -> Callable[[int], tuple[int, ...]]:
        """A function from a state code to the values of ``names``, in that
        order, that reads only their digits."""
        places = radices(self.ranges)
        digits = [(places[i], high - low + 1, low) for i in map(self.variables.index, names)
                  for low, high in [self.ranges[i]]]
        return lambda code: tuple([code // r % n + low for r, n, low in digits])

    @property
    def transition_count(self) -> int:
        """Number of probabilistic edges (support entries over all choices)."""
        return len(self.targets)

    def choices(self, s: int) -> list[tuple[str, tuple[tuple[int, Fraction], ...]]]:
        """State ``s``'s choices in order, each as ``(action, ((target, mass), ...))``."""
        fe, tg, wi = self.first_edge, self.targets, self.weight_ids
        return [(self.actions[self.choice_action[c]],
                 tuple((tg[e], self.weights[wi[e]]) for e in range(fe[c], fe[c + 1])))
                for c in range(self.first_choice[s], self.first_choice[s + 1])]

    def states_with(self, prop: str) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if prop in lab]

    def __repr__(self) -> str:
        return f"<Mdp {self.state_count} states, {self.transition_count} transitions>"


def _intervals(guard, pos: dict[str, int], ranges) -> tuple[tuple[int, int, int], ...]:
    """Compile guard atoms into ``(position, low, high)`` tests: within a variable's
    declared range, ``x < k`` is ``low <= x <= k - 1`` and ``x >= k`` is ``k <= x <= high``."""
    return tuple((pos[var], ranges[pos[var]][0] if op == "<" else k,
                  k if op == "=" else k - 1 if op == "<" else ranges[pos[var]][1])
                 for var, op, k in guard)


def expand(module: TemplateModule) -> Mdp:
    """Breadth-first expansion of a template module into its reachable MDP.

    Only states reachable from the declared initial valuation are generated;
    state indices follow discovery order, so the result is deterministic for
    a fixed template ordering. States carry the module's labels, and the
    model's atomic propositions are the label names.

    States are codes (see :class:`Mdp`), tested once per interval class: a
    position is cut at each test's low and high + 1 and, for a ``+k`` write,
    at low - k and high - k + 1, so values between two cuts pass the same
    tests and leave the range together. A class memoises its label and, per
    enabled template, the action id and each branch's code delta. A
    successor's code is its parent's plus the delta and its class its
    parent's with the written positions moved. Digits are read only for an
    ``=k`` write to a position the class does not pin and, at a new state,
    for a ``+k`` write that may cross a cut.

    The discovery index forgets states behind the frontier, as in the sweep-line
    method (Christensen, Kristensen & Mailund, TACAS 2001). A *raised* position
    is one that every branch writes, if at all, with ``+k``, k >= 0, so its digit
    never falls along an edge. With one, from 4,096 states on, the index keeps only
    codes whose digit at the widest raised position is at least the least digit
    of the state being expanded and the unexpanded ones; no other can recur.
    The next prune waits until the states have grown by the index's size.
    Codes are kept unboxed, in an ``array("Q")``, when they fit 64 bits.
    """
    missing = list(module.reads)
    if missing:
        raise ModelError(
            f"module {module.name}: unresolved foreign reads {missing}; compose first")
    names, ranges = module.var_names, [(d.low, d.high) for d in module.variables]
    pos, place, rows = {name: i for i, name in enumerate(names)}, radices(ranges), MdpBuilder()
    compiled, cuts = [], {}
    for t in module.templates:
        # A successor reached only with mass 0 must not be explored, so zero
        # branches go here.
        branches = tuple((rows.weight_id(b.weight), tuple(
            (pos[var], op == "+", k) for var, op, k in b.update)) for b in t.branches if b.weight)
        for p, _, k in (atom for _, update in branches for atom in update if atom[1]):
            cuts.setdefault(p, set()).update((ranges[p][0] - k, ranges[p][1] - k + 1))
        compiled.append((t.action, _intervals(t.guard, pos, ranges), branches))
    label_tests = [(prop, _intervals(g, pos, ranges)) for prop, g in module.labels.items()]
    items = [c[1] for c in compiled] + [tests for _, tests in label_tests]
    for p, low, high in (test for tests in items for test in tests):
        cuts.setdefault(p, set()).update((low, high + 1))
    tested = sorted(cuts)
    slot, cut_lists = {p: j for j, p in enumerate(tested)}, [sorted(cuts[p]) for p in tested]
    # A class id has one mixed-radix digit per tested position, its interval index.
    # Bit b of masks[j][i]: item b (templates, then labels) admits interval i of
    # position tested[j], whose values are below cuts[0] (i = 0) or from cuts[i - 1].
    scale = radices([(0, len(cl)) for cl in cut_lists])
    masks = [[sum(1 << b for b, tests in enumerate(items)
                  if all(low <= x <= high for q, low, high in tests if q == p))
              for x in [cl[0] - 1] + cl] for p, cl in zip(tested, cut_lists)]

    @functools.cache
    def step(p, add, k, i):
        """An update atom ``(p, add, k)`` applied in interval ``i`` of position ``p``
        (any, if untested): ``(code delta, class delta, sets, shifts)``, or None
        if the write leaves the range."""
        (low, high), j = ranges[p], slot.get(p)
        cl = () if j is None else cut_lists[j]
        lo, hi = max(low, cl[i - 1]) if i else low, min(high, cl[i] - 1) if i < len(cl) else high
        new = (lo + k, hi + k) if add else (k, k)
        if not low <= new[0] <= high:
            return None
        delta = (new[0] - lo) * place[p] if lo == hi or add else 0
        sets = () if lo == hi or add else ((place[p], high - low + 1, k - low),)
        if j is None:
            return delta, 0, sets, ()
        to = bisect_right(cl, new[0])
        if to == bisect_right(cl, new[1]):
            return delta, (to - i) * scale[j], sets, ()
        return delta, -i * scale[j], sets, ((place[p], high - low + 1, low, cl, scale[j]),)

    def classify(cid, code):
        """Class ``cid``'s label and choices ``(action id, branches)``; a template
        fault raises, naming ``code``, the class's first state."""
        key = [cid // r % (len(cl) + 1) for r, cl in zip(scale, cut_lists)]
        bits, at = -1, dict(zip(tested, key))
        for i, row in zip(key, masks):
            bits &= row[i]
        choices, seen = [], set()
        for b, (action, _, branches) in enumerate(compiled):
            if not bits >> b & 1:
                continue
            if action in seen:
                raise ModelError(f"module {module.name}: two templates for action "
                                 f"{action!r} enabled in state {decode(code, ranges)}")
            seen.add(action)
            plan = []
            for wid, update in branches:
                delta, cdelta, sets, shifts = 0, 0, (), ()
                for p, add, k in update:
                    part = step(p, add, k, at.get(p, 0))
                    if part is None:
                        low, high = ranges[p]
                        raise ExplorationError(
                            f"variable {names[p]!r} left its range [{low}, {high}] with value "
                            f"{code // place[p] % (high - low + 1) + low + k if add else k}")
                    delta, cdelta, sets, shifts = (delta + part[0], cdelta + part[1],
                                                   sets + part[2], shifts + part[3])
                plan.append((delta, wid, cdelta, sets, shifts))
            choices.append((rows._intern(rows.actions, action), plan))
        bits >>= len(compiled)
        return frozenset(prop for b, (prop, _) in enumerate(label_tests)
                         if bits >> b & 1), choices

    # The sweep position: the widest raised one with some k > 0 (the first on a tie).
    writes = [atom for _, _, branches in compiled for _, update in branches for atom in update]
    raised = [p for p in range(len(names)) if all(add and k >= 0 for q, add, k in writes if q == p)
              and any(q == p and k for q, _, k in writes)]
    sweep = max(raised, key=lambda p: ranges[p][1] - ranges[p][0], default=None)
    init = sum((d.init - d.low) * r for d, r in zip(module.variables, place))
    codes = array("Q", [init]) if math.prod(h - lo + 1 for lo, h in ranges) <= 2 ** 64 else [init]
    cap, index, labels, memo = STATE_CAP, {init: 0}, [], {}
    stop, shed = cap if sweep is None else min(cap, 4096), 0  # the cap, or the next prune
    frontier = deque([sum(bisect_right(cl, module.variables[p].init) * r
                          for p, cl, r in zip(tested, cut_lists, scale))])
    get, pop, push, add = index.get, frontier.popleft, frontier.append, rows.add_choice
    fc, ca, keep = rows.first_choice, rows.choice_action, codes.append
    for code in codes:  # the iterator also visits the codes appended below
        cid = pop()
        hit = memo.get(cid)
        if hit is None:
            hit = memo[cid] = classify(cid, code)
        label, choices = hit
        labels.append(label)
        for aid, branches in choices:
            pairs = []
            for delta, wid, cdelta, sets, shifts in branches:
                succ = code + delta
                for r, n, v in sets:
                    succ += (v - succ // r % n) * r
                j = get(succ)
                if j is None:
                    j = len(codes)
                    if j >= stop:
                        if j >= cap:
                            raise ExplorationError(f"state cap {cap} exceeded")
                        unit = place[sweep]  # a digit of at least d: c % block >= d * unit
                        block = unit * (ranges[sweep][1] - ranges[sweep][0] + 1)
                        floor = min(c % block for c in codes[len(fc) - 1:]) // unit * unit
                        if floor > shed:  # no entry is left below the last prune's floor
                            index = {c: i for c, i in index.items() if c % block >= floor}
                        get, stop, shed = index.get, min(cap, j + max(len(index), 4096)), floor
                    index[succ] = j
                    keep(succ)
                    for r, n, low, cl, sc in shifts:
                        cdelta += bisect_right(cl, succ // r % n + low) * sc
                    push(cid + cdelta)
                pairs.append((j, wid))
            add(aid, pairs)
        fc.append(len(ca))
    return Mdp(names, ranges, codes, labels, rows, ap=frozenset(module.labels))


def compose_templates(left: TemplateModule, right: TemplateModule,
                      shared: Iterable[str]) -> TemplateModule:
    """Synchronous product of two template modules.

    Actions in ``shared`` fire only when a template of each side is enabled,
    with guards conjoined, updates joined and branch weights multiplied;
    other actions interleave. Either side's guards may read the other side's
    variables (they resolve against the product valuation), but each side
    writes only its own variables. Labels are united and may not share a name.
    """
    shared = frozenset(shared)
    overlap = set(left.var_names) & set(right.var_names)
    if overlap:
        raise CompositionError(f"write-write conflict on variables: {sorted(overlap)}")
    acts_l, acts_r = left.actions, right.actions
    if not shared <= acts_l or not shared <= acts_r:
        missing = sorted(shared - (acts_l & acts_r))
        raise CompositionError(f"shared actions {missing} missing from one alphabet")
    clash = (acts_l & acts_r) - shared
    if clash:
        raise CompositionError(f"non-shared action names appear on both sides: {sorted(clash)}")
    label_clash = left.labels.keys() & right.labels.keys()
    if label_clash:
        raise CompositionError(f"label names appear on both sides: {sorted(label_clash)}")

    templates = [t for t in left.templates + right.templates if t.action not in shared]
    templates += [TransitionTemplate(action, tl.guard + tr.guard, tuple(
        Branch(bl.weight * br.weight, bl.update + br.update)
        for bl in tl.branches for br in tr.branches))
        for action in sorted(shared) for tl in left.templates if tl.action == action
        for tr in right.templates if tr.action == action]
    return TemplateModule(f"{left.name}||{right.name}", left.variables + right.variables,
                          tuple(templates), {**left.labels, **right.labels})
