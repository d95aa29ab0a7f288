"""Explicit-state Markov decision processes with exact rational probabilities.

States are valuations of bounded integer variables. Models are built either
directly (for tests and small examples) or by expanding symbolic transition
templates. Parallel composition acts on templates, before expansion
(``compose_templates``).
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Mapping


# Exploration refuses to index more states than this.
STATE_CAP = 5_000_000


class ModelError(Exception):
    """Structural problem in a model definition."""


class CompositionError(ModelError):
    """Illegal parallel composition (variable or action-name conflicts)."""


class ExplorationError(ModelError):
    """State-space exploration left a declared variable range."""


class Distribution:
    """Finitely supported probability mass over integer-indexed outcomes.

    Masses are exact rationals; zero entries are dropped and repeated
    outcomes merged. Holds initial distributions, channel routing and remaps.
    The total is not forced to 1 at construction so that diagnostics can
    inspect broken distributions; use :meth:`is_probability` where it
    matters. Masses are read through :meth:`items`, sorted by outcome.
    """

    __slots__ = ("_items",)

    def __init__(self, masses):
        pairs = masses.items() if isinstance(masses, Mapping) else masses
        acc: dict[int, Fraction] = {}
        for key, mass in pairs:
            mass = mass if isinstance(mass, Fraction) else Fraction(mass)
            if mass.numerator < 0:
                raise ValueError(f"negative mass {mass} for outcome {key}")
            if not mass.numerator:
                continue
            acc[key] = acc[key] + mass if key in acc else mass
        self._items = tuple(sorted(acc.items()))

    @classmethod
    def point(cls, outcome: int) -> "Distribution":
        return cls({outcome: Fraction(1)})

    @classmethod
    def uniform(cls, m: int) -> "Distribution":
        """The uniform distribution over outcomes 1..m."""
        if m < 1:
            raise ValueError("uniform distribution needs at least one outcome")
        share = Fraction(1, m)
        return cls({i: share for i in range(1, m + 1)})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self._items)

    def items(self):
        return self._items

    def total(self) -> Fraction:
        return sum((m for _, m in self._items), Fraction(0))

    def is_probability(self) -> bool:
        return self.total() == 1

    def remap(self, fn: Callable[[int], int]) -> "Distribution":
        """Push the distribution through an outcome mapping, merging masses."""
        return Distribution((fn(k), m) for k, m in self._items)

    def __eq__(self, other) -> bool:
        if isinstance(other, Distribution):
            return self._items == other._items
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {m}" for k, m in self._items)
        return f"Distribution({{{body}}})"


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
        """Append the next state's choices, each ``(action, pairs)``; the
        ``(target, weight id)`` pairs may repeat a target and come in any order."""
        targets, ids, weights = self.targets, self.weight_ids, self.weights
        for action, pairs in choices:
            pairs.sort()
            last = -1
            for t, w in pairs:
                if t == last:
                    ids[-1] = self.weight_id(weights[ids[-1]] + weights[w])
                else:
                    targets.append(t)
                    ids.append(w)
                    last = t
            self.choice_action.append(self._intern(self.actions, action))
            self.first_edge.append(len(targets))
        self.first_choice.append(len(self.choice_action))


class Mdp:
    """An explicit-state MDP over valuations of bounded integer variables.

    Transitions are stored flat, as in sparse matrices with row groups (Hensel
    et al., "The probabilistic model checker Storm", STTT 24, 2022): state
    ``s`` owns the choices ``first_choice[s]`` up to ``first_choice[s + 1]``,
    choice ``c`` is labelled ``actions[choice_action[c]]`` and owns the edges
    ``first_edge[c]`` up to ``first_edge[c + 1]``, and edge ``e`` goes to
    ``targets[e]`` with the exact mass ``weights[weight_ids[e]]``. Within a
    choice, targets strictly increase. Instances are treated as immutable once
    built; any number of concurrent readers is safe.
    """

    __slots__ = ("variables", "states", "initial", "labels", "ap", "actions", "weights",
                 "first_choice", "choice_action", "first_edge", "targets", "weight_ids")

    def __init__(self, variables, states, initial, labels, rows: MdpBuilder, ap=None):
        self.variables = tuple(variables)
        self.states = [tuple(s) for s in states]
        self.initial = initial if isinstance(initial, Distribution) else Distribution(initial)
        self.labels = [frozenset(lab) for lab in labels]
        self.ap = frozenset(ap) if ap is not None else frozenset().union(*self.labels)
        self.actions, self.weights = tuple(rows.actions), tuple(rows.weights)
        self.first_choice, self.choice_action, self.first_edge = (
            rows.first_choice, rows.choice_action, rows.first_edge)
        self.targets, self.weight_ids = rows.targets, rows.weight_ids
        if not len(self.states) == len(self.first_choice) - 1 == len(self.labels):
            raise ModelError("states, transition rows and labels must have equal length")

    @property
    def state_count(self) -> int:
        return len(self.states)

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
        return f"<Mdp {len(self.states)} states, {self.transition_count} transitions>"


def validate(m: Mdp) -> list[str]:
    """Check the defining invariants of an MDP, returning one message per violation.

    An empty list means: the initial distribution sums to exactly 1 over
    states, every table mass is positive, both offset arrays rise from 0 to
    the length of the arrays they index, action and weight ids index their
    tables, and each choice's targets are states in strictly increasing
    order whose masses sum to exactly 1. A broken offset array or action id
    ends the check, since the choices cannot be walked.
    """
    n, fc, fe, tg, wi = len(m.states), m.first_choice, m.first_edge, m.targets, m.weight_ids
    total = m.initial.total()
    problems = [f"initial distribution: mass {total} != 1"] if total != 1 else []
    problems += [f"initial distribution: target {t} is not a state"
                 for t in m.initial.support if not 0 <= t < n]
    problems += [f"weight table: mass {w} is not positive" for w in m.weights if w <= 0]
    for name, offsets, rows, cells in (("first_choice", fc, n, m.choice_action),
                                       ("first_edge", fe, len(m.choice_action), tg),
                                       ("first_edge", fe, len(m.choice_action), wi)):
        if (len(offsets) != rows + 1 or offsets[0] != 0 or offsets[-1] != len(cells)
                or any(a > b for a, b in zip(offsets, offsets[1:]))):
            return problems + [f"{name}: offsets do not rise from 0 to {len(cells)} "
                               f"in {rows + 1} entries"]
    bad = [f"choice {c}: action id {a} is not in the table"
           for c, a in enumerate(m.choice_action) if not 0 <= a < len(m.actions)]
    if bad:
        return problems + bad
    for s in range(n):
        for c in range(fc[s], fc[s + 1]):
            where = f"state {s}, action {m.actions[m.choice_action[c]]!r}"
            mass, last = Fraction(0), -1
            for t, w in zip(tg[fe[c]:fe[c + 1]], wi[fe[c]:fe[c + 1]]):
                if not 0 <= t < n:
                    problems.append(f"{where}: target {t} is not a state")
                elif t <= last:
                    problems.append(f"{where}: target {t} follows {last}, not increasing")
                last = t
                if 0 <= w < len(m.weights):
                    mass += m.weights[w]
                else:
                    problems.append(f"{where}: weight id {w} is not in the table")
            if mass != 1:
                problems.append(f"{where}: mass {mass} != 1")
    return problems


def is_forward(m: Mdp, absorbing: frozenset[int] = frozenset()) -> bool:
    """Whether every edge out of a state not in ``absorbing`` goes to a later state
    (targets ascend, so each choice's first edge decides). Breadth-first
    expansion numbers every model with ``c >= n`` this way."""
    fc, fe, tg = m.first_choice, m.first_edge, m.targets
    return all(tg[fe[c]] > s for s in range(len(m.states)) if s not in absorbing
               for c in range(fc[s], fc[s + 1]))


def sccs(m: Mdp, absorbing: frozenset[int] = frozenset()):
    """Yield the strongly connected components of the transition graph, sinks first.

    A component is yielded only after every component it can reach, so a consumer
    may solve each one from those before it. States in ``absorbing`` have no
    successors. A forward model (:func:`is_forward`) yields its states one by one
    in reverse index order; any other model takes an iterative Tarjan pass.
    """
    n = len(m.states)
    if is_forward(m, absorbing):
        yield from ([s] for s in reversed(range(n)))
        return
    fc, fe, tg = m.first_choice, m.first_edge, m.targets
    index = [0] * n  # DFS number from 1; 0 marks an unvisited state
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    counter = itertools.count(1)

    def visit(s):
        index[s] = low[s] = next(counter)
        stack.append(s)
        on_stack[s] = 1
        succ = () if s in absorbing else tg[fe[fc[s]]:fe[fc[s + 1]]]
        return s, iter(succ)

    for root in range(n):
        if index[root]:
            continue
        work = [visit(root)]
        while work:
            s, succ = work[-1]
            for t in succ:
                if not index[t]:
                    work.append(visit(t))
                    break
                if on_stack[t] and index[t] < low[s]:
                    low[s] = index[t]
            else:
                work.pop()
                if work and low[s] < low[work[-1][0]]:
                    low[work[-1][0]] = low[s]
                if low[s] == index[s]:
                    comp = []
                    while True:
                        t = stack.pop()
                        on_stack[t] = 0
                        comp.append(t)
                        if t == s:
                            break
                    yield comp


def _intervals(guard, pos: dict[str, int], ranges) -> tuple[tuple[int, int, int], ...]:
    """Compile guard atoms into ``(position, low, high)`` tests on a state tuple.

    Within a variable's declared range, ``x < k`` is ``low <= x <= k - 1`` and
    ``x >= k`` is ``k <= x <= high``.
    """
    tests = []
    for var, op, k in guard:
        i = pos[var]
        low, high = ranges[i]
        if op == "=":
            tests.append((i, k, k))
        elif op == "<":
            tests.append((i, low, k - 1))
        else:
            tests.append((i, k, high))
    return tuple(tests)


def expand(module: TemplateModule) -> Mdp:
    """Breadth-first expansion of a template module into its reachable MDP.

    Only states reachable from the declared initial valuation are generated;
    state indices follow discovery order, so the result is deterministic for
    a fixed template ordering. States carry the module's labels, and the
    model's atomic propositions are the label names.

    Guards and labels are tested once per interval class, not once per
    state: the cut points of a tested position are each test's low and
    high + 1, so values between two cuts pass the same tests. The enabled
    templates, in template order, and the label are memoised per class.
    """
    names = module.var_names
    missing = list(module.reads)
    if missing:
        raise ModelError(
            f"module {module.name}: unresolved foreign reads {missing}; compose first")
    pos = {name: i for i, name in enumerate(names)}
    ranges = [(d.low, d.high) for d in module.variables]
    rows = MdpBuilder()
    compiled = []
    for t in module.templates:
        # A successor reached only with mass 0 must not be explored, so zero
        # branches go here.
        branches = tuple(
            (rows.weight_id(b.weight),
             tuple((pos[var], op == "+", k, *ranges[pos[var]]) for var, op, k in b.update))
            for b in t.branches if b.weight != 0)
        compiled.append((t.action, _intervals(t.guard, pos, ranges), branches))
    label_tests = [(prop, _intervals(g, pos, ranges)) for prop, g in module.labels.items()]

    items = [c[1] for c in compiled] + [tests for _, tests in label_tests]
    cuts: dict[int, set[int]] = {}
    for tests in items:
        for p, low, high in tests:
            cuts.setdefault(p, set()).update((low, high + 1))
    tested = sorted(cuts)
    cut_lists = [sorted(cuts[p]) for p in tested]
    pick = itemgetter(*tested) if len(tested) > 1 else lambda s: tuple(s[p] for p in tested)
    # Bit b of masks[j][i]: item b (templates, then labels) admits interval i of
    # position tested[j], whose values are below cuts[0] (i = 0) or from cuts[i - 1].
    masks = [[sum(1 << b for b, tests in enumerate(items)
                  if all(low <= x <= high for q, low, high in tests if q == p))
              for x in [cl[0] - 1] + cl] for p, cl in zip(tested, cut_lists)]

    def classify(key):
        """The templates enabled in interval class ``key`` up to a second one
        for an action, that action (or None) and the class's label."""
        bits = -1
        for row, i in zip(masks, key):
            bits &= row[i]
        enabled, seen, clash = [], set(), None
        for b, (action, _, branches) in enumerate(compiled):
            if bits >> b & 1:
                if action in seen:
                    clash = action
                    break
                seen.add(action)
                enabled.append((action, branches))
        bits >>= len(compiled)
        return enabled, clash, frozenset(prop for b, (prop, _) in enumerate(label_tests)
                                         if bits >> b & 1)

    cap = STATE_CAP
    init_key = tuple(d.init for d in module.variables)
    states: list[tuple[int, ...]] = [init_key]
    index: dict[tuple[int, ...], int] = {init_key: 0}
    labels: list[frozenset[str]] = []
    memo: dict[tuple[int, ...], tuple] = {}
    for s in states:  # a list iterator also visits the states appended below
        key = tuple(map(bisect_right, cut_lists, pick(s)))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = classify(key)
        enabled, clash, label = hit
        labels.append(label)
        row = []
        for action, branches in enabled:
            pairs = []
            for wid, update in branches:
                nv = list(s)
                for p, add, k, low, high in update:
                    val = nv[p] + k if add else k
                    if not low <= val <= high:
                        raise ExplorationError(
                            f"variable {names[p]!r} left its range [{low}, {high}] "
                            f"with value {val}")
                    nv[p] = val
                succ = tuple(nv)
                j = index.get(succ)
                if j is None:
                    j = len(states)
                    if j >= cap:
                        raise ExplorationError(f"state cap {cap} exceeded")
                    index[succ] = j
                    states.append(succ)
                pairs.append((j, wid))
            row.append((action, pairs))
        if clash is not None:
            raise ModelError(f"module {module.name}: two templates for action {clash!r} "
                             f"enabled in state {s}")
        rows.add_state(row)
    return Mdp(names, states, Distribution.point(0), labels, rows, ap=module.labels.keys())


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

    templates: list[TransitionTemplate] = []
    templates.extend(t for t in left.templates if t.action not in shared)
    templates.extend(t for t in right.templates if t.action not in shared)
    for action in sorted(shared):
        for tl in left.templates:
            if tl.action != action:
                continue
            for tr in right.templates:
                if tr.action != action:
                    continue
                templates.append(_product_template(tl, tr))

    return TemplateModule(
        name=f"{left.name}||{right.name}",
        variables=left.variables + right.variables,
        templates=tuple(templates),
        labels={**left.labels, **right.labels},
    )


def _product_template(tl: TransitionTemplate, tr: TransitionTemplate) -> TransitionTemplate:
    branches = tuple(Branch(bl.weight * br.weight, bl.update + br.update)
                     for bl in tl.branches for br in tr.branches)
    return TransitionTemplate(tl.action, tl.guard + tr.guard, branches)
