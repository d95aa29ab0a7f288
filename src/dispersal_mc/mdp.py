"""Explicit-state Markov decision processes with exact rational probabilities.

States are valuations of bounded integer variables. Models are built either
directly (for tests and small examples) or by expanding symbolic transition
templates. Parallel composition acts on templates, before expansion
(``compose_templates``).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
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
    outcomes merged, so this is the one place where masses are summed. The
    total is not forced to 1 at construction so that diagnostics can inspect
    broken distributions; use :meth:`is_probability` where it matters. Masses
    are read through :meth:`items`, sorted by outcome.
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

    def floats(self) -> tuple[tuple[int, float], ...]:
        return tuple((k, float(m)) for k, m in self._items)

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


class Mdp:
    """An explicit-state MDP over valuations of bounded integer variables.

    Instances are treated as immutable once built; any number of concurrent
    readers is safe.
    """

    __slots__ = ("variables", "states", "transitions", "initial", "labels", "ap")

    def __init__(self, variables, states, transitions, initial, labels, ap=None):
        self.variables = tuple(variables)
        self.states = [tuple(s) for s in states]
        self.transitions = list(transitions)
        self.initial = initial if isinstance(initial, Distribution) else Distribution(initial)
        self.labels = [frozenset(lab) for lab in labels]
        if not (len(self.states) == len(self.transitions) == len(self.labels)):
            raise ModelError("states, transitions and labels must have equal length")
        if ap is not None:
            self.ap = frozenset(ap)
        else:
            self.ap = frozenset().union(*self.labels) if self.labels else frozenset()

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        """Number of probabilistic edges (support entries over all choices)."""
        return sum(len(d.items()) for row in self.transitions for d in row.values())

    def states_with(self, prop: str) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if prop in lab]

    def __repr__(self) -> str:
        return f"<Mdp {len(self.states)} states, {self.transition_count} transitions>"


def validate(m: Mdp) -> list[str]:
    """Check the defining invariants of an MDP, returning one message per violation.

    An empty list means: every enabled action's outgoing mass is exactly 1,
    the initial distribution sums to exactly 1, and all transition targets
    are states of the model.
    """
    problems: list[str] = []
    n = len(m.states)
    total = m.initial.total()
    if total != 1:
        problems.append(f"initial distribution: mass {total} != 1")
    for t in m.initial.support:
        if not 0 <= t < n:
            problems.append(f"initial distribution: target {t} is not a state")
    for i, row in enumerate(m.transitions):
        for action, dist in row.items():
            mass = dist.total()
            if mass not in (Fraction(0), Fraction(1)):
                problems.append(f"state {i}, action {action!r}: mass {mass} not in {{0, 1}}")
            for t in dist.support:
                if not 0 <= t < n:
                    problems.append(f"state {i}, action {action!r}: target {t} is not a state")
    return problems


def sccs(m: Mdp, absorbing: frozenset[int] = frozenset()):
    """Yield the strongly connected components of the transition graph, sinks first.

    Iterative Tarjan: a component is yielded only after every component it can
    reach, so a consumer may solve each one from the values of those before
    it. States in ``absorbing`` are treated as having no successors.
    """
    n = len(m.states)
    rows = m.transitions
    index = [0] * n  # DFS number from 1; 0 marks an unvisited state
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    counter = itertools.count(1)

    def visit(s):
        index[s] = low[s] = next(counter)
        stack.append(s)
        on_stack[s] = 1
        succ = () if s in absorbing else [t for d in rows[s].values() for t, _ in d.items()]
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
    """
    names = module.var_names
    missing = list(module.reads)
    if missing:
        raise ModelError(
            f"module {module.name}: unresolved foreign reads {missing}; compose first")
    pos = {name: i for i, name in enumerate(names)}
    ranges = [(d.low, d.high) for d in module.variables]
    compiled = []
    for t in module.templates:
        # Distribution drops zero masses too, but a successor reached only
        # with mass 0 must not be explored, so zero branches go here.
        branches = tuple(
            (b.weight, tuple((pos[var], op == "+", k) for var, op, k in b.update))
            for b in t.branches if b.weight != 0)
        compiled.append((t.action, _intervals(t.guard, pos, ranges), branches))

    init_key = tuple(d.init for d in module.variables)
    states: list[tuple[int, ...]] = [init_key]
    index: dict[tuple[int, ...], int] = {init_key: 0}
    transitions: list[dict[str, Distribution]] = []
    queue: deque[int] = deque([0])

    while queue:
        i = queue.popleft()
        s = states[i]
        row: dict[str, Distribution] = {}
        for action, guard, branches in compiled:
            for p, low, high in guard:
                if not low <= s[p] <= high:
                    break
            else:
                if action in row:
                    raise ModelError(
                        f"module {module.name}: two templates for action {action!r} "
                        f"enabled in state {s}")
                pairs = []
                for weight, update in branches:
                    nv = list(s)
                    for p, add, k in update:
                        val = nv[p] + k if add else k
                        low, high = ranges[p]
                        if not low <= val <= high:
                            raise ExplorationError(
                                f"variable {names[p]!r} left its range [{low}, {high}] "
                                f"with value {val}")
                        nv[p] = val
                    key = tuple(nv)
                    j = index.get(key)
                    if j is None:
                        j = len(states)
                        if j >= STATE_CAP:
                            raise ExplorationError(f"state cap {STATE_CAP} exceeded")
                        index[key] = j
                        states.append(key)
                        queue.append(j)
                    pairs.append((j, weight))
                row[action] = Distribution(pairs)
        transitions.append(row)

    label_tests = [(prop, _intervals(g, pos, ranges)) for prop, g in module.labels.items()]
    interned: dict[frozenset[str], frozenset[str]] = {}
    labels = []
    for s in states:
        lab = frozenset(prop for prop, tests in label_tests
                        if all(low <= s[p] <= high for p, low, high in tests))
        labels.append(interned.setdefault(lab, lab))
    return Mdp(names, states, transitions, Distribution.point(0), labels,
               ap=module.labels.keys())


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
