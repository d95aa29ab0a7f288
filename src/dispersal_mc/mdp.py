"""Explicit-state Markov decision processes with exact rational probabilities.

States are valuations of bounded integer variables. Models are built either
directly (for tests and small examples) or by expanding symbolic transition
templates, and can be combined by synchronous parallel composition.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence


class ModelError(Exception):
    """Structural problem in a model definition."""


class CompositionError(ModelError):
    """Illegal parallel composition (variable or action-name conflicts)."""


class ExplorationError(ModelError):
    """State-space exploration left a declared variable range."""


class Distribution(Mapping):
    """Finitely supported probability mass over integer-indexed outcomes.

    Masses are exact rationals and zero entries are dropped. The total is not
    forced to 1 at construction so that diagnostics can inspect broken
    distributions; use :meth:`is_probability` where it matters.
    """

    __slots__ = ("_items",)

    def __init__(self, masses):
        pairs = masses.items() if isinstance(masses, Mapping) else masses
        acc: dict[int, Fraction] = {}
        for key, mass in pairs:
            mass = mass if isinstance(mass, Fraction) else Fraction(mass)
            if mass < 0:
                raise ValueError(f"negative mass {mass} for outcome {key}")
            if mass == 0:
                continue
            acc[key] = acc.get(key, Fraction(0)) + mass
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

    def __getitem__(self, key) -> Fraction:
        for k, m in self._items:
            if k == key:
                return m
        raise KeyError(key)

    def __iter__(self):
        return (k for k, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key) -> bool:
        return any(k == key for k, _ in self._items)

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


@dataclass(frozen=True)
class Branch:
    """One weighted outcome of a transition template.

    ``update`` maps the source valuation to a partial assignment of new
    variable values; unassigned variables keep their value. ``update_text``
    is the PRISM rendering used by the exporter.
    """

    weight: Fraction
    update: Callable[[Mapping[str, int]], Mapping[str, int]]
    update_text: str = "true"


@dataclass(frozen=True)
class TransitionTemplate:
    """A guarded probabilistic transition in symbolic form."""

    action: str
    guard: Callable[[Mapping[str, int]], bool]
    branches: tuple[Branch, ...]
    guard_text: str = ""

    def __post_init__(self):
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
    """A named set of variables plus the templates that may update them.

    ``reads`` lists foreign variables that guards or updates consult; such a
    module only becomes expandable after composition with the module that
    declares them.
    """

    name: str
    variables: tuple[VarDecl, ...]
    templates: tuple[TransitionTemplate, ...]
    reads: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "templates", tuple(self.templates))
        object.__setattr__(self, "reads", tuple(self.reads))
        names = [d.name for d in self.variables]
        if len(set(names)) != len(names):
            raise ModelError(f"module {self.name}: duplicate variable declarations")

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.variables)

    @property
    def actions(self) -> frozenset[str]:
        return frozenset(t.action for t in self.templates)

    def initial_valuation(self) -> dict[str, int]:
        return {d.name: d.init for d in self.variables}


class Mdp:
    """An explicit-state MDP over valuations of bounded integer variables.

    Instances are treated as immutable once built; any number of concurrent
    readers is safe.
    """

    __slots__ = ("variables", "states", "transitions", "initial", "labels", "ap", "actions", "_index")

    def __init__(self, variables, states, transitions, initial, labels, ap=None):
        self.variables = tuple(variables)
        self.states = [tuple(s) for s in states]
        self.transitions = [dict(row) for row in transitions]
        self.initial = initial if isinstance(initial, Distribution) else Distribution(initial)
        self.labels = [frozenset(lab) for lab in labels]
        if not (len(self.states) == len(self.transitions) == len(self.labels)):
            raise ModelError("states, transitions and labels must have equal length")
        acts: set[str] = set()
        for row in self.transitions:
            acts.update(row)
        self.actions = tuple(sorted(acts))
        if ap is not None:
            self.ap = frozenset(ap)
        else:
            self.ap = frozenset().union(*self.labels) if self.labels else frozenset()
        self._index = {s: i for i, s in enumerate(self.states)}

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        """Number of probabilistic edges (support entries over all choices)."""
        return sum(len(d) for row in self.transitions for d in row.values())

    def valuation(self, i: int) -> dict[str, int]:
        return dict(zip(self.variables, self.states[i]))

    def index_of(self, state: Sequence[int]) -> int:
        return self._index[tuple(state)]

    def states_with(self, prop: str) -> list[int]:
        return [i for i, lab in enumerate(self.labels) if prop in lab]

    def __repr__(self) -> str:
        return (f"<Mdp {len(self.states)} states, {self.transition_count} transitions, "
                f"actions={list(self.actions)}>")


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


def expand(module: TemplateModule,
           labeler: Callable[[Mapping[str, int]], Iterable[str]] | None = None,
           *,
           ap: Iterable[str] | None = None,
           max_states: int = 5_000_000) -> Mdp:
    """Breadth-first expansion of a template module into its reachable MDP.

    Only states reachable from the declared initial valuation are generated;
    state indices follow discovery order, so the result is deterministic for
    a fixed template ordering.
    """
    decls = module.variables
    names = module.var_names
    missing = [v for v in module.reads if v not in names]
    if missing:
        raise ModelError(
            f"module {module.name}: unresolved foreign reads {missing}; compose first")
    ranges = {d.name: (d.low, d.high) for d in decls}

    init = module.initial_valuation()
    init_key = tuple(init[v] for v in names)
    states: list[tuple[int, ...]] = [init_key]
    index: dict[tuple[int, ...], int] = {init_key: 0}
    transitions: list[dict[str, Distribution]] = []
    queue: deque[int] = deque([0])

    while queue:
        i = queue.popleft()
        v = dict(zip(names, states[i]))
        row: dict[str, Distribution] = {}
        for t in module.templates:
            if not t.guard(v):
                continue
            if t.action in row:
                raise ModelError(
                    f"module {module.name}: two templates for action {t.action!r} "
                    f"enabled in state {states[i]}")
            masses: dict[int, Fraction] = {}
            for b in t.branches:
                if b.weight == 0:
                    continue
                upd = b.update(v)
                nv = dict(v)
                for var, val in upd.items():
                    bounds = ranges.get(var)
                    if bounds is None:
                        raise ExplorationError(
                            f"update writes undeclared variable {var!r}")
                    if not bounds[0] <= val <= bounds[1]:
                        raise ExplorationError(
                            f"variable {var!r} left its range [{bounds[0]}, {bounds[1]}] "
                            f"with value {val}")
                    nv[var] = val
                key = tuple(nv[name] for name in names)
                j = index.get(key)
                if j is None:
                    j = len(states)
                    if j >= max_states:
                        raise ExplorationError(f"state cap {max_states} exceeded")
                    index[key] = j
                    states.append(key)
                    queue.append(j)
                masses[j] = masses.get(j, Fraction(0)) + b.weight
            if masses:
                row[t.action] = Distribution(masses)
        transitions.append(row)

    if labeler is None:
        labels = [frozenset()] * len(states)
    else:
        labels = [frozenset(labeler(dict(zip(names, st)))) for st in states]
    return Mdp(names, states, transitions, Distribution.point(0), labels, ap=ap)


def compose_templates(left: TemplateModule, right: TemplateModule,
                      shared: Iterable[str], name: str | None = None) -> TemplateModule:
    """Synchronous product of two template modules.

    Actions in ``shared`` fire only when a template of each side is enabled,
    with branch weights multiplied; other actions interleave. Either side's
    guards may read the other side's variables (they resolve against the
    product valuation), but each side writes only its own variables.
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

    declared = set(left.var_names) | set(right.var_names)
    reads = tuple(sorted((set(left.reads) | set(right.reads)) - declared))
    return TemplateModule(
        name=name or f"{left.name}||{right.name}",
        variables=left.variables + right.variables,
        templates=tuple(templates),
        reads=reads,
    )


def _product_template(tl: TransitionTemplate, tr: TransitionTemplate) -> TransitionTemplate:
    def guard(v, g1=tl.guard, g2=tr.guard):
        return g1(v) and g2(v)

    branches = []
    for bl in tl.branches:
        for br in tr.branches:
            w = bl.weight * br.weight
            if w == 0:
                continue

            def update(v, u1=bl.update, u2=br.update):
                merged = dict(u1(v))
                merged.update(u2(v))
                return merged

            branches.append(Branch(w, update,
                                   update_text=f"{bl.update_text} & {br.update_text}"))
    guard_text = " & ".join(t for t in (tl.guard_text, tr.guard_text) if t)
    return TransitionTemplate(tl.action, guard, tuple(branches), guard_text=guard_text)


def compose(m1: Mdp, m2: Mdp, shared: Iterable[str] = ()) -> Mdp:
    """Synchronous product of two explicit MDPs with disjoint variables.

    Shared actions fire only when enabled on both sides (the product of the
    two distributions); a shared action enabled on one side only is blocked.
    All other actions interleave, leaving the other component untouched.
    Only the fragment reachable from the product initial distribution is
    built.
    """
    shared = frozenset(shared)
    overlap = set(m1.variables) & set(m2.variables)
    if overlap:
        raise CompositionError(f"write-write conflict on variables: {sorted(overlap)}")
    a1, a2 = set(m1.actions), set(m2.actions)
    if not shared <= a1 & a2 and shared:
        missing = sorted(shared - (a1 & a2))
        raise CompositionError(f"shared actions {missing} missing from one alphabet")
    clash = (a1 & a2) - shared
    if clash:
        raise CompositionError(f"non-shared action names appear on both sides: {sorted(clash)}")

    states: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    queue: deque[int] = deque()

    def discover(pair: tuple[int, int]) -> int:
        j = index.get(pair)
        if j is None:
            j = len(states)
            index[pair] = j
            states.append(pair)
            queue.append(j)
        return j

    init_masses: dict[int, Fraction] = {}
    for s1, w1 in m1.initial.items():
        for s2, w2 in m2.initial.items():
            init_masses[discover((s1, s2))] = w1 * w2
    initial = Distribution(init_masses)

    transitions: list[dict[str, Distribution]] = []
    while queue:
        i = queue.popleft()
        s1, s2 = states[i]
        row: dict[str, Distribution] = {}
        row1, row2 = m1.transitions[s1], m2.transitions[s2]
        for action, dist in row1.items():
            if action in shared:
                other = row2.get(action)
                if other is None:
                    continue
                masses: dict[int, Fraction] = {}
                for t1, w1 in dist.items():
                    for t2, w2 in other.items():
                        j = discover((t1, t2))
                        masses[j] = masses.get(j, Fraction(0)) + w1 * w2
                row[action] = Distribution(masses)
            else:
                row[action] = Distribution(
                    {discover((t1, s2)): w for t1, w in dist.items()})
        for action, dist in row2.items():
            if action in shared:
                continue
            row[action] = Distribution(
                {discover((s1, t2)): w for t2, w in dist.items()})
        transitions.append(row)

    variables = m1.variables + m2.variables
    out_states = [m1.states[s1] + m2.states[s2] for s1, s2 in states]
    labels = [m1.labels[s1] | m2.labels[s2] for s1, s2 in states]
    return Mdp(variables, out_states, transitions, initial, labels, ap=m1.ap | m2.ap)
