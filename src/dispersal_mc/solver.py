"""Min/max reachability probabilities for explicit MDPs.

One engine serves floats (``solve_reach``) and exact ``Fraction``s
(``exact_reach``). It solves the strongly connected components sinks first
(topological value iteration: Dai, Mausam & Weld, JAIR 42, 2011), so no value
depends on a stopping rule; floats differ from exact values by rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .mdp import Distribution, Mdp, sccs


class QueryError(ValueError):
    """Malformed reachability query (e.g. unknown proposition)."""


class SolverError(RuntimeError):
    """Numeric solve failed."""


class ExactCapError(RuntimeError):
    """The model exceeds the configured size cap of the exact solver."""


EXACT_STATE_CAP = 20_000


@dataclass
class ReachResult:
    """Solved reachability query: both directions plus the solver's effort.

    ``iterations`` counts the policy evaluations (local linear solves) spent
    on cyclic components, over both directions; an acyclic model needs none.
    """

    pmin: float
    pmax: float
    iterations: int


def target_states(m: Mdp, target: str) -> frozenset[int]:
    if target not in m.ap:
        raise QueryError(f"proposition {target!r} is not in the model's alphabet")
    return frozenset(m.states_with(target))


def _predecessors(m: Mdp) -> list[list[tuple[int, str]]]:
    pred: list[list[tuple[int, str]]] = [[] for _ in m.states]
    for s, row in enumerate(m.transitions):
        for action, dist in row.items():
            for t in dist.support:
                pred[t].append((s, action))
    return pred


def _backward_reach(m: Mdp, sources: Iterable[int], pred,
                    blocked: frozenset[int] = frozenset()) -> set[int]:
    """States with a path to ``sources`` whose interior avoids ``blocked``."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        t = stack.pop()
        for s, _ in pred[t]:
            if s not in seen and s not in blocked:
                seen.add(s)
                stack.append(s)
    return seen


def _prob0_max(m: Mdp, targets: frozenset[int], pred) -> frozenset[int]:
    """States from which no scheduler reaches the target with positive probability."""
    can_reach = _backward_reach(m, targets, pred)
    return frozenset(range(len(m.states))) - can_reach


def _prob1_max(m: Mdp, targets: frozenset[int], pred) -> frozenset[int]:
    """States where some scheduler reaches the target almost surely.

    Classic nested fixpoint: the outer loop shrinks a candidate set X, the
    inner loop grows, inside X, the set of states that can step toward the
    target without ever risking a fall out of X. The inner fixpoint runs as a
    predecessor worklist.
    """
    supports = [{action: dist.support for action, dist in row.items()}
                for row in m.transitions]
    x = set(range(len(m.states)))
    while True:
        in_y = [False] * len(m.states)
        for t in targets:
            in_y[t] = True
        worklist = list(targets)
        count = len(targets)
        while worklist:
            t = worklist.pop()
            for s, action in pred[t]:
                if in_y[s] or s not in x:
                    continue
                if all(u in x for u in supports[s][action]):
                    in_y[s] = True
                    count += 1
                    worklist.append(s)
        if count == len(x):
            return frozenset(s for s in x)
        x = {s for s in x if in_y[s]}


def _prob0_min(m: Mdp, targets: frozenset[int], pred) -> frozenset[int]:
    """States where some scheduler avoids the target forever.

    Greatest fixpoint: a state stays while it is not a target and either has
    no choices at all or has a choice whose entire support stays. Removal
    cascades run over a predecessor worklist with per-choice counters of
    successors already outside the set.
    """
    n = len(m.states)
    removed = [False] * n
    for t in targets:
        removed[t] = True
    out_count: dict[tuple[int, str], int] = {}
    safe_choices = [0] * n
    for s, row in enumerate(m.transitions):
        for action, dist in row.items():
            cnt = sum(1 for u in dist.support if removed[u])
            out_count[(s, action)] = cnt
            if cnt == 0:
                safe_choices[s] += 1
    worklist = []
    for s, row in enumerate(m.transitions):
        if not removed[s] and row and safe_choices[s] == 0:
            removed[s] = True
            worklist.append(s)
    while worklist:
        t = worklist.pop()
        for s, action in pred[t]:
            if removed[s]:
                continue
            key = (s, action)
            out_count[key] += 1
            if out_count[key] == 1:
                safe_choices[s] -= 1
                if safe_choices[s] == 0 and m.transitions[s]:
                    removed[s] = True
                    worklist.append(s)
    return frozenset(s for s in range(n) if not removed[s])


def _prob1_min(m: Mdp, targets: frozenset[int], pred,
               prob0min: frozenset[int]) -> frozenset[int]:
    """States where every scheduler reaches the target almost surely.

    The complement is exactly the set with a target-free path into the region
    where some scheduler avoids the target forever.
    """
    bad = _backward_reach(m, prob0min, pred, blocked=targets)
    return frozenset(range(len(m.states))) - frozenset(bad)


def qualitative_sets(m: Mdp, target: str, direction: str) -> tuple[frozenset[int], frozenset[int]]:
    """Graph-only (Prob0, Prob1) sets for one optimization direction."""
    targets = target_states(m, target)
    pred = _predecessors(m)
    if direction == "max":
        return _prob0_max(m, targets, pred), _prob1_max(m, targets, pred)
    if direction == "min":
        p0 = _prob0_min(m, targets, pred)
        return p0, _prob1_min(m, targets, pred, p0)
    raise QueryError(f"direction must be 'min' or 'max', got {direction!r}")


def solve_reach(m: Mdp, target: str) -> ReachResult:
    """Min and max probability, over all schedulers, of eventually hitting the target."""
    (vmin, vmax), rounds = _reach_values(m, target, (min, max), exact=False)
    return ReachResult(pmin=float(_at_initial(m, vmin)),
                       pmax=float(_at_initial(m, vmax)), iterations=rounds)


def check_pctl_interval(m: Mdp, a, b, target: str, *, exact: bool = False) -> bool:
    """Does the probability of eventually hitting the target lie in [a, b]
    under every scheduler?

    Holds iff a <= pmin and pmax <= b.
    """
    a, b = Fraction(a), Fraction(b)
    if not 0 <= a <= b <= 1:
        raise QueryError(f"need 0 <= a <= b <= 1, got [{a}, {b}]")
    if exact:
        return (a <= exact_reach(m, target, "min")
                and exact_reach(m, target, "max") <= b)
    res = solve_reach(m, target)
    return float(a) <= res.pmin and res.pmax <= float(b)


def exact_reach(m: Mdp, target: str, direction: str, *,
                cap: int = EXACT_STATE_CAP) -> Fraction:
    """Exact rational min or max probability of eventually hitting the target."""
    if direction not in ("min", "max"):
        raise QueryError(f"direction must be 'min' or 'max', got {direction!r}")
    if len(m.states) > cap:
        raise ExactCapError(
            f"model has {len(m.states)} states, above the exact-solver cap {cap}")
    (values,), _ = _reach_values(m, target, (max if direction == "max" else min,),
                                 exact=True)
    return _at_initial(m, values)


# --- topological engine ------------------------------------------------------


def _at_initial(m: Mdp, values):
    return sum((w * values[s] for s, w in m.initial.items()), Fraction(0))


def _reach_values(m: Mdp, target: str, bests, *, exact: bool):
    """Every state's value, one list per direction (``min`` or ``max`` in
    ``bests``), and the policy evaluations spent.

    Targets are absorbing, so each is an SCC of its own. Unsolved entries
    hold the integer 0, which is also the value of a state without actions.
    """
    targets = target_states(m, target)
    one = Fraction(1) if exact else 1.0
    weights = Distribution.items if exact else Distribution.floats
    values = [[0] * len(m.states) for _ in bests]
    rounds = 0
    for scc in sccs(m, targets):
        if len(scc) == 1:
            s = scc[0]
            if s in targets:
                for v in values:
                    v[s] = one
                continue
            row = [weights(d) for d in m.transitions[s].values()]
            if all(t != s for pairs in row for t, _ in pairs):
                for v, best in zip(values, bests):
                    if row:
                        v[s] = best(sum(w * v[t] for t, w in pairs if v[t]) for pairs in row)
                continue
            acts = {s: row}
        else:
            acts = {s: [weights(d) for d in m.transitions[s].values()] for s in scc}
        for v, best in zip(values, bests):
            rounds += _solve_component(acts, v, best)
    return values, rounds


def _solve_component(acts, v, best) -> int:
    """Solve one cyclic SCC in place by policy iteration, its exits final in ``v``.

    Each action becomes (its weights inside the SCC, the value it collects
    from its exits). For min, the SCC's Prob0 set (a scheduler can stay inside
    or leave only to value-0 states) keeps 0; outside it every policy leaves
    the SCC, so strict improvement ends at the optimum. For max, ``_evaluate``
    takes least solutions, which are Bellman fixpoints once no improvement is
    left. A repeated policy (float round-off between equal actions) also ends
    the loop. Returns the number of policy evaluations.
    """
    split = {s: [({t: w for t, w in pairs if t in acts},
                  sum(w * v[t] for t, w in pairs if t not in acts)) for pairs in row]
             for s, row in acts.items()}
    if best is min:
        trap = set(split)
        shrunk = True
        while shrunk:
            shrunk = False
            for s in list(trap):
                if all(b or not trap.issuperset(inner) for inner, b in split[s]):
                    trap.discard(s)
                    shrunk = True
        for s in trap:
            del split[s]
    policy = dict.fromkeys(split, 0)
    seen = set()
    x: dict = {}
    while split:
        seen.add(tuple(policy.values()))
        x = _evaluate({s: split[s][i] for s, i in policy.items()})
        for s, row in split.items():
            qs = [b + sum(w * x.get(t, 0) for t, w in inner.items()) for inner, b in row]
            i = best(range(len(qs)), key=qs.__getitem__)
            if qs[i] != qs[policy[s]]:  # switch on a strict improvement only
                policy[s] = i
        if tuple(policy.values()) in seen:
            break
    for s in acts:
        v[s] = x.get(s, 0)
    return len(seen)


def _evaluate(chosen) -> dict:
    """Least solution of x = inner x + b under one action per state.

    Only states with a path to a positive exit are solved; the others,
    absent from the result, have value 0. The system left is nonsingular,
    since mass leaks out of it from every state.
    """
    alive = {s for s, (_, b) in chosen.items() if b}
    grew = True
    while grew:
        grew = False
        for s, (inner, _) in chosen.items():
            if s not in alive and not alive.isdisjoint(inner):
                alive.add(s)
                grew = True
    rows = {s: {t: w for t, w in chosen[s][0].items() if t in alive} for s in alive}
    return _solve_linear(sorted(alive, reverse=True), rows,
                         {s: chosen[s][1] for s in alive})


def _solve_linear(order: list[int], rows: dict[int, dict[int, Fraction]],
                  rhs: dict[int, Fraction]) -> dict[int, Fraction]:
    """Solve x = A x + b by sparse elimination in the given variable order.

    Each ``rows[s]`` maps successor variables to their coefficients. The
    elimination order should roughly follow reverse topological order to keep
    fill-in small; correctness does not depend on it.
    """
    pred: dict[int, set[int]] = {s: set() for s in order}
    for s, row in rows.items():
        for t in row:
            if t in pred:
                pred[t].add(s)
    solved: dict[int, tuple[dict[int, Fraction], Fraction]] = {}
    remaining = set(order)
    for s in order:
        row = rows.pop(s)
        b = rhs.pop(s)
        diag = row.pop(s, 0)
        if diag == 1:
            raise SolverError("singular reachability system (probability-1 self loop)")
        if diag:
            scale = 1 / (1 - diag)
            row = {t: c * scale for t, c in row.items()}
            b *= scale
        solved[s] = (row, b)
        remaining.discard(s)
        for p in list(pred[s]):
            if p not in remaining:
                continue
            prow = rows[p]
            coef = prow.pop(s, None)
            if coef is None:
                continue
            for t, c in row.items():
                cur = prow.get(t)
                nxt = coef * c if cur is None else cur + coef * c
                if nxt == 0:
                    prow.pop(t, None)
                else:
                    prow[t] = nxt
                    if t in pred:
                        pred[t].add(p)
            rhs[p] = rhs[p] + coef * b
    values: dict[int, Fraction] = {}
    for s in reversed(order):
        row, b = solved[s]
        values[s] = b + sum(c * values[t] for t, c in row.items())
    return values
