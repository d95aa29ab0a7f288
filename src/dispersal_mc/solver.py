"""Min/max reachability probabilities for explicit MDPs.

One engine serves floats (``solve_reach``) and exact ``Fraction``s
(``exact_reach``). It solves the strongly connected components sinks first
(topological value iteration: Dai, Mausam & Weld, JAIR 42, 2011), so no value
depends on a stopping rule; floats differ from exact values by rounding only.
A first sweep backs the states up in reverse index order, each from slices of
the flat arrays; on a model whose discovery order is topological (every
``c >= n`` model) that is the whole solve. At the first edge that does not go
to a later state, a Tarjan pass (:func:`~dispersal_mc.mdp.sccs`) orders the
components instead. A state with one choice whose successors agree in both
directions is backed up once for both, and so is a cyclic component whose
states have one action each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul

from .mdp import Mdp, sccs


class QueryError(ValueError):
    """Malformed reachability query (e.g. unknown proposition)."""


class SolverError(RuntimeError):
    """Numeric solve failed."""


@dataclass
class ReachResult:
    """Solved reachability query: both directions plus the solver's effort.

    ``iterations`` counts the policy evaluations (local linear solves) spent
    on cyclic components, over both directions; an acyclic model needs none.
    """

    pmin: float
    pmax: float
    iterations: int


def solve_reach(m: Mdp, target: str) -> ReachResult:
    """Min and max probability, over all schedulers, of eventually hitting the target."""
    (vmin, vmax), rounds = _reach_values(m, target, (min, max), exact=False)
    return ReachResult(pmin=float(_at_initial(m, vmin)),
                       pmax=float(_at_initial(m, vmax)), iterations=rounds)


def exact_reach(m: Mdp, target: str, direction: str) -> Fraction:
    """Exact rational min or max probability of eventually hitting the target."""
    if direction not in ("min", "max"):
        raise QueryError(f"direction must be 'min' or 'max', got {direction!r}")
    (values,), _ = _reach_values(m, target, (max if direction == "max" else min,),
                                 exact=True)
    return _at_initial(m, values)


# --- topological engine ------------------------------------------------------


def _at_initial(m: Mdp, values):
    return sum((w * values[s] for s, w in m.initial.items()), Fraction(0))


def _reach_values(m: Mdp, target: str, bests, *, exact: bool):
    """Every state's value, one list per direction (``min`` or ``max`` in
    ``bests``), and the policy evaluations spent.

    Targets are absorbing. One sweep backs the states up in reverse index
    order, which is sinks first while every edge out of a non-target goes to
    a later state (targets ascend within a choice, so its first edge decides).
    At the first edge that does not, the SCC pass solves the model again in
    the same lists: each value it reads is one it has already written.
    Entries not written hold the integer 0, the value of a state without actions.
    """
    if target not in m.ap:
        raise QueryError(f"proposition {target!r} is not in the model's alphabet")
    targets = frozenset(m.states_with(target))
    one = Fraction(1) if exact else 1.0
    table = m.weights if exact else [float(w) for w in m.weights]
    fc, fe, tg, wi = m.first_choice, m.first_edge, m.targets, m.weight_ids
    values = [[0] * m.state_count for _ in bests]
    lo, hi = values[0], values[-1]
    weight, low_at, high_at = table.__getitem__, lo.__getitem__, hi.__getitem__

    def backup(s, floor):
        """Back ``s`` up in every list; False at an edge to a state at most ``floor``.
        One choice takes no best: a lone edge (of mass 1) passes its successor's
        values on, and where the successors agree one backup serves all. Successors
        of value 0 are skipped, so a sum of none is the shared integer 0."""
        a, b = fc[s], fc[s + 1]
        if b == a + 1:
            e, f = fe[a], fe[b]
            if tg[e] <= floor:
                return False
            if f == e + 1:
                lo[s], hi[s] = lo[tg[e]], hi[tg[e]]
                return True
            ts = tg[e:f]
            ws, low = list(map(weight, wi[e:f])), list(map(low_at, ts))
            high = list(map(high_at, ts))
            lo[s] = q = sum(map(mul, compress(ws, low), filter(None, low)))
            hi[s] = q if low == high else sum(map(mul, compress(ws, high), filter(None, high)))
            return True
        for v, best in zip(values, bests):
            for c in range(a, b):
                ts = tg[fe[c]:fe[c + 1]]
                if ts[0] <= floor:
                    return False
                vs = list(map(v.__getitem__, ts))
                q = sum(map(mul, compress(map(weight, wi[fe[c]:fe[c + 1]]), vs), filter(None, vs)))
                v[s] = best(v[s], q) if c > a else q
        return True

    for s in targets:
        lo[s] = hi[s] = one
    for s in reversed(range(m.state_count)):
        if s not in targets and not backup(s, s):
            break
    else:
        return values, 0
    rounds = 0
    for scc in sccs(m, targets):
        s = scc[0]  # a target is absorbing, so a component of its own
        if len(scc) > 1 or s not in targets and s in tg[fe[fc[s]]:fe[fc[s + 1]]]:
            acts = {s: [list(zip(tg[fe[c]:fe[c + 1]], map(weight, wi[fe[c]:fe[c + 1]])))
                        for c in range(fc[s], fc[s + 1])] for s in scc}
            rounds += _solve_component(acts, values, bests)
        elif s not in targets:
            backup(s, -1)
    return values, rounds


def _solve_component(acts, values, bests) -> int:
    """Solve one cyclic SCC in place in every list, its exits final there.

    A component where every state has one action is a Markov chain: min and
    max are its least solution, solved once when every exit agrees in all
    lists. Otherwise each direction runs policy iteration. Returns the number
    of policy evaluations, counted per direction as the separate solves do.
    """
    lo, hi = values[0], values[-1]
    if all(len(row) == 1 and all(lo[t] == hi[t] for t, _ in row[0] if t not in acts)
           for row in acts.values()):
        x = _evaluate({s: _split(row[0], acts, lo) for s, row in acts.items()})
        for v in values:
            for s in acts:
                v[s] = x.get(s, 0)
        return sum(best is max or bool(x) for best in bests)
    return sum(_improve(acts, v, best) for v, best in zip(values, bests))


def _split(pairs, acts, v):
    """An action as (its weights inside the SCC, the value it collects from its exits)."""
    return ({t: w for t, w in pairs if t in acts},
            sum(w * v[t] for t, w in pairs if t not in acts))


def _improve(acts, v, best) -> int:
    """Solve one cyclic SCC in place in ``v`` by policy iteration.

    For min, the SCC's Prob0 set (a scheduler can stay inside or leave only to
    value-0 states) keeps 0; outside it every policy leaves the SCC, so strict
    improvement ends at the optimum. For max, ``_evaluate`` takes least
    solutions, which are Bellman fixpoints once no improvement is left. A
    repeated policy (float round-off between equal actions) also ends the
    loop. Only states with a choice look for an improvement. Returns the
    number of policy evaluations.
    """
    split = {s: [_split(pairs, acts, v) for pairs in row] for s, row in acts.items()}
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
    choices = [(s, row) for s, row in split.items() if len(row) > 1]
    seen = set()
    x: dict = {}
    while split:
        seen.add(tuple(policy.values()))
        x = _evaluate({s: split[s][i] for s, i in policy.items()})
        for s, row in choices:
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
