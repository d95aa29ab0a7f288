"""Min/max reachability probabilities for explicit MDPs.

One engine serves floats and exact ``Fraction``s: ``solve_reach`` answers min
and max in one pass in either arithmetic, and ``exact_reach`` reads one
direction of the exact pair. It solves the strongly connected components sinks
first (topological value iteration: Dai, Mausam & Weld, JAIR 42, 2011), so no
value depends on a stopping rule; floats differ from exact values by rounding
only. One sweep backs the states up in reverse index order, which solves every
``c >= n`` model; where it meets an edge back, a Tarjan DFS from there solves
the components it reaches, and the sweep goes on. One backup serves both
directions where the successors agree, and one elimination a one-action cycle.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count
from operator import mul

from .mdp import Mdp


class QueryError(ValueError):
    """Malformed reachability query (e.g. unknown proposition)."""


class SolverError(RuntimeError):
    """Numeric solve failed."""


@dataclass
class ReachResult:
    """Solved reachability query: both directions plus the solver's effort.

    ``pmin`` and ``pmax`` are floats, or ``Fraction``s when solved exactly.
    ``iterations`` counts the policy evaluations (local linear solves) spent
    on cyclic components, over both directions; an acyclic model needs none.
    """

    pmin: float | Fraction
    pmax: float | Fraction
    iterations: int


def solve_reach(m: Mdp, target: str, *, exact: bool = False) -> ReachResult:
    """Min and max probability, over all schedulers, of eventually hitting the
    target from state 0, in floats or, with ``exact``, in ``Fraction``s."""
    values, rounds = _reach_values(m, target, exact=exact)
    pmin, pmax = ((Fraction if exact else float)(v[0]) for v in values)
    return ReachResult(pmin=pmin, pmax=pmax, iterations=rounds)


def exact_reach(m: Mdp, target: str, direction: str) -> Fraction:
    """Exact rational min or max probability of eventually hitting the target:
    one direction of ``solve_reach(m, target, exact=True)``."""
    if direction not in ("min", "max"):
        raise QueryError(f"direction must be 'min' or 'max', got {direction!r}")
    res = solve_reach(m, target, exact=True)
    return res.pmax if direction == "max" else res.pmin


# --- topological engine ------------------------------------------------------


def _reach_values(m: Mdp, target: str, *, exact: bool):
    """Every state's value, as the pair of lists ``(lo, hi)`` for min and max,
    and the policy evaluations spent.

    Targets are absorbing. One sweep backs the states up in reverse index
    order, solving each state whose edges all go to later states (targets
    ascend within a choice, so its first edge decides). From any other state
    ``_components`` runs, and the sweep skips what it solved, marked in
    Tarjan's ``index``; those arrays come at the first such state, so a
    forward model holds none. Entries not written hold the integer 0, the
    value of a state without actions.
    """
    if target not in m.ap:
        raise QueryError(f"proposition {target!r} is not in the model's alphabet")
    targets = frozenset(m.states_with(target))
    one = Fraction(1) if exact else 1.0
    table = m.weights if exact else [float(w) for w in m.weights]
    fc, fe, tg, wi = m.first_choice, m.first_edge, m.targets, m.weight_ids
    n = m.state_count
    lo, hi = values = [0] * n, [0] * n
    weight, low_at, high_at = table.__getitem__, lo.__getitem__, hi.__getitem__

    def backup(s, floor):
        """Back ``s`` up in both lists; False at an edge to a state at most ``floor``.
        One choice takes no best: a lone edge (of mass 1) passes its successor's
        values on, and where the successors agree one backup serves both. Successors
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
        for v, best in ((lo, min), (hi, max)):
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

    def solve(comp) -> int:
        s = comp[0]
        if len(comp) == 1 and s not in tg[fe[fc[s]]:fe[fc[s + 1]]]:
            backup(s, -1)
            return 0
        acts = {s: [list(zip(tg[fe[c]:fe[c + 1]], map(weight, wi[fe[c]:fe[c + 1]])))
                    for c in range(fc[s], fc[s + 1])] for s in comp}
        return _solve_component(acts, values)

    index = low = None  # Tarjan's arrays
    rounds = 0
    for s in reversed(range(n)):
        if (s in targets if index is None else index[s]) or backup(s, s):
            continue
        if index is None:
            index, low = array("i", [0]) * n, array("i", [0]) * n
            for t in targets:  # past every DFS number: solved
                index[t] = n + 1
        rounds += _components(s, m, index, low, solve)
    return values, rounds


def _components(root, m: Mdp, index, low, solve) -> int:
    """Tarjan's DFS (SIAM J. Comput. 1, 1972), made iterative, from ``root``
    over the states not yet solved. Each strongly connected component goes to
    ``solve`` as it completes, sinks first; returns the sum of what it returns.
    States above ``root`` are solved, and so is each one whose index is past
    every DFS number (a target, or a component solved before): both are leaves.
    """
    fc, fe, tg = m.first_choice, m.first_edge, m.targets
    done, stack, number, rounds = m.state_count + 1, [], count(1), 0

    def visit(s):
        index[s] = low[s] = next(number)
        stack.append(s)
        return s, iter(tg[fe[fc[s]]:fe[fc[s + 1]]])

    work = [visit(root)]
    while work:
        s, succ = work[-1]
        for t in succ:
            if t <= root:
                k = index[t]
                if not k:
                    work.append(visit(t))
                    break
                if k < low[s]:
                    low[s] = k
        else:
            work.pop()
            if work and low[s] < low[work[-1][0]]:
                low[work[-1][0]] = low[s]
            if low[s] == index[s]:
                comp = [stack.pop()]
                while comp[-1] != s:
                    comp.append(stack.pop())
                for t in comp:
                    index[t] = done
                rounds += solve(comp)
    return rounds


def _solve_component(acts, values) -> int:
    """Solve one cyclic SCC in place in the lists ``(lo, hi)``, its exits
    final there, and return the policy evaluations, counted per direction. If
    every state has one action, the SCC is a strongly connected Markov chain
    (every state reaches a positive exit, or none does and all are 0): one
    elimination, with a right-hand side per distinct live exit vector, solves
    it; that counts 1 for max, and 1 for min unless its values are 0.
    """
    if any(len(row) > 1 for row in acts.values()):
        return _improve(acts, values[0], min) + _improve(acts, values[1], max)
    rhs = [{s: sum(w * v[t] for t, w in row[0] if t not in acts) for s, row in acts.items()}
           for v in values]
    alive = [any(b.values()) for b in rhs]
    live = list(compress(rhs, alive))
    xs = _solve_linear(sorted(acts, reverse=True),
                       {s: {t: w for t, w in row[0] if t in acts} for s, row in acts.items()},
                       live[:1] if live[-1] == live[0] else live) if live else [{}]
    for v, x, live_here in zip(values, (xs[0], xs[-1]), alive):
        for s in acts:
            v[s] = x[s] if live_here else 0
    return 1 + alive[0]


def _improve(acts, v, best) -> int:
    """Solve one cyclic SCC in place in ``v`` by policy iteration, and return
    the number of policy evaluations.

    For min, the SCC's Prob0 set (a scheduler can stay inside or leave only to
    value-0 states) keeps 0; outside it every policy leaves the SCC, so strict
    improvement ends at the optimum. Each evaluation takes the least solution:
    states with no path to a positive exit keep 0, and the system left is
    nonsingular, since mass leaks out of it from every state. For max, least
    solutions are Bellman fixpoints once no improvement is left. A repeated
    policy (float round-off between equal actions) also ends the loop. Only
    states with a choice look for an improvement.
    """
    split = {s: [({t: w for t, w in pairs if t in acts},  # (inside weights, exit value)
                  sum(w * v[t] for t, w in pairs if t not in acts)) for pairs in row]
             for s, row in acts.items()}
    if best is min:
        trap, left = set(split), None
        while trap != left:
            left = trap
            trap = {s for s in left if any(not b and left.issuperset(inner)
                                           for inner, b in split[s])}
        for s in trap:
            del split[s]
    policy = dict.fromkeys(split, 0)
    choices = [(s, row) for s, row in split.items() if len(row) > 1]
    seen = set()
    x: dict = {}
    while split:
        seen.add(tuple(policy.values()))
        chosen = {s: split[s][i] for s, i in policy.items()}
        alive, known = {s for s, (_, b) in chosen.items() if b}, None
        while alive != known:
            known = alive
            alive = known | {s for s, (inner, _) in chosen.items() if not known.isdisjoint(inner)}
        x = _solve_linear(sorted(alive, reverse=True),
                          {s: {t: w for t, w in chosen[s][0].items() if t in alive} for s in alive},
                          [{s: chosen[s][1] for s in alive}])[0]
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


def _solve_linear(order: list[int], rows: dict[int, dict[int, Fraction]],
                  rhs: list[dict[int, Fraction]]) -> list[dict[int, Fraction]]:
    """Solve x = A x + b by elimination in the given variable order, for each
    b in ``rhs`` with the same operations as alone; one solution per b. Each
    ``rows[s]`` maps variables of ``order`` to their coefficients. A pivot goes
    into every row left, with no sparsity bookkeeping, since the models'
    components have a few states; any order is correct, reverse topological
    order keeps fill-in small."""
    solved: dict[int, tuple[dict[int, Fraction], list[Fraction]]] = {}
    for s in order:
        row = rows.pop(s)
        bs = [b.pop(s) for b in rhs]
        diag = row.pop(s, 0)
        if diag == 1:
            raise SolverError("singular reachability system (probability-1 self loop)")
        if diag:
            scale = 1 / (1 - diag)
            row = {t: c * scale for t, c in row.items()}
            bs = [b * scale for b in bs]
        solved[s] = (row, bs)
        for p, prow in rows.items():
            coef = prow.pop(s, None)
            if coef is None:
                continue
            for t, c in row.items():
                cur = prow.get(t)
                prow[t] = coef * c if cur is None else cur + coef * c
            for b, r in zip(bs, rhs):
                r[p] = r[p] + coef * b
    values: list[dict[int, Fraction]] = [{} for _ in rhs]
    for s in reversed(order):
        row, bs = solved[s]
        for b, x in zip(bs, values):
            x[s] = b + sum(c * x[t] for t, c in row.items())
    return values
