"""Shared test utilities: hand-built MDPs, independent exploration oracles,
small random model generators, and a whole-graph SCC enumeration.

The exploration oracles here interpret the client/intruder semantics directly
on plain tuples, sharing no code with the template engine they check.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from fractions import Fraction

from dispersal_mc import ExplorationError, Mdp, ModelError, ModelParams, TemplateModule
from dispersal_mc.mdp import MdpBuilder


def make_mdp(transitions, labels=None, ap=None, num_states=None):
    """Build an MDP over integer states, initial state 0, from a nested dict.

    ``transitions[s][action]`` maps target states to masses. ``labels`` maps
    state to an iterable of propositions.
    """
    n = num_states
    if n is None:
        n = 0
        for s, row in transitions.items():
            n = max(n, s + 1)
            for dist in row.values():
                for t in dist:
                    n = max(n, t + 1)
        if labels:
            n = max(n, max(labels) + 1)
    rows = MdpBuilder()
    for s in range(n):
        rows.add_state([(action, [(t, rows.weight_id(Fraction(w))) for t, w in dist.items()])
                        for action, dist in transitions.get(s, {}).items()])
    labs = [frozenset(labels.get(s, ())) if labels else frozenset() for s in range(n)]
    ap = frozenset(ap) if ap is not None else frozenset().union(*labs)
    return Mdp(("s",), ((0, n - 1),), list(range(n)), labs, rows, ap=ap)


def validate(m: Mdp) -> list[str]:
    """Check the defining invariants of an MDP, returning one message per violation.

    An empty list means: state codes are distinct and each decodes inside
    the declared ranges, every table mass is positive, both offset arrays
    rise from 0 to the length of the arrays they index, action and weight
    ids index their tables, and each choice's targets are states in strictly
    increasing order whose masses sum to exactly 1. A broken offset array or action id
    ends the check, since the choices cannot be walked.
    """
    n, fc, fe, tg, wi = m.state_count, m.first_choice, m.first_edge, m.targets, m.weight_ids
    size, first = math.prod(high - low + 1 for low, high in m.ranges), {}
    problems = [f"state {s}: code {c} is outside the declared ranges"
                for s, c in enumerate(m.codes) if not 0 <= c < size]
    problems += [f"state {s}: code {c} repeats state {first[c]}"
                 for s, c in enumerate(m.codes) if first.setdefault(c, s) != s]
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


def value_iteration(m: Mdp, target: str, direction: str, tol: float = 1e-13) -> float:
    """Min/max reachability of the initial state 0 by plain value iteration.

    The numeric reference for the solver's SCC engine, sharing none of its
    code. Targets hold 1 and every other state starts at 0; states without
    actions stay there. Gauss-Seidel sweeps over the remaining states, in
    reverse index order, run until no value rises by ``tol`` or more. Both
    Pmin and Pmax are the least fixpoints of their Bellman operators (Baier &
    Katoen, Principles of Model Checking, 2008, 10.6), so iterating from
    below converges to either without any qualitative precomputation.
    """
    targets = set(m.states_with(target))
    v = [1.0 if s in targets else 0.0 for s in range(len(m.states))]
    rows = {s: [[(t, float(w)) for t, w in pairs] for _, pairs in m.choices(s)]
            for s in reversed(range(len(m.states))) if s not in targets and m.choices(s)}
    best = max if direction == "max" else min
    for _ in range(100_000):
        rise = 0.0
        for s, row in rows.items():
            new = best(sum(w * v[t] for t, w in pairs) for pairs in row)
            rise = max(rise, new - v[s])
            v[s] = new
        if rise < tol:
            return v[0]
    raise AssertionError("value iteration did not converge")


def is_forward(m: Mdp, absorbing: frozenset[int] = frozenset()) -> bool:
    """Whether every edge out of a state not in ``absorbing`` goes to a later
    state, so that reverse index order is sinks first. Breadth-first
    expansion numbers every model with ``c >= n`` this way."""
    fc, fe, tg = m.first_choice, m.first_edge, m.targets
    return all(tg[e] > s for s in range(m.state_count) if s not in absorbing
               for e in range(fe[fc[s]], fe[fc[s + 1]]))


def sccs(m: Mdp, absorbing: frozenset[int] = frozenset()):
    """Yield the strongly connected components of the transition graph, sinks first.

    A component is yielded only after every component it can reach, so a consumer
    may solve each one from those before it. States in ``absorbing`` have no
    successors. The pass is Tarjan's, made iterative, over every state; the
    solver runs its own from the states where its sweep stops.
    """
    n, fc, fe, tg = m.state_count, m.first_choice, m.first_edge, m.targets
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
                    while not comp or comp[-1] != s:
                        comp.append(stack.pop())
                        on_stack[comp[-1]] = 0
                    yield comp


def expand_reference(module: TemplateModule):
    """Breadth-first expansion that tests every template in every state and
    keeps one ``{action: masses}`` row per state.

    The reference for the engine's ``expand``, sharing none of its code.
    Returns ``(states, choices, labels, ap)``, where ``choices[s]`` lists
    ``(action, ((target, mass), ...))`` in template order with targets
    ascending. Raises the errors ``expand`` raises, with the same messages.
    """
    pos = {d.name: i for i, d in enumerate(module.variables)}
    ranges = {d.name: (d.low, d.high) for d in module.variables}

    def holds(s, guard):
        return all(s[pos[var]] == k if op == "=" else
                   s[pos[var]] < k if op == "<" else s[pos[var]] >= k
                   for var, op, k in guard)

    init = tuple(d.init for d in module.variables)
    states, index, choices = [init], {init: 0}, []
    queue = deque([0])
    while queue:
        s = states[queue.popleft()]
        row = {}
        for t in module.templates:
            if not holds(s, t.guard):
                continue
            if t.action in row:
                raise ModelError(f"module {module.name}: two templates for action "
                                 f"{t.action!r} enabled in state {s}")
            masses = {}
            for b in t.branches:
                if b.weight == 0:
                    continue
                nv = list(s)
                for var, op, k in b.update:
                    val = nv[pos[var]] + k if op == "+" else k
                    low, high = ranges[var]
                    if not low <= val <= high:
                        raise ExplorationError(f"variable {var!r} left its range "
                                               f"[{low}, {high}] with value {val}")
                    nv[pos[var]] = val
                succ = tuple(nv)
                if succ not in index:
                    index[succ] = len(states)
                    states.append(succ)
                    queue.append(index[succ])
                j = index[succ]
                masses[j] = masses.get(j, 0) + b.weight
            row[t.action] = tuple(sorted(masses.items()))
        choices.append(list(row.items()))
    labels = [frozenset(prop for prop, g in module.labels.items() if holds(s, g))
              for s in states]
    return states, choices, labels, frozenset(module.labels)


def explore_client_states(n, m, c, p):
    """Reachable client states by direct rule-based search.

    State = (pc, picked server, sent count, per-server counts); mirrors the
    intended client behaviour without touching the template machinery.
    """
    positive = [w > 0 for w in p]
    init = (0, 0, 0, (0,) * m)
    seen = {init}
    stack = [init]
    while stack:
        pc, s, ctr, counts = stack.pop()
        if pc == 0 and ctr < n:
            succs = [(1, i, ctr, counts) for i in range(1, m + 1) if positive[i - 1]]
        elif pc == 0 and ctr == n:
            succs = [(2, 0, ctr, counts)]
        elif pc == 1:
            if counts[s - 1] < c:
                bumped = counts[:s - 1] + (counts[s - 1] + 1,) + counts[s:]
                succs = [(0, 0, ctr + 1, bumped)]
            else:
                succs = [(0, 0, ctr, counts)]
        else:
            succs = []
        for t in succs:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


_WEIGHT_PATTERNS = (
    (Fraction(1),),
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
)


def random_mdp(rng: random.Random, max_states=5, actions=("a", "b"), props=("g",)):
    """A small random valid MDP with exact rational distributions."""
    n = rng.randint(1, max_states)
    transitions = {}
    for s in range(n):
        row = {}
        for action in actions:
            if rng.random() < 0.6:
                weights = rng.choice(_WEIGHT_PATTERNS)
                targets = rng.sample(range(n), k=min(len(weights), n))
                dist = {}
                for t, w in zip(targets, weights):
                    dist[t] = dist.get(t, Fraction(0)) + w
                leftover = 1 - sum(dist.values())
                if leftover:
                    t = rng.randrange(n)
                    dist[t] = dist.get(t, Fraction(0)) + leftover
                row[action] = dist
        transitions[s] = row
    labels = {s: tuple(p for p in props if rng.random() < 0.4) for s in range(n)}
    return make_mdp(transitions, labels=labels, num_states=n, ap=props)


def random_forward_mdp(rng: random.Random, max_states=8, actions=("a", "b"), props=("g",)):
    """A small random MDP in which every edge goes to a later state, so the
    states without actions are its sinks. Masses come from a few small
    denominators, so that distinct states often share a block."""
    n = rng.randint(1, max_states)
    transitions = {}
    for s in range(n - 1):
        row = {}
        for action in actions:
            if rng.random() < 0.6:
                succ = rng.sample(range(s + 1, n), min(n - 1 - s, rng.randint(1, 3)))
                parts = [rng.randint(1, 2) for _ in succ]
                row[action] = {t: Fraction(k, sum(parts)) for t, k in zip(succ, parts)}
        transitions[s] = row
    labels = {s: tuple(p for p in props if rng.random() < 0.3) for s in range(n)}
    return make_mdp(transitions, labels=labels, num_states=n, ap=props)


def random_params(rng: random.Random, max_n=6, max_m=3) -> ModelParams:
    """A random valid parameter vector with small exact probabilities."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    c = rng.choice([n, max(1, -(-n // m)), rng.randint(max(1, -(-n // m)), n)])
    k1 = rng.randint(1, n)
    k2 = rng.randint(k1, n)
    a = tuple(Fraction(rng.randint(0, 10), 10) for _ in range(m))
    x = []
    for j in range(k1, n + 1):
        if j < k2:
            lo = x[-1] if x else Fraction(1, 10)
            step_room = [q for q in (Fraction(i, 10) for i in range(1, 10)) if q >= lo]
            x.append(rng.choice(step_room))
        else:
            x.append(Fraction(1))
    skew = rng.random() < 0.3
    if skew and m > 1:
        p = [Fraction(2, m + 1)] + [Fraction(1, (m + 1) * (m - 1)) * 1 for _ in range(m - 1)]
        total = sum(p)
        p = tuple(q / total for q in p)
    else:
        p = tuple(Fraction(1, m) for _ in range(m))
    return ModelParams(n=n, m=m, c=c, k1=k1, k2=k2, a=a, x=tuple(x), p=p)


def same_block(block_of: tuple[int, ...], s: int, t: int) -> bool:
    return block_of[s] == block_of[t]


def all_set_partitions(items):
    """Every partition of a list, as tuples of tuples (exponential; keep small)."""
    items = list(items)
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for sub in all_set_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + ((head,) + sub[i],) + sub[i + 1:]
        yield ((head,),) + sub


def block_masses(m: Mdp, s: int, block_of):
    """Per-action block-mass vectors of one state under a candidate partition."""
    out = {}
    for action, pairs in m.choices(s):
        acc = {}
        for t, w in pairs:
            b = block_of[t]
            acc[b] = acc.get(b, Fraction(0)) + w
        out[action] = acc
    return out


def is_bisimulation_partition(m: Mdp, blocks) -> bool:
    """Check the defining conditions of a probabilistic bisimulation."""
    block_of = {}
    for i, block in enumerate(blocks):
        for s in block:
            block_of[s] = i
    for block in blocks:
        rep = block[0]
        rep_sig = block_masses(m, rep, block_of)
        for s in block[1:]:
            if m.labels[s] != m.labels[rep]:
                return False
            if block_masses(m, s, block_of) != rep_sig:
                return False
    return True


def refine_by_rounds(*models: Mdp) -> tuple[int, ...]:
    """Block ids of the coarsest bisimulation of the disjoint union of
    ``models``, by rounds of signature refinement.

    The reference for the engine's worklist refinement, sharing none of its
    code. Every round re-signs every state by its block and its per-action
    block-mass vectors, and renumbers the blocks by sorting the distinct
    (old block, signature) keys; rounds start from the label partition and
    stop when the block count stays put. Masses are exact integer multiples
    of one common denominator.
    """
    labels, rows = [], []
    for m in models:
        offset = len(rows)
        labels += m.labels
        rows += [[(action, [(t + offset, w) for t, w in pairs]) for action, pairs in m.choices(s)]
                 for s in range(len(m.states))]
    scale = math.lcm(*(w.denominator for row in rows for _, pairs in row for _, w in pairs))
    rows = [{action: [(t, int(w * scale)) for t, w in pairs] for action, pairs in row}
            for row in rows]
    label_keys = sorted({tuple(sorted(lab)) for lab in labels})
    key_id = {k: i for i, k in enumerate(label_keys)}
    block_of = [key_id[tuple(sorted(lab))] for lab in labels]
    num = len(label_keys)
    while True:
        keys = []
        for s, row in enumerate(rows):
            sig = []
            for action in sorted(row):
                acc: dict[int, int] = {}
                for t, k in row[action]:
                    acc[block_of[t]] = acc.get(block_of[t], 0) + k
                sig.append((action, tuple(sorted(acc.items()))))
            keys.append((block_of[s], tuple(sig)))
        distinct = sorted(set(keys))
        if len(distinct) == num:
            return tuple(block_of)
        new_id = {k: i for i, k in enumerate(distinct)}
        block_of = [new_id[k] for k in keys]
        num = len(distinct)


def coarsest_by_bruteforce(m: Mdp):
    """The coarsest bisimulation by exhaustive search over all partitions.

    Only usable for a handful of states. Also asserts the expected structure:
    every bisimulation partition refines the returned one.
    """
    candidates = [blocks for blocks in all_set_partitions(range(len(m.states)))
                  if is_bisimulation_partition(m, blocks)]
    best = min(candidates, key=len)
    best_of = {}
    for i, block in enumerate(best):
        for s in block:
            best_of[s] = i
    for blocks in candidates:
        for block in blocks:
            assert len({best_of[s] for s in block}) == 1, \
                "coarsest bisimulation is not unique"
    return best
