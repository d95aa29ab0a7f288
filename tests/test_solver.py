"""Reachability: the SCC engine in floats and in exact rationals."""

import dataclasses
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from dispersal_mc import Distribution, ModelParams, build_composed
from acceptance_grid import build_grid
from dispersal_mc import solver
from dispersal_mc.configio import load_model_params
from dispersal_mc.experiments import enumerate_oracle
from dispersal_mc.models import HACKED, make_params
from dispersal_mc.solver import QueryError, exact_reach, solve_reach
from helpers import (is_forward, make_mdp, random_forward_mdp, random_mdp, random_params,
                     sccs, value_iteration)

F = Fraction


def exact_pair(m, target, res, reference, tol=1e-9):
    """Both exact directions from one pass, checked against ``reference``, a
    (min, max) pair computed without the engine, to within ``tol``, and
    against the float solve ``res``."""
    pair = solve_reach(m, target, exact=True)
    assert type(pair.pmin) is type(pair.pmax) is Fraction
    for value, exact, ref in zip((res.pmin, res.pmax), (pair.pmin, pair.pmax), reference):
        assert abs(exact - ref) <= tol
        assert abs(value - float(exact)) <= 1e-12 * float(exact)
    return pair


def slice_anchor_model():
    params = ModelParams(n=2, m=1, c=2, k1=1, k2=1, a=(F(1, 2),),
                         x=(F(1), F(1)), p=(F(1),))
    return build_composed(params, "slice")


@pytest.fixture
def roots(monkeypatch):
    """The states the sweep hands to the component pass, in call order."""
    calls = []
    components = solver._components
    monkeypatch.setattr(solver, "_components",
                        lambda root, *args: calls.append(root) or components(root, *args))
    return calls


@pytest.fixture
def eliminations(monkeypatch):
    """The number of right-hand sides of each linear solve, in call order."""
    calls = []
    solve_linear = solver._solve_linear
    monkeypatch.setattr(solver, "_solve_linear", lambda order, rows, rhs:
                        calls.append(len(rhs)) or solve_linear(order, rows, rhs))
    return calls


class TestValueIteration:
    def test_unknown_proposition_rejected(self):
        m = make_mdp({0: {}}, labels={0: ("goal",)})
        with pytest.raises(QueryError):
            solve_reach(m, "nope")
        with pytest.raises(QueryError):
            exact_reach(m, "nope", "max")

    @pytest.mark.parametrize("direction", ["sup", "Max", None])
    def test_unknown_direction_rejected(self, direction):
        m = make_mdp({0: {}}, labels={0: ("goal",)})
        with pytest.raises(QueryError, match="direction must be 'min' or 'max'"):
            exact_reach(m, "goal", direction)

    def test_self_loop_target(self):
        m = make_mdp({0: {"a": {0: 1}}}, labels={0: ("goal",)})
        res = solve_reach(m, "goal")
        assert res.pmin == 1.0
        assert res.pmax == 1.0

    def test_scheduler_extremes(self):
        m = make_mdp({0: {"hit": {1: 1}, "miss": {2: 1}}, 1: {}, 2: {}},
                     labels={1: ("goal",)})
        res = solve_reach(m, "goal")
        assert res.pmax == 1.0
        assert res.pmin == 0.0

    def test_anchor_instance(self):
        res = solve_reach(slice_anchor_model(), HACKED)
        assert res.pmin == pytest.approx(0.75, abs=1e-9)
        assert res.pmax == pytest.approx(0.75, abs=1e-9)
        assert res.iterations == 0  # acyclic: no component needs a linear solve

    def test_bounds_hold_on_random_grid(self):
        rng = random.Random(17)
        for _ in range(20):
            params = random_params(rng, max_n=4, max_m=2)
            for attacker in ("slice", "provider"):
                res = solve_reach(build_composed(params, attacker), HACKED)
                assert -1e-12 <= res.pmin <= res.pmax + 1e-12
                assert res.pmax <= 1 + 1e-12


class TestExactEngine:
    def test_markov_chain_linear_solution(self):
        # v(0) = 1/3 + 1/3 v(0)  =>  v(0) = 1/2
        m = make_mdp({0: {"a": {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}}, 1: {}, 2: {}},
                     labels={1: ("goal",)})
        assert exact_reach(m, "goal", "min") == F(1, 2)
        assert exact_reach(m, "goal", "max") == F(1, 2)

    def test_anchor_is_exactly_three_quarters(self):
        m = slice_anchor_model()
        assert exact_reach(m, HACKED, "min") == F(3, 4)
        assert exact_reach(m, HACKED, "max") == F(3, 4)

    def test_provider_anchor_is_exactly_three_eighths(self):
        params = ModelParams(n=2, m=2, c=2, k1=2, k2=2, a=(F(1, 2), F(1, 2)),
                             x=(F(1),), p=Distribution.uniform(2))
        m = build_composed(params, "provider")
        assert exact_reach(m, HACKED, "min") == F(3, 8)
        assert exact_reach(m, HACKED, "max") == F(3, 8)

    def test_policy_matters(self):
        m = make_mdp({0: {"hit": {1: F(1, 2), 2: F(1, 2)}, "sure": {1: 1}},
                      1: {}, 2: {}},
                     labels={1: ("goal",)})
        assert exact_reach(m, "goal", "max") == 1
        assert exact_reach(m, "goal", "min") == F(1, 2)

    def test_agrees_with_value_iteration_on_random_grid(self):
        rng = random.Random(23)
        cyclic = 0
        for _ in range(12):
            params = random_params(rng, max_n=4, max_m=2)
            tight = dataclasses.replace(params, c=-(-params.n // params.m))
            for p, attacker in itertools.product({params, tight}, ("slice", "provider")):
                model = build_composed(p, attacker)
                cyclic += any(len(c) > 1 for c in sccs(model))
                res = solve_reach(model, HACKED)
                for direction, value in (("min", res.pmin), ("max", res.pmax)):
                    exact = float(exact_reach(model, HACKED, direction))
                    assert abs(value - exact) <= 1e-12
                    assert abs(value - value_iteration(model, HACKED, direction)) <= 1e-9
        assert cyclic >= 4  # tight capacity makes retry loops

    def test_agrees_with_value_iteration_on_random_mdps(self):
        # Unlike the builders' models, these have SCCs of up to 5 states with
        # two actions per state, so min and max differ and the end-component
        # handling of both directions is exercised.
        rng = random.Random(31)
        cyclic = large = 0
        for _ in range(300):
            m = random_mdp(rng)
            sizes = [len(c) for c in sccs(m)]
            cyclic += max(sizes) > 1
            large += max(sizes) > 3
            res = solve_reach(m, "g")
            references = [value_iteration(m, "g", direction) for direction in ("min", "max")]
            pair = exact_pair(m, "g", res, references)
            for value, exact, reference in zip((res.pmin, res.pmax), (pair.pmin, pair.pmax),
                                               references):
                assert abs(value - float(exact)) <= 1e-12
                assert abs(value - reference) <= 1e-9
                assert abs(float(exact) - reference) <= 1e-9
        assert cyclic >= 100 and large >= 20


class TestEndComponents:
    """Hand-made cyclic MDPs: both engines against values derived by hand."""

    @staticmethod
    def solved(m):
        res = solve_reach(m, "goal")
        exact = (exact_reach(m, "goal", "min"), exact_reach(m, "goal", "max"))
        assert (res.pmin, res.pmax) == pytest.approx(exact, abs=1e-15)
        return exact

    def test_min_is_zero_when_a_scheduler_can_circle(self):
        # 0 and 1 form an end component; only 0 can leave it, to a coin flip
        m = make_mdp({0: {"go": {2: F(1, 2), 3: F(1, 2)}, "loop": {1: 1}},
                      1: {"back": {0: 1}}, 2: {}, 3: {}},
                     labels={2: ("goal",)})
        assert self.solved(m) == (0, F(1, 2))

    def test_max_takes_the_better_exit(self):
        m = make_mdp({0: {"exit": {2: F(1, 4), 3: F(3, 4)}, "right": {1: 1}},
                      1: {"exit": {2: F(3, 4), 3: F(1, 4)}, "left": {0: 1}},
                      2: {}, 3: {}},
                     labels={2: ("goal",)})
        assert self.solved(m) == (0, F(3, 4))

    def test_self_loop_singleton(self):
        # "retry" comes back half the time, so it is worth 1/4 / (1 - 1/2)
        m = make_mdp({0: {"retry": {0: F(1, 2), 1: F(1, 4), 2: F(1, 4)},
                          "once": {1: F(1, 3), 2: F(2, 3)}},
                      1: {}, 2: {}},
                     labels={1: ("goal",)})
        assert self.solved(m) == (F(1, 3), F(1, 2))
        with_stay = make_mdp({0: {"retry": {0: F(1, 2), 1: F(1, 2)}, "stay": {0: 1}},
                              1: {}}, labels={1: ("goal",)})
        assert self.solved(with_stay) == (0, 1)

    def test_partial_sweep_value_is_overwritten_by_the_min_trap(self):
        # the reverse sweep writes "a"'s value into 0 before "b" stops it; for
        # min, 0 is a trap (it can stay forever) and must read 0 after all
        m = make_mdp({0: {"a": {1: 1}, "b": {0: 1}}, 1: {}}, labels={1: ("goal",)})
        res = solve_reach(m, "goal")
        assert (res.pmin, res.pmax) == (0.0, 1.0)
        assert self.solved(m) == (0, 1)

    def test_one_action_loop_is_evaluated_once(self, eliminations):
        # 0 and 1 form a retry loop with one action each: a Markov chain, so
        # min and max share one elimination, while iterations count both
        calls = eliminations
        m = make_mdp({0: {"pick": {1: F(1, 2), 3: F(1, 2)}},
                      1: {"retry": {0: F(1, 3), 2: F(2, 3)}}, 2: {}, 3: {}},
                     labels={2: ("goal",)})
        res = solve_reach(m, "goal")
        assert (calls, res.iterations) == ([1], 2)
        assert res.pmin == res.pmax == pytest.approx(0.4)
        assert self.solved(m) == (F(2, 5), F(2, 5))
        # no state of this loop reaches the goal: no elimination, and min
        # counts no evaluation
        calls.clear()
        dead = make_mdp({0: {"pick": {1: F(1, 2), 3: F(1, 2)}}, 1: {"retry": {0: 1}},
                         2: {}, 3: {}}, labels={2: ("goal",)})
        res = solve_reach(dead, "goal")
        assert (calls, res.iterations, res.pmin, res.pmax) == ([], 1, 0.0, 0.0)

    @staticmethod
    def ring(n=200):
        """``n`` states in a cycle, each going on with 1/2 and to the goal ``n``
        and the sink ``n + 1`` with 1/4 each: every state is worth 1/2."""
        return {s: {"on": {(s + 1) % n: F(1, 2), n: F(1, 4), n + 1: F(1, 4)}}
                for s in range(n)}

    def test_long_one_action_cycle(self, eliminations):
        m = make_mdp(self.ring(), labels={200: ("goal",)})
        res, exact = solve_reach(m, "goal"), solve_reach(m, "goal", exact=True)
        # one elimination of all 200 states in each arithmetic
        assert (eliminations, res.iterations) == ([1, 1], 2)
        assert (exact.pmin, exact.pmax) == (F(1, 2), F(1, 2))
        assert abs(res.pmin - 0.5) <= 1e-12 and abs(res.pmax - 0.5) <= 1e-12

    def test_long_cycle_with_a_choice_agrees_with_value_iteration(self):
        # each state of the ring may instead jump to a random state with 1/2
        # and reach the goal with 1/8, 1/4 or 3/8
        rng = random.Random(67)
        rows = self.ring()
        for s, row in rows.items():
            w = F(rng.randint(1, 3), 8)
            row["jump"] = {rng.randrange(200): F(1, 2), 200: w, 201: F(1, 2) - w}
        m = make_mdp(rows, labels={200: ("goal",)})
        res, exact = solve_reach(m, "goal"), solve_reach(m, "goal", exact=True)
        assert res.iterations > 2 and res.pmin < res.pmax - 0.1
        for direction, value, q in (("min", res.pmin, exact.pmin), ("max", res.pmax, exact.pmax)):
            assert abs(value - float(q)) <= 1e-12
            assert abs(value - value_iteration(m, "goal", direction)) <= 1e-9

    @pytest.mark.parametrize("exit_choices, rhs, iterations, values", [
        # the loop's exit state 4 is worth 0 for min and 1 for max
        ({"hit": {2: 1}, "miss": {3: 1}}, [1], 1, (0, F(2, 5))),
        # it is worth 1/2 for min and 1 for max: one elimination, two sides
        ({"hit": {2: 1}, "half": {2: F(1, 2), 3: F(1, 2)}}, [2], 2, (F(1, 5), F(2, 5))),
    ])
    def test_one_action_loop_with_exits_that_differ(self, eliminations, exit_choices, rhs,
                                                     iterations, values):
        m = make_mdp({0: {"pick": {1: F(1, 2), 3: F(1, 2)}},
                      1: {"retry": {0: F(1, 3), 4: F(2, 3)}}, 2: {}, 3: {}, 4: exit_choices},
                     labels={2: ("goal",)})
        res = solve_reach(m, "goal")
        assert (eliminations, res.iterations) == (rhs, iterations)
        assert self.solved(m) == values


@pytest.mark.parametrize("attacker, pmin, pmax, iterations", [
    ("slice", "0x1.e353f7ced916ap-5", "0x1.e353f7ced916ap-5", 30),
    ("provider", "0x1.3333333333334p-3", "0x1.3333333333334p-3", 28),
])
def test_capacity_bound_floats_and_iterations_are_pinned(attacker, pmin, pmax, iterations):
    config = Path(__file__).resolve().parent.parent / "configs" / "capacity_bound.json"
    res = solve_reach(build_composed(load_model_params(config), attacker), HACKED)
    assert (res.pmin.hex(), res.pmax.hex(), res.iterations) == (pmin, pmax, iterations)


@pytest.mark.parametrize("attacker, n, c, k1, k2, states, pmin, pmax, iterations, exact", [
    ("slice", 24, 8, 14, 19, 44448, "0x1.660e4bf3e4abap-18", "0x1.660e4bf3e4abap-18", 7215,
     6798),
    ("provider", 24, 8, 14, 19, 23362, "0x1.a9fbe76c8b42ep-5", "0x1.a9fbe76c8b42fp-5", 2592,
     2592),
    ("slice", 12, 4, 7, 10, 4310, "0x1.ea24666d55258p-11", "0x1.ea24666d55258p-11", 1099,
     1023),
    ("provider", 14, 5, 8, 11, 6926, "0x1.e8ca11bfd44e8p-5", "0x1.e8ca11bfd44e8p-5", 1044,
     1044),
    ("slice", 6, 2, 4, 5, 492, "0x1.fc8f32378ab07p-8", "0x1.fc8f32378ab07p-8", 153, 147),
], ids=["slice-n24", "provider-n24", "slice-n12", "provider-n14", "slice-n6"])
def test_cyclic_models_floats_and_iterations_are_pinned(attacker, n, c, k1, k2, states,
                                                        pmin, pmax, iterations, exact):
    # the capacity-bound models of the check-cyclic benchmark workload (seed 0);
    # ``exact`` is the exact pass's count, lower on slice models, where float
    # round-off makes equal actions look like a strict improvement; the
    # scheduler has no effect on these models, so the oracle gives both values
    params = make_params("lt-linear", n, 3, (F(1, 10), F(1, 5), F(3, 10)), c=c, k1=k1, k2=k2)
    m = build_composed(params, attacker)
    res = solve_reach(m, HACKED)
    assert (m.state_count, res.pmin.hex(), res.pmax.hex(), res.iterations) == \
        (states, pmin, pmax, iterations)
    oracle = enumerate_oracle(params, attacker)
    assert exact_pair(m, HACKED, res, (oracle, oracle), tol=0).iterations == exact


def random_forward_rows(rng: random.Random, max_states=10):
    """Rows of a random MDP in which every edge out of a non-``g`` state goes
    to a later state: 0-3 choices per state, and ``g`` states with edges
    anywhere. Returns ``(transitions, labels, n)`` for ``make_mdp``."""
    n = rng.randint(2, max_states)
    transitions, labels = {}, {}
    for s in range(n):
        goal = rng.random() < 0.25
        pool = range(n) if goal else range(s + 1, n)
        row = {}
        for action in "abc"[:rng.randint(0, 3) if pool else 0]:
            succ = rng.sample(pool, min(len(pool), rng.randint(1, 3)))
            parts = [rng.randint(1, 4) for _ in succ]
            row[action] = {t: F(k, sum(parts)) for t, k in zip(succ, parts)}
        transitions[s] = row
        if goal:
            labels[s] = ("g",)
    return transitions, labels, n


def with_back_edge(transitions, labels, n):
    """The same model plus an unreachable state ``n`` with an edge back to 0."""
    return make_mdp({**transitions, n: {"a": {0: 1}}}, labels=labels,
                    num_states=n + 1, ap=("g",))


class TestForwardOrder:
    """Models whose discovery order is topological skip the Tarjan pass, and
    their single-choice states take one backup for both directions."""

    @staticmethod
    def models(seed, count=300):
        rng = random.Random(seed)
        for _ in range(count):
            rows = random_forward_rows(rng)
            yield make_mdp(rows[0], labels=rows[1], num_states=rows[2], ap=("g",)), rows

    def test_agrees_with_value_iteration(self):
        split = several = goal_edges = 0
        for m, (transitions, labels, _) in self.models(41):
            assert is_forward(m, frozenset(m.states_with("g")))
            res = solve_reach(m, "g")
            split += res.pmin != res.pmax
            several += any(len(row) > 1 for row in transitions.values())
            goal_edges += any(transitions[s] for s in labels)
            assert res.iterations == 0
            for direction, value in (("min", res.pmin), ("max", res.pmax)):
                exact = exact_reach(m, "g", direction)
                assert abs(value - float(exact)) <= 1e-12
                assert abs(value - value_iteration(m, "g", direction)) <= 1e-9
        assert split >= 50 and several >= 100 and goal_edges >= 100

    def test_exact_pair_on_forward_draws(self):
        rng = random.Random(61)
        for _ in range(300):
            m = random_forward_mdp(rng)
            references = [value_iteration(m, "g", direction) for direction in ("min", "max")]
            assert exact_pair(m, "g", solve_reach(m, "g"), references).iterations == 0

    def test_tarjan_gives_the_same_numbers(self):
        for m, rows in self.models(43):
            back = with_back_edge(*rows)
            assert not is_forward(back, frozenset(back.states_with("g")))
            fast, slow = solve_reach(m, "g"), solve_reach(back, "g")
            assert (fast.pmin, fast.pmax, fast.iterations) == \
                (slow.pmin, slow.pmax, slow.iterations)
            for direction in ("min", "max"):
                assert exact_reach(m, "g", direction) == exact_reach(back, "g", direction)

    def test_sccs_are_sinks_first_on_both_paths(self):
        for m, rows in self.models(47, count=100):
            for model in (m, with_back_edge(*rows)):
                goal = frozenset(model.states_with("g"))
                order = list(sccs(model, goal))
                assert sorted(s for c in order for s in c) == list(range(model.state_count))
                done = set()
                for comp in order:
                    for s in comp:
                        if s not in goal:
                            for _, pairs in model.choices(s):
                                assert all(t in done or t in comp for t, _ in pairs)
                    done.update(comp)

    def test_a_back_edge_in_any_choice_needs_tarjan(self, roots):
        # state 1's second choice leads back to 0; the goal's own edge back
        # to 0 does not count, since targets are absorbing
        calls = roots
        rows = {0: {"a": {1: 1}}, 1: {"a": {2: 1}, "b": {0: F(1, 2), 3: F(1, 2)}},
                2: {"a": {0: 1}}, 3: {}}
        m = make_mdp(rows, labels={2: ("g",)})
        assert not is_forward(m, frozenset({2}))
        assert [sorted(c) for c in sccs(m, frozenset({2}))] == [[2], [3], [0, 1]]
        res = solve_reach(m, "g")
        assert calls == [1]
        assert (res.pmin, res.pmax) == (0, 1)
        assert (res.pmin, res.pmax) == (value_iteration(m, "g", "min"),
                                        value_iteration(m, "g", "max"))
        assert (exact_reach(m, "g", "min"), exact_reach(m, "g", "max")) == (0, 1)
        del rows[1]["b"]
        m = make_mdp(rows, labels={2: ("g",)})
        assert is_forward(m, frozenset({2})) and not is_forward(m)
        calls.clear()
        assert solve_reach(m, "g").pmin == exact_reach(m, "g", "min") == 1
        assert calls == []

    def test_a_late_back_edge_falls_back_to_tarjan(self, roots):
        # a back edge or self-loop out of state 0 or 1: the sweep backs up
        # every later state before it meets the edge and hands over
        calls = roots
        rng = random.Random(53)
        cyclic = 0
        for _ in range(300):
            transitions, labels, n = random_forward_rows(rng)
            s = next((s for s in range(min(2, n)) if s not in labels), None)
            if s is None:
                continue
            back = rng.randint(0, s)
            other = rng.choice([t for t in range(n) if t != back])
            transitions[s] = {**transitions[s], "z": {back: F(1, 2), other: F(1, 2)}}
            m = make_mdp(transitions, labels=labels, num_states=n, ap=("g",))
            calls.clear()
            res = solve_reach(m, "g")
            assert calls == [s]
            cyclic += res.iterations > 0
            for direction, value in (("min", res.pmin), ("max", res.pmax)):
                exact = exact_reach(m, "g", direction)
                reference = value_iteration(m, "g", direction)
                assert abs(value - float(exact)) <= 1e-12
                assert abs(value - reference) <= 1e-9
                assert abs(float(exact) - reference) <= 1e-9
        assert cyclic >= 200

    def test_the_sweep_resumes_below_each_component_pass(self, roots):
        # back edges out of several states at random depths: the sweep stops
        # at each one that no earlier pass has solved, hands it over, and
        # goes on below it, in decreasing order
        calls = roots
        rng = random.Random(59)
        resumed = 0
        for _ in range(300):
            transitions, labels, n = random_forward_rows(rng, max_states=16)
            free = [s for s in range(n) if s not in labels]
            starts = set(rng.sample(free, min(len(free), rng.randint(2, 4))))
            for s in starts:
                back = rng.randint(0, s)
                other = rng.choice([t for t in range(n) if t != back])
                transitions[s] = {**transitions[s], "z": {back: F(1, 3), other: F(2, 3)}}
            m = make_mdp(transitions, labels=labels, num_states=n, ap=("g",))
            calls.clear()
            res = solve_reach(m, "g")
            assert calls and set(calls) <= starts and calls == sorted(calls, reverse=True)
            resumed += len(calls) > 1
            for direction, value in (("min", res.pmin), ("max", res.pmax)):
                exact = exact_reach(m, "g", direction)
                reference = value_iteration(m, "g", direction)
                assert abs(value - float(exact)) <= 1e-12
                assert abs(value - reference) <= 1e-9
                assert abs(float(exact) - reference) <= 1e-9
        assert resumed >= 100

    def test_grid_models_with_spare_capacity_are_forward(self, monkeypatch):
        # Every c >= n model is acyclic, and breadth-first expansion numbers
        # it so that the solver's sweep alone solves it, with no SCC pass.
        def refuse(*args):
            raise AssertionError("the component pass ran on a forward model")

        monkeypatch.setattr(solver, "_components", refuse)
        count = exact = 0
        for _, params, attacker in build_grid():
            if params.c >= params.n:
                for reduced in (False, True):
                    m = build_composed(params, attacker, reduced=reduced)
                    assert is_forward(m, frozenset(m.states_with(HACKED)))
                    res = solve_reach(m, HACKED)
                    assert res.iterations == 0
                    count += 1
                    if reduced and m.state_count < 5000:
                        for direction, value in (("min", res.pmin), ("max", res.pmax)):
                            assert abs(float(exact_reach(m, HACKED, direction)) - value) <= 1e-12
                        exact += 1
        assert count == 112 and exact == 56
