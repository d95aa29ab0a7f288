"""Reachability: qualitative sets and the SCC engine in floats and in exact rationals."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from dispersal_mc import ModelParams, build_composed, uniform_probabilities
from dispersal_mc.mdp import sccs
from dispersal_mc.models import HACKED
from dispersal_mc.solver import (QueryError, exact_reach, qualitative_sets,
                                 solve_reach)
from helpers import make_mdp, random_params, value_iteration

F = Fraction


def slice_anchor_model():
    params = ModelParams(n=2, m=1, c=2, k1=1, k2=1, a=(F(1, 2),),
                         x=(F(1), F(1)), p=(F(1),))
    return build_composed(params, "slice")


class TestQualitativeSets:
    def test_labeled_initial_in_prob1_both_directions(self):
        m = make_mdp({0: {"a": {1: 1}}, 1: {}}, labels={0: ("goal",)})
        for direction in ("min", "max"):
            prob0, prob1 = qualitative_sets(m, "goal", direction)
            assert 0 in prob1
            assert 0 not in prob0

    def test_unreachable_target_all_prob0(self):
        m = make_mdp({0: {"a": {0: 1}}, 1: {}}, labels={1: ("goal",)})
        for direction in ("min", "max"):
            prob0, _ = qualitative_sets(m, "goal", direction)
            assert 0 in prob0

    def test_zero_interception_initial_in_prob0(self):
        params = ModelParams(n=2, m=1, c=2, k1=1, k2=1, a=(F(0),),
                             x=(F(1), F(1)), p=(F(1),))
        model = build_composed(params, "slice")
        for direction in ("min", "max"):
            prob0, _ = qualitative_sets(model, HACKED, direction)
            assert 0 in prob0

    def test_unknown_proposition_rejected(self):
        m = make_mdp({0: {}}, labels={0: ("goal",)})
        with pytest.raises(QueryError):
            qualitative_sets(m, "nope", "max")

    def test_min_prob1_requires_all_schedulers(self):
        # action "stay" lets a scheduler avoid the goal forever
        m = make_mdp({0: {"go": {1: 1}, "stay": {0: 1}}, 1: {}},
                     labels={1: ("goal",)})
        _, prob1_min = qualitative_sets(m, "goal", "min")
        _, prob1_max = qualitative_sets(m, "goal", "max")
        assert 0 not in prob1_min
        assert 0 in prob1_max


class TestValueIteration:
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
                             x=(F(1),), p=uniform_probabilities(2))
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

