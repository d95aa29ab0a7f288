"""Sweep harness, enumeration oracle, Monte-Carlo estimator, CSV output."""

import random
from fractions import Fraction

import pytest

from dispersal_mc import ModelParams, build_composed, lt_linear_profile, uniform_probabilities
from dispersal_mc import experiments
from dispersal_mc.experiments import (CSV_HEADER, OracleCapError, SplitMix64,
                                      SweepSpec, attack_vector, emit_csv,
                                      enumerate_oracle, monte_carlo,
                                      params_for, sweep)
from dispersal_mc.models import HACKED
from dispersal_mc.solver import exact_reach, solve_reach
from helpers import random_params

F = Fraction


def slice_anchor_params():
    return ModelParams(n=2, m=1, c=2, k1=1, k2=1, a=(F(1, 2),),
                       x=(F(1), F(1)), p=(F(1),))


class TestOracle:
    def test_slice_anchor(self):
        assert enumerate_oracle(slice_anchor_params(), "slice") == F(3, 4)

    def test_provider_anchor(self):
        params = ModelParams(n=2, m=2, c=2, k1=2, k2=2, a=(F(1, 2), F(1, 2)),
                             x=(F(1),), p=uniform_probabilities(2))
        assert enumerate_oracle(params, "provider") == F(3, 8)

    def test_no_attack_probability(self):
        params = ModelParams(n=2, m=2, c=2, k1=1, k2=1, a=(F(0), F(0)),
                             x=(F(1), F(1)), p=uniform_probabilities(2))
        assert enumerate_oracle(params, "slice") == 0
        assert enumerate_oracle(params, "provider") == 0

    def test_capacity_constrained_routing(self):
        # tight capacity conditions the routing on non-full servers; the
        # oracle and the solvers must agree exactly on the resulting measure
        params = ModelParams(n=3, m=2, c=2, k1=2, k2=2,
                             a=(F(1, 3), F(1, 4)), x=(F(1), F(1)),
                             p=(F(3, 4), F(1, 4)))
        for attacker in ("slice", "provider"):
            model = build_composed(params, attacker)
            value = enumerate_oracle(params, attacker)
            assert value == exact_reach(model, HACKED, "min")
            assert value == exact_reach(model, HACKED, "max")

    def test_cap_refusal(self):
        params = ModelParams(n=6, m=3, c=2, k1=3, k2=4,
                             a=(F(1, 2),) * 3, x=lt_linear_profile(3, 4, 6),
                             p=uniform_probabilities(3))
        with pytest.raises(OracleCapError):
            enumerate_oracle(params, "slice", cap=100)


class TestMonteCarlo:
    def test_interval_contains_oracle_value(self):
        est = monte_carlo(slice_anchor_params(), "slice", 1_000_000, seed=2024)
        assert est.low <= 0.75 <= est.high
        assert abs(est.estimate - 0.75) < 0.01

    def test_single_sample_is_binary(self):
        est = monte_carlo(slice_anchor_params(), "slice", 1, seed=5)
        assert est.estimate in (0.0, 1.0)

    def test_seed_determinism(self):
        a = monte_carlo(slice_anchor_params(), "provider", 2000, seed=99)
        b = monte_carlo(slice_anchor_params(), "provider", 2000, seed=99)
        assert a == b

    def test_splitmix_reference_values(self):
        # first outputs for seed 1234567, from the published reference sequence
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_provider_interval(self):
        params = ModelParams(n=2, m=2, c=2, k1=2, k2=2, a=(F(1, 2), F(1, 2)),
                             x=(F(1),), p=uniform_probabilities(2))
        est = monte_carlo(params, "provider", 200_000, seed=7)
        assert est.low <= 0.375 <= est.high

    def test_zero_hits_keep_a_positive_upper_bound(self):
        params = ModelParams(n=3, m=1, c=3, k1=3, k2=3, a=(F(1, 100),),
                             x=(F(1),), p=(F(1),))
        oracle = enumerate_oracle(params, "slice")
        assert oracle == F(1, 10 ** 6)
        est = monte_carlo(params, "slice", 1000, seed=3)
        assert est.estimate == 0.0
        assert est.high > 0
        assert est.low <= oracle <= est.high

    def test_round_off_routes_to_last_server_with_positive_share(self, monkeypatch):
        # ten shares of 1/10 sum to 0.9999999999999999 in floats, which the
        # stub's draw 1 - 2**-53 equals, so no cumulative share exceeds it
        class EdgeRng:
            def __init__(self, seed):
                pass

            def random(self):
                return 1 - 2 ** -53

        assert sum([0.1] * 10) == 1 - 2 ** -53
        params = ModelParams(n=2, m=11, c=2, k1=1, k2=1, a=(F(0),) * 10 + (F(1),),
                             x=(F(1), F(1)), p=(F(1, 10),) * 10 + (F(0),))
        monkeypatch.setattr(experiments, "SplitMix64", EdgeRng)
        assert monte_carlo(params, "provider", 10, seed=0).estimate == 0.0


class TestSweep:
    def test_single_point_equals_direct_solve(self):
        spec = SweepSpec(attacker="slice", profile="explicit", n_from=2, n_to=2,
                         n_step=1, m=1, a=(F(1, 2),), k1=1, k2=1,
                         x=(F(1), F(1)), c=2)
        rows = sweep(spec)
        assert len(rows) == 1
        model = build_composed(slice_anchor_params(), "slice", reduced=True)
        res = solve_reach(model, HACKED)
        assert rows[0].pmin == res.pmin and rows[0].pmax == res.pmax
        assert rows[0].states == model.state_count

    def test_replication_rows_have_coinciding_extremes(self):
        spec = SweepSpec(attacker="slice", profile="lt-linear",
                         n_from=10, n_to=30, n_step=10, m=3,
                         a=(F(1, 10), F(1, 5), F(3, 10)))
        rows = sweep(spec)
        assert [r.n for r in rows] == [10, 20, 30]
        for row in rows:
            assert row.error is None
            assert abs(row.pmax - row.pmin) <= 1e-9

    def test_error_rows_do_not_stop_sweep(self):
        # n=1 cannot satisfy the explicit thresholds built for n=2
        spec = SweepSpec(attacker="slice", profile="explicit", n_from=2, n_to=2,
                         n_step=1, m=1, a=(F(1, 2),), k1=2, k2=2, x=(F(1),), c=1)
        rows = sweep(spec)
        assert len(rows) == 1
        assert rows[0].error is not None

    def test_exact_solver_mode(self):
        spec = SweepSpec(attacker="provider", profile="explicit", n_from=2, n_to=2,
                         n_step=1, m=2, a=(F(1, 2), F(1, 2)), k1=2, k2=2,
                         x=(F(1),), c=2, solver="exact")
        rows = sweep(spec)
        assert rows[0].pmin == 0.375 == rows[0].pmax

    def test_mc_solver_mode(self):
        spec = SweepSpec(attacker="provider", profile="explicit", n_from=2, n_to=2,
                         n_step=1, m=2, a=(F(1, 2), F(1, 2)), k1=2, k2=2,
                         x=(F(1),), c=2, solver="mc", samples=20_000, seed=3)
        rows = sweep(spec)
        assert rows[0].pmin == rows[0].pmax
        assert abs(rows[0].pmin - 0.375) < 0.02

    def test_attack_vector_interval_rule(self):
        spec = SweepSpec(attacker="provider", profile="rs", n_from=4, n_to=4,
                         n_step=1, m=5, a_interval=(F(0), F(1, 4)))
        assert attack_vector(spec) == (F(1, 20), F(1, 10), F(3, 20), F(1, 5), F(1, 4))

    def test_threshold_ratios(self):
        spec = SweepSpec(attacker="slice", profile="lt-linear", n_from=10, n_to=10,
                         n_step=1, m=3, a=(F(1, 10), F(1, 5), F(3, 10)))
        params = params_for(spec, 10)
        assert (params.k1, params.k2) == (6, 8)
        spec_rs = SweepSpec(attacker="slice", profile="rs", n_from=10, n_to=10,
                            n_step=1, m=3, a=(F(1, 10), F(1, 5), F(3, 10)))
        params = params_for(spec_rs, 10)
        assert (params.k1, params.k2) == (7, 7)


class TestCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_row_two_lines(self, tmp_path):
        from dispersal_mc.experiments import SweepRow
        path = tmp_path / "one.csv"
        emit_csv([SweepRow(5, 0.25, 0.25, 10, 12, 0.0, 4)], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "5,0.25,0.25,10,12,0,4"

    def test_reemission_is_byte_identical(self, tmp_path):
        spec = SweepSpec(attacker="slice", profile="lt-linear",
                         n_from=10, n_to=20, n_step=10, m=3,
                         a=(F(1, 10), F(1, 5), F(3, 10)))
        rows = sweep(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, p1)
        emit_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_probabilities_use_12_significant_digits(self, tmp_path):
        from dispersal_mc.experiments import SweepRow
        path = tmp_path / "digits.csv"
        emit_csv([SweepRow(1, 1 / 3, 2 / 3, 1, 1, 0.0, 1)], path)
        row = path.read_text().splitlines()[1]
        assert row.split(",")[1] == "0.333333333333"


class TestOracleSolverAgreement:
    def test_random_grid(self):
        rng = random.Random(47)
        checked = 0
        while checked < 15:
            params = random_params(rng, max_n=4, max_m=2)
            for attacker in ("slice", "provider"):
                value = enumerate_oracle(params, attacker)
                res = solve_reach(build_composed(params, attacker), HACKED)
                assert abs(res.pmax - float(value)) <= 1e-9
                assert abs(res.pmin - float(value)) <= 1e-9
            checked += 1

    def test_sweep_rows_match_oracle(self):
        # exercises the harness path end to end, including its switch to the
        # counter-free client when capacity never binds
        for attacker in ("slice", "provider"):
            spec = SweepSpec(attacker=attacker, profile="lt-linear",
                             n_from=3, n_to=5, n_step=1, m=2,
                             a=(F(1, 5), F(2, 5)))
            for row in sweep(spec):
                value = float(enumerate_oracle(params_for(spec, row.n), attacker))
                assert abs(row.pmax - value) <= 1e-9
                assert abs(row.pmin - value) <= 1e-9
