"""Sweep harness, enumeration oracle, Monte-Carlo estimator, CSV output."""

import concurrent.futures
import dataclasses
import io
import json
import math
import multiprocessing
import os
import random
from fractions import Fraction

import pytest

from dispersal_mc import Distribution, ModelParams, build_composed, lt_linear_profile
from dispersal_mc import experiments
from dispersal_mc.cli import main
from dispersal_mc.experiments import (CSV_HEADER, OracleCapError,
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
                             x=(F(1),), p=Distribution.uniform(2))
        assert enumerate_oracle(params, "provider") == F(3, 8)

    def test_no_attack_probability(self):
        params = ModelParams(n=2, m=2, c=2, k1=1, k2=1, a=(F(0), F(0)),
                             x=(F(1), F(1)), p=Distribution.uniform(2))
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

    def test_cap_refusal(self, monkeypatch):
        monkeypatch.setattr(experiments, "ORACLE_CAP", 100)
        params = ModelParams(n=6, m=3, c=2, k1=3, k2=4,
                             a=(F(1, 2),) * 3, x=lt_linear_profile(3, 4, 6),
                             p=Distribution.uniform(3))
        with pytest.raises(OracleCapError, match="189 keys"):  # 3^3 counts x 7 held
            enumerate_oracle(params, "slice")

    def test_tight_capacity_past_the_tree_size(self):
        # 6^12 outcome-tree nodes; the memo keys are (counts, held)
        params = ModelParams(n=12, m=3, c=4, k1=7, k2=10,
                             a=(F(1, 10), F(1, 5), F(3, 10)),
                             x=lt_linear_profile(7, 10, 12), p=Distribution.uniform(3))
        model = build_composed(params, "slice")
        value = enumerate_oracle(params, "slice")
        assert value == exact_reach(model, HACKED, "min")
        assert value == exact_reach(model, HACKED, "max")

    def test_corruption_sets_grouped_by_routed_mass(self):
        # with c >= n, the 32 corruption sets fall into 6 groups of routed mass k/5
        params = ModelParams(n=4, m=5, c=4, k1=2, k2=3,
                             a=tuple(F(i, 20) for i in range(1, 6)),
                             x=lt_linear_profile(2, 3, 4), p=Distribution.uniform(5))
        assert sorted(experiments._corruption_groups(params)) == [F(k, 5) for k in range(6)]
        model = build_composed(params, "provider", reduced=True)
        assert model.state_count == 2702
        value = enumerate_oracle(params, "provider")
        assert value == exact_reach(model, HACKED, "min")
        assert value == exact_reach(model, HACKED, "max")


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

    def test_seeded_stream_is_pinned(self):
        # random.Random keeps its random() stream for an int seed across
        # Python versions, so a seeded estimate is the same everywhere
        est = monte_carlo(slice_anchor_params(), "provider", 2000, seed=99)
        assert est.estimate == 1035 / 2000

    def test_provider_interval(self):
        params = ModelParams(n=2, m=2, c=2, k1=2, k2=2, a=(F(1, 2), F(1, 2)),
                             x=(F(1),), p=Distribution.uniform(2))
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
        monkeypatch.setattr(experiments, "Random", EdgeRng)
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
        # an estimate: its Wilson interval in pmin/pmax, no states, the samples
        assert rows[0].pmin < 0.375 < rows[0].pmax
        assert rows[0].pmax - rows[0].pmin < 0.02
        assert (rows[0].states, rows[0].transitions, rows[0].iterations) == (0, 0, 20_000)

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


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _fields(row):
    """A row's fields, with an error row's NaN probabilities as None."""
    return tuple(None if isinstance(v, float) and math.isnan(v) else v
                 for v in dataclasses.astuple(row))


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


A2 = (F(1, 5), F(2, 5))


class TestPool:
    """Several points and usable CPUs: forked workers solve the points."""

    @pytest.mark.parametrize("spec", [
        SweepSpec(attacker="slice", profile="lt-linear", n_from=4, n_to=8, n_step=2,
                  m=3, a=(F(1, 10), F(1, 5), F(3, 10)), c=4),
        SweepSpec(attacker="provider", profile="lt-linear", n_from=2, n_to=5, n_step=1,
                  m=2, a=A2, c=3, solver="exact"),
        SweepSpec(attacker="provider", profile="lt-linear", n_from=2, n_to=5, n_step=1,
                  m=2, a=A2, solver="mc", samples=500, seed=5),
        # ratio 1/10 rounds to a zero threshold at n = 1 only
        SweepSpec(attacker="slice", profile="rs", ratio=F(1, 10), n_from=1, n_to=21,
                  n_step=10, m=2, a=A2),
    ], ids=["vi-cyclic", "exact", "mc", "error-row"])
    def test_pooled_rows_equal_in_process_rows(self, monkeypatch, spec):
        with monkeypatch.context() as patch:
            _usable_cpus(patch, 1)
            patch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
            in_process = sweep(spec)
        _usable_cpus(monkeypatch, 2)
        pooled = sweep(spec)
        assert [row.n for row in pooled] == spec.points()
        assert [_fields(row) for row in pooled] == [_fields(row) for row in in_process]
        assert any(row.error for row in pooled) == (spec.profile == "rs")
        assert multiprocessing.active_children() == []

    def test_one_point_runs_in_process(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
        spec = SweepSpec(attacker="slice", profile="lt-linear", n_from=4, n_to=4,
                         m=2, a=A2)
        assert sweep(spec)[0].error is None

    def test_workers_time_their_points(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        spec = SweepSpec(attacker="slice", profile="lt-linear", n_from=2, n_to=5,
                         n_step=1, m=2, a=A2, timing=True)
        rows = sweep(spec)
        assert [row.n for row in rows] == [2, 3, 4, 5]
        assert all(row.error is None and row.wall_ms > 0 for row in rows)

    def test_lost_worker_gives_an_error_row(self, monkeypatch, tmp_path, capsys):
        # The forked workers inherit the patch; the one that builds n = 5
        # dies as an out-of-memory kill would, without a Python exception.
        build, test_pid = experiments.build_composed, os.getpid()

        def build_or_die(params, *args, **kwargs):
            if params.n == 5:
                if os.getpid() == test_pid:
                    raise AssertionError("n = 5 was solved in the test's own process")
                os._exit(9)
            return build(params, *args, **kwargs)

        monkeypatch.setattr(experiments, "build_composed", build_or_die)
        _usable_cpus(monkeypatch, 2)
        spec_path, out_path = tmp_path / "spec.json", tmp_path / "out.csv"
        spec_path.write_text(json.dumps({"attacker": "slice", "n_from": 3, "n_to": 6,
                                         "n_step": 1, "m": 2, "a": ["1/5", "2/5"]}))
        code = main(["sweep", "--spec", str(spec_path), "--out", str(out_path)],
                    out=io.StringIO())
        assert code == 1
        assert multiprocessing.active_children() == []
        header, *lines = out_path.read_text().splitlines()
        assert header == CSV_HEADER
        assert [line.split(",")[0] for line in lines] == ["3", "4", "5", "6"]
        assert "5,,,0,0,0,0" in lines
        err = capsys.readouterr().err
        assert "n=5: BrokenProcessPool: " in err
        # a point lost with the pool is named too; one solved before is kept
        for line in lines:
            n, pmin = line.split(",")[:2]
            assert (f"n={n}: BrokenProcessPool: " in err) == (pmin == "")


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

    def test_exact_sweep_rounds_the_exact_value_once(self, tmp_path):
        # 6004377/25600000000 is a 12-digit tie and its float lies above it:
        # half-even rounds it down, where rounding the float gives ...563
        spec = SweepSpec(attacker="slice", profile="lt-linear", n_from=12, n_to=12, m=3,
                         a=(F(1, 5), F(1, 4), F(1, 20)), c=4, solver="exact")
        params = params_for(spec, 12)
        assert (params.k1, params.k2) == (7, 10)
        rows = sweep(spec)
        assert rows[0].pmin == F(6004377, 25600000000) == rows[0].pmax
        path = tmp_path / "exact.csv"
        emit_csv(rows, path)
        assert path.read_text().splitlines()[1] == \
            "12,0.000234545976562,0.000234545976562,4310,8822,0,1023"
        # the exact pass counts its own policy evaluations (1,100 in floats)
        model = build_composed(params, "slice")
        assert rows[0].iterations == solve_reach(model, HACKED, exact=True).iterations


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


def test_replication_script_specs_instantiate():
    # The replication driver builds its specs in Python, past the config
    # loader; instantiate every point so a spec check cannot reject them
    # unnoticed. Nothing is solved.
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_replication.py"
    loader = importlib.util.spec_from_file_location("run_replication", path)
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    specs = list(script.curves(100, 20))
    assert specs
    for _, spec in specs:
        for n in spec.points():
            assert params_for(spec, n).n == n
