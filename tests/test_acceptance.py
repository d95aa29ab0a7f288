"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import random
import time
from fractions import Fraction as F

import pytest

from dispersal_mc import (Channel, Distribution, ModelParams, build_composed,
                          lt_linear_profile)
from dispersal_mc.bisim import (coarsest_bisimulation, quotient,
                                verify_capacity_abstraction,
                                verify_channel_cutoff)
from dispersal_mc.experiments import (SweepSpec, emit_csv, enumerate_oracle,
                                      sweep)
from dispersal_mc.models import HACKED, AbstractionPreconditionError
from dispersal_mc.solver import exact_reach, solve_reach
from acceptance_grid import build_grid
from helpers import random_params

REPLICATION_A = (F(1, 10), F(1, 5), F(3, 10))
HIGH_A = (F(3, 10), F(2, 5), F(1, 2))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grid_results():
    """Solve every grid configuration with all three engines once."""
    started = time.perf_counter()
    results = []
    for name, params, attacker in build_grid():
        model = build_composed(params, attacker)
        vi = solve_reach(model, HACKED)
        exact_min = exact_reach(model, HACKED, "min")
        exact_max = exact_reach(model, HACKED, "max")
        oracle = enumerate_oracle(params, attacker)
        results.append((name, params, attacker, model, vi, exact_min, exact_max, oracle))
    return results, time.perf_counter() - started


def test_criterion_1_oracle_equivalence(grid_results):
    results, elapsed = grid_results
    worst = 0.0
    for name, _, _, _, vi, exact_min, exact_max, oracle in results:
        assert exact_min == oracle, f"{name}: exact min {exact_min} != oracle {oracle}"
        assert exact_max == oracle, f"{name}: exact max {exact_max} != oracle {oracle}"
        worst = max(worst, abs(vi.pmin - float(oracle)), abs(vi.pmax - float(oracle)))
    ok = len(results) >= 50 and worst <= 1e-9 and elapsed < 300
    report(1, ok, f"{len(results)} configs solved three ways in {elapsed:.1f}s, "
                  f"max |vi - exact| = {worst:.2e}")


def test_criterion_2_hand_derivable_anchors():
    slice_params = ModelParams(n=2, m=1, c=2, k1=1, k2=1, a=(F(1, 2),),
                               x=(F(1), F(1)), p=(F(1),))
    provider_params = ModelParams(n=2, m=2, c=2, k1=2, k2=2, a=(F(1, 2), F(1, 2)),
                                  x=(F(1),), p=Distribution.uniform(2))
    s = enumerate_oracle(slice_params, "slice")
    p = enumerate_oracle(provider_params, "provider")
    s_model = build_composed(slice_params, "slice")
    p_model = build_composed(provider_params, "provider")
    ok = (s == F(3, 4) and p == F(3, 8)
          and exact_reach(s_model, HACKED, "min") == F(3, 4)
          and exact_reach(s_model, HACKED, "max") == F(3, 4)
          and exact_reach(p_model, HACKED, "min") == F(3, 8)
          and exact_reach(p_model, HACKED, "max") == F(3, 8))
    report(2, ok, f"interception anchor = {s}, provider anchor = {p}")


def _replication_specs(n_to: int):
    for attacker in ("slice", "provider"):
        yield (f"lt-{attacker}",
               SweepSpec(attacker=attacker, profile="lt-linear", n_from=10,
                         n_to=n_to, n_step=10, m=3, a=REPLICATION_A))
        yield (f"rs-{attacker}",
               SweepSpec(attacker=attacker, profile="rs", n_from=10,
                         n_to=n_to, n_step=10, m=3, a=REPLICATION_A))


def test_criterion_3_extremes_coincide():
    worst = 0.0
    points = 0
    for name, spec in _replication_specs(60):
        for row in sweep(spec):
            assert row.error is None, f"{name} n={row.n}: {row.error}"
            worst = max(worst, abs(row.pmax - row.pmin))
            points += 1
    report(3, worst <= 1e-9,
           f"|pmax - pmin| <= {worst:.2e} over {points} replication points")


CUTOFF_GRID = [
    ("k1-size2", Distribution((1,)),
     [Channel(1, Distribution.uniform(1), F(3, 10))],
     [Channel(2, Distribution.uniform(2), F(3, 10))],
     dict(n=3, k1=2, k2=3)),
    ("k1-size3", Distribution((1,)),
     [Channel(1, Distribution.uniform(1), F(1, 5))],
     [Channel(3, Distribution.uniform(3), F(1, 5))],
     dict(n=4, k1=2, k2=3)),
    ("k2-sizes23", Distribution.uniform(2),
     [Channel(1, Distribution.uniform(1), F(1, 10)),
      Channel(1, Distribution.uniform(1), F(3, 10))],
     [Channel(2, Distribution.uniform(2), F(1, 10)),
      Channel(3, Distribution.uniform(3), F(3, 10))],
     dict(n=4, k1=2, k2=3)),
    ("k2-sizes13-n5", Distribution((F(1, 3), F(2, 3))),
     [Channel(1, Distribution.uniform(1), F(1, 4)),
      Channel(1, Distribution.uniform(1), F(1, 2))],
     [Channel(1, Distribution.uniform(1), F(1, 4)),
      Channel(3, Distribution((F(1, 2), F(1, 4), F(1, 4))), F(1, 2))],
     dict(n=5, k1=3, k2=4)),
    ("k3-sizes123", Distribution.uniform(3),
     [Channel(1, Distribution.uniform(1), F(1, 10)),
      Channel(1, Distribution.uniform(1), F(1, 5)),
      Channel(1, Distribution.uniform(1), F(3, 10))],
     [Channel(1, Distribution.uniform(1), F(1, 10)),
      Channel(2, Distribution.uniform(2), F(1, 5)),
      Channel(3, Distribution.uniform(3), F(3, 10))],
     dict(n=4, k1=2, k2=3)),
    ("k3-sizes222-rs", Distribution.uniform(3),
     [Channel(1, Distribution.uniform(1), F(1, 5)),
      Channel(1, Distribution.uniform(1), F(2, 5)),
      Channel(1, Distribution.uniform(1), F(3, 5))],
     [Channel(2, Distribution.uniform(2), F(1, 5)),
      Channel(2, Distribution.uniform(2), F(2, 5)),
      Channel(2, Distribution.uniform(2), F(3, 5))],
     dict(n=3, k1=2, k2=2, x=(F(1), F(1)))),
]


@pytest.fixture(scope="module")
def cutoff_reports():
    started = time.perf_counter()
    reports = [(name, verify_channel_cutoff(f, small, big, **base))
               for name, f, small, big, base in CUTOFF_GRID]
    return reports, time.perf_counter() - started


def test_criterion_4_channel_cutoff(cutoff_reports):
    reports, elapsed = cutoff_reports
    worst = 0.0
    for name, rep in reports:
        assert rep.equivalent, f"{name}: {rep.reason}"
        worst = max(worst,
                    abs(rep.probes["small"]["pmin"] - rep.probes["big"]["pmin"]),
                    abs(rep.probes["small"]["pmax"] - rep.probes["big"]["pmax"]))
    # a deliberately perturbed channel attack probability must be detected
    f = Distribution.uniform(2)
    small = [Channel(1, Distribution.uniform(1), F(1, 10)),
             Channel(1, Distribution.uniform(1), F(3, 10))]
    big = [Channel(2, Distribution.uniform(2), F(1, 10)),
           Channel(3, Distribution.uniform(3), F(31, 100))]
    perturbed = verify_channel_cutoff(f, small, big, n=4, k1=2, k2=3)
    ok = not perturbed.equivalent and worst <= 1e-9
    report(4, ok, f"{len(reports)} channel grids equivalent "
                  f"(max probe gap {worst:.2e}), perturbation detected, "
                  f"verified in {elapsed:.1f}s")


def test_criterion_5_capacity_abstraction():
    cases = [
        ModelParams(n=1, m=1, c=1, k1=1, k2=1, a=(F(1, 2),), x=(F(1),), p=(F(1),)),
        ModelParams(n=2, m=1, c=2, k1=1, k2=2, a=(F(2, 5),),
                    x=lt_linear_profile(1, 2, 2), p=(F(1),)),
        ModelParams(n=3, m=2, c=3, k1=2, k2=3, a=(F(1, 10), F(1, 5)),
                    x=lt_linear_profile(2, 3, 3), p=Distribution.uniform(2)),
        ModelParams(n=4, m=2, c=5, k1=3, k2=3, a=(F(1, 2), F(1, 4)),
                    x=(F(1), F(1)), p=(F(5, 8), F(3, 8))),
        ModelParams(n=4, m=3, c=4, k1=2, k2=3, a=(F(1, 10), F(1, 5), F(3, 10)),
                    x=lt_linear_profile(2, 3, 4), p=Distribution.uniform(3)),
        ModelParams(n=5, m=3, c=5, k1=3, k2=4, a=(F(1, 4), F(1, 4), F(1, 4)),
                    x=lt_linear_profile(3, 4, 5), p=Distribution.uniform(3)),
    ]
    worst = 0.0
    for params in cases:
        rep = verify_capacity_abstraction(params)
        assert rep.equivalent, f"n={params.n} m={params.m}: {rep.reason}"
        worst = max(worst,
                    abs(rep.probes["full"]["pmin"] - rep.probes["reduced"]["pmin"]),
                    abs(rep.probes["full"]["pmax"] - rep.probes["reduced"]["pmax"]))
    refused = ModelParams(n=3, m=2, c=2, k1=2, k2=3, a=(F(1, 10), F(1, 5)),
                          x=lt_linear_profile(2, 3, 3), p=Distribution.uniform(2))
    with pytest.raises(AbstractionPreconditionError):
        verify_capacity_abstraction(refused)
    report(5, worst <= 1e-9,
           f"{len(cases)} instances equivalent (max probe gap {worst:.2e}), "
           f"c < n refused")


def test_criterion_6_qualitative_ordering_and_stabilization():
    lt_slice = sweep(SweepSpec(attacker="slice", profile="lt-linear", n_from=10,
                               n_to=100, n_step=10, m=3, a=REPLICATION_A))
    lt_provider = sweep(SweepSpec(attacker="provider", profile="lt-linear",
                                  n_from=10, n_to=100, n_step=10, m=3,
                                  a=REPLICATION_A))
    high_slice = sweep(SweepSpec(attacker="slice", profile="lt-linear", n_from=10,
                                 n_to=100, n_step=10, m=3, a=HIGH_A))
    ordering = all(p.pmax >= s.pmax - 1e-12
                   for p, s in zip(lt_provider, lt_slice))
    domination = all(h.pmax >= l.pmax - 1e-12
                     for h, l in zip(high_slice, lt_slice))
    tail = [r.pmax for r in lt_provider if r.n >= 60]
    stabilization = all(abs(a - b) <= 1e-3 for a, b in zip(tail, tail[1:]))
    gaps = [abs(a - b) for a, b in zip(tail, tail[1:])]
    ok = ordering and domination and stabilization
    report(6, ok, f"provider >= slice at every n: {ordering}; "
                  f"high-a dominates low-a: {domination}; "
                  f"stabilization gaps {['%.1e' % g for g in gaps]}")


def test_criterion_7_monotonicity():
    rng = random.Random(20260808)
    checked = 0
    while checked < 100:
        params = random_params(rng, max_n=4, max_m=2)
        attacker = rng.choice(("slice", "provider"))
        coord = rng.choice(("a", "x"))
        if coord == "a":
            i = rng.randrange(params.m)
            if params.a[i] == 1:
                continue
            bumped_val = (params.a[i] + 1) / 2
            a = params.a[:i] + (bumped_val,) + params.a[i + 1:]
            bumped = ModelParams(n=params.n, m=params.m, c=params.c,
                                 k1=params.k1, k2=params.k2, a=a,
                                 x=params.x, p=params.p)
        else:
            soft = [j for j in range(params.k1, params.k2)]
            if not soft:
                continue
            j = rng.choice(soft)
            cur = params.x_at(j)
            nxt = params.x_at(j + 1) if j + 1 <= params.n else F(1)
            if nxt == cur:
                continue
            x = list(params.x)
            x[j - params.k1] = (cur + nxt) / 2
            bumped = ModelParams(n=params.n, m=params.m, c=params.c,
                                 k1=params.k1, k2=params.k2, a=params.a,
                                 x=tuple(x), p=params.p)
        base_v = exact_reach(build_composed(params, attacker), HACKED, "max")
        bump_v = exact_reach(build_composed(bumped, attacker), HACKED, "max")
        assert bump_v >= base_v, (
            f"raising {coord} lowered pmax: {params} -> {bumped}")
        checked += 1
    report(7, True, f"{checked} single-coordinate increases, pmax never decreased")


def test_criterion_8_quotient_consistency(grid_results, cutoff_reports):
    results, _ = grid_results
    worst = 0.0
    reduced_any = 0
    for name, _, _, model, vi, _, _, _ in results:
        part = coarsest_bisimulation(model)
        q = quotient(model, part)
        qres = solve_reach(q, HACKED)
        worst = max(worst, abs(qres.pmin - vi.pmin), abs(qres.pmax - vi.pmax))
        if q.state_count < model.state_count:
            reduced_any += 1
    reports, _ = cutoff_reports
    shrank = all(rep.blocks < rep.states[0] + rep.states[1]
                 for _, rep in reports)
    ok = worst <= 1e-9 and shrank
    report(8, ok, f"max quotient deviation {worst:.2e} over {len(results)} "
                  f"models ({reduced_any} strictly reduced); every expanded "
                  f"channel instance lumps below its union size: {shrank}")


def test_criterion_9_deterministic_sweep(tmp_path):
    spec = SweepSpec(attacker="provider", profile="lt-linear", n_from=10,
                     n_to=40, n_step=10, m=3, a=REPLICATION_A)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    emit_csv(sweep(spec), first)
    emit_csv(sweep(spec), second)
    identical = first.read_bytes() == second.read_bytes()
    report(9, identical, "repeated sweep runs produced byte-identical CSV")
