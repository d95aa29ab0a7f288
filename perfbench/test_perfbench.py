"""Tests of the benchmark's own answer checks, tracer and input generator.

They run on small hand-made outputs and references; no model is built.
"""

import json
import sys
import time
import types
from fractions import Fraction

import pytest

import tracer
import workloads

PINNED = {
    "slice-n24": {"states": 10, "transitions": 20},
    "slice-n6": {"states": 4, "transitions": 6},
    "sweep-slice-m3/n=10": {"states": 3, "transitions": 5},
    "sweep-slice-m3/n=20": {"states": 7, "transitions": 9},
    "verify-thm3": {"blocks": 5},
    "verify-thm3/full": {"states": 8, "transitions": 12},
    "verify-thm3/reduced": {"states": 4, "transitions": 6},
}
REFS = {
    "slice-n24": {"pmin": "1/3", "pmax": "1/3"},
    "slice-n6": {"pmin": "1/7", "pmax": "2/7"},
    "sweep-slice-m3/n=10": {"pmin": "1/9", "pmax": "1/9"},
    "sweep-slice-m3/n=20": {"pmin": "1/11", "pmax": "1/11"},
    "verify-thm3/full": {"pmin": "1/5", "pmax": "1/5"},
    "verify-thm3/reduced": {"pmin": "1/5", "pmax": "1/5"},
}


def good_batch():
    check = {"pmin": f"{1 / 3:.12g}", "pmax": f"{1 / 3:.12g}",
             "states": 10, "transitions": 20}
    exact = {"pmin": "1/7", "pmax": "2/7", "states": 4, "transitions": 6}
    csv = ("n,pmin,pmax,states,transitions,wall_ms,iterations\n"
           f"10,{1 / 9:.12g},{1 / 9:.12g},3,5,0,4\n"
           f"20,{1 / 11:.12g},{1 / 11:.12g},7,9,0,4\n")
    verify = {"equivalent": True, "blocks": 5, "states": [8, 4],
              "transitions": [12, 6], "reason": "",
              "probes": {"full": {"pmin": 0.2, "pmax": 0.2},
                         "reduced": {"pmin": 0.2, "pmax": 0.2}}}
    return [
        {"label": "check slice-n24", "code": 0, "output": json.dumps(check), "error": None},
        {"label": "exact slice-n6", "code": 0, "output": json.dumps(exact), "error": None},
        {"label": "sweep-slice-m3", "code": 0, "output": csv, "error": None},
        {"label": "verify-thm3", "code": 0, "output": json.dumps(verify), "error": None},
    ]


def run_checker(batch, refs=REFS, pinned=PINNED):
    checker = workloads.Checker(refs, pinned)
    return checker, checker.check_batch(batch)


def test_correct_outputs_pass():
    checker, (attempted, failed) = run_checker(good_batch())
    assert (attempted, failed) == (5, 0), checker.failures
    assert checker.max_rel_error < 1e-11
    assert checker.order_violations == 0


@pytest.mark.parametrize("key", sorted(REFS))
def test_perturbed_reference_is_flagged(key):
    refs = dict(REFS)
    refs[key] = {side: str(Fraction(v) * (1 + Fraction(1, 10 ** 8)))
                 for side, v in REFS[key].items()}
    checker, (_, failed) = run_checker(good_batch(), refs=refs)
    assert failed == 1
    assert key.split("/")[0] in checker.failures[0][0]


def test_pinned_size_mismatch_is_flagged():
    pinned = dict(PINNED, **{"sweep-slice-m3/n=20": {"states": 8, "transitions": 9}})
    checker, (_, failed) = run_checker(good_batch(), pinned=pinned)
    assert failed == 1
    assert checker.failures[0][0] == "sweep-slice-m3/n=20"


def test_block_count_and_equivalence_are_checked():
    batch = good_batch()
    doc = json.loads(batch[3]["output"])
    batch[3]["output"] = json.dumps(dict(doc, blocks=6))
    assert run_checker(batch)[1] == (5, 1)
    batch[3]["output"] = json.dumps(dict(doc, equivalent=False))
    assert run_checker(batch)[1] == (5, 1)


def test_sweep_error_row_and_crash_fail_their_points():
    batch = good_batch()
    batch[2]["output"] = batch[2]["output"].replace(f"20,{1 / 11:.12g},{1 / 11:.12g}",
                                                    "20,,")
    batch[2]["code"] = 1
    assert run_checker(batch)[1] == (5, 1)
    batch[2] = {"label": "sweep-slice-m3", "code": None, "output": None,
                "error": "RuntimeError: boom"}
    assert run_checker(batch)[1] == (5, 2)


def test_oracle_must_equal_check_exact():
    batch = good_batch()
    oracle = {"label": "oracle slice-n6", "code": 0, "error": None,
              "output": json.dumps({"probability": "1/7", "decimal": "0.142857142857"})}
    checker, (_, failed) = run_checker(batch + [oracle])
    assert failed == 1  # exact gave [1/7, 2/7], so pmin != pmax
    assert "differs from check --exact" in checker.failures[0][1]


def test_order_violation_is_counted_not_failed():
    batch = good_batch()
    lo, hi = 1 / 3 - 1e-12, 1 / 3 + 1e-12
    batch[0]["output"] = json.dumps({"pmin": repr(hi), "pmax": repr(lo),
                                     "states": 10, "transitions": 20})
    checker, (_, failed) = run_checker(batch)
    assert failed == 0
    assert checker.order_violations == 1


def test_nonzero_exit_fails_the_operation():
    batch = good_batch()
    batch[0]["code"] = 1
    assert run_checker(batch)[1] == (5, 1)


def test_seed_zero_vectors_and_other_seeds_draw_distinct_twentieths():
    a3, a5 = workloads.attack_vectors(0)
    assert a3 == (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))
    assert a5 == tuple(Fraction(i, 20) for i in range(1, 6))
    for seed in range(1, 50):
        b3, b5 = workloads.attack_vectors(seed)
        assert b3 == workloads.attack_vectors(seed)[0]
        for vec in (b3, b5):
            assert len(set(vec)) == len(vec)
            assert all(v * 20 in range(1, 10) for v in vec)


def test_thresholds_round_halves_up():
    assert workloads.thresholds(24) == (14, 19)
    assert workloads.thresholds(14) == (8, 11)
    assert workloads.thresholds(5) == (3, 4)


def make_fake_module():
    mod = types.ModuleType("perfbench_fake")

    def inner(x):
        time.sleep(0.02)
        return x

    def outer(x):
        time.sleep(0.01)
        return mod.inner(x) + 1

    mod.inner, mod.outer = inner, outer
    return mod


def test_tracer_self_times_add_up_and_missing_names_are_reported(monkeypatch):
    mod = make_fake_module()
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    points = [("perfbench_fake", "outer", "bisim.verify", None),
              ("perfbench_fake", "inner", "bisim.refine", None),
              ("perfbench_fake", "gone", "mdp.expand", None)]
    t = tracer.Tracer(points)
    t.install()
    start = time.perf_counter()
    assert t.call(tracer.ROOT, mod.outer, 1) == 2
    wall = time.perf_counter() - start
    assert t.missing == ["perfbench_fake.gone"]
    own = t.self_times()
    took = {name: end - start for name, start, end, _ in t.spans}
    assert own["bisim.refine"] == pytest.approx(took["bisim.refine"])
    assert own["bisim.refine"] >= 0.02
    assert own["bisim.verify"] == pytest.approx(took["bisim.verify"] - took["bisim.refine"])
    assert own["bisim.verify"] >= 0.01
    metrics = t.layer_metrics(wall)
    total = sum(metrics[f"{layer}_s"] for layer in tracer.LAYERS)
    assert total + metrics["cli.overhead_s"] == pytest.approx(wall)
    assert metrics["trace.missing_spans"] == 1
