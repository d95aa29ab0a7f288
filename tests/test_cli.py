"""Command-line interface and config parsing."""

import importlib.util
import io
import json
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from dispersal_mc import cli
from dispersal_mc.bisim import _verify
from dispersal_mc.cli import build_parser, main
from dispersal_mc.configio import (ConfigError, channel_cutoff_from_dict, load_json,
                                  load_model_params, load_sweep_spec,
                                  model_params_from_dict, sweep_spec_from_dict)
from dispersal_mc.experiments import params_for
from dispersal_mc.models import HACKED, build_composed
from dispersal_mc.rationals import format_decimal, parse_probability
from dispersal_mc.solver import exact_reach, solve_reach
from helpers import make_mdp

ROOT = Path(__file__).resolve().parent.parent

SLICE_ANCHOR = {
    "n": 2, "m": 1, "c": 2,
    "profile": "explicit", "k1": 1, "k2": 1,
    "x": ["1", "1"], "a": ["1/2"],
}
THM3 = {"n": 3, "m": 2, "c": 3, "profile": "lt-linear", "k1": 2, "k2": 3,
        "a": ["0.1", "0.2"]}
THM2 = {"n": 3, "k1": 2, "k2": 3,
        "channels": [{"size": 2, "a": "0.1"}, {"size": 1, "a": "0.3"}]}
SWEEP = {"attacker": "slice", "profile": "lt-linear", "n_from": 3, "n_to": 3,
         "m": 2, "a_interval": ["0", "0.25"]}
# Files under configs/ that a command other than check/export/oracle reads.
CONFIG_COMMANDS = {"sweep_lt_low.json": "sweep", "sweep_slice_m3.json": "sweep",
                   "sweep_provider_m5.json": "sweep", "channels_cutoff.json": "verify-thm2"}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def load_workloads():
    """The benchmark's workload module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("q", ["0", "1", "1/2", "1/3", "2/3", "1/100000", "1/10000",
                               "99999/1000000000", "123456789012345/1000000000000000",
                               "9999999999994/10000000000000", "17/1000000000000000000"])
def test_decimal_matches_format_float_off_ties(q):
    # none of these is near a 12-digit tie, so the float rounds the same way
    assert format_decimal(Fraction(q)) == f"{float(Fraction(q)):.12g}"


@pytest.mark.parametrize("value, parsed", [
    ("1/3", Fraction(1, 3)), (" 0.1 ", Fraction(1, 10)), (Fraction(2, 7), Fraction(2, 7)),
    (0, Fraction(0)), (1, Fraction(1)), (0.1, Fraction(1, 10)), (1.0, Fraction(1)),
    (True, TypeError), (None, TypeError), (["1/2"], TypeError), (Fraction(1, 2) + 0j, TypeError),
    ("3/2", ValueError), ("-0.1", ValueError), (Fraction(-1, 3), ValueError), (2, ValueError),
    (1.5, ValueError), ("half", ValueError),
], ids=["str-fraction", "str-decimal", "Fraction", "int-0", "int-1", "float", "float-one",
        "bool", "None", "list", "complex", "above-one", "negative-decimal",
        "negative-Fraction", "int-above-one", "float-above-one", "not-a-number"])
def test_parse_probability(value, parsed):
    if isinstance(parsed, Fraction):
        assert parse_probability(value) == parsed
    else:
        with pytest.raises(parsed):
            parse_probability(value)


def test_decimal_formats_floats_as_12g():
    # both round a double's exact binary value once, half to even
    rng = random.Random(21)
    doubles = (struct.unpack("<d", struct.pack("<Q", rng.getrandbits(63)))[0]
               for _ in range(3000))
    floats = [x for x in doubles if x < float("inf")]  # every exponent, subnormals too
    # j / 2**k with j * 5**k of 13 digits ending in 5 lies halfway between 12-digit decimals
    ties = [j / 2 ** k for k in range(1, 17)
            for j in rng.sample(range(-(-10 ** 12 // 5 ** k), 10 ** 13 // 5 ** k), 20)
            if j % 2]
    assert len(floats) > 2900 and len(ties) > 100
    for x in floats + ties + [0.0, 5e-324, 1.0, 0.1, 1e-5, 1e22, 123456789012.5]:
        assert format_decimal(x) == f"{x:.12g}", x.hex()
    assert format_decimal(4097 / 4096) == "1.00024414062"
    assert format_decimal(5e-324) == "4.94065645841e-324"


def test_decimal_ties_round_half_even():
    assert format_decimal(Fraction(1234567890125, 10 ** 13)) == "0.123456789012"
    assert format_decimal(Fraction(1234567890135, 10 ** 13)) == "0.123456789014"
    assert format_decimal(Fraction(9999999999995, 10 ** 13)) == "1"
    assert format_decimal(Fraction(9999999999995, 10 ** 18)) == "1e-05"


class TestConfigParsing:
    def test_rationals_and_decimals_parsed_exactly(self, tmp_path):
        from fractions import Fraction
        doc = dict(SLICE_ANCHOR, a=["0.1"], x=["1", "1.0"])
        params = load_model_params(write_json(tmp_path, "m.json", doc))
        assert params.a == (Fraction(1, 10),)

    def test_missing_field_diagnostic(self, tmp_path):
        doc = {"n": 2, "m": 1}
        with pytest.raises(ConfigError, match="profile|k1|missing"):
            load_model_params(write_json(tmp_path, "m.json", doc))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2,\n  "m": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_model_params(path)

    def test_channel_config(self, tmp_path):
        from fractions import Fraction
        doc = {
            "n": 3, "c": 3, "profile": "lt-linear", "k1": 2, "k2": 3,
            "channels": [{"size": 2, "a": "0.1"}, {"size": 1, "a": "0.4"}],
            "f": ["1/2", "1/2"],
        }
        params = load_model_params(write_json(tmp_path, "ch.json", doc))
        assert params.m == 3
        assert params.p == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        assert params.a == (Fraction(1, 10), Fraction(1, 10), Fraction(2, 5))

    def test_rs_profile_defaults(self, tmp_path):
        doc = {"n": 10, "m": 3, "profile": "rs", "ratio": "0.7",
               "a": ["0.1", "0.2", "0.3"]}
        params = load_model_params(write_json(tmp_path, "rs.json", doc))
        assert params.k1 == params.k2 == 7
        assert params.c == 10

    @pytest.mark.parametrize("field, value, profile", [
        ("timing", "false", "lt-linear"), ("a_interval", ["x", "1/4"], "lt-linear"),
        ("a_interval", ["0"], "lt-linear"), ("a", ["0.1"], "lt-linear"),
        ("p", ["1/2", "1/3"], "lt-linear"), ("k1", 3, "lt-linear"),
        ("ratio", "0.5", "lt-linear"), ("k1_ratio", "0.2", "rs"), ("k2_ratio", "0.9", "rs"),
    ], ids=["timing", "a_interval-entry", "a_interval-length", "a-length", "p-sum",
            "k1-not-explicit", "ratio-not-rs", "k1_ratio-not-lt-linear",
            "k2_ratio-not-lt-linear"])
    def test_sweep_spec_rejects_malformed_field(self, tmp_path, field, value, profile):
        doc = {"attacker": "slice", "profile": profile, "n_from": 5,
               "n_to": 5, "m": 2, "a_interval": ["0", "0.25"]}
        doc[field] = value
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            load_sweep_spec(write_json(tmp_path, "s.json", doc))

    @pytest.mark.parametrize("shared, config, sweep", [
        ({"m": 3, "a": ["0.1", "0.2", "0.3"]}, {"profile": "rs"}, {"profile": "rs"}),
        ({"m": 3, "a": ["0.1", "0.2", "0.3"], "p": ["1/2", "1/4", "1/4"]},
         {"profile": "rs", "ratio": "0.45"}, {"profile": "rs", "ratio": "0.45"}),
        ({"m": 3, "a": ["0.1", "0.2", "0.3"]}, {"profile": "lt-linear", "k1": 6, "k2": 8},
         {"profile": "lt-linear", "k1_ratio": "0.55", "k2_ratio": "0.75"}),
        ({"m": 3, "c": 4, "a": ["0.1", "0.2", "0.3"], "profile": "explicit", "k1": 9,
          "k2": 10, "x": ["1/2", "1"]}, {}, {}),
        ({"channels": [{"size": 2, "g": ["1/4", "3/4"], "a": "0.1"}, {"size": 1, "a": "0.4"}],
          "f": ["1/3", "2/3"]}, {"profile": "lt-linear", "k1": 6, "k2": 8},
         {"profile": "lt-linear", "k1_ratio": "0.6", "k2_ratio": "0.8"}),
        ({"channels": [{"size": 2, "a": "0.1"}, {"size": 3, "g": ["0", "1", "0"], "a": "0.4"}],
          "f": ["0", "1"]}, {"profile": "lt-linear", "k1": 6, "k2": 8},
         {"profile": "lt-linear", "k1_ratio": "0.6", "k2_ratio": "0.8"}),
    ], ids=["rs-default-ratio", "rs-ratio", "lt-linear", "explicit", "channels",
            "channels-zero-masses"])
    def test_model_config_and_sweep_point_agree(self, shared, config, sweep):
        # the same point read by both loaders must give the same parameter vector
        params = model_params_from_dict({"n": 10, **shared, **config})
        spec = sweep_spec_from_dict({"attacker": "slice", "n_from": 10, "n_to": 10,
                                     **shared, **sweep})
        assert params_for(spec, 10) == params

    def test_sweep_spec_interval(self, tmp_path):
        doc = {"attacker": "provider", "profile": "lt-linear",
               "n_from": 10, "n_to": 20, "n_step": 10, "m": 5,
               "a_interval": ["0", "0.25"]}
        spec = load_sweep_spec(write_json(tmp_path, "s.json", doc))
        assert spec.m == 5 and spec.attacker == "provider"


class TestCli:
    def test_check_prints_three_quarters(self, tmp_path):
        cfg = write_json(tmp_path, "anchor.json", SLICE_ANCHOR)
        code, out = run(["check", "--config", str(cfg), "--attacker", "slice"])
        assert code == 0
        values = dict(line.split("=") for line in out.strip().splitlines())
        assert abs(float(values["pmin"]) - 0.75) <= 1e-9
        assert abs(float(values["pmax"]) - 0.75) <= 1e-9

    def test_check_exact_prints_rationals(self, tmp_path):
        cfg = write_json(tmp_path, "anchor.json", SLICE_ANCHOR)
        code, out = run(["check", "--config", str(cfg), "--attacker", "slice",
                         "--exact", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pmin"] == "3/4" and payload["pmax"] == "3/4"

    @pytest.mark.parametrize("attacker", ["slice", "provider"])
    def test_check_exact_on_a_cyclic_model(self, attacker):
        # c < n: retry loops make the model cyclic, and one pass solves both
        # directions; each must print as the one-direction engine's value
        cfg = ROOT / "configs" / "capacity_bound.json"
        code, out = run(["check", "--config", str(cfg), "--attacker", attacker,
                         "--exact", "--format", "json"])
        model = build_composed(load_model_params(cfg), attacker)
        assert solve_reach(model, HACKED).iterations > 0
        payload = json.loads(out)
        assert (code, payload["pmin"], payload["pmax"]) == \
            (0, str(exact_reach(model, HACKED, "min")),
             str(exact_reach(model, HACKED, "max")))

    def test_unknown_subcommand_usage_error(self):
        code, _ = run(["frobnicate"])
        assert code == 2

    def test_malformed_config_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _ = run(["check", "--config", str(path), "--attacker", "slice"])
        assert code == 2

    def test_capacity_precondition_exit_one(self, tmp_path):
        doc = {"n": 3, "m": 2, "c": 2, "profile": "lt-linear", "k1": 2, "k2": 3,
               "a": ["0.1", "0.2"]}
        cfg = write_json(tmp_path, "low_cap.json", doc)
        code, _ = run(["verify-thm3", "--config", str(cfg)])
        assert code == 1

    def test_verify_thm3_text_report(self, tmp_path):
        doc = {"n": 3, "m": 2, "c": 3, "profile": "lt-linear", "k1": 2, "k2": 3,
               "a": ["0.1", "0.2"]}
        cfg = write_json(tmp_path, "cap.json", doc)
        code, out = run(["verify-thm3", "--config", str(cfg)])
        assert code == 0
        assert "equivalent=True" in out

    def test_verify_thm3_attacker_defaults_to_provider(self, tmp_path, monkeypatch):
        cfg = write_json(tmp_path, "cap.json", THM3)
        seen, verify = [], cli.verify_capacity_abstraction
        monkeypatch.setattr(cli, "verify_capacity_abstraction", lambda params, attacker:
                            seen.append(attacker) or verify(params, attacker))
        for flags in (["--attacker", "slice"], ["--attacker", "provider"], []):
            code, out = run(["verify-thm3", "--config", str(cfg), *flags])
            assert code == 0 and "equivalent=True" in out.splitlines()
        assert seen == ["slice", "provider", "provider"]

    def test_verify_thm2_json_report(self, tmp_path):
        doc = {"n": 3, "k1": 2, "k2": 3,
               "channels": [{"size": 2, "a": "0.1"}, {"size": 1, "a": "0.3"}]}
        cfg = write_json(tmp_path, "cutoff.json", doc)
        code, out = run(["verify-thm2", "--config", str(cfg), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True

    @pytest.mark.parametrize("field, value", [
        ("n", "6"), ("k1", 2.5), ("k2", True), ("c", 6.5), ("x", ["a"]),
        ("f", ["a", "1/2"]), ("x", [True, "1"]), ("x", [None, "1"]), ("f", ["3/2", "-1/2"]),
    ], ids=["n", "k1", "k2", "c", "x", "f", "x-bool", "x-null", "f-outside-unit"])
    def test_verify_thm2_rejects_malformed_field(self, tmp_path, capsys, field, value):
        doc = {"n": 3, "k1": 2, "k2": 3,
               "channels": [{"size": 2, "a": "0.1"}, {"size": 1, "a": "0.3"}]}
        doc[field] = value
        cfg = write_json(tmp_path, "cutoff.json", doc)
        code, _ = run(["verify-thm2", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: field '{field}': ")

    @pytest.mark.parametrize("command, doc", [
        ("check", {"n": 5, "m": 1, "profile": "lt-linear", "k1": 3, "k2": 2,
                   "a": ["1/2"]}),
        ("check", {"n": 5, "m": 1, "profile": "rs", "ratio": "0", "a": ["1/2"]}),
        ("sweep", {"attacker": "slice", "profile": "lt-linear", "n_from": 5,
                   "n_to": 5, "m": 0, "a_interval": ["0", "0.25"]}),
        ("sweep", dict(SWEEP, profile="explicit")),
        ("sweep", dict(SWEEP, profile="rs", ratio="0")),
        ("check", dict(THM3, profile=["lt-linear"])),
        ("sweep", dict(SWEEP, profile=["lt-linear"])),
        ("sweep", dict(SWEEP, attacker="server")),
        ("sweep", dict(SWEEP, solver="simplex")),
        ("sweep", dict(SWEEP, n_from=5, n_to=4)),
        ("sweep", {k: v for k, v in SWEEP.items() if k != "a_interval"}),
        ("sweep", dict(SWEEP, profile="explicit", k1=2, k2=3, x=["1/2", "1"], n_to=4)),
    ], ids=["lt-linear-k1-above-k2", "rs-zero-ratio", "sweep-zero-servers",
            "sweep-explicit-without-thresholds", "sweep-rs-zero-ratio",
            "profile-not-a-string", "sweep-profile-not-a-string", "sweep-unknown-attacker",
            "sweep-unknown-solver", "sweep-n_to-below-n_from", "sweep-no-attack-vector",
            "sweep-explicit-several-points"])
    def test_config_fault_exit_two(self, tmp_path, capsys, command, doc):
        cfg = str(write_json(tmp_path, "fault.json", doc))
        argv = (["check", "--config", cfg, "--attacker", "slice"] if command == "check"
                else ["sweep", "--spec", cfg, "--out", str(tmp_path / "out.csv")])
        code, _ = run(argv)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command, doc, field", [
        ("check", dict(THM3, capacity=2), "capacity"),
        ("check", dict(THM3, x=["1/2", "1"]), "x"),
        ("check", {"n": 3, "m": 1, "profile": "rs", "a": ["0.1"], "x": ["1"]}, "x"),
        ("check", dict(SLICE_ANCHOR, ratio="0.5"), "ratio"),
        ("check", dict(THM3, f=["1"]), "f"),
        ("check", dict(THM3, solver="exact"), "solver"),
        ("check", dict(THM2, profile="lt-linear", a=["0.1", "0.2"]), "a"),
        ("check", dict(THM2, profile="lt-linear", p=["1/2", "1/2"]), "p"),
        ("sweep", dict(SWEEP, n_stpe=5), "n_stpe"),
        ("sweep", dict(SWEEP, a=["0.1", "0.2"]), "a_interval"),
        ("sweep", dict(SWEEP, f=["1"]), "f"),
        ("sweep", {**SWEEP, "channels": THM2["channels"], "m": 3}, "m"),
        ("verify-thm2", dict(THM2, channels=[{"size": 2, "sizee": 3, "a": "0.1"}]), "sizee"),
        ("verify-thm2", dict(THM2, a=["0.1"]), "a"),
        ("verify-thm2", dict(THM2, profile="rs"), "profile"),
        ("sweep", dict(SWEEP, samples=5), "samples"),
        ("sweep", dict(SWEEP, seed=9), "seed"),
    ], ids=["capacity", "x-lt-linear", "x-rs", "ratio-explicit", "f-no-channels",
            "solver-in-model", "a-next-to-channels", "p-next-to-channels", "n_stpe",
            "a_interval-next-to-a", "f-in-sweep", "m-next-to-channels",
            "channel-entry-sizee", "a-in-thm2", "profile-in-thm2", "samples-not-mc",
            "seed-not-mc"])
    def test_unread_field_refused(self, tmp_path, capsys, command, doc, field):
        # each case ran with exit 0 while loaders ignored fields they did not read
        cfg = str(write_json(tmp_path, "cfg.json", doc))
        argv = {"check": ["check", "--config", cfg, "--attacker", "slice"],
                "sweep": ["sweep", "--spec", cfg, "--out", str(tmp_path / "out.csv")],
                "verify-thm2": ["verify-thm2", "--config", cfg]}[command]
        code, _ = run(argv)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: field '{field}': ")

    @pytest.mark.parametrize("command", ["check", "sweep", "verify-thm2"])
    @pytest.mark.parametrize("routing, message", [
        ({"f": ["1/2", "1/4"]}, "field 'f': probabilities sum to 3/4, not 1"),
        ({"f": ["1"]}, "field 'f': expected 2 probabilities, one per channel, got 1"),
        ({"f": ["1/2", "1/4", "1/4"]}, "field 'f': expected 2 probabilities"),
        ({"channels": [{"size": 2, "g": ["1"], "a": "0.1"}, {"size": 1, "a": "0.3"}]},
         "field 'channels'[1]: channel routing distribution has 1 masses for 2 servers"),
        ({"channels": [{"size": 2, "g": ["1/2", "1/4"], "a": "0.1"}, {"size": 1, "a": "0.3"}]},
         "field 'channels'[1]: probabilities sum to 3/4, not 1"),
    ], ids=["f-sum", "f-short", "f-long", "g-short", "g-sum"])
    def test_channel_routing_fault_exit_two(self, tmp_path, capsys, command, routing, message):
        # f and g give one mass per outcome, summing to 1, and the loader of
        # every command refuses another list (a short g ran with exit 0, and
        # verify-thm2 refused a bad f with exit 1)
        doc = {"check": dict(THM2, profile="lt-linear"), "verify-thm2": THM2,
               "sweep": {"attacker": "slice", "n_from": 3, "n_to": 3,
                         "channels": THM2["channels"]}}[command]
        cfg = str(write_json(tmp_path, "cfg.json", {**doc, **routing}))
        argv = {"check": ["check", "--config", cfg, "--attacker", "slice"],
                "sweep": ["sweep", "--spec", cfg, "--out", str(tmp_path / "out.csv")],
                "verify-thm2": ["verify-thm2", "--config", cfg]}[command]
        code, _ = run(argv)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("thresholds, message", [
        ({"k1": 5, "k2": 5}, "need 1 <= k1 <= k2 <= n, got 5, 5, 3"),
        ({"k1": 3, "k2": 2}, "need 1 <= k1 <= k2 <= n, got 3, 2, 3"),
        ({"n": 0}, "need 1 <= k1 <= k2 <= n, got 2, 3, 0"),
        ({"x": ["1"]}, "x must list 2 values for j in [2, 3]"),
        ({"x": ["1/2", "1/2"]}, "x[3] = 1/2 must equal 1 from k2 on"),
    ], ids=["k1-above-n", "k1-above-k2", "n-zero", "x-short", "x-below-one-at-k2"])
    def test_threshold_fault_exit_two(self, tmp_path, capsys, thresholds, message):
        # verify-thm2 refused these with exit 1, after its loader had returned
        doc = {**THM2, **thresholds}
        profile = "explicit" if "x" in doc else "lt-linear"
        results = {}
        for argv in (["check", "--attacker", "slice", "--config",
                      str(write_json(tmp_path, "check.json", dict(doc, profile=profile)))],
                     ["verify-thm2", "--config", str(write_json(tmp_path, "thm2.json", doc))]):
            code, out = run(argv)
            results[argv[0]] = (code, out, capsys.readouterr().err)
        assert results["check"] == results["verify-thm2"] == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("attacker", ["slice", "provider"])
    def test_zero_channel_choice_runs(self, tmp_path, attacker):
        # a zero in f is kept in place, as one in g or p is; check prints the
        # same bytes as the per-server config it flattens to
        doc = {"n": 3, "k1": 2, "k2": 3, "f": ["1", "0"],
               "channels": [{"size": 2, "a": "0.1"}, {"size": 3, "a": "0.3"}]}
        code, out = run(["verify-thm2", "--config", str(write_json(tmp_path, "f.json", doc))])
        assert code == 0 and "equivalent=True" in out.splitlines()
        flat = {"n": 3, "k1": 2, "k2": 3, "profile": "lt-linear", "m": 5,
                "a": ["0.1", "0.1", "0.3", "0.3", "0.3"], "p": ["1/2", "1/2", "0", "0", "0"]}
        runs = [run(["check", "--config", str(write_json(tmp_path, name, config)),
                     "--attacker", attacker])
                for name, config in (("ch.json", dict(doc, profile="lt-linear")),
                                     ("flat.json", flat))]
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_n_dependent_fault_stays_a_row(self, tmp_path, capsys):
        # ratio 1/10 rounds to a zero threshold at n = 1 but not at n = 11
        spec = write_json(tmp_path, "rs.json", dict(SWEEP, profile="rs", ratio="1/10",
                                                      n_from=1, n_to=11, n_step=10))
        out_csv = tmp_path / "out.csv"
        code, _ = run(["sweep", "--spec", str(spec), "--out", str(out_csv)])
        assert code == 1
        assert "n=1: ParameterError: " in capsys.readouterr().err
        rows = out_csv.read_text().splitlines()[1:]
        assert rows[0].startswith("1,,,") and rows[1].startswith("11,0.")

    @pytest.mark.parametrize("command", ["sweep", "export"])
    def test_unwritable_out_path_exit_two(self, tmp_path, capsys, monkeypatch, command):
        # the sweep fails on its output path before it solves any point
        sweeps = []
        monkeypatch.setattr(cli, "sweep", lambda spec: sweeps.append(spec) or [])
        out_path = tmp_path / "missing" / "out"
        argv = (["sweep", "--spec", str(write_json(tmp_path, "s.json", SWEEP))]
                if command == "sweep" else
                ["export", "--config", str(write_json(tmp_path, "m.json", SLICE_ANCHOR)),
                 "--attacker", "slice"])
        code, out = run(argv + ["--out", str(out_path)])
        err = capsys.readouterr().err
        assert (code, out, sweeps) == (2, "", [])
        assert err.startswith("error: ") and str(out_path) in err

    def test_failed_sweep_keeps_an_existing_out_file(self, tmp_path, capsys, monkeypatch):
        def fail(spec):
            raise OSError("disk gone")

        monkeypatch.setattr(cli, "sweep", fail)
        out_path = tmp_path / "out.csv"
        out_path.write_text("kept\n")
        code, _ = run(["sweep", "--spec", str(write_json(tmp_path, "s.json", SWEEP)),
                       "--out", str(out_path)])
        assert (code, capsys.readouterr().err) == (2, "error: disk gone\n")
        assert out_path.read_text() == "kept\n"

    def test_sweep_timing_changes_only_wall_ms(self, tmp_path):
        # --timing gives every row a positive wall_ms and leaves every other
        # column as an untimed run writes it; the spec has no "timing" field
        doc = dict(SWEEP, n_from=2, n_to=4, n_step=1)
        tables = {}
        for name, spec, flags, exit_code in (("untimed", doc, [], 0),
                                             ("flag", doc, ["--timing"], 0),
                                             ("field", dict(doc, timing=True), [], 2)):
            out_path = tmp_path / f"{name}.csv"
            code, _ = run(["sweep", "--spec", str(write_json(tmp_path, f"{name}.json", spec)),
                           "--out", str(out_path), *flags])
            assert code == exit_code
            if code == 0:
                tables[name] = [line.split(",") for line in out_path.read_text().splitlines()]
        assert not (tmp_path / "field.csv").exists()
        header, *untimed = tables["untimed"]
        column = header.index("wall_ms")
        assert len(untimed) == 3 and {row[column] for row in untimed} == {"0"}
        assert tables["flag"][0] == header
        rows = tables["flag"][1:]
        assert all(float(row[column]) > 0 for row in rows)
        assert [row[:column] + row[column + 1:] for row in rows] == \
            [row[:column] + row[column + 1:] for row in untimed]

    def test_failed_verify_text_report_prints_counterexample(self, tmp_path, monkeypatch):
        # bisimilar sides, but a witness that relates every state to every other
        m = make_mdp({0: {"a": {1: 1}}, 1: {}}, labels={1: (HACKED,)}, ap=(HACKED,))
        report = _verify("demo", {"full": m, "reduced": m},
                         {"full": lambda s: 0, "reduced": lambda s: 0})
        monkeypatch.setattr(cli, "verify_capacity_abstraction", lambda params, attacker: report)
        code, out = run(["verify-thm3", "--config", str(write_json(tmp_path, "t.json", THM3))])
        lines = out.splitlines()
        assert code == 1 and "equivalent=False" in lines
        assert lines[-1] == "counterexample=[0, 1]"

    def test_shipped_and_benchmark_inputs_load(self):
        # every file under configs/ and every input the benchmark writes goes
        # through the loader of the command that reads it
        loaders = {"sweep": sweep_spec_from_dict,
                   "verify-thm2": channel_cutoff_from_dict}
        inputs = [(CONFIG_COMMANDS.get(path.name, "check"), load_json(path))
                  for path in sorted((ROOT / "configs").glob("*.json"))]
        workloads = load_workloads()
        for workload in workloads.WORKLOADS:
            for seed in (0, 1):
                files = workloads.input_files(workload, seed)
                for _, argv in workloads.operations(workload, ""):
                    flag = "--spec" if argv[0] == "sweep" else "--config"
                    inputs.append((argv[0], files[argv[argv.index(flag) + 1]]))
        assert {command for command, _ in inputs} == {
            "check", "oracle", "export", "sweep", "verify-thm2", "verify-thm3"}
        for command, doc in inputs:
            loaders.get(command, model_params_from_dict)(doc)

    def test_benchmark_references_rebuild(self, tmp_path):
        # the benchmark rebuilds its verify-bisim references through
        # Distribution, Channel, expand_channels, ModelParams, lt_linear_profile
        # and exact_reach, outside the CLI
        workloads = load_workloads()
        assert workloads.compute_references("verify-bisim", 0, str(tmp_path / "s0")) == \
            workloads.committed_references("verify-bisim", 0)
        refs = workloads.compute_references("verify-bisim", 32, str(tmp_path / "s32"))
        assert workloads.reference_count_mismatches(refs, workloads.load_pinned()) == []

    def test_state_cap_is_a_clean_refusal(self, tmp_path, capsys, monkeypatch):
        from dispersal_mc import mdp
        from dispersal_mc.models import build_composed
        monkeypatch.setattr(mdp, "STATE_CAP", 10)
        cfg = write_json(tmp_path, "cap.json", {
            "n": 3, "m": 2, "c": 3, "profile": "lt-linear", "k1": 2, "k2": 3,
            "a": ["0.1", "0.2"]})
        with pytest.raises(mdp.ExplorationError, match="state cap 10 exceeded"):
            build_composed(load_model_params(cfg), "slice")
        code, _ = run(["check", "--config", str(cfg), "--attacker", "slice"])
        assert code == 1
        assert capsys.readouterr().err == "refused: state cap 10 exceeded\n"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or not Path("/proc/self/statm").exists(),
                        reason="needs Linux's /proc/self/statm and CPU affinity")
    def test_out_of_memory_is_a_clean_refusal(self, tmp_path):
        # A child process caps its own address space 32 MiB above its size after
        # import, and runs on one CPU, so the sweep solves its points in order in
        # that process. Provider m = 8, n = 40 needs far more; n = 1 (6,639 states) fits.
        child = ("import os, resource, sys\n"
                 "from dispersal_mc import cli\n"
                 "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                 "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (size + 2 ** 25, size + 2 ** 25))\n"
                 "sys.exit(cli.main(sys.argv[1:]))\n")
        a = [f"{i}/32" for i in range(1, 9)]
        config = write_json(tmp_path, "big.json", {"n": 40, "m": 8, "profile": "lt-linear",
                                                   "k1": 24, "k2": 32, "a": a})
        spec = write_json(tmp_path, "sweep.json", {
            "attacker": "provider", "profile": "lt-linear", "n_from": 1, "n_to": 40,
            "n_step": 39, "m": 8, "a": a})
        out_csv = tmp_path / "out.csv"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        runs = [subprocess.run([sys.executable, "-c", child, *argv], env=env, timeout=60,
                               capture_output=True, text=True)
                for argv in (["check", "--config", str(config), "--attacker", "provider"],
                             ["sweep", "--spec", str(spec), "--out", str(out_csv)])]
        assert [(r.returncode, r.stderr) for r in runs] == [
            (1, "refused: out of memory\n"), (1, "n=40: MemoryError: out of memory\n")]
        assert runs[0].stdout == ""
        rows = out_csv.read_text().splitlines()[1:]
        assert rows[0].startswith("1,0.") and rows[1] == "40,,,0,0,0,0"

    def test_bisim_verdict(self, tmp_path):
        cfg_a = write_json(tmp_path, "a.json", SLICE_ANCHOR)
        cfg_b = write_json(tmp_path, "b.json", dict(SLICE_ANCHOR, a=["1/3"]))
        code, out = run(["bisim", "--config-a", str(cfg_a), "--config-b", str(cfg_b),
                         "--attacker", "slice", "--format", "json"])
        assert code == 0
        assert json.loads(out)["bisimilar"] is False
        code, out = run(["bisim", "--config-a", str(cfg_a), "--config-b", str(cfg_a),
                         "--attacker", "slice", "--format", "json"])
        assert json.loads(out)["bisimilar"] is True

    def test_oracle_output(self, tmp_path):
        cfg = write_json(tmp_path, "anchor.json", SLICE_ANCHOR)
        code, out = run(["oracle", "--config", str(cfg), "--attacker", "slice"])
        assert code == 0
        assert "probability=3/4" in out

    @pytest.mark.parametrize("a, exact, decimal", [
        # both exact values are 12-digit ties and both floats lie above them:
        # half-even rounds the first down, where its float rounds up
        (["1/5", "1/4", "1/20"], "6004377/25600000000", "0.000234545976562"),
        (["1/5", "3/10", "9/20"], "65997945963/4000000000000", "0.0164994864908"),
    ])
    def test_oracle_rounds_the_exact_value_once(self, tmp_path, a, exact, decimal):
        doc = {"n": 12, "m": 3, "c": 4, "profile": "lt-linear", "k1": 7, "k2": 10, "a": a}
        cfg = write_json(tmp_path, "tie.json", doc)
        code, out = run(["oracle", "--config", str(cfg), "--attacker", "slice"])
        assert (code, out) == (0, f"probability={exact}\ndecimal={decimal}\n")

    def test_export_roundtrip(self, tmp_path):
        cfg = write_json(tmp_path, "anchor.json", SLICE_ANCHOR)
        out_path = tmp_path / "model.nm"
        code, _ = run(["export", "--config", str(cfg), "--attacker", "slice",
                       "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text().startswith("mdp\n")

    def test_sweep_writes_deterministic_csv(self, tmp_path):
        doc = {"attacker": "slice", "profile": "lt-linear",
               "n_from": 5, "n_to": 10, "n_step": 5, "m": 2,
               "a": ["0.1", "0.2"]}
        spec = write_json(tmp_path, "spec.json", doc)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        code, _ = run(["sweep", "--spec", str(spec), "--out", str(out_a)])
        assert code == 0
        code, _ = run(["sweep", "--spec", str(spec), "--out", str(out_b)])
        assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_identical_invocations_identical_stdout(self, tmp_path):
        cfg = write_json(tmp_path, "anchor.json", SLICE_ANCHOR)
        argv = ["check", "--config", str(cfg), "--attacker", "slice"]
        _, first = run(argv)
        _, second = run(argv)
        assert first == second

    def test_every_documented_flag_in_help(self):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
        for name, sp in sub.choices.items():
            text = sp.format_help()
            for action in sp._actions:
                for opt in action.option_strings:
                    assert opt in text, f"{name}: {opt} missing from --help"
