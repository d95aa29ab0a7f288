"""Command-line interface and config parsing."""

import io
import json

import pytest

from dispersal_mc.cli import build_parser, main
from dispersal_mc.configio import ConfigError, load_model_params, load_sweep_spec


SLICE_ANCHOR = {
    "n": 2, "m": 1, "c": 2,
    "profile": "explicit", "k1": 1, "k2": 1,
    "x": ["1", "1"], "a": ["1/2"],
}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


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

    @pytest.mark.parametrize("field, value", [
        ("timing", "false"), ("a_interval", ["x", "1/4"]), ("a_interval", ["0"]),
    ], ids=["timing", "a_interval-entry", "a_interval-length"])
    def test_sweep_spec_rejects_malformed_field(self, tmp_path, field, value):
        doc = {"attacker": "slice", "profile": "lt-linear", "n_from": 5,
               "n_to": 5, "m": 2, "a_interval": ["0", "0.25"]}
        doc[field] = value
        with pytest.raises(ConfigError, match=f"field '{field}'"):
            load_sweep_spec(write_json(tmp_path, "s.json", doc))

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
        ("f", ["a", "1/2"]),
    ], ids=["n", "k1", "k2", "c", "x", "f"])
    def test_verify_thm2_rejects_malformed_field(self, tmp_path, capsys, field, value):
        doc = {"n": 3, "k1": 2, "k2": 3,
               "channels": [{"size": 2, "a": "0.1"}, {"size": 1, "a": "0.3"}]}
        doc[field] = value
        cfg = write_json(tmp_path, "cutoff.json", doc)
        code, _ = run(["verify-thm2", "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: field '{field}': ")

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
