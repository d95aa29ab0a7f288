"""The enumeration oracle against the engine at the replication script's sizes.

``tests/golden/replication/`` pins the CSV of every curve that
``scripts/run_replication.py`` writes at its defaults (``curves(100, 20)``),
solved by the engine with timing off. The oracle, which shares no code with
the engine, must print the same pmin and pmax on every row. Regenerate the
files only for an intended change of the engine's output, with
``PYTHONPATH=src python tests/test_replication.py`` (about a minute).
"""

import csv
import importlib.util
from pathlib import Path

from dispersal_mc.experiments import emit_csv, enumerate_oracle, params_for, sweep
from dispersal_mc.rationals import format_decimal

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "replication"


def replication_curves():
    """(name, spec) of every curve the script writes at its defaults."""
    path = ROOT / "scripts" / "run_replication.py"
    loader = importlib.util.spec_from_file_location("run_replication", path)
    script = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(script)
    return list(script.curves(100, 20))


def test_the_script_writes_untimed_csvs():
    # timed rows carry measured wall_ms values, so no two runs would match
    assert not any(spec.timing for _, spec in replication_curves())


def test_oracle_prints_the_pinned_engine_values():
    printed = {}  # rs_vs_lt_*_lt and attack_levels_*_low are one curve: each point once
    for name, spec in replication_curves():
        with open(GOLDEN / f"{name}.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["n"]) for row in rows] == spec.points(), name
        for row in rows:
            key = (spec, int(row["n"]))
            if key not in printed:
                value = enumerate_oracle(params_for(spec, key[1]), spec.attacker)
                printed[key] = format_decimal(value)
                # no point is a 12-digit tie, so rounding twice agrees here
                assert printed[key] == f"{float(value):.12g}", (name, row["n"])
            assert printed[key] == row["pmin"] == row["pmax"], (name, row["n"])
    assert len(printed) == 84


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    solved = {}
    for name, spec in replication_curves():
        if spec not in solved:
            solved[spec] = sweep(spec)
        emit_csv(solved[spec], GOLDEN / f"{name}.csv")
