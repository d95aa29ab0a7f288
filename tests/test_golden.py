"""Byte-for-byte replay of CLI output against files under ``tests/golden/``.

Each case runs one command through ``cli.main`` and compares what it prints
(for ``sweep``: the CSV it writes) with the stored bytes. Regenerate the files
only for an intended output change, with ``python tests/test_golden.py``.
"""

import io
import os
import tempfile
from pathlib import Path

import pytest

from dispersal_mc.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

MODEL_CONFIGS = ("slice_small", "provider_anchor", "capacity_abstraction", "capacity_bound")

CASES = {}
for _config in MODEL_CONFIGS:
    for _attacker in ("slice", "provider"):
        _args = ["--config", f"configs/{_config}.json", "--attacker", _attacker]
        CASES[f"export-{_config}-{_attacker}.nm"] = ["export", *_args]
        CASES[f"check-{_config}-{_attacker}.txt"] = ["check", *_args]
        CASES[f"check-exact-{_config}-{_attacker}.txt"] = ["check", *_args, "--exact"]
CASES["verify-thm3-capacity_abstraction.txt"] = [
    "verify-thm3", "--config", "configs/capacity_abstraction.json"]
CASES["verify-thm2-channels_cutoff.txt"] = [
    "verify-thm2", "--config", "configs/channels_cutoff.json"]
CASES["verify-thm3-capacity_abstraction.json"] = [
    "verify-thm3", "--config", "configs/capacity_abstraction.json", "--format", "json"]
CASES["verify-thm2-channels_cutoff.json"] = [
    "verify-thm2", "--config", "configs/channels_cutoff.json", "--format", "json"]
for _spec in ("sweep_lt_low", "sweep_slice_m3", "sweep_provider_m5"):
    CASES[f"sweep-{_spec}.csv"] = ["sweep", "--spec", f"configs/{_spec}.json"]


def replay(argv: list[str], workdir: str) -> bytes:
    """The bytes a case produces: stdout, or the CSV file for ``sweep``."""
    argv = [str(ROOT / a) if a.startswith("configs/") else a for a in argv]
    out = io.StringIO()
    if argv[0] == "sweep":
        csv = os.path.join(workdir, "out.csv")
        assert main([*argv, "--out", csv], out=out) == 0
        with open(csv, "rb") as fh:
            return fh.read()
    assert main(argv, out=out) == 0
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    assert replay(CASES[name], str(tmp_path)) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in sorted(CASES.items()):
            (GOLDEN / name).write_bytes(replay(argv, tmp))
