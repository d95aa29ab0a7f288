#!/usr/bin/env python3
"""Time the Tier-1 suite and run_replication.py at its defaults.

Each runs in a child process, one after the other, from the repository root
(the parent of this script's directory, or --root). For each it prints the
wall time, the CPU time (user plus system, of the child and of every process
the child waited for), and the largest peak resident set among them. These
come from the rusage that ``os.wait4`` returns for the child: the child's own
share of this process's RUSAGE_CHILDREN, whose ru_maxrss is the peak of the
largest single process, not a sum. Forked sweep workers are counted there,
and not in perfbench, which reads only the process that runs the CLI.

The replication CSVs go to a temporary directory and are compared byte for
byte with tests/golden/replication/. The last line of output is one JSON
object with every number; the exit code is 1 if either run failed or a CSV
differs.

    python3 scripts/time_end_to_end.py
    python3 scripts/time_end_to_end.py --root /path/to/another/tree
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def measure(cmd: list[str], cwd: Path) -> dict:
    """Run ``cmd`` to its end; its exit code, times, peak and last output line."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
    started = time.perf_counter()
    with subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True) as proc:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - started
    lines = output.strip().splitlines()
    return {"exit": proc.returncode, "wall_s": round(wall, 3),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "peak_rss_mib": round(usage.ru_maxrss / 1024, 1),
            "last_line": lines[-1] if lines else ""}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(HERE.parent),
                        help="repository tree to run (default: this script's)")
    args = parser.parse_args()
    root = Path(args.root).resolve()

    results = {"tier1": measure([sys.executable, "-m", "pytest", "-q",
                                 "--continue-on-collection-errors", "-p", "no:cacheprovider"],
                                root)}
    out_dir = Path(tempfile.mkdtemp(prefix="replication-"))
    try:
        result = measure([sys.executable, str(root / "scripts" / "run_replication.py"),
                          "--out-dir", str(out_dir)], root)
        golden = root / "tests" / "golden" / "replication"
        names = sorted(p.name for p in golden.glob("*.csv"))
        same, differ, missing = filecmp.cmpfiles(golden, out_dir, names, shallow=False)
        result["csv_identical"] = f"{len(same)}/{len(names)}"
        result["csv_differ"] = sorted(differ + missing)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    results["replication"] = result

    for name, r in results.items():
        extra = f" csv_identical={r['csv_identical']}" if "csv_identical" in r else ""
        print(f"{name}: exit={r['exit']} wall_s={r['wall_s']} cpu_s={r['cpu_s']} "
              f"peak_rss_mib={r['peak_rss_mib']}{extra} | {r['last_line']}")
    print(json.dumps({"root": str(root), "nproc": len(os.sched_getaffinity(0)),
                      "python": sys.version.split()[0], "results": results}))
    ok = all(r["exit"] == 0 for r in results.values()) and not result["csv_differ"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
