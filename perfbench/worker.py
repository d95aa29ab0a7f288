"""One batch of a workload in a fresh process; started by run.py, not by hand.

Imports the package from ``<root>/src``, writes the seed's inputs and prints
``ready`` (the end of set-up). Then it runs every operation of the workload
once through ``dispersal_mc.cli.main(argv, out=buffer)``, traced with
``--trace 1``, and prints one JSON line with the timings and every
operation's output.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time

import workloads
from tracer import ROOT, Tracer


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_batch(cli, ops, tracer=None) -> tuple[float, float, list[tuple]]:
    """Run every operation once; returns (wall s, CPU s, raw results)."""
    raw = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for label, argv in ops:
        buf = io.StringIO()
        try:
            if tracer is None:
                code = cli.main(argv, out=buf)
            else:
                code = tracer.call(ROOT, cli.main, argv, out=buf)
            error = None
        except Exception as exc:  # an operation's crash is a failed operation
            code, error = None, f"{type(exc).__name__}: {exc}"
        raw.append((label, argv, code, buf.getvalue(), error))
    wall = time.perf_counter() - t0
    return wall, _cpu_seconds() - cpu0, raw


def records(raw) -> list[dict]:
    """Operation records as the checker reads them."""
    out = []
    for label, argv, code, stdout, error in raw:
        output = None
        if error is None:
            try:
                output = workloads.collect_output(label, argv, stdout)
            except OSError as exc:
                error = f"output missing: {exc}"
        out.append({"label": label, "code": code, "output": output, "error": error})
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(args.root, "src"))
    from dispersal_mc import cli

    workloads.write_inputs(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    wall, cpu, raw = run_batch(cli, workloads.operations(args.workload, args.workdir),
                               tracer)
    result = {
        "wall": wall,
        "cpu": cpu,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records(raw),
        "layers": tracer.layer_metrics(wall) if tracer is not None else {},
        "missing": tracer.missing if tracer is not None else [],
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
