#!/usr/bin/env python3
"""Benchmark of the dispersal-mc command line on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload check-cyclic --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Each run starts fresh single-threaded processes (DISPERSAL_MC_THREADS=1):
ten that only set up, to time set-up, then one after another processes that
each set up and run one batch of CLI operations (see worker.py), until the
given seconds have passed; with ``--trace 1`` one more runs a traced batch. Every answer is checked
against exact references (refs/, or computed once per seed and cached in
.refcache/) and against the sizes pinned from seed 0 (pinned.json). The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, ".work")
REFCACHE_DIR = os.path.join(HERE, ".refcache")
SETUP_SAMPLES = 10
WORKER_TIMEOUT_S = 170


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment(root: str) -> dict:
    """Git revision (read from .git without running git), Python, CPU count."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="ascii") as fh:
            revision = fh.read().strip()
        if revision.startswith("ref: "):
            with open(os.path.join(root, ".git", revision[5:]), encoding="ascii") as fh:
                revision = fh.read().strip()
    except OSError:
        revision = "unknown"
    return {"revision": revision, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def _spawn(root: str, workdir: str, args, extra: list[str]) -> subprocess.Popen:
    env = dict(os.environ, DISPERSAL_MC_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workdir", workdir, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    return subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)


def run_worker(root: str, workdir: str, args, extra: list[str]) -> tuple[float, str]:
    """Run one worker to its end: (seconds until it reported ready, later output).

    The worker is killed if it outlives the timeout or this process fails.
    """
    started = time.perf_counter()
    proc = _spawn(root, workdir, args, extra)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return ready, out


def references(root: str, workload: str, seed: int, pinned: dict) -> dict:
    """Exact references of one seed: committed, cached, or computed now."""
    refs = workloads.committed_references(workload, seed)
    cache = os.path.join(REFCACHE_DIR, f"{workload}-{seed}.json")
    if refs is None and os.path.exists(cache):
        with open(cache, encoding="utf-8") as fh:
            refs = json.load(fh)
    if refs is None:
        sys.path.insert(0, os.path.join(root, "src"))
        refdir = os.path.join(WORK_DIR, f"refs-{os.getpid()}")
        os.makedirs(refdir, exist_ok=True)
        try:
            refs = workloads.compute_references(workload, seed, refdir)
        finally:
            shutil.rmtree(refdir, ignore_errors=True)
        os.makedirs(REFCACHE_DIR, exist_ok=True)
        with open(cache, "w", encoding="utf-8") as fh:
            json.dump(refs, fh)
    bad = workloads.reference_count_mismatches(refs, pinned)
    if bad:
        raise RuntimeError(f"seed {seed} builds models of other sizes than seed 0: {bad}")
    return refs


def run_workload(root: str, args) -> tuple[dict, list[str]]:
    """One measured run; returns the result object and a few lines for people."""
    workdir = os.path.join(WORK_DIR, f"{os.getpid()}-{args.workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # Every process works in a new directory: rewriting files another
        # process has just written can wait on their writeback.
        setups = [run_worker(root, os.path.join(workdir, f"setup-{i}"), args,
                             ["--setup-only"])[0]
                  for i in range(SETUP_SAMPLES)]
        runs = []
        started = time.perf_counter()
        while not runs or time.perf_counter() - started < args.seconds:
            ready, out = run_worker(root, os.path.join(workdir, f"batch-{len(runs)}"),
                                    args, [])
            setups.append(ready)
            runs.append(json.loads(out.splitlines()[-1]))
        if args.trace:
            _, out = run_worker(root, os.path.join(workdir, "trace"), args,
                                ["--trace", "1"])
            traced = json.loads(out.splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    pinned = workloads.load_pinned()
    checker = workloads.Checker(references(root, args.workload, args.seed, pinned),
                                pinned)
    batches = [r["records"] for r in runs] + ([traced["records"]] if args.trace else [])
    attempted = failed = 0
    for batch in batches:
        a, f = checker.check_batch(batch)
        attempted += a
        failed += f

    walls = [r["wall"] for r in runs]
    wall = statistics.median(walls)
    if args.trace:
        values = dict(traced["layers"])
        values.update({
            "solver.max_rel_error": checker.max_rel_error,
            "solver.order_violations": checker.order_violations / len(batches),
            "cpu_s": statistics.median(r["cpu"] for r in runs),
            "trace_overhead": values["trace.wall_s"] / wall - 1,
        })
        units = declared_metrics()[1]
    else:
        values = {"wall_s": wall,
                  "peak_rss_mib": statistics.median(r["maxrss_kib"] for r in runs) / 1024,
                  "setup_s": statistics.median(setups)}
        units = declared_metrics()[0]
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}

    lines = [f"workload={args.workload} seed={args.seed} trace={args.trace} "
             f"batches={len(walls)} walls_s={[round(w, 3) for w in walls]}"]
    lines += [f"  {k} = {m['value']:.6g} {m['unit']}" for k, m in metrics.items()]
    lines.append(f"  error_rate = {failed / max(attempted, 1):.6g} ({failed}/{attempted} "
                 f"operations failed)")
    if args.trace and traced["missing"]:
        lines.append(f"  missing spans: {', '.join(traced['missing'])}")
    for label, message in checker.failures[:20]:
        lines.append(f"  FAILED {label}: {message}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run batches until this many seconds have passed "
                             "(at least one batch)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dispersal_mc", "cli.py")):
        sys.stderr.write("error: run from the repository root; "
                         "src/dispersal_mc is missing\n")
        return 2

    print(f"environment: {json.dumps(environment(root))}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, lines = run_workload(root, argparse.Namespace(**{**vars(args),
                                                                  "workload": name}))
        print("\n".join(lines), flush=True)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        if len(names) == 1:
            summary["metrics"] = result["metrics"]
        else:
            summary["metrics"].update({f"{name}/{k}": m
                                       for k, m in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
