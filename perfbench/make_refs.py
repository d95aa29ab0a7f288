#!/usr/bin/env python3
"""Compute the benchmark's pinned sizes and exact references.

Run from the repository root:

    python3 perfbench/make_refs.py --pin
    python3 perfbench/make_refs.py --seeds 0 1 2 --workloads sweep-acyclic
    python3 perfbench/make_refs.py --collect

``--pin`` writes pinned.json from seed 0: the states and transitions of
every model, the bisimulation block counts of the verify commands and the
shape of the PRISM export. ``--seeds`` computes exact references into
.refcache/ (one file per workload and seed, so several invocations can run
side by side). ``--collect`` merges the cache into refs/<workload>.json,
which the benchmark reads before it computes anything.
"""

from __future__ import annotations

import argparse
import glob
import io
import json
import os
import shutil
import sys

import workloads
from run import REFCACHE_DIR, WORK_DIR, references


def pin() -> dict:
    from dispersal_mc import cli

    pinned: dict = {}
    workdir = os.path.join(WORK_DIR, f"pin-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for key, ref in workloads.compute_references(workload, 0, workdir).items():
                pinned[key] = {"states": ref["states"], "transitions": ref["transitions"]}
            for label, argv in workloads.operations(workload, workdir):
                if label.startswith("verify-") or label.startswith("export "):
                    buf = io.StringIO()
                    if cli.main(argv, out=buf) != 0:
                        raise RuntimeError(f"{label} failed at seed 0")
                    doc = json.loads(workloads.collect_output(label, argv, buf.getvalue()))
                    if label.startswith("verify-"):
                        pinned[label] = {"blocks": doc["blocks"]}
                    else:
                        pinned[label] = doc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return pinned


def collect() -> None:
    merged: dict[str, dict] = {w: {} for w in workloads.WORKLOADS}
    for path in glob.glob(os.path.join(REFCACHE_DIR, "*.json")):
        workload, _, seed = os.path.basename(path)[:-5].rpartition("-")
        with open(path, encoding="utf-8") as fh:
            merged[workload][seed] = json.load(fh)
    os.makedirs(workloads.REFS_DIR, exist_ok=True)
    for workload, by_seed in merged.items():
        path = os.path.join(workloads.REFS_DIR, f"{workload}.json")
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                by_seed = {**json.load(fh), **by_seed}
        ordered = {s: by_seed[s] for s in sorted(by_seed, key=int)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ordered, fh, indent=0, sort_keys=False)
            fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--seeds", type=int, nargs="*", default=[])
    parser.add_argument("--workloads", nargs="*", default=list(workloads.WORKLOADS))
    parser.add_argument("--collect", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    if args.pin:
        with open(workloads.PINNED_PATH, "w", encoding="utf-8") as fh:
            json.dump(pin(), fh, indent=1)
            fh.write("\n")
    pinned = workloads.load_pinned()
    for workload in args.workloads:
        for seed in args.seeds:
            references(root, workload, seed, pinned)
            print(f"{workload} seed {seed}: done", flush=True)
    if args.collect:
        collect()
    return 0


if __name__ == "__main__":
    sys.exit(main())
