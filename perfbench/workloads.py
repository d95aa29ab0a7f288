"""Seeded inputs, CLI operations, exact references and answer checks.

Every workload uses the lt-linear profile (k1 = round(3n/5), k2 =
round(4n/5), halves up, except in the channel check) and uniform routing.
Seed 0 uses a = (1/10, 1/5, 3/10) for three servers and a spread evenly over
(0, 1/4] for five; any other seed draws each a_i without repetition from
{1..9}/20. Distinct values keep
the models structurally identical to seed 0 (same states, transitions and
bisimulation blocks), so the pinned counts hold for every seed.

This module imports nothing from the package at import time: the runner
imports it in directories where the package may be absent.
"""

from __future__ import annotations

import inspect
import json
import os
import random
from fractions import Fraction

WORKLOADS = ("sweep-acyclic", "check-cyclic", "verify-bisim")

# The exact engine refuses models above its default cap; references raise it.
REFERENCE_CAP = 10_000_000
REL_TOL = 1e-9

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_DIR = os.path.join(HERE, "refs")
PINNED_PATH = os.path.join(HERE, "pinned.json")


def _half_up(q: Fraction) -> int:
    return int(q + Fraction(1, 2))


def thresholds(n: int) -> tuple[int, int]:
    return _half_up(Fraction(3 * n, 5)), _half_up(Fraction(4 * n, 5))


def attack_vectors(seed: int) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """The three-server and five-server attack vectors of one seed."""
    if seed == 0:
        return ((Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)),
                tuple(Fraction(i, 20) for i in range(1, 6)))
    rng = random.Random(seed)
    pool = [Fraction(i, 20) for i in range(1, 10)]
    return tuple(rng.sample(pool, 3)), tuple(rng.sample(pool, 5))


def _text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _model_config(n: int, c: int, a) -> dict:
    k1, k2 = thresholds(n)
    return {"n": n, "m": len(a), "c": c, "profile": "lt-linear",
            "k1": k1, "k2": k2, "a": [_text(v) for v in a]}


def _sweep_spec(attacker: str, n_to: int, a) -> dict:
    return {"attacker": attacker, "profile": "lt-linear", "n_from": 10,
            "n_to": n_to, "n_step": 10, "m": len(a), "a": [_text(v) for v in a]}


# Sweep files: name -> (attacker, n_to, servers). c defaults to n, so the
# sweeps use the counter-free client.
SWEEPS = {
    "slice-m3": ("slice", 100, 3),
    "provider-m3": ("provider", 60, 3),
    "provider-m5": ("provider", 40, 5),
}

# The two models each verify command builds, in the order it reports them.
VERIFY_SIDES = {"verify-thm3": ("full", "reduced"), "verify-thm2": ("small", "big")}

# Single models of check-cyclic: name -> (attacker, n, c).
CHECK_MODELS = {
    "slice-n24": ("slice", 24, 8),
    "provider-n24": ("provider", 24, 8),
    "slice-n12": ("slice", 12, 4),
    "provider-n14": ("provider", 14, 5),
    "slice-n6": ("slice", 6, 2),
}


def input_files(workload: str, seed: int) -> dict[str, dict]:
    """File name -> JSON document of every input the workload reads."""
    a3, a5 = attack_vectors(seed)
    if workload == "sweep-acyclic":
        return {f"sweep-{name}.json": _sweep_spec(att, n_to, a3 if m == 3 else a5)
                for name, (att, n_to, m) in SWEEPS.items()}
    if workload == "check-cyclic":
        return {f"{name}.json": _model_config(n, c, a3)
                for name, (_, n, c) in CHECK_MODELS.items()}
    if workload == "verify-bisim":
        # The channel check uses k1 = 3, k2 = 4 (n/2 and 2n/3), not the
        # lt-linear rounding: that is the instance of 443 + 12,768 states
        # the workload was sized on.
        return {
            "thm3.json": _model_config(14, 14, a3),
            "thm2.json": {"n": 6, "k1": 3, "k2": 4,
                          "channels": [{"size": 2, "a": _text(a3[0])},
                                       {"size": 3, "a": _text(a3[1])}]},
        }
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for name, doc in input_files(workload, seed).items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def operations(workload: str, workdir: str) -> list[tuple[str, list[str]]]:
    """(label, CLI argv) of every operation of one batch, in order."""
    def path(name):
        return os.path.join(workdir, name)

    if workload == "sweep-acyclic":
        return [(f"sweep-{name}", ["sweep", "--spec", path(f"sweep-{name}.json"),
                                   "--out", path(f"sweep-{name}.csv")])
                for name in SWEEPS]
    if workload == "check-cyclic":
        def check(name, *extra):
            attacker = CHECK_MODELS[name][0]
            return ["check", "--config", path(f"{name}.json"), "--attacker",
                    attacker, *extra, "--format", "json"]
        return [
            ("check slice-n24", check("slice-n24")),
            ("check provider-n24", check("provider-n24")),
            ("exact slice-n12", check("slice-n12", "--exact")),
            ("exact provider-n14", check("provider-n14", "--exact")),
            ("oracle slice-n6", ["oracle", "--config", path("slice-n6.json"),
                                 "--attacker", "slice", "--format", "json"]),
            ("exact slice-n6", check("slice-n6", "--exact")),
            ("export slice-n24", ["export", "--config", path("slice-n24.json"),
                                  "--attacker", "slice",
                                  "--out", path("slice-n24.prism")]),
        ]
    if workload == "verify-bisim":
        return [
            ("verify-thm3", ["verify-thm3", "--config", path("thm3.json"),
                             "--format", "json"]),
            ("verify-thm2", ["verify-thm2", "--config", path("thm2.json"),
                             "--format", "json"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def collect_output(label: str, argv: list[str], stdout: str) -> str:
    """What an operation produced: its stdout, the sweep CSV, or a PRISM summary."""
    out_path = argv[argv.index("--out") + 1] if "--out" in argv else None
    if label.startswith("sweep-"):
        with open(out_path, encoding="utf-8") as fh:
            return fh.read()
    if label.startswith("export "):
        with open(out_path, encoding="utf-8") as fh:
            return json.dumps(prism_summary(fh.read()))
    return stdout


def prism_summary(text: str) -> dict:
    lines = text.splitlines()
    return {
        "lines": len(lines),
        "commands": sum(1 for ln in lines if ln.startswith("  [")),
        "modules": sum(1 for ln in lines if ln.startswith("module ")),
        "header": lines[0] if lines else "",
        "hacked_label": any(ln.startswith('label "hacked"') for ln in lines),
    }


# --- exact references ---------------------------------------------------------


def _exact_pair(model) -> dict:
    from dispersal_mc.solver import exact_reach
    kwargs = ({"cap": REFERENCE_CAP}
              if "cap" in inspect.signature(exact_reach).parameters else {})
    return {"pmin": str(exact_reach(model, "hacked", "min", **kwargs)),
            "pmax": str(exact_reach(model, "hacked", "max", **kwargs)),
            "states": model.state_count, "transitions": model.transition_count}


def compute_references(workload: str, seed: int, workdir: str) -> dict:
    """Exact min/max reachability of every model whose answer the workload prints.

    The models are rebuilt from the same input files through the package's
    own loaders and builders, then solved with the exact rational engine.
    """
    from dispersal_mc.configio import load_json, load_model_params, load_sweep_spec
    from dispersal_mc.experiments import params_for
    from dispersal_mc.models import (Channel, ModelParams, build_composed,
                                     expand_channels, lt_linear_profile)
    from dispersal_mc.mdp import Distribution

    write_inputs(workload, seed, workdir)
    refs: dict = {}
    if workload == "sweep-acyclic":
        for name in SWEEPS:
            spec = load_sweep_spec(os.path.join(workdir, f"sweep-{name}.json"))
            for n in spec.points():
                params = params_for(spec, n)
                refs[f"sweep-{name}/n={n}"] = _exact_pair(
                    build_composed(params, spec.attacker, reduced=params.c >= params.n))
    elif workload == "check-cyclic":
        for name, (attacker, _, _) in CHECK_MODELS.items():
            params = load_model_params(os.path.join(workdir, f"{name}.json"))
            refs[name] = _exact_pair(build_composed(params, attacker))
    elif workload == "verify-bisim":
        params = load_model_params(os.path.join(workdir, "thm3.json"))
        for side in VERIFY_SIDES["verify-thm3"]:
            refs[f"verify-thm3/{side}"] = _exact_pair(
                build_composed(params, "provider", reduced=side == "reduced"))
        doc = load_json(os.path.join(workdir, "thm2.json"))
        x = lt_linear_profile(doc["k1"], doc["k2"], doc["n"])
        big = [Channel(ch["size"], Distribution.uniform(ch["size"]),
                       Fraction(ch["a"])) for ch in doc["channels"]]
        small = [Channel(1, Distribution.uniform(1), ch.a) for ch in big]
        f = Distribution.uniform(len(big))
        for side, channels in (("small", small), ("big", big)):
            p, a = expand_channels(f, channels)
            params = ModelParams(n=doc["n"], m=len(p), c=doc["n"], k1=doc["k1"],
                                 k2=doc["k2"], a=a, x=x, p=p)
            refs[f"verify-thm2/{side}"] = _exact_pair(build_composed(params, "slice"))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return refs


def reference_count_mismatches(refs: dict, pinned: dict) -> list[str]:
    """Models whose reference build differs in size from seed 0's."""
    return [key for key, ref in refs.items()
            if (ref["states"], ref["transitions"])
            != (pinned[key]["states"], pinned[key]["transitions"])]


def committed_references(workload: str, seed: int) -> dict | None:
    path = os.path.join(REFS_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def load_pinned() -> dict:
    with open(PINNED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --- answer checks ------------------------------------------------------------


class Checker:
    """Checks each operation's output against references and pinned counts.

    Collects the failures (label, message), the worst relative error of any
    printed floating-point probability and the number of printed pmin > pmax
    pairs. A failed check marks its operation failed; the last two are
    reported as layer numbers, not gates.
    """

    def __init__(self, refs: dict, pinned: dict):
        self.refs = refs
        self.pinned = pinned
        self.failures: list[tuple[str, str]] = []
        self.max_rel_error = 0.0
        self.order_violations = 0

    def _fail(self, label: str, message: str) -> bool:
        self.failures.append((label, message))
        return False

    def _close(self, label: str, printed: float, exact: str) -> bool:
        ref = Fraction(exact)
        err = abs(printed - float(ref)) / float(ref) if ref else abs(printed)
        self.max_rel_error = max(self.max_rel_error, err)
        if not err <= REL_TOL:
            return self._fail(label, f"{printed!r} differs from exact {float(ref)!r} "
                                     f"by {err:.3g} relative")
        return True

    def _float_pair(self, label: str, pmin: float, pmax: float, ref: dict) -> bool:
        if pmin > pmax:
            self.order_violations += 1
        ok = self._close(label, pmin, ref["pmin"])
        return self._close(label, pmax, ref["pmax"]) and ok

    def _counts(self, label: str, states, transitions, key: str) -> bool:
        pin = self.pinned[key]
        if (states, transitions) != (pin["states"], pin["transitions"]):
            return self._fail(label, f"states/transitions {states}/{transitions}, "
                                     f"pinned {pin['states']}/{pin['transitions']}")
        return True

    def _sweep_points(self, label: str) -> list[str]:
        return [k for k in self.pinned if k.startswith(label + "/")]

    def check_sweep(self, label: str, csv_text: str) -> tuple[int, int]:
        """Returns (points attempted, points failed) of one sweep CSV."""
        expected = self._sweep_points(label)
        rows = csv_text.strip().splitlines()[1:]
        failed = 0
        seen = set()
        for row in rows:
            n, pmin, pmax, states, transitions = row.split(",")[:5]
            key = f"{label}/n={n}"
            seen.add(key)
            if key not in self.pinned:
                self._fail(key, "unexpected sweep point")
                failed += 1
                continue
            if not pmin or not pmax:
                self._fail(key, "error row")
                failed += 1
                continue
            ok = self._float_pair(key, float(pmin), float(pmax), self.refs[key])
            ok = self._counts(key, int(states), int(transitions), key) and ok
            failed += not ok
        for key in expected:
            if key not in seen:
                self._fail(key, "missing sweep point")
                failed += 1
        return max(len(expected), len(rows)), failed

    def check_operation(self, label: str, output: str, outputs: dict) -> bool:
        """One non-sweep operation; ``outputs`` holds its batch's other outputs."""
        kind, _, name = label.partition(" ")
        doc = json.loads(output)
        if kind == "check":
            ok = self._float_pair(label, float(doc["pmin"]), float(doc["pmax"]),
                                  self.refs[name])
            return self._counts(label, doc["states"], doc["transitions"], name) and ok
        if kind == "exact":
            ref = self.refs[name]
            ok = True
            for side in ("pmin", "pmax"):
                if Fraction(doc[side]) != Fraction(ref[side]):
                    ok = self._fail(label, f"{side} {doc[side]} != exact {ref[side]}")
            return self._counts(label, doc["states"], doc["transitions"], name) and ok
        if kind == "oracle":
            exact = json.loads(outputs.get(f"exact {name}", "null"))
            if exact is None:
                return self._fail(label, "no check --exact output to compare with")
            value = Fraction(doc["probability"])
            if not value == Fraction(exact["pmin"]) == Fraction(exact["pmax"]):
                return self._fail(label, f"oracle {value} differs from check --exact "
                                         f"[{exact['pmin']}, {exact['pmax']}]")
            if value != Fraction(self.refs[name]["pmin"]):
                return self._fail(label, f"oracle {value} differs from the reference")
            return True
        if kind == "export":
            pin = self.pinned[label]
            for key, value in pin.items():
                if doc.get(key) != value:
                    return self._fail(label, f"PRISM {key} {doc.get(key)!r}, "
                                             f"pinned {value!r}")
            return True
        if kind.startswith("verify-"):
            if doc.get("equivalent") is not True:
                return self._fail(label, f"not equivalent: {doc.get('reason')}")
            ok = True
            blocks = self.pinned[kind]["blocks"]
            if doc["blocks"] != blocks:
                ok = self._fail(label, f"{doc['blocks']} blocks, pinned {blocks}")
            for i, side in enumerate(VERIFY_SIDES[kind]):
                key = f"{kind}/{side}"
                ok = self._counts(key, doc["states"][i], doc["transitions"][i],
                                  key) and ok
                probe = doc["probes"][side]
                ok = self._float_pair(key, probe["pmin"], probe["pmax"],
                                      self.refs[key]) and ok
            return ok
        return self._fail(label, "unknown operation")

    def check_batch(self, batch: list[dict]) -> tuple[int, int]:
        """(attempted, failed) of one batch of operation records.

        A record has ``label``, ``code``, ``output`` and ``error`` (an
        exception's text, or None). An operation is one sweep point or one
        other CLI call.
        """
        outputs = {r["label"]: r["output"] for r in batch}
        attempted = failed = 0
        for rec in batch:
            label = rec["label"]
            if label.startswith("sweep-"):
                expected = len(self._sweep_points(label))
                if rec["error"] is not None or rec["output"] is None:
                    self._fail(label, rec["error"] or "no output")
                    attempted += expected
                    failed += expected
                    continue
                a, f = self.check_sweep(label, rec["output"])
                if rec["code"] != 0 and f == 0:
                    self._fail(label, f"exit code {rec['code']}")
                    f = a
                attempted += a
                failed += f
                continue
            attempted += 1
            if rec["error"] is not None:
                self._fail(label, rec["error"])
                failed += 1
            elif rec["code"] != 0:
                self._fail(label, f"exit code {rec['code']}")
                failed += 1
            else:
                try:
                    ok = self.check_operation(label, rec["output"], outputs)
                except (ValueError, KeyError, TypeError) as exc:
                    ok = self._fail(label, f"unreadable output: {exc!r}")
                failed += not ok
        return attempted, failed
