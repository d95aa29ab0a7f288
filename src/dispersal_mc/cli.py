"""Command-line front end.

Exit codes: 0 on success, 1 on a refusal (out of memory included) or a failed
precondition, 2 on usage or configuration errors, an unwritable output path included.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .bisim import bisimilar, verify_capacity_abstraction, verify_channel_cutoff
from .configio import (ConfigError, channel_cutoff_from_dict, load_json,
                       load_model_params, load_sweep_spec)
from .experiments import OracleCapError, emit_csv, enumerate_oracle, sweep
from .models import Channel, ParameterError, build_composed
from .mdp import Distribution, ModelError
from .prism import export_prism
from .rationals import format_decimal
from .solver import QueryError, SolverError, solve_reach


def _emit(payload: dict, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        for key, value in payload.items():
            stream.write(f"{key}={value}\n")


def _cmd_check(args, out) -> int:
    params = load_model_params(args.config)
    model = build_composed(params, args.attacker)
    res = solve_reach(model, "hacked", exact=args.exact)
    fmt = str if args.exact else format_decimal
    payload = {"pmin": fmt(res.pmin), "pmax": fmt(res.pmax),
               "states": model.state_count, "transitions": model.transition_count}
    _emit(payload, args.format, out)
    return 0


def _cmd_sweep(args, out) -> int:
    spec = load_sweep_spec(args.spec)
    if args.timing:
        spec = dataclasses.replace(spec, timing=True)
    open(args.out, "a").close()  # an unwritable path fails before the sweep runs
    rows = sweep(spec)
    emit_csv(rows, args.out)
    failures = [r for r in rows if r.error]
    for r in failures:
        sys.stderr.write(f"n={r.n}: {r.error}\n")
    out.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 1 if failures else 0


def _cmd_bisim(args, out) -> int:
    pa = load_model_params(args.config_a)
    pb = load_model_params(args.config_b)
    ma = build_composed(pa, args.attacker)
    mb = build_composed(pb, args.attacker)
    res = bisimilar(ma, mb)
    payload = {
        "bisimilar": res.equivalent,
        "blocks": res.blocks,
        "reason": res.reason,
        "states_a": ma.state_count,
        "states_b": mb.state_count,
    }
    _emit(payload, args.format, out)
    return 0


def _cmd_verify_thm2(args, out) -> int:
    f, big, fields = channel_cutoff_from_dict(load_json(args.config))
    small = [Channel(1, Distribution.uniform(1), ch.a) for ch in big]
    report = verify_channel_cutoff(f, small, big, **fields)
    _emit_report(report, args.format, out)
    return 0 if report.equivalent else 1


def _cmd_verify_thm3(args, out) -> int:
    params = load_model_params(args.config)
    report = verify_capacity_abstraction(params)
    _emit_report(report, args.format, out)
    return 0 if report.equivalent else 1


def _emit_report(report, fmt: str, out) -> None:
    d = report.to_dict()
    if fmt == "json":
        _emit(d, fmt, out)
        return
    for key in ("claim", "equivalent", "bisimilar", "witness_contained",
                "blocks", "states", "transitions", "reason"):
        out.write(f"{key}={d[key]}\n")
    for side, probe in d["probes"].items():
        out.write(f"{side}: pmin={format_decimal(probe['pmin'])} "
                  f"pmax={format_decimal(probe['pmax'])}\n")
    if d["counterexample"]:
        out.write(f"counterexample={d['counterexample']}\n")


def _cmd_export(args, out) -> int:
    params = load_model_params(args.config)
    text = export_prism(params, args.attacker)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _cmd_oracle(args, out) -> int:
    params = load_model_params(args.config)
    value = enumerate_oracle(params, args.attacker)
    payload = {"probability": str(value),
               "decimal": format_decimal(value)}
    _emit(payload, args.format, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersal-mc",
        description="Measure and verify the confidentiality of slice-dispersing "
                    "storage against probabilistic intruders.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format")

    p = sub.add_parser("check", help="compute min/max attack probabilities")
    p.add_argument("--config", required=True, help="model parameter file (JSON)")
    p.add_argument("--attacker", choices=("slice", "provider"), required=True)
    p.add_argument("--exact", action="store_true",
                   help="use the exact rational solver")
    add_format(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep", help="run a parameter sweep and write CSV")
    p.add_argument("--spec", required=True, help="sweep specification file (JSON)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock times (breaks byte determinism)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("bisim", help="decide bisimilarity of two configurations")
    p.add_argument("--config-a", required=True)
    p.add_argument("--config-b", required=True)
    p.add_argument("--attacker", choices=("slice", "provider"), default="slice")
    add_format(p)
    p.set_defaults(func=_cmd_bisim)

    p = sub.add_parser("verify-thm2",
                       help="check the channel-grouping equivalence on an instance")
    p.add_argument("--config", required=True,
                   help="JSON with n, k1, k2, channels (and optional f, x, c)")
    add_format(p)
    p.set_defaults(func=_cmd_verify_thm2)

    p = sub.add_parser("verify-thm3",
                       help="check the capacity-counter-elimination equivalence "
                            "on an instance")
    p.add_argument("--config", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_verify_thm3)

    p = sub.add_parser("export", help="write the model as PRISM source")
    p.add_argument("--config", required=True)
    p.add_argument("--attacker", choices=("slice", "provider"), required=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("oracle", help="exact attack probability by enumeration")
    p.add_argument("--config", required=True)
    p.add_argument("--attacker", choices=("slice", "provider"), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args, out)
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ParameterError, ModelError, QueryError, SolverError, OracleCapError) as exc:
        sys.stderr.write(f"refused: {exc}\n")
        return 1
    except MemoryError:
        pass  # refused below, once the handler has let go of the failed run's frames
    sys.stderr.write("refused: out of memory\n")
    return 1


def entry() -> None:
    sys.exit(main())
