#!/usr/bin/env python3
"""Run the three experiment families and write one CSV per curve.

Families:
  1. single-threshold vs two-threshold coding profiles, both intruders
     (3 channels/providers, a = 0.1/0.2/0.3);
  2. low vs high attack probabilities, two-threshold profile;
  3. 5 vs 10 channels/providers, attack probabilities evenly spaced
     over (0, 0.25].

Probabilities come from the floating-point SCC engine; the provider curves
use the counter-free client (valid because capacity is unbounded in these
runs, which the test suite verifies by bisimulation). A curve whose spec
equals an earlier one's (rs_vs_lt_*_lt and attack_levels_*_low) reuses its
rows instead of sweeping again.
"""

import argparse
import sys
import time
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dispersal_mc.experiments import SweepSpec, emit_csv, sweep

LOW_A = (F(1, 10), F(1, 5), F(3, 10))
HIGH_A = (F(3, 10), F(2, 5), F(1, 2))


def curves(n_to: int, big_n_to: int):
    for attacker in ("slice", "provider"):
        yield (f"rs_vs_lt_{attacker}_rs",
               SweepSpec(attacker=attacker, profile="rs", n_from=10, n_to=n_to,
                         m=3, a=LOW_A))
        yield (f"rs_vs_lt_{attacker}_lt",
               SweepSpec(attacker=attacker, profile="lt-linear", n_from=10,
                         n_to=n_to, m=3, a=LOW_A))
        yield (f"attack_levels_{attacker}_low",
               SweepSpec(attacker=attacker, profile="lt-linear", n_from=10,
                         n_to=n_to, m=3, a=LOW_A))
        yield (f"attack_levels_{attacker}_high",
               SweepSpec(attacker=attacker, profile="lt-linear", n_from=10,
                         n_to=n_to, m=3, a=HIGH_A))
        for m in (5, 10):
            yield (f"group_count_{attacker}_m{m}",
                   SweepSpec(attacker=attacker, profile="lt-linear", n_from=10,
                             n_to=big_n_to if m == 10 else n_to, m=m,
                             a_interval=(F(0), F(1, 4))))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="CSV output directory")
    parser.add_argument("--n-to", type=int, default=100,
                        help="largest slice count for the 3/5-group curves")
    parser.add_argument("--big-n-to", type=int, default=20,
                        help="largest slice count for the 10-group curve; its "
                             "state space grows fastest (n=20 already expands "
                             "about 2.5M states), so raise this only with "
                             "time and memory to spare")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    solved: dict[SweepSpec, list] = {}
    for name, spec in curves(args.n_to, args.big_n_to):
        started = time.perf_counter()
        if spec not in solved:
            solved[spec] = sweep(spec)
        rows = solved[spec]
        path = out_dir / f"{name}.csv"
        emit_csv(rows, path)
        errors = sum(1 for r in rows if r.error)
        print(f"{name}: {len(rows)} points in {time.perf_counter() - started:.1f}s"
              f"{f' ({errors} failed)' if errors else ''} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
