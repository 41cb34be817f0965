#!/usr/bin/env python3
"""Run the two headline pooling experiments and compare against their limits.

Experiment A: normal risks, cara utility, a half/half mixture of the median
tail block and the mean. Experiment B: fair-coin risks under the worst of
two point masses (a two-member family). Both estimate sqrt(n) times the
pooled premium across a geometric n grid and report the gap to the
closed-form limit constant. The experiments are the shipped configs
``configs/normal_cara_mixture.json`` and ``configs/twopoint_family.json``,
each run through ``riskpool premium-curve``, which writes ``curve.csv``,
``curve.json`` and ``manifest.json`` into ``<out-dir>/<name>``; the table
is read back from ``curve.json``.

Usage: python scripts/run_limit_experiments.py [--seed S] [--out-dir DIR]
"""

import argparse
import json
import sys
from pathlib import Path

try:
    import riskpool
except ImportError:  # running from a checkout without installation
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import riskpool

from riskpool import cli

CONFIGS = Path(__file__).resolve().parent / "configs"


def print_table(name: str, record: dict) -> None:
    print(f"\n{name}: limit {record['limit']:.10f}")
    print(f"  {'n':>6} {'estimate':>12} {'stderr':>10} {'gap':>10} {'z':>8}")
    for p in record["points"]:
        # curve.json holds a non-finite z-score as its repr
        z = "     inf" if isinstance(p["z_score"], str) else f"{p['z_score']:8.2f}"
        print(f"  {p['n']:>6} {p['estimate']:>12.6f} {p['stderr']:>10.6f} {p['abs_gap']:>10.6f} {z}")
    rate = record["rate_fit"]
    if rate is not None:
        print(f"  premium rate: n^{rate['slope']:.3f} (r^2 {rate['r_squared']:.4f})")
    print(f"  trend check: {'ok' if record['trend_ok'] else 'FAILED'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    for name in ("normal_cara_mixture", "twopoint_family"):
        out_dir = Path(args.out_dir) / name
        code = cli.main([
            "premium-curve", "--config", str(CONFIGS / f"{name}.json"), "--seed", str(args.seed),
            "--threads", str(args.threads), "--out-dir", str(out_dir),
        ])
        if code not in (cli.EXIT_OK, cli.EXIT_TREND):
            return code
        print_table(name, json.loads((out_dir / "curve.json").read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
