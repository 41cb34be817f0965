#!/usr/bin/env python3
"""Run the two headline pooling experiments and compare against their limits.

Experiment A: normal risks, cara utility, a half/half mixture of the median
tail block and the mean. Experiment B: fair-coin risks under the worst of
two point masses (a two-member family). Both estimate sqrt(n) times the
pooled premium across a geometric n grid and report the gap to the
closed-form limit constant. The experiments are the shipped configs
``configs/normal_cara_mixture.json`` and ``configs/twopoint_family.json``.

Usage: python scripts/run_limit_experiments.py [--seed S] [--out-dir DIR]
"""

import argparse
import json
import math
import sys
from pathlib import Path

try:
    import riskpool
except ImportError:  # running from a checkout without installation
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import riskpool

from riskpool import ExperimentConfig, compare_to_limit, run_curve
from riskpool.cli import curve_to_dict, write_curve_csv
from riskpool.config import experiment_config_from_dict, experiment_config_to_dict, with_master_seed

CONFIGS = Path(__file__).resolve().parent / "configs"


def load_config(name: str, seed: int) -> ExperimentConfig:
    """The shipped config ``configs/<name>.json`` with its master seed replaced."""
    raw = json.loads((CONFIGS / f"{name}.json").read_text())
    return with_master_seed(experiment_config_from_dict(raw), seed)


def run_one(name: str, config: ExperimentConfig, out_dir: Path, threads: int) -> None:
    curve = run_curve(config, threads=threads)
    comparison = compare_to_limit(curve)
    target = out_dir / name
    target.mkdir(parents=True, exist_ok=True)
    write_curve_csv(target / "curve.csv", curve, comparison)
    (target / "curve.json").write_text(
        json.dumps(curve_to_dict(experiment_config_to_dict(config), curve, comparison), indent=2)
        + "\n"
    )
    print(f"\n{name}: limit {curve.limit:.10f}")
    print(f"  {'n':>6} {'estimate':>12} {'stderr':>10} {'gap':>10} {'z':>8}")
    for row in comparison.rows:
        z = f"{row.z_score:8.2f}" if math.isfinite(row.z_score) else "     inf"
        print(f"  {row.n:>6} {row.estimate:>12.6f} {row.stderr:>10.6f} {row.abs_gap:>10.6f} {z}")
    if curve.rate_fit is not None:
        print(f"  premium rate: n^{curve.rate_fit.slope:.3f} (r^2 {curve.rate_fit.r_squared:.4f})")
    print(f"  trend check: {'ok' if comparison.trend_ok else 'FAILED'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=20260808)
    parser.add_argument("--out-dir", default="results")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    out_dir = Path(args.out_dir)
    for name in ("normal_cara_mixture", "twopoint_family"):
        run_one(name, load_config(name, args.seed), out_dir, args.threads)
    return 0


if __name__ == "__main__":
    sys.exit(main())
