"""Compare two checkouts with alternating parent/change runs of one workload.

    python3 perfbench/compare.py --parent DIR --change DIR --workload NAME [--pairs 10]

Both checkouts must hold identical ``perfbench/`` files and BENCHMARK.json,
so the two sides run the same benchmark code and settings; each side measures its own
``src``. Pair i uses seed ``--seed + i`` on both sides and alternates which
side runs first. Per end-to-end metric it prints each side's median and
quartiles, the pairs the change won, and a verdict:

- ``gain``: the change won at least 9 of 10 pairs and the medians differ
  by more than the parent's interquartile distance;
- ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's own spread is wider than the bound, and not
  every change run beats every parent run;
- ``no regression`` otherwise.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout: Path, bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {result['failed']} of {result['attempted']} checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4)
    if wins >= 0.9 * len(parent) and sign * (p_med - c_med) > q[2] - q[0]:
        return "gain", wins
    if sign * (c_med - p_med) > bound * p_med:
        return "regression", wins
    if (q[2] - q[0]) > bound * p_med:
        every = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
        return ("no regression" if every else "unresolved"), wins
    return "no regression", wins


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    mismatch = filecmp.dircmp(args.parent / "perfbench", args.change / "perfbench", ignore=["__pycache__", "_work"])
    same_settings = filecmp.cmp(args.parent / "BENCHMARK.json", args.change / "BENCHMARK.json", shallow=False)
    if mismatch.diff_files or mismatch.left_only or mismatch.right_only or not same_settings:
        raise SystemExit("perfbench/ or BENCHMARK.json differs between the checkouts; compare with identical benchmark code")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(getattr(args, side), bench, args.workload, args.seed + i))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)

    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        result, wins = verdict(parent, change, metric["better"], metric["bound"])
        cols = []
        for side, values in (("parent", parent), ("change", change)):
            q = statistics.quantiles(values, n=4)
            cols.append(f"{side} {statistics.median(values):.4g} [{q[0]:.4g}, {q[2]:.4g}]")
        print(f"{args.workload} {name} ({metric['unit']}): {'; '.join(cols)}; "
              f"change won {wins}/{args.pairs}: {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
