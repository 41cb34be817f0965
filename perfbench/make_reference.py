"""Rewrite the Monte Carlo references in reference.json.

The curves whose laws do not depend on the workload seed are checked
against the mean of their estimates over many seeds; the reference
stderr is that of the mean. Run it only when a change is meant to move the
expected values themselves, never to make a failing check pass:

    python3 perfbench/make_reference.py [--seeds 16]
"""

import argparse
import json
import math

from workloads import REFERENCE_PATH, SampleConfigs, SummedDraws, mc_engine


def curves_for(seed: int) -> dict:
    sample = SampleConfigs(seed, None).configs
    return {
        "sample_configs/normal_cara_mixture": sample["normal_cara_mixture"],
        "sample_configs/twopoint_family": sample["twopoint_family"],
        "summed_draws": SummedDraws(seed, None).config,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args()
    seeds = list(range(1, args.seeds + 1))
    sums: dict[str, dict[int, list[float]]] = {}
    for seed in seeds:
        for key, cfg in curves_for(seed).items():
            for p in mc_engine.run_curve(cfg, threads=2).points:
                acc = sums.setdefault(key, {}).setdefault(p.n, [0.0, 0.0])
                acc[0] += p.estimate
                acc[1] += p.stderr**2
    k = len(seeds)
    curves = {
        key: [{"n": n, "estimate": s / k, "stderr": math.sqrt(v) / k} for n, (s, v) in sorted(by_n.items())]
        for key, by_n in sums.items()
    }
    REFERENCE_PATH.write_text(json.dumps({"seeds": seeds, "curves": curves}, indent=1) + "\n")


if __name__ == "__main__":
    main()
