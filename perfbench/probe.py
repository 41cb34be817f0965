"""Set-up probe: build one workload in a fresh interpreter.

Prints one JSON line with ``setup_s``: import of riskpool and numpy plus
building the workload's configs, from the first statement of this script.
Started by ``run.py``; usage:

    python3 perfbench/probe.py --workload NAME --seed N --work-dir DIR
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    WORKLOADS[args.workload](args.seed, Path(args.work_dir))
    print(json.dumps({"setup_s": time.perf_counter() - START}))


if __name__ == "__main__":
    main()
