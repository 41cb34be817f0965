#!/usr/bin/env python3
"""Time a premium curve on the lattice and on multinomial counts.

A finite law on a lattice draws its pool average from a pool law built by
an FFT once per pool size (``lattice``), or from multinomial counts per
replicate (``multinomial``). For laws {0, 1, ..., k - 2, r}, with r chosen
so that n copies take an FFT of 2**e entries, this runs the one-point
curve both ways (100 000 replicates in 20 batches, linear utility) and
prints the fastest and slowest of a few runs of each side, the faster side
where the two ranges do not overlap (``-`` where they do), and the side
that ``_POOL_ENTRIES_PER_ATOM`` picks. The ratio column is FFT entries per
atom and replicate.

Usage: python scripts/pool_crossover.py [--repeats R]
"""

import argparse
import sys
import time
from contextlib import contextmanager
from pathlib import Path

try:
    import riskpool
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import riskpool

from riskpool import DiscreteDistribution, ExperimentConfig, LinearUtility, MixtureMeasure, run_curve
from riskpool import distributions

REPLICATIONS = 100_000
# Lifts the per-atom rule; the FFT cap still holds.
UNLIMITED = 1 << 40


@contextmanager
def entries_per_atom(value: int):
    picked = distributions._POOL_ENTRIES_PER_ATOM
    distributions._POOL_ENTRIES_PER_ATOM = value
    try:
        yield
    finally:
        distributions._POOL_ENTRIES_PER_ATOM = picked


def law(k: int, top: int) -> DiscreteDistribution:
    return DiscreteDistribution([*map(float, range(k - 1)), float(top)], [1.0 / k] * k)


def fits(k: int, top: int, n: int, size: int) -> bool:
    with entries_per_atom(UNLIMITED):
        window = law(k, top)._pool_window(n)
    return window is not None and distributions._fft_size(window[1] - window[0]) <= size


def top_for(k: int, n: int, e: int) -> int | None:
    """Largest top unit whose n copies take an FFT of exactly 2**e entries."""
    lo, hi = k, 1 << 22
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if fits(k, mid, n, 1 << e) else (lo, mid - 1)
    return lo if fits(k, lo, n, 1 << e) and not fits(k, lo, n, 1 << (e - 1)) else None


def time_range(k: int, top: int, n: int, value: int, repeats: int) -> tuple[float, float]:
    """Fastest and slowest wall time of the one-point curve, the law built
    afresh each run."""
    times = []
    with entries_per_atom(value):
        for _ in range(repeats):
            config = ExperimentConfig(
                distribution=law(k, top),
                utility=LinearUtility(),
                mixture=MixtureMeasure.point(0.5),
                n_grid=(n,),
                replications=REPLICATIONS,
                batches=20,
                master_seed=7,
            )
            start = time.perf_counter()
            run_curve(config)
            times.append(time.perf_counter() - start)
    return min(times), max(times)


def span(times: tuple[float, float]) -> str:
    """A time range in milliseconds, as min-max."""
    return f"{times[0] * 1e3:.1f}-{times[1] * 1e3:.1f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    # Untimed: the first curve of a process pays one-off start-up costs.
    for value in (UNLIMITED, 0):
        time_range(3, top_for(3, 4, 16), 4, value, 1)
    print("n\tk\tFFT\tratio\tlattice_ms\tcounts_ms\tfaster\tpicked")
    for n in (4, 16, 64, 256):
        for k in (3, 10):
            for e in range(16, 22):
                top = top_for(k, n, e)
                if top is None:
                    continue
                lattice = time_range(k, top, n, UNLIMITED, args.repeats)
                # No entries per atom: every pool of two or more copies counts.
                counts = time_range(k, top, n, 0, args.repeats)
                # A side is faster only when its slowest run beats the other's fastest.
                faster = "lattice" if lattice[1] < counts[0] else "multinomial" if counts[1] < lattice[0] else "-"
                # The window decides the side without building the pool law.
                picked = "multinomial" if law(k, top)._pool_window(n) is None else "lattice"
                print(
                    f"{n}\t{k}\t2^{e}\t{(1 << e) / (REPLICATIONS * k):.2f}\t{span(lattice)}\t"
                    f"{span(counts)}\t{faster}\t{picked}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
