"""Premium-curve experiments across pool sizes.

For each pool size n the scaled premium sqrt(n) * (E[X1] - CE(pool average))
is estimated from B independent batches of R/B pooled replicates: each batch
forms the empirical law of its replicates, evaluates the certainty
equivalent of that law, and contributes one premium value. The estimate is
the batch mean and the standard error the batch-mean standard error --
batch means sidestep delta-method derivations for the nonlinear
tail-average-of-empirical-law estimator (whose plug-in bias is O(B/R) per
batch, below Monte Carlo noise at the default sizes).

Randomness is drawn from counter-based streams keyed by (master_seed,
batch), so the same seed reuses the same raw draws across pool sizes and
across utility choices (common random numbers, sharpening convergence and
utility-robustness comparisons), and results are bit-identical regardless
of how many workers execute the batch grid. Normal and lattice pools take
the same sorted base draw (standard normals or uniforms) at every pool
size, so each batch's is drawn once per curve and reused: one float64 per
replicate, held until the curve's points are computed (0.8 MB at 100 000
replicates).

Configurations with a closed-form premium (normal risks with linear
utility at any mixture or family, or with cara utility under the point
mass at level 1) take an exact path with zero standard error; the flag
auto-enables there and can be forced off to exercise the sampler.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .asymptotics import RateFit, fit_rate, theorem1_limit
from .distributions import BatchStream, Distribution, Normal, RngSpec, pool_average_sample
from .preferences import (
    LinearUtility,
    UtilityDomainError,
    UtilityFunction,
    closed_form_certainty_equivalent,
    risk_premium,
)
from .risk_measures import KusuokaFamily, MixtureMeasure

DEFAULT_N_GRID = (4, 16, 64, 256, 1024, 4096)


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one premium-curve experiment.

    Exactly one of ``mixture`` / ``family`` must be given. ``exact=None``
    auto-selects the closed-form path when available; ``exact=True``
    requires one; ``exact=False`` forces Monte Carlo.
    """

    distribution: Distribution
    utility: UtilityFunction
    mixture: MixtureMeasure | None = None
    family: KusuokaFamily | None = None
    wealth: float = 0.0
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    replications: int = 100_000
    batches: int = 20
    master_seed: int = 0
    exact: bool | None = None

    def __post_init__(self):
        if (self.mixture is None) == (self.family is None):
            raise ValueError("exactly one of mixture and family must be set")
        if not math.isfinite(self.wealth):
            raise ValueError("wealth must be finite")
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid must be nonempty with positive pool sizes")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.batches < 2:
            raise ValueError("at least 2 batches are required for a standard error")
        if self.replications % self.batches != 0:
            raise ValueError("replications must be divisible by batches")
        if self.replications // self.batches < 2:
            raise ValueError("need at least 2 replications per batch")
        RngSpec(self.master_seed)  # a Philox key word in [0, 2**64)

    @property
    def preference(self):
        return self.mixture if self.mixture is not None else self.family


@dataclass(frozen=True)
class CurvePoint:
    """One pool size's estimate; ``method`` is "exact" on the closed-form
    path and otherwise the law's ``pool_method(n)``, the pooled sampler
    used at this n."""

    n: int
    estimate: float
    stderr: float
    replications: int
    method: str


@dataclass(frozen=True)
class PremiumCurve:
    """Scaled premium estimates per pool size, with the theoretical limit."""

    points: tuple[CurvePoint, ...]
    limit: float
    rate_fit: RateFit | None
    master_seed: int
    config_hash: str


@dataclass(frozen=True)
class ComparisonRow:
    n: int
    estimate: float
    stderr: float
    abs_gap: float
    z_score: float


@dataclass(frozen=True)
class LimitComparison:
    rows: tuple[ComparisonRow, ...]
    trend_ok: bool
    note: str


_TOLERANCE_NOTE = (
    "z-scores and the trend check are engineering diagnostics; "
    "the limit theorems provide no finite-n error bounds"
)


def _use_exact(config: ExperimentConfig) -> bool:
    dist = config.distribution
    closed = isinstance(dist, Normal) and (
        closed_form_certainty_equivalent(dist, config.preference, config.utility) is not None
    )
    if config.exact is None:
        return closed
    if config.exact and not closed:
        raise ValueError(
            "exact=True requires a closed-form configuration "
            "(normal risks with linear utility, or cara utility with the point mass at 1)"
        )
    return bool(config.exact)


def theorem_limit(config: ExperimentConfig) -> float:
    """Limit constant matching the config's mixture or family."""
    variance = config.distribution.variance()
    if not math.isfinite(variance):
        raise ValueError(f"the law's variance is not finite, got {variance!r}")
    return theorem1_limit(math.sqrt(variance), config.preference)


def _exact_scaled_premium(config: ExperimentConfig, n: int) -> float:
    if isinstance(config.utility, LinearUtility):
        # Premium (sigma/sqrt(n)) * constant; the sqrt(n) scaling cancels,
        # so the Taylor error of the expansion argument vanishes identically.
        return theorem_limit(config)
    # Both closed-form utilities are translation-equivariant, so the premium
    # is minus the CE of the centred pooled law; centring avoids the
    # cancellation in wealth + mean - CE when the mean dwarfs the spread.
    centred = Normal(0.0, config.distribution.scale / math.sqrt(n))
    return -math.sqrt(n) * closed_form_certainty_equivalent(centred, config.preference, config.utility)


def _batch_scaled_premium(config: ExperimentConfig, n: int, stream: BatchStream) -> float:
    per_batch = config.replications // config.batches
    pool = pool_average_sample(config.distribution, n, per_batch, stream)
    try:
        premium = risk_premium(
            config.wealth,
            pool,
            config.preference,
            config.utility,
            single_risk_mean=config.distribution.mean(),
        )
    except UtilityDomainError as exc:
        raise UtilityDomainError(f"pool size n={n}, batch {stream.rng.stream_id}: {exc}") from exc
    return math.sqrt(n) * premium


def _curve_points(
    config: ExperimentConfig, n_grid: tuple[int, ...], exact: bool, threads: int = 1
) -> list[CurvePoint]:
    # Exact path: analytic values with stderr 0. Monte Carlo path: batch
    # mean and batch-mean standard error per n. A utility domain violation
    # in any replicate aborts the whole pool size (dropping offending
    # replicates would bias the tail of the empirical law).
    if exact:
        return [
            CurvePoint(n, _exact_scaled_premium(config, n), 0.0, config.replications, "exact")
            for n in n_grid
        ]
    # One stream per batch, shared by its cells at every n; cells run
    # n-major, so a lattice law builds each pool size's law once.
    streams = BatchStream.for_curve(config.master_seed, config.batches, config.replications // config.batches)
    tasks = [(n, stream) for n in n_grid for stream in streams]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda t: _batch_scaled_premium(config, *t), tasks))
    else:
        results = [_batch_scaled_premium(config, n, stream) for n, stream in tasks]
    by_n = np.asarray(results).reshape(len(n_grid), config.batches)
    return [
        CurvePoint(
            n,
            float(values.mean()),
            float(values.std(ddof=1) / math.sqrt(config.batches)),
            config.replications,
            config.distribution.pool_method(n),
        )
        for n, values in zip(n_grid, by_n)
    ]


def estimate_scaled_premium(config: ExperimentConfig, n: int) -> tuple[float, float]:
    """(estimate, stderr) of the scaled premium at one pool size, as the
    point :func:`run_curve` gives that n."""
    if n < 1:
        raise ValueError("pool size must be >= 1")
    point = _curve_points(config, (n,), _use_exact(config))[0]
    return point.estimate, point.stderr


def config_hash(config: ExperimentConfig) -> str:
    """Hash over every semantically meaningful field (not speed knobs)."""
    from .config import experiment_config_to_dict

    payload = json.dumps(experiment_config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def run_curve(config: ExperimentConfig, *, threads: int = 1) -> PremiumCurve:
    """Estimate the scaled premium on the whole n grid.

    ``threads`` parallelizes over (n, batch) cells; every cell starts at
    the head of its batch's stream, and cells are merged in grid order, so
    the result is a pure function of (config, master_seed). The rate fit
    runs on unscaled premiums when they are all positive and is omitted
    otherwise. The limit comes first, so a law whose variance overflows
    fails before sampling.
    """
    exact = _use_exact(config)
    limit = theorem_limit(config)
    points = _curve_points(config, config.n_grid, exact, threads)
    unscaled = [(p.n, p.estimate / math.sqrt(p.n)) for p in points]
    rate = None
    if len(unscaled) >= 3 and all(v > 0.0 for _, v in unscaled):
        rate = fit_rate(unscaled)
    return PremiumCurve(
        points=tuple(points),
        limit=limit,
        rate_fit=rate,
        master_seed=config.master_seed,
        config_hash=config_hash(config),
    )


def compare_to_limit(curve: PremiumCurve) -> LimitComparison:
    """Per-n gap and z-score against the limit, plus a trend check.

    The trend check requires |estimate - limit| to be nonincreasing across
    the last three grid points, with slack twice the joint standard error
    of each consecutive pair. Exact-path rows carry z-score 0 when they
    match the limit exactly and +/-inf otherwise (the gap there is genuine
    finite-n bias, not noise).
    """
    rows = []
    for p in curve.points:
        gap = abs(p.estimate - curve.limit)
        if p.stderr > 0.0:
            z = (p.estimate - curve.limit) / p.stderr
        else:
            z = 0.0 if gap == 0.0 else math.copysign(math.inf, p.estimate - curve.limit)
        rows.append(ComparisonRow(p.n, p.estimate, p.stderr, gap, z))
    trend_ok = True
    tail = rows[-3:]
    for prev, cur in zip(tail, tail[1:]):
        slack = 2.0 * math.hypot(prev.stderr, cur.stderr)
        if cur.abs_gap > prev.abs_gap + slack:
            trend_ok = False
    return LimitComparison(tuple(rows), trend_ok, _TOLERANCE_NOTE)
