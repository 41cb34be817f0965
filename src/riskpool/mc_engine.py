"""Premium-curve experiments across pool sizes.

:func:`run_curve` is the one entry: it estimates every pool size of the
config's n grid, and a single pool size is a one-point grid. For each pool
size n the scaled premium sqrt(n) * (E[X1] - CE(pool average)) is
estimated from B independent batches of R/B pooled replicates: each batch
forms the empirical law of its replicates, evaluates the certainty
equivalent of that law, and contributes one premium value. The estimate is
the batch mean and the standard error the batch-mean standard error --
batch means sidestep delta-method derivations for the nonlinear
tail-average-of-empirical-law estimator (whose plug-in bias is O(B/R) per
batch, below Monte Carlo noise at the default sizes).

Randomness is drawn from independent streams keyed by (master_seed,
batch), so the same seed reuses the same raw draws across pool sizes and
across utility choices (common random numbers, sharpening convergence and
utility-robustness comparisons), and results are bit-identical regardless
of how many workers execute the batch grid. Each curve makes one
:class:`RngSpec` per batch and passes it to the batch's cell at every pool
size. Normal and lattice pools (and one copy of a finite law off a
lattice) take the same sorted base draw (standard normals or uniforms) at
every n, which the spec keeps after its first use:
one float64 per replicate, freed with the specs when the curve's points
are computed (0.8 MB at 100 000 replicates). The law's sampler for a pool
size is asked for once, in the calling thread, before that n's batches
run; its ``method`` is the one the point records.

Normal risks with linear utility (any mixture or family) or cara utility
(the point mass at level 1, or a family of it alone) take an exact path
with zero standard error: the limit itself, or :func:`risk_premium` on the
sampler's centred pool law. The rule reads kinds, never a certainty
equivalent. The flag auto-enables there and can be forced off to exercise
the sampler.

A :class:`PremiumCurve` holds only what the run computed: its points, the
limit and the rate fit. The config's seed, wire form and hash live with
the config (:mod:`riskpool.config`), and the ``premium-curve`` command
writes them beside the curve.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .asymptotics import RateFit, fit_rate, theorem1_limit
from .distributions import Distribution, Normal, PoolSampler, RngSpec, _store_floats, pool_average_sample
from .preferences import CaraUtility, LinearUtility, UtilityDomainError, UtilityFunction, risk_premium
from .risk_measures import KusuokaFamily, MixtureMeasure, is_delta_one

DEFAULT_N_GRID = (4, 16, 64, 256, 1024, 4096)


def _count(value, name: str) -> int:
    """``value`` as a Python int, numpy ints included; anything else, a
    float such as 400.0 among them, is an error that names the field."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
        _store_floats(self, "wealth")
        if not math.isfinite(self.wealth):
            raise ValueError("wealth must be finite")
        for name in ("replications", "batches"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        n_grid = tuple(_count(n, f"n_grid[{i}]") for i, n in enumerate(self.n_grid))
        object.__setattr__(self, "n_grid", n_grid)
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
        RngSpec(self.master_seed)  # a stream key in [0, 2**64)

    @property
    def preference(self):
        return self.mixture if self.mixture is not None else self.family


@dataclass(frozen=True)
class CurvePoint:
    """One pool size's estimate; ``method`` is "exact" on the closed-form
    path and otherwise ``pool_sampler(n).method``, the law's pooled sampler
    at this n."""

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


@dataclass(frozen=True)
class ComparisonRow:
    """One point's distance to the limit, in the curve's point order."""

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


def theorem_limit(config: ExperimentConfig) -> float:
    """Limit constant of the config's mixture or family, at the law's sd()."""
    variance = config.distribution.variance()
    if not math.isfinite(variance):
        raise ValueError(f"the law's variance is not finite, got {variance!r}")
    return theorem1_limit(config.distribution.sd(), config.preference)


def _limit_and_exact_premiums(config: ExperimentConfig) -> tuple[float, list[float] | None]:
    """The curve's limit, and its closed-form scaled premiums on the n grid
    or None where the curve is sampled: the one statement of the auto-exact
    rule, on the kinds of law, utility and preference. exact=True without
    a closed form fails before the variance check."""
    dist, mu, utility = config.distribution, config.preference, config.utility
    closed = isinstance(dist, Normal) and (
        isinstance(utility, LinearUtility) or (isinstance(utility, CaraUtility) and is_delta_one(mu))
    )
    if config.exact and not closed:
        raise ValueError(
            "exact=True requires a closed-form configuration "
            "(normal risks with linear utility, or cara utility with the point mass at 1)"
        )
    limit = theorem_limit(config)
    if not closed or config.exact is False:
        return limit, None
    if isinstance(utility, LinearUtility):
        # Premium (sigma/sqrt(n)) * constant; the sqrt(n) scaling cancels,
        # so the Taylor error of the expansion argument vanishes identically.
        return limit, [limit] * len(config.n_grid)
    # Cara is translation-equivariant, so the centred pool law at zero
    # wealth avoids the cancellation in wealth + mean - CE.
    return limit, [
        math.sqrt(n) * risk_premium(0.0, dist.pool_sampler(n).law.translate(-dist.loc), mu, utility)
        for n in config.n_grid
    ]


def _batch_scaled_premium(
    config: ExperimentConfig, n: int, sampler: PoolSampler, mean: float, rng: RngSpec
) -> float:
    pool = pool_average_sample(sampler, config.replications // config.batches, rng)
    try:
        premium = risk_premium(config.wealth, pool, config.preference, config.utility, single_risk_mean=mean)
    except UtilityDomainError as exc:
        raise UtilityDomainError(f"pool size n={n}, batch {rng.stream_id}: {exc}") from exc
    return math.sqrt(n) * premium


def _curve_points(config: ExperimentConfig, threads: int) -> list[CurvePoint]:
    # Batch mean and batch-mean standard error per n. A utility domain
    # violation in any replicate aborts the whole pool size (dropping
    # offending replicates would bias the tail of the empirical law).
    # One spec per batch, shared by its cells at every n and dropped with
    # the curve. The single-risk mean is taken once, and each n's sampler
    # (a lattice law's pool law, say) is made once, here, and dropped after
    # that n's batches. An executor starts no thread before its first task,
    # so at one thread the cells run here.
    specs = [RngSpec(config.master_seed, b) for b in range(config.batches)]
    mean = config.distribution.mean()
    points = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        run = pool.map if threads > 1 else map
        for n in config.n_grid:
            sampler = config.distribution.pool_sampler(n)
            values = np.array(list(run(partial(_batch_scaled_premium, config, n, sampler, mean), specs)))
            stderr = float(values.std(ddof=1) / math.sqrt(config.batches))
            points.append(CurvePoint(n, float(values.mean()), stderr, config.replications, sampler.method))
    return points


def run_curve(config: ExperimentConfig, *, threads: int = 1) -> PremiumCurve:
    """Estimate the scaled premium on the whole n grid.

    ``threads`` parallelizes over (n, batch) cells; every cell starts at
    the head of its batch's stream, and cells are merged in grid order, so
    the result is a pure function of (config, master_seed). The rate fit
    runs on unscaled premiums when they are all positive and is omitted
    otherwise. The limit comes first, so a law whose variance overflows
    fails before sampling. ``threads`` below 1 is a ValueError.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    limit, exact = _limit_and_exact_premiums(config)
    if exact is None:
        points = _curve_points(config, threads)
    else:
        points = [CurvePoint(n, v, 0.0, config.replications, "exact") for n, v in zip(config.n_grid, exact)]
    unscaled = [(p.n, p.estimate / math.sqrt(p.n)) for p in points]
    rate = None
    if len(unscaled) >= 3 and all(v > 0.0 for _, v in unscaled):
        rate = fit_rate(unscaled)
    return PremiumCurve(points=tuple(points), limit=limit, rate_fit=rate)


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
        rows.append(ComparisonRow(gap, z))
    tail = list(zip(curve.points, rows))[-3:]
    trend_ok = not any(
        cur.abs_gap > prev.abs_gap + 2.0 * math.hypot(p.stderr, q.stderr)
        for (p, prev), (q, cur) in zip(tail, tail[1:])
    )
    return LimitComparison(tuple(rows), trend_ok, _TOLERANCE_NOTE)
