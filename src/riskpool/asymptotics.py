"""Limit constants of pooled premiums and rate-of-convergence fits.

As the pool grows, sqrt(n) times the premium of an equally shared pool
tends to the single-risk standard deviation sigma times minus the
preference's value on a standard normal risk. Under a mixture that value
is minus the weighted average of pdf(ppf(level))/level over its atoms
(Theorem 1); under a family it is the smallest member value, so the limit
takes the largest member constant (Theorem 2). :func:`theorem1_limit`
gives both, reading the normal law's tail integral through
:func:`~riskpool.risk_measures.preference_value`, so the constant has no
second closed form and the family limit no second name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Normal
from .risk_measures import KusuokaFamily, MixtureMeasure, preference_value

__all__ = [
    "RateFit",
    "fit_rate",
    "theorem1_limit",
]

_STANDARD_NORMAL = Normal(0.0, 1.0)


def theorem1_limit(sigma: float, mu: MixtureMeasure | KusuokaFamily) -> float:
    """Limit of the scaled pooled premium: -sigma * value of N(0, 1) under mu.

    mu is a mixture (Theorem 1), or a family, whose limit takes the largest
    member constant (Theorem 2). The limit is zero when sigma is zero (a
    degenerate risk pools to itself) and zero exactly when mu is the point
    mass at level 1. sigma must be finite and nonnegative, and so must the
    limit: a product that overflows is an error.
    """
    sigma = float(sigma)
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma!r}")
    value = preference_value(_STANDARD_NORMAL, mu)
    # 0.0 - x rather than -x, so a zero constant comes out +0.0.
    limit = 0.0 - sigma * value
    if not math.isfinite(limit):
        raise ValueError(f"the limit is not finite: sigma {sigma!r} times the N(0, 1) value {value!r}")
    return limit


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(premium) on log(n).

    A slope near -1/2 indicates the distorted (first-order) regime, a slope
    near -1 the plain expected-utility (second-order) regime. The grid and
    the transient drop are engineering choices; the points actually
    fitted are recorded in ``points``.
    """

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[int, float], ...]


def fit_rate(points) -> RateFit:
    """Fit a power law premium ~ exp(intercept) * n^slope by OLS in logs.

    Needs at least three points with distinct pool sizes and strictly
    positive premiums (a nonpositive premium signals the degenerate
    zero-variance or undistorted-linear case; skip fitting there). The
    smallest pool size is excluded as Taylor-transient.
    """
    pts = sorted((int(n), float(p)) for n, p in points)
    if len(pts) < 3:
        raise ValueError("rate fit needs at least 3 points")
    if len({n for n, _ in pts}) != len(pts):
        raise ValueError("pool sizes must be distinct")
    if any(p <= 0.0 for _, p in pts):
        raise ValueError(
            "premiums must be strictly positive to fit a rate "
            "(nonpositive values indicate a degenerate configuration)"
        )
    used = pts[1:]
    x = np.log([n for n, _ in used])
    y = np.log([p for _, p in used])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.square(resid).sum())
    ss_tot = float(np.square(y - y.mean()).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), r_squared, tuple(used))
