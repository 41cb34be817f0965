"""Closed-form limit constants for pooled premiums and rate-of-convergence fits.

The scaled premium of an equally shared pool converges, as the pool grows,
to the single-risk standard deviation times a constant determined solely by
the mixing measure: the weighted average of pdf(ppf(level))/level over its
atoms (a family contributes the largest such average among its members).
The constant is the negative of the mixture functional of a standard
normal, which is how the cross-check in the test-suite certifies it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .normal import inv_normal_cdf, normal_pdf
from .risk_measures import KusuokaFamily, MixtureMeasure

__all__ = [
    "RateFit",
    "fit_rate",
    "inv_normal_cdf",
    "normal_avar_constant",
    "theorem1_limit",
    "theorem2_limit",
]


def normal_avar_constant(lam: float) -> float:
    """pdf(ppf(lam))/lam for lam in (0, 1]; 0 at lam = 1 (the limit value).

    Equals the negative building-block value of a standard normal law, is
    strictly decreasing on (0, 1), and vanishes as lam -> 1.
    """
    lam = float(lam)
    if not 0.0 < lam <= 1.0 or math.isnan(lam):
        raise ValueError(f"tail level must lie in (0, 1], got {lam!r}")
    if lam == 1.0:
        return 0.0
    return float(normal_pdf(inv_normal_cdf(lam))) / lam


def theorem1_limit(sigma: float, mu: MixtureMeasure) -> float:
    """Limit of the scaled pooled premium under a single mixture measure.

    sigma times the mu-average of :func:`normal_avar_constant`; zero when
    sigma is zero (a degenerate risk pools to itself) and zero exactly when
    mu is the point mass at level 1.
    """
    sigma = float(sigma)
    if sigma < 0.0 or math.isnan(sigma):
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return 0.0
    return sigma * math.fsum(w * normal_avar_constant(lam) for lam, w in mu.atoms)


def theorem2_limit(sigma: float, family: KusuokaFamily) -> float:
    """Limit under a family: sigma times the largest member constant."""
    sigma = float(sigma)
    if sigma < 0.0 or math.isnan(sigma):
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return 0.0
    return max(theorem1_limit(sigma, mu) for mu in family.members)


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(premium) on log(n).

    A slope near -1/2 indicates the distorted (first-order) regime, a slope
    near -1 the plain expected-utility (second-order) regime. The grid and
    the default transient drop are engineering choices; the points actually
    fitted are recorded in ``points``.
    """

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[int, float], ...]


def fit_rate(points, *, drop_smallest: int = 1) -> RateFit:
    """Fit a power law premium ~ exp(intercept) * n^slope by OLS in logs.

    Needs at least three points with distinct pool sizes and strictly
    positive premiums (a nonpositive premium signals the degenerate
    zero-variance or undistorted-linear case; skip fitting there). The
    ``drop_smallest`` smallest pool sizes are excluded as Taylor-transient,
    keeping at least two points.
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
    drop = max(0, min(int(drop_smallest), len(pts) - 2))
    used = pts[drop:]
    x = np.log([n for n, _ in used])
    y = np.log([p for _, p in used])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.square(resid).sum())
    ss_tot = float(np.square(y - y.mean()).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(float(slope), float(intercept), r_squared, tuple(used))
