"""Utility functions, certainty equivalents, and pooled risk premiums.

The certainty equivalent of a risk X under utility u and mixture mu is
u^{-1}(U_mu(u(X))): outcomes are pushed through u (which commutes with the
quantile function, u being strictly increasing), the mixture functional is
applied, and the result is pulled back through the inverse. The risk
premium of an equally shared pool adds wealth bookkeeping: wealth plus the
single-risk mean minus the certainty equivalent of wealth plus the pooled
average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, Distribution, Normal, quantile_grid_sample
from .risk_measures import DELTA_ONE, KusuokaFamily, MixtureMeasure, preference_value

DEFAULT_CE_GRID_POINTS = 2**14


class UtilityDomainError(ValueError):
    """A risk's support leaves the utility's domain (or a value its range)."""


class UtilityFunction:
    """Strictly increasing, continuously differentiable map with an inverse.

    apply accepts scalars or arrays; invert takes a value in the
    range of the function. Both return a float for a scalar and an array
    for an array. Arguments outside the domain, values outside the range,
    and results beyond the largest float raise :class:`UtilityDomainError`
    rather than being clamped. A utility states only its formula
    ``_apply``, its inverse ``_invert`` (with its range check) and, through
    a ``shift`` field, its open domain x > -shift.
    """

    def apply(self, x):
        arr = np.asarray(x, dtype=float)
        lo = self.domain_lower
        if lo > -math.inf and arr.min() <= lo:
            raise UtilityDomainError(
                f"argument {float(arr.min())!r} outside utility domain (x > {lo!r})"
            )
        return self._finite(self._apply, arr)

    def invert(self, y):
        return self._finite(self._invert, np.asarray(y, dtype=float))

    # A value beyond the largest float is an error, not inf. Both maps rise,
    # so the overflow is at the largest argument when it is to +inf and at
    # the smallest when it is to -inf.
    def _finite(self, formula, arr):
        with np.errstate(over="ignore"):
            out = formula(arr)
        if np.count_nonzero(np.isinf(out)):
            raise self._overflow(float(arr.max() if np.max(out) == math.inf else arr.min()))
        return out if arr.ndim else float(out)

    def _overflow(self, at: float) -> UtilityDomainError:
        return UtilityDomainError(f"{self!r} overflows at argument {at!r}")

    @property
    def domain_lower(self) -> float:
        """Open lower endpoint of the domain: -shift, or -inf without a shift."""
        return -getattr(self, "shift", math.inf)


@dataclass(frozen=True)
class LinearUtility(UtilityFunction):
    slope: float = 1.0
    intercept: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.slope) and self.slope > 0.0 and math.isfinite(self.intercept)):
            raise ValueError("linear utility requires slope > 0")

    def _apply(self, x):
        return self.slope * x + self.intercept

    def _invert(self, y):
        return (y - self.intercept) / self.slope


@dataclass(frozen=True)
class CaraUtility(UtilityFunction):
    """Constant absolute risk aversion: u(x) = (1 - exp(-alpha x)) / alpha."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("cara utility requires alpha > 0")

    # Dividing by -alpha gives -(v / alpha) exactly.
    def _apply(self, x):
        return np.expm1(-self.alpha * x) / -self.alpha

    def _invert(self, y):
        top = float(y.max())
        if top >= 1.0 / self.alpha:
            raise UtilityDomainError(
                f"{self!r} has no inverse at value {top!r} (range y < {1.0 / self.alpha!r})"
            )
        return np.log1p(-self.alpha * y) / -self.alpha


@dataclass(frozen=True)
class LogUtility(UtilityFunction):
    """u(x) = log(x + shift) on x > -shift."""

    shift: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.shift):
            raise ValueError("log utility requires a finite shift")

    def _apply(self, x):
        return np.log(x + self.shift)

    def _invert(self, y):
        return np.exp(y) - self.shift


@dataclass(frozen=True)
class CrraUtility(UtilityFunction):
    """u(x) = ((x + shift)^(1-gamma) - 1)/(1-gamma) on x > -shift, gamma != 1.

    Strictly increasing for every admissible gamma; concave only for
    gamma > 0.
    """

    gamma: float
    shift: float = 0.0

    def __post_init__(self):
        ok = math.isfinite(self.gamma) and self.gamma != 1.0 and math.isfinite(self.shift)
        if not ok:
            raise ValueError("crra utility requires finite gamma != 1")

    def _apply(self, x):
        g = 1.0 - self.gamma
        return (np.power(x + self.shift, g) - 1.0) / g

    def _invert(self, y):
        g = 1.0 - self.gamma
        base = g * y + 1.0
        if base.min() <= 0.0:
            # g * y + 1 > 0 bounds y from below for g > 0, from above for g < 0.
            value, side = (y.min(), ">") if g > 0.0 else (y.max(), "<")
            raise UtilityDomainError(
                f"{self!r} has no inverse at value {float(value)!r} (range y {side} {-1.0 / g!r})"
            )
        return np.power(base, 1.0 / g) - self.shift


def _check_parametric_support(dist: Distribution, u: UtilityFunction) -> None:
    # Continuous laws put no mass on the support boundary, so equality with
    # the open domain endpoint is admitted; anything below is rejected.
    if u.domain_lower > -math.inf and dist.support_lower_bound() < u.domain_lower:
        raise UtilityDomainError(
            f"support of the law reaches {dist.support_lower_bound()!r}, "
            f"below the utility domain (x > {u.domain_lower!r})"
        )


def _transformed_law(dist: DiscreteDistribution, u: UtilityFunction) -> DiscreteDistribution:
    # u is strictly increasing, so the image keeps the atoms' order (rounding
    # may tie neighbours, which the nondecreasing-atom law admits).
    return DiscreteDistribution._sorted(u.apply(dist._atoms), dist._masses, dist._cum)


def _pullback_value(law, preference, u: UtilityFunction) -> float:
    # For cara utility the whole pullback commutes exactly with translation
    # (shifting X by c turns u(X) into an affine image of u(X - c), and the
    # functional is affine-equivariant), so the law is mean-centered first:
    # the exp/log round trip then never runs into its saturation regime.
    # Cara's u overflows only at its smallest argument, which an overflow
    # names as the law's own value, uncentred.
    if isinstance(u, CaraUtility):
        center = law.mean()
        shifted = law.translate(-center)
        try:
            image = _transformed_law(shifted, u)
        except UtilityDomainError as exc:
            raise u._overflow(center + shifted.support_lower_bound()) from exc
        return center + float(u.invert(preference_value(image, preference)))
    return float(u.invert(preference_value(_transformed_law(law, u), preference)))


def closed_form_certainty_equivalent(
    dist: Distribution, mu: MixtureMeasure | KusuokaFamily, u: UtilityFunction
) -> float | None:
    """Closed-form certainty equivalent of a law, or None.

    The table has two entries: linear u on any law, finite or parametric
    (the functional of the law itself, u being affine), and cara u on a
    normal law with the point mass at level 1 (loc - alpha * scale^2 / 2).
    """
    if isinstance(u, LinearUtility):
        return preference_value(dist, mu)
    if isinstance(u, CaraUtility) and isinstance(dist, Normal) and mu == DELTA_ONE:
        return dist.loc - u.alpha * dist.scale**2 / 2.0
    return None


def certainty_equivalent(
    dist: Distribution,
    mu: MixtureMeasure | KusuokaFamily,
    u: UtilityFunction,
    *,
    grid_points: int = DEFAULT_CE_GRID_POINTS,
) -> float:
    """Sure amount with the same distorted expected utility as the risk.

    ``mu`` is a mixture, or a family whose minimum replaces the mixture.
    :func:`closed_form_certainty_equivalent` answers first where it has an
    entry. Otherwise finite laws (discrete, empirical, two-point) are
    evaluated exactly by transforming their outcomes, and parametric laws
    through the equal-probability quantile grid of ``grid_points`` midpoints.
    """
    ce = closed_form_certainty_equivalent(dist, mu, u)
    if ce is not None:
        return ce
    if isinstance(dist, DiscreteDistribution):
        return _pullback_value(dist, mu, u)
    _check_parametric_support(dist, u)
    return _pullback_value(quantile_grid_sample(dist, grid_points), mu, u)


def risk_premium(
    wealth: float,
    pool_dist: Distribution,
    preference,
    u: UtilityFunction,
    *,
    single_risk_mean: float | None = None,
) -> float:
    """wealth + E[X1] - certainty equivalent of (wealth + pooled average).

    ``preference`` is a MixtureMeasure or a KusuokaFamily. The single-risk
    mean defaults to the pool law's own mean, which is exact for analytic
    pool laws; Monte Carlo callers should pass the true mean so premium
    estimates are not polluted by mean-estimation noise.
    """
    m1 = pool_dist.mean() if single_risk_mean is None else float(single_risk_mean)
    ce = certainty_equivalent(pool_dist.translate(wealth), preference, u)
    return wealth + m1 - ce

