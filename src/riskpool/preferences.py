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
from dataclasses import dataclass, replace

import numpy as np

from .distributions import DiscreteDistribution, Distribution, Exponential, Normal, Uniform, _ScoreImage, _store_floats
from .risk_measures import KusuokaFamily, MixtureMeasure, is_delta_one, preference_value


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
    # the smallest when it is to -inf. Every non-finite value is rejected
    # here, so an image of finite atoms needs no second scan.
    def _finite(self, formula, arr):
        with np.errstate(over="ignore"):
            out = formula(arr)
        if np.count_nonzero(np.isfinite(out)) < out.size:
            raise self._overflow(float(arr.max() if np.max(out) == math.inf else arr.min()))
        return out if arr.ndim else float(out)

    def _overflow(self, at: float) -> UtilityDomainError:
        error = UtilityDomainError(f"{self!r} overflows at argument {at!r}")
        error.argument = at
        return error

    @property
    def domain_lower(self) -> float:
        """Open lower endpoint of the domain: -shift, or -inf without a shift."""
        # 0.0 - shift rather than -shift, so a zero shift comes out +0.0.
        return 0.0 - getattr(self, "shift", math.inf)


@dataclass(frozen=True)
class LinearUtility(UtilityFunction):
    slope: float = 1.0
    intercept: float = 0.0

    def __post_init__(self):
        _store_floats(self, "slope", "intercept")
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
        _store_floats(self, "alpha")
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
        _store_floats(self, "shift")
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
        _store_floats(self, "gamma", "shift")
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


def _transformed_law(dist: Distribution, u: UtilityFunction) -> Distribution:
    # u is strictly increasing, so a finite law's image keeps the atoms'
    # order (rounding may tie neighbours, which the nondecreasing-atom law
    # admits), and apply has rejected any non-finite value.
    if isinstance(dist, DiscreteDistribution):
        return DiscreteDistribution._finite_sorted(u.apply(dist._atoms), dist._masses, dist._cum)
    # A continuous law's edge may be the domain's open edge. A shifted u takes
    # the law shifted instead, so that nodes near that edge do not round onto it.
    lowest = dist.support_lower_bound()
    if lowest < u.domain_lower:
        raise UtilityDomainError(
            f"support of the law reaches {lowest!r}, below the utility domain (x > {u.domain_lower!r})"
        )
    if getattr(u, "shift", 0.0):
        dist, u = dist.translate(u.shift), replace(u, shift=0.0)
    return _ScoreImage(lambda z: u.apply(dist._score_quantile(z)))


def _pullback_value(law, preference, u: UtilityFunction) -> float:
    # For cara utility the whole pullback commutes exactly with translation
    # (shifting X by c turns u(X) into an affine image of u(X - c), and the
    # functional is affine-equivariant), so the law is centred first: on its
    # mean, where the exp/log round trip never saturates, but at most
    # reach = max(0, 700 + min(0, log alpha)) / alpha above its lowest atom,
    # so that every |u| <= e^(alpha * reach) / alpha stays below e^700; a
    # law unbounded below is centred on its mean. Where the lowest atom's
    # ulp exceeds the reach, lowest + reach can round up past it, so the
    # centre steps back one ulp. Cara's u overflows only at its smallest
    # argument, which an overflow names as the law's own value, uncentred.
    if isinstance(u, CaraUtility):
        lowest = law.support_lower_bound()
        reach = max(0.0, 700.0 + min(0.0, math.log(u.alpha))) / u.alpha
        center = law.mean()
        if lowest > -math.inf:
            center = min(center, lowest + reach)
            if center - lowest > reach:
                center = math.nextafter(center, -math.inf)
        shifted = law.translate(-center)
        try:
            image = _transformed_law(shifted, u)
        except UtilityDomainError as exc:
            raise u._overflow(center + exc.argument) from exc
        return center + float(u.invert(preference_value(image, preference)))
    return float(u.invert(preference_value(_transformed_law(law, u), preference)))


def certainty_equivalent(
    dist: Distribution,
    mu: MixtureMeasure | KusuokaFamily,
    u: UtilityFunction,
) -> float:
    """Sure amount with the same distorted expected utility as the risk.

    ``mu`` is a mixture, or a family whose minimum replaces the mixture.
    The closed-form table answers first: linear u on any law (the law's own
    functional); cara u on a normal law under the point mass at level 1, or
    a family of it alone (loc - alpha * scale^2 / 2); and crra u with
    gamma >= 2 on a uniform or exponential law starting at u's domain edge,
    where u(q(t)) ~ t^(1 - gamma) makes every tail average -inf, so the
    value is that edge. Otherwise u's image of the law is valued and pulled
    back: on a finite law's atoms, and on a parametric law by a composite
    Gauss-Legendre rule in z = Phi^-1(t), exact to rounding unless u
    overflows on its nodes (cara on a normal law from alpha * scale = 18.7,
    crra near gamma = 2 on a law at the domain edge), which is raised.
    """
    if isinstance(u, LinearUtility):
        return preference_value(dist, mu)
    if isinstance(u, CaraUtility) and isinstance(dist, Normal) and is_delta_one(mu):
        return dist.loc - u.alpha * dist.variance() / 2.0
    if isinstance(u, CrraUtility) and u.gamma >= 2.0 and isinstance(dist, (Uniform, Exponential)):
        if dist.support_lower_bound() == u.domain_lower:
            return u.domain_lower
    return _pullback_value(dist, mu, u)


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
    estimates are not polluted by mean-estimation noise. At zero wealth the
    law is not translated: a shift by 0 would only turn -0.0 atoms into
    +0.0, which changes no bit of the premium.
    """
    m1 = pool_dist.mean() if single_risk_mean is None else float(single_risk_mean)
    law = pool_dist.translate(wealth) if wealth != 0.0 else pool_dist
    ce = certainty_equivalent(law, preference, u)
    return wealth + m1 - ce

