"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the package's own computational paths:
inverse normal values come from bisection on an erfc-based CDF (or scipy),
tail integrals from adaptive quadrature on scipy's ppf, cara certainty
equivalents of finite laws from mpmath, pooled laws from exhaustive
enumeration, and dual values from brute-force vertex listing.
:func:`sorted_draws` reads a drawn empirical law back as its sorted draws,
and :func:`one_point` runs the package's curve engine at one pool size.
"""

from __future__ import annotations

import dataclasses
import math
from itertools import combinations, product

import numpy as np
from scipy import integrate, stats

from riskpool.mc_engine import run_curve


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bisect_inv_normal_cdf(p: float, tol: float = 1e-12) -> float:
    """Invert the erfc-based normal CDF by bisection to the given tolerance.

    Reliable for p <= 0.5, where the erfc evaluation keeps full relative
    precision; above the median the tail probability is no longer
    resolvable in double precision, so callers should exploit symmetry.
    """
    if p > 0.5:
        raise ValueError("bisection oracle covers the lower half; use symmetry above")
    lo, hi = -40.0, 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mp_cara_certainty_equivalent(law, mu, alpha: float, digits: int = 60) -> float:
    """Cara certainty equivalent of a finite law under a mixture, in mpmath
    at ``digits`` significant digits: -log(sum of w * avar(e^(-alpha X), level))
    / alpha, each tail average summed atom by atom from the lowest."""
    import mpmath

    with mpmath.workdps(digits):
        a = mpmath.mpf(alpha)
        total = mpmath.mpf(0)
        for lam, w in mu.atoms:
            left, tail = mpmath.mpf(lam), mpmath.mpf(0)
            for x, p in zip(law.outcomes, law.probabilities):
                take = min(mpmath.mpf(p), left)
                tail += take * mpmath.exp(-a * x)
                left -= take
                if left <= 0:
                    break
            total += w * tail / lam
        return float(-mpmath.log(total) / a)


def quad_lower_quantile_integral(ppf, lam: float) -> float:
    """Adaptive quadrature of a quantile function over (0, lam)."""
    value, _ = integrate.quad(ppf, 0.0, lam, points=[0.0], limit=200)
    return value


def quad_avar_normal(lam: float) -> float:
    return quad_lower_quantile_integral(stats.norm.ppf, lam) / lam


def quad_certainty_equivalent_normal(loc, scale, atoms, u_apply, u_invert) -> float:
    """CE of a normal law by quadrature of u(quantile) over each tail."""
    total = 0.0
    for lam, w in atoms:
        value, _ = integrate.quad(
            lambda t: u_apply(loc + scale * stats.norm.ppf(t)),
            0.0,
            lam,
            points=[0.0],
            limit=200,
        )
        total += w * value / lam
    return u_invert(total)


def cara_normal_mixture_ce(loc: float, scale: float, atoms, alpha: float) -> float:
    """Closed-form CE of a normal law under constant absolute risk aversion.

    Uses the Gaussian identity for the tail integral of exp(-a*ppf(t)); an
    algebraic route entirely separate from the package's quadrature in the
    normal score.
    """
    U = 0.0
    mgf = math.exp(-alpha * loc + 0.5 * alpha * alpha * scale * scale)
    for lam, w in atoms:
        tail = mgf if lam >= 1.0 else mgf * stats.norm.cdf(stats.norm.ppf(lam) + alpha * scale)
        U += w * (lam - tail) / (alpha * lam)
    return -math.log1p(-alpha * U) / alpha


def enumerate_pool_law(outcomes, probabilities, n: int):
    """Exact law of the average of n i.i.d. draws, by exhaustive enumeration."""
    acc: dict[float, float] = {}
    for combo in product(range(len(outcomes)), repeat=n):
        value = sum(outcomes[i] for i in combo) / n
        prob = math.prod(probabilities[i] for i in combo)
        key = round(value, 12)
        acc[key] = acc.get(key, 0.0) + prob
    items = sorted(acc.items())
    return tuple(v for v, _ in items), tuple(p for _, p in items)


def brute_force_dual_min(outcomes, probabilities, lam: float) -> float:
    """Minimum of E_Q[X] over all vertices of {0 <= d <= 1/lam, sum d*p = 1}."""
    probs = np.asarray(probabilities)
    outs = np.asarray(outcomes)
    k = len(probs)
    best = math.inf
    for r in range(k + 1):
        for full in combinations(range(k), r):
            mass = sum(probs[i] for i in full) / lam
            if mass > 1.0 + 1e-12:
                continue
            value = sum(probs[i] * outs[i] for i in full) / lam
            rest = 1.0 - mass
            if rest <= 1e-14:
                best = min(best, value)
                continue
            for j in range(k):
                if j in full or rest > probs[j] / lam + 1e-12:
                    continue
                best = min(best, value + rest * outs[j])
    return best


def sorted_draws(law, count: int) -> np.ndarray:
    """The count sorted draws whose empirical law is ``law``: each atom
    repeated mass * count times, whether the law holds one atom per draw or
    the drawn atoms with their counts."""
    ends = np.rint(law._cum * count).astype(np.int64)
    assert ends[-1] == count and np.array_equal(ends / count, law._cum)
    return np.repeat(law._atoms, np.diff(ends, prepend=0))


def one_point(config, n: int) -> tuple[float, float]:
    """(estimate, stderr) of the scaled premium at pool size n: the point of
    :func:`run_curve` on the one-point grid (n,)."""
    point = run_curve(dataclasses.replace(config, n_grid=(n,))).points[0]
    return point.estimate, point.stderr
