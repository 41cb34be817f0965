"""Standard normal density and inverse CDF (Wichura's AS 241), the two
functions behind the normal law's quantile and tail integral."""

from __future__ import annotations

import math

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Wichura's PPND16 rational-approximation coefficients (algorithm AS 241),
# highest order first for Horner evaluation.
_CENTRAL_NUM = (
    2.5090809287301226727e3,
    3.3430575583588128105e4,
    6.7265770927008700853e4,
    4.5921953931549871457e4,
    1.3731693765509461125e4,
    1.9715909503065514427e3,
    1.3314166789178437745e2,
    3.3871328727963666080e0,
)
_CENTRAL_DEN = (
    5.2264952788528545610e3,
    2.8729085735721942674e4,
    3.9307895800092710610e4,
    2.1213794301586595867e4,
    5.3941960214247511077e3,
    6.8718700749205790830e2,
    4.2313330701600911252e1,
    1.0,
)
_MIDDLE_NUM = (
    7.74545014278341407640e-4,
    2.27238449892691845833e-2,
    2.41780725177450611770e-1,
    1.27045825245236838258e0,
    3.64784832476320460504e0,
    5.76949722146069140550e0,
    4.63033784615654529590e0,
    1.42343711074968357734e0,
)
_MIDDLE_DEN = (
    1.05075007164441684324e-9,
    5.47593808499534494600e-4,
    1.51986665636164571966e-2,
    1.48103976427480074590e-1,
    6.89767334985100004550e-1,
    1.67638483018380384940e0,
    2.05319162663775882187e0,
    1.0,
)
_TAIL_NUM = (
    2.01033439929228813265e-7,
    2.71155556874348757815e-5,
    1.24266094738807843860e-3,
    2.65321895265761230930e-2,
    2.96560571828504891230e-1,
    1.78482653991729133580e0,
    5.46378491116411436990e0,
    6.65790464350110377720e0,
)
_TAIL_DEN = (
    2.04426310338993978564e-15,
    1.42151175831644588870e-7,
    1.84631831751005468180e-5,
    7.86869131145613259100e-4,
    1.48753612908506148525e-2,
    1.36929880922735805310e-1,
    5.99832206555887937690e-1,
    1.0,
)


def _horner(r, coeffs):
    acc = np.full_like(r, coeffs[0])
    for c in coeffs[1:]:
        acc = acc * r + c
    return acc


def normal_pdf(x):
    """Density of the standard normal law, elementwise on arrays."""
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def inv_normal_cdf(p):
    """Inverse CDF of the standard normal law on the open interval (0, 1).

    Wichura's PPND16 rational approximation; absolute error is below 1e-9
    (in practice ~1e-15) across the whole interval. Accepts a scalar or an
    ndarray and returns the matching kind.
    """
    arr = np.asarray(p, dtype=float)
    if arr.size and (np.any(arr <= 0.0) | np.any(arr >= 1.0) | np.any(~np.isfinite(arr))):
        raise ValueError("probability level must lie strictly inside (0, 1)")
    q = arr - 0.5
    out = np.empty_like(arr)

    central = np.abs(q) <= 0.425
    if np.any(central):
        r = 0.180625 - np.square(q[central])
        out[central] = q[central] * _horner(r, _CENTRAL_NUM) / _horner(r, _CENTRAL_DEN)

    tails = ~central
    if np.any(tails):
        r = np.sqrt(-np.log(np.minimum(arr[tails], 1.0 - arr[tails])))
        x = np.empty_like(r)
        near = r <= 5.0
        rn = r[near] - 1.6
        x[near] = _horner(rn, _MIDDLE_NUM) / _horner(rn, _MIDDLE_DEN)
        rf = r[~near] - 5.0
        x[~near] = _horner(rf, _TAIL_NUM) / _horner(rf, _TAIL_DEN)
        out[tails] = np.copysign(x, q[tails])

    if np.ndim(p) == 0:
        return float(out)
    return out
