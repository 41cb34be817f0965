"""Seeded randomized checks behind the ``verify`` subcommand.

Every property draws cases (outcome arrays on a few common states, the
states' probabilities, and parameters such as tail levels or a mixture),
measures how far an identity that holds by theory is violated on each, and
fails a case unless the violation is within its bound (a NaN never is), so
any failure is an implementation bug. Cases are drawn in blocks of the
fixed ``_BLOCK``, each block's states and then its parameters in a few
vectorised generator calls, so results stay a pure function of
``(seed, trials)``. One runner counts failures, keeps the worst violation
(a NaN is worse than any number), and shrinks the first failing case by
greedily dropping states while it still fails; the shrunk case is the
reported counterexample. The functionals are looked up in this module on
every call, so a test can monkeypatch ``avar`` or ``mixture_value`` here
to inject a bug.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable

import numpy as np

from .distributions import DiscreteDistribution, RngSpec
from .preferences import CaraUtility, risk_premium
from .risk_measures import MixtureMeasure, avar, dual_avar_discrete, mixture_value

DUALITY_TOL = 1e-12
VERTEX_TOL = 1e-9
PROPERTY_TOL = 1e-10

# Stream ids of the verify suites within a master seed.
_LAW_STREAM = 101
_VERTEX_STREAM = 102

# Cases drawn per block. Fixed, not an option: a block's largest array
# (256 rows of 64 states) is 128 KB, so memory does not grow with trials.
_BLOCK = 256


@dataclass(frozen=True)
class PropertyResult:
    name: str
    trials: int
    failures: int
    worst_error: float
    counterexample: dict | None

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class Case:
    """Named outcome arrays on common states, their probabilities, parameters."""

    probs: np.ndarray
    outcomes: dict[str, np.ndarray]
    params: dict

    def law(self, values=None) -> DiscreteDistribution:
        """Law of ``values`` (default: the ``outcomes`` array) on the states."""
        return DiscreteDistribution(self.outcomes["outcomes"] if values is None else values, self.probs)

    def drop(self, i: int) -> "Case":
        keep = np.arange(self.probs.size) != i
        probs = self.probs[keep]
        return Case(probs / probs.sum(), {k: v[keep] for k, v in self.outcomes.items()}, self.params)

    def payload(self) -> dict:
        params = {k: v.atoms if isinstance(v, MixtureMeasure) else v for k, v in self.params.items()}
        arrays = {k: v.tolist() for k, v in self.outcomes.items()}
        return {**arrays, "probabilities": self.probs.tolist(), **params}


@dataclass(frozen=True)
class _Property:
    """Draw a block's states, then its parameters; fail unless violation <= bound.

    ``states(gen, rows)`` returns ``rows`` pairs of state probabilities and
    named outcome arrays, ``params(gen, rows)`` as many parameter dicts.
    """

    name: str
    states: Callable[[np.random.Generator, int], list[tuple[np.ndarray, dict]]]
    params: Callable[[np.random.Generator, int], list[dict]]
    violation: Callable[[Case], float]
    bound: Callable[[Case], float]


def _run(prop: _Property, trials: int, gen: np.random.Generator) -> PropertyResult:
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    failures, worst, counterexample = 0, 0.0, None
    for start in range(0, trials, _BLOCK):
        rows = min(_BLOCK, trials - start)
        states = prop.states(gen, rows)  # a block's states first, then its parameters
        for state, params in zip(states, prop.params(gen, rows)):
            case = Case(*state, params)
            error = prop.violation(case)
            if error > worst or math.isnan(error):  # a NaN stays the worst error
                worst = error
            if not error <= prop.bound(case):
                failures += 1
                if counterexample is None:
                    shrunk = _shrink(prop, case)
                    counterexample = {**shrunk.payload(), "violation": prop.violation(shrunk)}
    return PropertyResult(prop.name, trials, failures, worst, counterexample)


def _shrink(prop: _Property, case: Case) -> Case:
    progress = True
    while progress and case.probs.size > 1:
        progress = False
        for i in range(case.probs.size):
            candidate = case.drop(i)
            if not prop.violation(candidate) <= prop.bound(candidate):
                case, progress = candidate, True
                break
    return case


def _weights(gen: np.random.Generator, rows: int, most: int) -> tuple[list[int], np.ndarray]:
    """Row sizes in 1..most, and a (rows, most) block of weights that are
    zero past each row's size and sum to 1 along each row."""
    sizes = gen.integers(1, most + 1, size=rows)
    weights = gen.random((rows, most)) + 1e-3
    weights[np.arange(most) >= sizes[:, None]] = 0.0
    return sizes.tolist(), weights / weights.sum(axis=1, keepdims=True)


def _laws(gen: np.random.Generator, rows: int, max_states: int = 16, names: tuple[str, ...] = ("outcomes",)):
    # One outcome array per name, all on the same finite sample space.
    sizes, probs = _weights(gen, rows, max_states)
    outcomes = gen.normal(0.0, 5.0, size=(len(names), rows, max_states)).round(6)
    return [(probs[i, :k], {name: block[i, :k] for name, block in zip(names, outcomes)})
            for i, k in enumerate(sizes)]


def _sorted_laws(gen: np.random.Generator, rows: int):
    # X nondecreasing across states: comonotone with f(X).
    return [(probs, {"outcomes": np.sort(x["outcomes"])}) for probs, x in _laws(gen, rows)]


def _mixtures(gen: np.random.Generator, rows: int) -> list[MixtureMeasure]:
    sizes, weights = _weights(gen, rows, 4)
    levels = (gen.random((rows, 4)) * 0.999 + 0.001).tolist()
    return [MixtureMeasure(tuple(zip(lam[:k], w[:k]))) for lam, w, k in zip(levels, weights.tolist(), sizes)]


def _levels(gen: np.random.Generator, rows: int) -> list[dict]:
    return [{"lambda": lam} for lam in (gen.random(rows) * 0.999 + 0.001).tolist()]


def _relative(tol: float):
    return lambda case: tol * max(1.0, float(np.abs(case.outcomes["outcomes"]).max()))


def _absolute(case: Case) -> float:
    return PROPERTY_TOL


def enumerate_dual_vertices(dist: DiscreteDistribution, lam: float) -> float:
    """Smallest E_Q[X] over the vertices of the density polytope.

    A vertex sets every density to 0 or 1/lam except at most one fractional
    coordinate pinned by total Q-mass 1; enumerating all of them is exact
    for small laws and independent of the greedy construction.
    """
    probs, outs = dist._masses.tolist(), dist._atoms.tolist()
    k = len(probs)
    best = math.inf
    indices = range(k)
    for r in range(k + 1):
        for full in combinations(indices, r):
            mass_full = sum(probs[i] for i in full) / lam
            if mass_full > 1.0 + 1e-9:
                continue
            value_full = sum(probs[i] * outs[i] for i in full) / lam
            rest = 1.0 - mass_full
            if rest <= 1e-15:
                best = min(best, value_full)
                continue
            for j in indices:
                if j in full:
                    continue
                if rest <= probs[j] / lam + 1e-9:
                    best = min(best, value_full + rest * outs[j])
    return best


def _greedy_gap(case: Case) -> float:
    law, lam = case.law(), case.params["lambda"]
    return abs(dual_avar_discrete(law, lam).value - avar(law, lam))


def _vertex_gap(case: Case) -> float:
    law, lam = case.law(), case.params["lambda"]
    return abs(enumerate_dual_vertices(law, lam) - avar(law, lam))


def run_duality_suite(trials: int, seed: int) -> list[PropertyResult]:
    """Greedy dual vs primal on random laws; vertex enumeration on small ones.

    The primal/dual comparison runs ``trials`` laws with up to 64 atoms;
    the enumeration cross-check runs the same number of laws with at most
    5 atoms, where listing every polytope vertex is cheap.
    """
    greedy = _Property("primal_dual_greedy", partial(_laws, max_states=64), _levels,
                       _greedy_gap, _relative(DUALITY_TOL))
    vertices = _Property("primal_dual_vertex_enumeration", partial(_laws, max_states=5), _levels,
                         _vertex_gap, _relative(VERTEX_TOL))
    return [
        _run(greedy, trials, RngSpec(seed, _LAW_STREAM).generator()),
        _run(vertices, trials, RngSpec(seed, _VERTEX_STREAM).generator()),
    ]


def _translation(case: Case) -> float:
    law, mu, c = case.law(), case.params["mixture"], case.params["shift"]
    return abs(mixture_value(law.translate(c), mu) - (mixture_value(law, mu) + c))


def _homogeneity(case: Case) -> float:
    mu, c = case.params["mixture"], case.params["factor"]
    scaled = case.law(c * case.outcomes["outcomes"])
    return abs(mixture_value(scaled, mu) - c * mixture_value(case.law(), mu))


def _level_monotonicity(case: Case) -> float:
    law = case.law()
    lo, hi = avar(law, case.params["lambda_low"]), avar(law, case.params["lambda_high"])
    return max(lo - hi, hi - law.mean())


def _superadditivity(case: Case) -> float:
    x, y, mu = case.outcomes["x_outcomes"], case.outcomes["y_outcomes"], case.params["mixture"]
    joint = mixture_value(case.law(x + y), mu)
    return mixture_value(case.law(x), mu) + mixture_value(case.law(y), mu) - joint


def _comonotone_additivity(case: Case) -> float:
    x, mu = case.outcomes["outcomes"], case.params["mixture"]
    f_x = x.clip(-2.0, 3.0)  # nondecreasing transform
    total = mixture_value(case.law(x + f_x), mu)
    return abs(total - (mixture_value(case.law(x), mu) + mixture_value(case.law(f_x), mu)))


def _jensen(case: Case) -> float:
    u = CaraUtility(case.params["alpha"])
    return -risk_premium(0.0, case.law(), case.params["mixture"], u)


def _mixture_and(**draws):
    # Each draw returns a vector of ``rows`` scalar parameters.
    def params(gen: np.random.Generator, rows: int) -> list[dict]:
        columns = {"mixture": _mixtures(gen, rows)}
        columns.update((k, draw(gen, rows).tolist()) for k, draw in draws.items())
        return [dict(zip(columns, row)) for row in zip(*columns.values())]

    return params


def _level_pairs(gen: np.random.Generator, rows: int) -> list[dict]:
    pairs = np.sort(gen.random((rows, 2)) * 0.999 + 0.001, axis=1).tolist()
    return [{"lambda_low": lam_lo, "lambda_high": lam_hi} for lam_lo, lam_hi in pairs]


_STRUCTURAL = (
    _Property("translation_invariance", _laws,
              _mixture_and(shift=lambda gen, rows: gen.normal(0.0, 5.0, rows)), _translation, _absolute),
    _Property("positive_homogeneity", _laws,
              _mixture_and(factor=lambda gen, rows: gen.random(rows) * 4.0), _homogeneity, _absolute),
    _Property("avar_monotone_in_level", _laws, _level_pairs, _level_monotonicity, _absolute),
    _Property("superadditivity", partial(_laws, names=("x_outcomes", "y_outcomes")), _mixture_and(),
              _superadditivity, _absolute),
    _Property("comonotone_additivity", _sorted_laws, _mixture_and(), _comonotone_additivity, _absolute),
    _Property("jensen_premium_nonnegative", _laws,
              _mixture_and(alpha=lambda gen, rows: gen.random(rows) * 2.0 + 0.1), _jensen, _absolute),
)


def run_property_suite(trials: int, seed: int) -> list[PropertyResult]:
    """Structural identities of the mixture functional on random laws, in one stream.

    Covers translation invariance, positive homogeneity, superadditivity on
    a shared sample space, additivity on comonotone pairs, the mean bound
    with its premium corollary for concave utilities, and monotonicity of
    the building block in its tail level.
    """
    gen = RngSpec(seed, _LAW_STREAM).generator()
    return [_run(prop, trials, gen) for prop in _STRUCTURAL]
