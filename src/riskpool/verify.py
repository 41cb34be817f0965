"""Seeded randomized checks behind the ``verify`` subcommand.

Every property draws a case (outcome arrays on a few common states, the
states' probabilities, and parameters such as tail levels or a mixture),
measures how far an identity that holds by theory is violated on it, and
fails unless the violation is within its bound (a NaN never is), so any
failure is an implementation bug. One runner counts failures, keeps the
worst violation (a NaN is worse than any number), and shrinks the first
failing case by greedily dropping states while it still fails; the shrunk
case is the reported counterexample. The functionals are looked up in
this module on every call, so a test can monkeypatch ``avar`` or
``mixture_value`` here to inject a bug.
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
    """Draw the states, then the parameters; fail unless violation <= bound."""

    name: str
    states: Callable[[np.random.Generator], tuple[np.ndarray, dict]]
    params: Callable[[np.random.Generator], dict]
    violation: Callable[[Case], float]
    bound: Callable[[Case], float]


def _run(prop: _Property, trials: int, gen: np.random.Generator) -> PropertyResult:
    failures, worst, counterexample = 0, 0.0, None
    for _ in range(trials):
        case = Case(*prop.states(gen), prop.params(gen))  # states first, then parameters
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


def _one_law(gen: np.random.Generator, max_states: int = 16):
    k = int(gen.integers(1, max_states + 1))
    outcomes = gen.normal(0.0, 5.0, size=k).round(6)
    weights = gen.random(k) + 1e-3
    return weights / weights.sum(), {"outcomes": outcomes}


def _two_laws(gen: np.random.Generator):
    # Outcomes for X and Y on a shared finite sample space.
    k = int(gen.integers(1, 17))
    weights = gen.random(k) + 1e-3
    x = gen.normal(0.0, 5.0, size=k).round(6)
    y = gen.normal(0.0, 5.0, size=k).round(6)
    return weights / weights.sum(), {"x_outcomes": x, "y_outcomes": y}


def _sorted_x(gen: np.random.Generator):
    probs, arrays = _two_laws(gen)  # X nondecreasing across states: comonotone with f(X)
    return probs, {"outcomes": np.sort(arrays["x_outcomes"])}


def _random_mixture(gen: np.random.Generator) -> MixtureMeasure:
    k = int(gen.integers(1, 5))
    levels = gen.random(k) * 0.999 + 0.001
    weights = gen.random(k) + 1e-3
    return MixtureMeasure(tuple(zip(levels.tolist(), (weights / weights.sum()).tolist())))


def _level(gen: np.random.Generator) -> dict:
    return {"lambda": float(gen.random() * 0.999 + 0.001)}


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
    greedy = _Property("primal_dual_greedy", partial(_one_law, max_states=64), _level,
                       _greedy_gap, _relative(DUALITY_TOL))
    vertices = _Property("primal_dual_vertex_enumeration", partial(_one_law, max_states=5), _level,
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
    return lambda gen: {"mixture": _random_mixture(gen), **{k: draw(gen) for k, draw in draws.items()}}


def _level_pair(gen: np.random.Generator) -> dict:
    lam_lo, lam_hi = sorted((gen.random(2) * 0.999 + 0.001).tolist())
    return {"lambda_low": lam_lo, "lambda_high": lam_hi}


_STRUCTURAL = (
    _Property("translation_invariance", _one_law,
              _mixture_and(shift=lambda gen: float(gen.normal(0.0, 5.0))), _translation, _absolute),
    _Property("positive_homogeneity", _one_law,
              _mixture_and(factor=lambda gen: float(gen.random() * 4.0)), _homogeneity, _absolute),
    _Property("avar_monotone_in_level", _one_law, _level_pair, _level_monotonicity, _absolute),
    _Property("superadditivity", _two_laws, _mixture_and(), _superadditivity, _absolute),
    _Property("comonotone_additivity", _sorted_x, _mixture_and(), _comonotone_additivity, _absolute),
    _Property("jensen_premium_nonnegative", _one_law,
              _mixture_and(alpha=lambda gen: float(gen.random() * 2.0 + 0.1)), _jensen, _absolute),
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
