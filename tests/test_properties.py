"""Property-based checks of the structural identities the functionals obey."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskpool.distributions import DiscreteDistribution, EmpiricalSample, Exponential, Normal, Uniform
from riskpool.preferences import CaraUtility, LinearUtility, certainty_equivalent
from riskpool.risk_measures import (
    _ARRAY_LEVELS,
    KusuokaFamily,
    MixtureMeasure,
    avar,
    dual_avar_discrete,
    kusuoka_value,
    mixture_value,
)
from riskpool.verify import run_duality_suite, run_property_suite

from helpers import brute_force_dual_min

finite_values = st.floats(-10.0, 10.0, allow_nan=False)
tail_levels = st.floats(0.01, 1.0)


@st.composite
def discrete_laws(draw, max_atoms=8):
    k = draw(st.integers(1, max_atoms))
    outcomes = draw(st.lists(finite_values, min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    return DiscreteDistribution(tuple(outcomes), tuple(w / total for w in weights))


@st.composite
def mixtures(draw, max_atoms=4):
    k = draw(st.integers(1, max_atoms))
    levels = draw(st.lists(tail_levels, min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    return MixtureMeasure(tuple(zip(levels, (w / total for w in weights))))


@st.composite
def joint_outcomes(draw, max_atoms=6):
    k = draw(st.integers(1, max_atoms))
    x = draw(st.lists(finite_values, min_size=k, max_size=k))
    y = draw(st.lists(finite_values, min_size=k, max_size=k))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    total = sum(weights)
    return x, y, tuple(w / total for w in weights)


@given(discrete_laws(), st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20))
def test_quantile_nondecreasing(law, levels):
    ordered = sorted(levels)
    values = [law.quantile(t) for t in ordered]
    assert all(a <= b for a, b in zip(values, values[1:]))


@given(discrete_laws())
def test_quantile_left_continuous_at_boundaries(law):
    cum = np.cumsum(law.probabilities)
    for boundary, outcome in zip(cum, law.outcomes):
        t = min(float(boundary), 1.0)
        assert law.quantile(t) == outcome
        assert law.quantile(max(t - 1e-9, 0.0)) == outcome


@given(discrete_laws())
def test_full_tail_integral_is_mean(law):
    assert law.lower_quantile_integral(1.0) == pytest.approx(law.mean(), abs=1e-10)


@given(discrete_laws(), st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=40))
def test_array_tail_integrals_match_each_level(law, levels):
    values = law._tail_integrals(np.array(levels))
    assert values.tolist() == [law.lower_quantile_integral(t) for t in levels]


# One branch draws only mixtures of fewer than _ARRAY_LEVELS levels, where
# each term reads the law's scalar tail integral; the other reaches the
# array call.
@given(discrete_laws(), st.one_of(mixtures(max_atoms=_ARRAY_LEVELS - 1), mixtures(max_atoms=40)))
def test_mixture_value_sums_the_building_blocks_exactly(law, mu):
    assert mixture_value(law, mu) == math.fsum(w * avar(law, lam) for lam, w in mu.atoms)


# Members below and above _ARRAY_LEVELS levels share one family, and some
# repeat, so the smallest value can tie; laws with and without an array
# tail integral.
@given(st.one_of(discrete_laws(), st.sampled_from([Normal(0.3, 1.7), Uniform(-1.0, 2.0), Exponential(2.0, -1.0)])),
       st.lists(st.one_of(mixtures(max_atoms=_ARRAY_LEVELS - 1), mixtures(max_atoms=12)), min_size=1, max_size=5),
       st.data())
def test_family_value_is_the_first_smallest_member_value(law, members, data):
    members += data.draw(st.lists(st.sampled_from(members), max_size=3))
    values = [mixture_value(law, mu) for mu in members]
    best = min(values)
    value, index = kusuoka_value(law, KusuokaFamily(tuple(members)))
    assert (value.hex(), index) == (best.hex(), values.index(best))


# (name, failures, worst_error.hex()) of both verify suites at seed 20260808
# with 200 trials: a speed-up must not move the suites' draws or values.
SUITE_PINS = [
    ("translation_invariance", 0, "0x1.0000000000000p-48"),
    ("positive_homogeneity", 0, "0x1.0000000000000p-47"),
    ("avar_monotone_in_level", 0, "0x1.0000000000000p-50"),
    ("superadditivity", 0, "0x1.0000000000000p-50"),
    ("comonotone_additivity", 0, "0x1.8000000000000p-49"),
    ("jensen_premium_nonnegative", 0, "0x0.0p+0"),
    ("primal_dual_greedy", 0, "0x1.7c00000000000p-48"),
    ("primal_dual_vertex_enumeration", 0, "0x1.0000000000000p-49"),
]


def test_verify_suites_are_pinned():
    results = run_property_suite(200, 20260808) + run_duality_suite(200, 20260808)
    assert [(r.name, r.failures, r.worst_error.hex()) for r in results] == SUITE_PINS


@given(discrete_laws(), tail_levels, tail_levels)
def test_tail_integral_midpoint_convex(law, a, b):
    mid = 0.5 * (a + b)
    lhs = law.lower_quantile_integral(mid)
    rhs = 0.5 * (law.lower_quantile_integral(a) + law.lower_quantile_integral(b))
    assert lhs <= rhs + 1e-12


@given(discrete_laws(), tail_levels, tail_levels)
def test_avar_monotone_and_dominated_by_mean(law, a, b):
    lo, hi = sorted((a, b))
    assert avar(law, lo) <= avar(law, hi) + 1e-12
    assert avar(law, hi) <= law.mean() + 1e-12


@given(discrete_laws(), mixtures(), st.floats(-10.0, 10.0))
def test_translation_invariance(law, mu, c):
    assert mixture_value(law.translate(c), mu) == pytest.approx(
        mixture_value(law, mu) + c, abs=1e-12
    )


@given(discrete_laws(), mixtures(), st.floats(0.0, 4.0))
def test_positive_homogeneity(law, mu, c):
    scaled = DiscreteDistribution(tuple(c * x for x in law.outcomes), law.probabilities)
    assert mixture_value(scaled, mu) == pytest.approx(c * mixture_value(law, mu), abs=1e-12)


@given(joint_outcomes(), mixtures())
def test_superadditivity_on_shared_space(xy, mu):
    x, y, probs = xy
    total = mixture_value(
        DiscreteDistribution(tuple(a + b for a, b in zip(x, y)), probs), mu
    )
    split = mixture_value(DiscreteDistribution(tuple(x), probs), mu) + mixture_value(
        DiscreteDistribution(tuple(y), probs), mu
    )
    assert total >= split - 1e-12


@given(discrete_laws(), mixtures(), st.floats(-3.0, 3.0), st.floats(0.0, 5.0))
def test_comonotone_additivity(law, mu, knee, span):
    # f clips to a window: nondecreasing, so X and f(X) are comonotone.
    f_values = tuple(min(max(x, knee), knee + span) for x in law.outcomes)
    combined = DiscreteDistribution(
        tuple(x + f for x, f in zip(law.outcomes, f_values)), law.probabilities
    )
    split = mixture_value(law, mu) + mixture_value(
        DiscreteDistribution(f_values, law.probabilities), mu
    )
    assert mixture_value(combined, mu) == pytest.approx(split, abs=1e-12)


@given(discrete_laws(max_atoms=64), tail_levels)
@settings(deadline=None)
def test_dual_equals_primal(law, lam):
    assert dual_avar_discrete(law, lam).value == pytest.approx(avar(law, lam), abs=1e-12)


@given(discrete_laws(max_atoms=5), tail_levels)
@settings(deadline=None, max_examples=60)
def test_dual_matches_vertex_enumeration(law, lam):
    oracle = brute_force_dual_min(law.outcomes, law.probabilities, lam)
    assert dual_avar_discrete(law, lam).value == pytest.approx(oracle, abs=1e-9)


@given(discrete_laws(max_atoms=4), tail_levels, st.integers(0, 3))
def test_law_invariance_under_reencoding(law, lam, split_index):
    assume(split_index < len(law.outcomes))
    # Split one atom into two halves at the same outcome and shuffle order.
    outcomes = list(law.outcomes)
    probs = list(law.probabilities)
    outcomes.append(outcomes[split_index])
    probs.append(probs[split_index] / 2)
    probs[split_index] /= 2
    order = list(reversed(range(len(outcomes))))
    reencoded = DiscreteDistribution(
        tuple(outcomes[i] for i in order), tuple(probs[i] for i in order)
    )
    assert avar(reencoded, lam) == avar(law, lam)


@given(discrete_laws(), mixtures(), mixtures(), st.floats(-5.0, 5.0), st.floats(0.0, 3.0))
def test_family_functional_inherits_cash_properties(law, mu_a, mu_b, c, scale):
    family = KusuokaFamily((mu_a, mu_b))
    base, _ = kusuoka_value(law, family)
    shifted, _ = kusuoka_value(law.translate(c), family)
    assert shifted == pytest.approx(base + c, abs=1e-12)
    scaled_law = DiscreteDistribution(
        tuple(scale * x for x in law.outcomes), law.probabilities
    )
    scaled, _ = kusuoka_value(scaled_law, family)
    assert scaled == pytest.approx(scale * base, abs=1e-12)


@given(discrete_laws(), mixtures())
def test_linear_certainty_equivalent_is_mixture_value(law, mu):
    ce = certainty_equivalent(law, mu, LinearUtility(1.5, -2.0))
    assert ce == pytest.approx(mixture_value(law, mu), abs=1e-12)


@given(discrete_laws(), mixtures(), mixtures())
def test_family_growth_never_increases_certainty_equivalent(law, mu_a, mu_b):
    u = CaraUtility(0.5)
    small = certainty_equivalent(law, KusuokaFamily((mu_a,)), u)
    large = certainty_equivalent(law, KusuokaFamily((mu_a, mu_b)), u)
    assert large <= small + 1e-12


@given(discrete_laws(), st.floats(-100.0, 100.0))
def test_translate_matches_freshly_built_law(law, c):
    shifted = [x + c for x in law.outcomes]
    assume(len(set(shifted)) == len(shifted))  # a fresh law would merge ties
    moved = law.translate(c)
    fresh = DiscreteDistribution(tuple(shifted), law.probabilities)
    np.testing.assert_array_max_ulp(np.array(moved.outcomes), np.array(fresh.outcomes), maxulp=1)
    assert moved.probabilities == fresh.probabilities
    assert moved.lower_quantile_integral(0.5) == pytest.approx(
        fresh.lower_quantile_integral(0.5), rel=1e-12, abs=1e-12
    )


@given(st.lists(finite_values, min_size=1, max_size=40), tail_levels)
def test_empirical_matches_equal_weight_discrete(values, lam):
    sample = EmpiricalSample(values)
    law = DiscreteDistribution(
        tuple(values), tuple(1.0 / len(values) for _ in values)
    )
    assert sample.lower_quantile_integral(lam) == pytest.approx(
        law.lower_quantile_integral(lam), abs=1e-12
    )
    assert sample.quantile(lam) == law.quantile(lam)
