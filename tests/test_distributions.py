import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from riskpool.distributions import (
    _POOL_CHUNK,
    _POOL_ENTRIES_PER_ATOM,
    _POOL_WINDOW,
    _empirical,
    _fft_size,
    _inv_cdf,
    DiscreteDistribution,
    EmpiricalSample,
    Exponential,
    Normal,
    RngSpec,
    TwoPoint,
    Uniform,
    pool_average_sample,
)

from helpers import quad_lower_quantile_integral, sorted_draws

UNIFORM_1234 = DiscreteDistribution((1.0, 2.0, 3.0, 4.0), (0.25, 0.25, 0.25, 0.25))


class TestQuantile:
    def test_discrete_examples(self):
        assert UNIFORM_1234.quantile(0.25) == 1.0
        assert UNIFORM_1234.quantile(0.26) == 2.0
        assert UNIFORM_1234.quantile(0.0) == 1.0
        assert UNIFORM_1234.quantile(1.0) == 4.0

    def test_normal_median(self):
        assert Normal(0.0, 1.0).quantile(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_level_validation(self):
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(ValueError):
                UNIFORM_1234.quantile(bad)

    def test_unbounded_below_rejects_level_zero(self):
        with pytest.raises(ValueError, match="unbounded below"):
            Normal(0.0, 1.0).quantile(0.0)

    def test_bounded_below_laws_at_zero(self):
        assert Exponential(2.0, shift=1.0).quantile(0.0) == 1.0
        assert Uniform(-1.0, 3.0).quantile(0.0) == -1.0

    def test_upper_endpoint_unbounded(self):
        assert Normal(0.0, 1.0).quantile(1.0) == math.inf
        assert Exponential(1.0).quantile(1.0) == math.inf

    # low + (high - low) * 1 can round past high; level 1 is high itself,
    # and every other level keeps the bits of that product.
    def test_uniform_level_one_is_high(self):
        assert Uniform(-0.3, 0.1).quantile(1.0) == 0.1
        gen = np.random.default_rng(41)
        for low, width in gen.normal(0.0, 1.0, (2000, 2)).tolist():
            law = Uniform(low, low + abs(width) + 1e-3)
            assert law.quantile(1.0) == law.high
            for t in (0.0, 0.3, 0.5, 1.0 - 2.0**-53):
                assert law.quantile(t).hex() == (law.low + (law.high - law.low) * t).hex()

    def test_nondecreasing_on_grid(self):
        for dist in (UNIFORM_1234, Uniform(-2.0, 5.0), Exponential(0.5, -1.0),
                     TwoPoint(0.0, 1.0, 0.3), EmpiricalSample([3.0, 1.0, 2.0])):
            grid = np.linspace(0.0, 1.0, 201)
            values = [dist.quantile(t) for t in grid]
            assert all(a <= b for a, b in zip(values, values[1:]))

    # Top atoms of mass below the level slack stay in at level 1: the exact
    # law of 40 fair coins puts 2**-40 on the average 1.0.
    def test_level_one_keeps_top_atoms_below_the_slack(self):
        law = TwoPoint(0.0, 1.0, 0.5).pool_sampler(40).law
        assert law.probabilities[-1] < 1e-12
        assert law.quantile(1.0) == 1.0
        assert law.lower_quantile_integral(1.0) == pytest.approx(law.mean(), abs=1e-15)
        levels = np.array([0.5, 1.0 - 1e-13, 1.0])
        assert law._tail_integrals(levels).tolist() == [
            law.lower_quantile_integral(t) for t in levels.tolist()
        ]

    def test_left_continuity_at_atom_boundaries(self):
        law = DiscreteDistribution((0.0, 1.0, 5.0), (0.2, 0.3, 0.5))
        cum = [0.2, 0.5, 1.0]
        for boundary, outcome in zip(cum, law.outcomes):
            assert law.quantile(boundary) == outcome
            assert law.quantile(boundary - 1e-9) == outcome


class TestLowerQuantileIntegral:
    def test_discrete_examples(self):
        assert UNIFORM_1234.lower_quantile_integral(0.5) == pytest.approx(0.75, abs=1e-15)
        assert UNIFORM_1234.lower_quantile_integral(0.3) == pytest.approx(0.35, abs=1e-15)

    def test_normal_full_integral_is_mean(self):
        assert Normal(0.0, 1.0).lower_quantile_integral(1.0) == 0.0

    def test_level_validation(self):
        for bad in (0.0, -0.5, 1.0 + 1e-9, math.nan):
            with pytest.raises(ValueError):
                UNIFORM_1234.lower_quantile_integral(bad)

    def test_full_integral_equals_mean(self):
        for dist in (UNIFORM_1234, Normal(1.5, 2.0), Uniform(-2.0, 5.0),
                     Exponential(0.5, -1.0), TwoPoint(0.0, 1.0, 0.3),
                     TwoPoint(2.0, 5.0, 0.4), EmpiricalSample([3.0, 1.0, 2.0])):
            assert dist.lower_quantile_integral(1.0) == pytest.approx(dist.mean(), abs=1e-10)

    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.5, 0.9, 0.999])
    def test_parametric_closed_forms_match_quadrature(self, lam):
        cases = [
            (Normal(0.7, 1.3), lambda t: 0.7 + 1.3 * stats.norm.ppf(t)),
            (Uniform(-2.0, 5.0), lambda t: -2.0 + 7.0 * t),
            (Exponential(0.5, -1.0), lambda t: -1.0 - np.log1p(-t) / 0.5),
        ]
        for dist, ppf in cases:
            oracle = quad_lower_quantile_integral(ppf, lam)
            assert dist.lower_quantile_integral(lam) == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("dist", [
        UNIFORM_1234,
        DiscreteDistribution((-3.0, 0.5, 0.5000001, 9.0), (0.1, 0.2, 0.3, 0.4)),
        TwoPoint(2.0, 5.0, 0.4),
        EmpiricalSample([3.0, -1.0, 2.0, 2.0, 7.5]),
        Normal(0.7, 1.3),
        Uniform(-2.0, 5.0),
        Exponential(0.5, -1.0),
        Normal(0, 1),
    ])
    def test_array_of_levels_matches_each_level(self, dist):
        levels = np.concatenate((np.linspace(1e-9, 1.0, 257), [0.1, 0.3, 0.6, 1.0 - 1e-16]))
        values = dist._tail_integrals(levels)
        assert isinstance(values, np.ndarray) and values.shape == levels.shape
        assert values.tolist() == [dist.lower_quantile_integral(t) for t in levels.tolist()]

    def test_midpoint_convexity_on_discrete(self):
        gen = np.random.default_rng(7)
        for _ in range(200):
            a, b = sorted(gen.random(2) * 0.998 + 0.001)
            mid = 0.5 * (a + b)
            lhs = UNIFORM_1234.lower_quantile_integral(mid)
            rhs = 0.5 * (UNIFORM_1234.lower_quantile_integral(a)
                         + UNIFORM_1234.lower_quantile_integral(b))
            assert lhs <= rhs + 1e-12


class TestMoments:
    def test_discrete_example(self):
        assert UNIFORM_1234.mean() == pytest.approx(2.5, abs=1e-15)
        assert UNIFORM_1234.variance() == pytest.approx(1.25, abs=1e-15)

    def test_parametric_identities(self):
        assert Normal(1.5, 2.0).mean() == 1.5
        assert Normal(1.5, 2.0).variance() == 4.0
        assert TwoPoint(0.0, 1.0, 0.5).mean() == 0.5
        assert TwoPoint(0.0, 1.0, 0.5).variance() == 0.25
        assert Uniform(0.0, 1.0).variance() == pytest.approx(1.0 / 12.0)
        assert Exponential(4.0, shift=1.0).mean() == 1.25
        assert Exponential(4.0).variance() == pytest.approx(1.0 / 16.0)
        assert TwoPoint(1.0, 3.0, 0.3).mean() == pytest.approx(1.6)
        assert TwoPoint(1.0, 3.0, 0.3).variance() == pytest.approx(4 * 0.3 * 0.7)

    # A square past the float range is inf and one below it 0.0, as a finite
    # law's variance gives them, not an OverflowError or ZeroDivisionError.
    @pytest.mark.parametrize("law, variance", [
        (Normal(0.0, 1e200), math.inf),
        (Normal(0.0, 1e-200), 0.0),
        (Uniform(-1e200, 1e200), math.inf),
        (Uniform(0.0, 1e-200), 0.0),
        (Exponential(1e-200), math.inf),
        (Exponential(1e200), 0.0),
    ])
    def test_parametric_variance_overflow_and_underflow(self, law, variance):
        assert law.variance() == variance

    # Wherever the square is finite and nonzero, every bit is the closed
    # form's: scales from 2^-530 (a subnormal square) to 2^511.
    def test_parametric_variance_bits_where_finite(self):
        gen = np.random.default_rng(23)
        scales = np.ldexp(gen.uniform(1.0, 2.0, 4000), gen.integers(-530, 511, 4000))
        for s in scales.tolist():
            assert s**2 != 0.0
            assert Normal(0.0, s).variance().hex() == (s**2).hex()
            assert Uniform(0.0, s).variance().hex() == (s**2 / 12.0).hex()
            assert Exponential(s).variance().hex() == (1.0 / s**2).hex()

    # The parametric laws state their sd, so it stays nonzero and finite
    # where the square under- or overflows; finite laws read the variance.
    @pytest.mark.parametrize("law, sd", [
        (Normal(0.0, 1e-200), 1e-200),
        (Normal(0.0, 1e200), 1e200),
        (Uniform(0.0, 1e-200), 1e-200 / math.sqrt(12.0)),
        (Uniform(-1e200, 1e200), 2e200 / math.sqrt(12.0)),
        (Exponential(1e200), 1.0 / 1e200),
        (Exponential(1e-200), 1.0 / 1e-200),
        (TwoPoint(0.0, 1.0, 0.5), 0.5),
        (DiscreteDistribution((-1e200, 1e200), (0.5, 0.5)), math.inf),
    ])
    def test_sd(self, law, sd):
        assert law.sd() == sd


def _assert_rejects(message, build, *args):
    """``build(*args)`` raises a plain ValueError with exactly ``message``."""
    with pytest.raises(ValueError) as info:
        build(*args)
    assert type(info.value) is ValueError and str(info.value) == message


class TestConstruction:
    def test_duplicates_merged_and_sorted(self):
        law = DiscreteDistribution((3.0, 1.0, 3.0), (0.25, 0.5, 0.25))
        assert law.outcomes == (1.0, 3.0)
        assert law.probabilities == (0.5, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteDistribution((1.0, 2.0), (0.5, 0.6))
        with pytest.raises(ValueError):
            DiscreteDistribution((1.0, 2.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            DiscreteDistribution((1.0,), (0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteDistribution((), ())
        with pytest.raises(ValueError, match="outcomes must be finite"):
            DiscreteDistribution((1.0, math.nan), (0.5, 0.5))
        with pytest.raises(ValueError, match="outcomes must be finite"):
            DiscreteDistribution((1.0, 2.0, math.nan), (0.3, 0.3, 0.4))
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            TwoPoint(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Exponential(0.0)

    # Ints and numpy scalars are stored as Python floats, so a law built in
    # Python returns floats and writes the wire form of its JSON twin.
    @pytest.mark.parametrize("law, fields", [
        (Normal(0, 1), ("loc", "scale")),
        (Normal(np.float32(0.5), np.int64(2)), ("loc", "scale")),
        (Uniform(0, np.float64(1)), ("low", "high")),
        (Exponential(np.int32(2), shift=1), ("rate", "shift")),
    ])
    def test_parameters_are_floats(self, law, fields):
        assert all(type(getattr(law, name)) is float for name in fields)
        for value in (law.mean(), law.quantile(1.0), law.lower_quantile_integral(1.0)):
            assert type(value) is float

    @pytest.mark.parametrize("make, message", [
        (lambda: Normal("0", 1.0), "normal law requires"),
        (lambda: Uniform(0.0, None), "uniform law requires"),
        (lambda: Exponential(1.0, shift=np.array([1.0])), "exponential law requires"),
    ])
    def test_non_number_parameters_fail_the_law_check(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    # Rejections keep their exact type and message, so merging or reordering
    # the checks cannot change what a caller sees.
    @pytest.mark.parametrize("position", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_every_non_finite_outcome_rejected(self, bad, position):
        values = [1.0, 2.0, 3.0]
        values[position] = bad
        _assert_rejects("outcomes must be finite", DiscreteDistribution, values, (0.25, 0.25, 0.5))
        _assert_rejects("outcomes must be finite", EmpiricalSample, values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.25, -math.inf])
    def test_every_bad_probability_rejected(self, bad):
        _assert_rejects("probabilities must be strictly positive",
                        DiscreteDistribution, (1.0, 2.0, 3.0), (0.5, bad, 0.5))

    # Each mass of 1e308 is finite and only their sum overflows.
    @pytest.mark.parametrize("probabilities, message", [
        ((math.inf, -math.inf), "probabilities must be strictly positive"),
        ((1e308, 1e308), "probabilities sum to inf, not 1"),
    ])
    def test_infinite_masses_and_overflowing_sums(self, probabilities, message):
        _assert_rejects(message, DiscreteDistribution, (1.0, 2.0), probabilities)

    def test_laws_built_on_sorted_atoms_check_every_atom(self):
        # A shift can overflow or be NaN or infinite, and a mapped array may
        # hold a NaN anywhere.
        for atoms, shift in (((1.0, 1e308), 1e308), ((-1e308, 1.0), np.float64(-1e308)),
                             ((1.0, 2.0), math.nan), ((1.0, 2.0), math.inf), ((1.0, 2.0), -math.inf)):
            with pytest.raises(ValueError, match="outcomes must be finite"):
                DiscreteDistribution(atoms, (0.5, 0.5)).translate(shift)
        masses, cum = np.full(3, 1.0 / 3.0), np.arange(1, 4) / 3.0
        with pytest.raises(ValueError, match="outcomes must be finite"):
            DiscreteDistribution._sorted(np.array([0.0, math.nan, 1.0]), masses, cum)

    def test_bad_outcome_reported_before_bad_probability(self):
        with pytest.raises(ValueError, match="outcomes must be finite"):
            DiscreteDistribution((1.0, math.nan, 3.0), (0.5, -1.0, 0.5))

    def test_off_sum_message_prints_the_input_order_total(self):
        outcomes, probs = (3.0, 1.0, 4.0, 2.0), np.array([0.45, 0.7, 0.6, 0.2])
        total = float(probs.sum())
        assert total != float(probs[np.argsort(outcomes)].sum())  # the order shows
        with pytest.raises(ValueError, match=f"probabilities sum to {re.escape(repr(total))}, not 1"):
            DiscreteDistribution(outcomes, probs)

    @given(st.lists(st.tuples(st.sampled_from([-2.0, -0.0, 0.0, 1.5, 7.0]), st.floats(0.05, 1.0)),
                    min_size=1, max_size=8), st.randoms(use_true_random=False))
    def test_shuffled_ties_merge_like_a_plain_sort(self, pairs, rnd):
        rnd.shuffle(pairs)
        total = sum(w for _, w in pairs)
        outcomes = [x for x, _ in pairs]
        probs = [w / total for _, w in pairs]
        law = DiscreteDistribution(outcomes, probs)
        groups = {}  # keyed by the first of equal outcomes (0.0 or -0.0) in sorted order
        for x, p in sorted(zip(outcomes, probs), key=lambda xp: xp[0]):
            groups.setdefault(x, []).append(p)
        # numpy adds a group's first mass to the sum of the rest, in order.
        masses = [g[0] + sum(g[1:]) for g in groups.values()]
        assert law._atoms.tobytes() == np.array(list(groups)).tobytes()
        assert law._masses.tobytes() == np.array(masses).tobytes()
        assert law._cum.tobytes() == np.array(list(itertools.accumulate(masses))).tobytes()

    def test_equality_and_hash_ignore_input_order(self):
        a = DiscreteDistribution((3.0, 1.0, 2.0), (0.5, 0.25, 0.25))
        b = DiscreteDistribution((1.0, 2.0, 3.0), (0.25, 0.25, 0.5))
        assert a == b and hash(a) == hash(b)
        assert a != DiscreteDistribution((1.0, 2.0, 3.0), (0.25, 0.5, 0.25))
        c, d = EmpiricalSample([2.0, 1.0, 2.0]), EmpiricalSample([2.0, 2.0, 1.0])
        assert c == d and hash(c) == hash(d)
        assert TwoPoint(0.0, 1.0, 0.5) == TwoPoint(0.0, 1.0, 0.5)
        assert len({a, b, c, d}) == 2
        e, f = DiscreteDistribution((0.0,), (1.0,)), DiscreteDistribution((-0.0,), (1.0,))
        assert e == f and hash(e) == hash(f)

    def test_empirical_differs_from_equal_weight_discrete(self):
        sample = EmpiricalSample([1.0, 2.0])
        law = DiscreteDistribution((1.0, 2.0), (0.5, 0.5))
        assert sample.outcomes == law.outcomes and sample.probabilities == law.probabilities
        assert sample != law and law != sample
        assert TwoPoint(1.0, 2.0, 0.5) != law

    def test_immutable(self):
        law = DiscreteDistribution((1.0, 2.0), (0.5, 0.5))
        with pytest.raises(AttributeError):
            law.extra = 1.0
        with pytest.raises(ValueError):
            law._atoms[0] = 5.0
        assert law.translate(1.0).outcomes == (2.0, 3.0)
        assert law.outcomes == (1.0, 2.0)

    def test_rng_spec_validation(self):
        with pytest.raises(ValueError):
            RngSpec(-1)
        with pytest.raises(ValueError):
            RngSpec(0, -2)

    def test_rng_spec_rejects_keys_past_64_bits(self):
        # Each field enters the stream key as two 32-bit words; 2**64
        # would need a third.
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            RngSpec(2**64)
        with pytest.raises(ValueError):
            RngSpec(0, 2**64)
        top = RngSpec(2**64 - 1, 2**64 - 1).generator().random(3)
        assert not np.array_equal(top, RngSpec(0, 2**64 - 1).generator().random(3))

    # Splitting each field into only the 32-bit words it needs would make
    # the first pair one key ([0, 1, 5] both times); the second pair checks
    # that the two fields keep their places.
    @pytest.mark.parametrize("a, b", [((2**32, 5), (0, 1 + 5 * 2**32)), ((1, 0), (0, 1))])
    def test_rng_spec_keys_are_injective_across_words(self, a, b):
        assert not np.array_equal(RngSpec(*a).generator().random(3), RngSpec(*b).generator().random(3))

    # Kept draws are a cache: equality, hashing and repr see the key only.
    def test_rng_spec_with_kept_draws_is_its_key(self):
        kept, fresh = RngSpec(3, 1), RngSpec(3, 1)
        kept.sorted_uniforms(40)
        kept.sorted_normals(40)
        assert kept == fresh and hash(kept) == hash(fresh)
        assert repr(kept) == repr(fresh) == "RngSpec(master_seed=3, stream_id=1)"
        assert kept != RngSpec(3, 2)

    def test_translate(self):
        assert UNIFORM_1234.translate(1.0).outcomes == (2.0, 3.0, 4.0, 5.0)
        assert Normal(0.0, 1.0).translate(2.0) == Normal(2.0, 1.0)
        assert Uniform(0.0, 1.0).translate(-1.0) == Uniform(-1.0, 0.0)
        assert Exponential(2.0, 0.0).translate(3.0) == Exponential(2.0, 3.0)
        assert TwoPoint(0.0, 1.0, 0.5).translate(1.0) == TwoPoint(1.0, 2.0, 0.5)
        with pytest.raises(ValueError, match="high > low"):
            TwoPoint(0.0, 1e-20, 0.5).translate(1.0)
        assert EmpiricalSample([1.0, 2.0]).translate(0.5).values == (1.5, 2.5)


class TestEmpirical:
    def test_quantile_ceiling_convention(self):
        sample = EmpiricalSample(range(1, 11))  # values 1..10
        assert sample.quantile(0.2) == 2.0
        assert sample.quantile(0.21) == 3.0
        assert sample.quantile(0.0) == 1.0
        assert sample.quantile(1.0) == 10.0

    def test_exact_step_integral(self):
        sample = EmpiricalSample([1.0, 2.0, 3.0, 4.0])
        assert sample.lower_quantile_integral(0.3) == pytest.approx(0.35, abs=1e-15)
        assert sample.lower_quantile_integral(1.0) == pytest.approx(2.5, abs=1e-15)

    def test_sorted_on_construction(self):
        sample = EmpiricalSample([3.0, 1.0, 2.0])
        assert sample.values == (1.0, 2.0, 3.0)
        assert sample.size == 3

    def test_law_variance_convention(self):
        sample = EmpiricalSample([0.0, 1.0])
        assert sample.variance() == 0.25  # denominator k, the law's own variance


class TestSampling:
    # Weights of 1e-18 leave cumulative masses tied; ten equal weights put
    # the last cumulative mass at 0.9999999999999999, below 1. At both ends
    # they hold the first and last atoms out of every uniform's reach, so
    # the counted window starts and stops strictly inside the law, around
    # one interior atom or several.
    @given(st.lists(st.tuples(st.integers(-20, 20), st.one_of(st.floats(1e-3, 1.0), st.just(1e-18))),
                    min_size=1, max_size=12),
           st.integers(0, 2**64 - 1), st.integers(1, 3000))
    @example([(k, 1.0) for k in range(10)], 0, 3000)
    @example([(-3, 1e-18), (0, 1.0), (4, 1e-18)], 7, 3000)
    @example([(-3, 1e-18), (-1, 1e-18), (0, 0.5), (1, 0.5), (4, 1e-18), (5, 1e-18)], 7, 3000)
    def test_counted_law_counts_the_sorted_searched_draw(self, pairs, seed, count):
        total = sum(w for _, w in pairs)
        law = DiscreteDistribution([x for x, _ in pairs], [w / total for _, w in pairs])
        counted = law._counted_law(RngSpec(seed).sorted_uniforms(count))
        searched = np.sort(law._draw(RngSpec(seed).generator(), count))
        _assert_counts_of(counted, searched)

    # Uniforms on, just below and just above each cumulative mass. Seven
    # equal weights end at 0.9999999999999998, so a uniform lies above the
    # last cumulative mass, where a seeded stream almost never draws; so do
    # the uniforms of the last atom after a 1e-18 one. Weights of 1e-18 at
    # both ends leave a window that starts and stops inside the law.
    @given(st.lists(st.one_of(st.floats(1e-3, 1.0), st.just(1e-18)), min_size=1, max_size=12))
    @example([1.0] * 7)
    @example([1e-18, 1.0, 1e-18])
    @example([1e-18, 1e-18, 0.5, 0.5, 1e-18, 1e-18])
    @example([1.0] * 7 + [1e-18])
    def test_counted_law_at_the_cumulative_masses(self, weights):
        law = DiscreteDistribution(np.arange(len(weights)), np.array(weights) / sum(weights))
        cum = law._cum
        u = np.concatenate((cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), [0.0, 1.0 - 2.0**-53]))
        u = np.tile(u[u < 1.0], 2)

        class Uniforms:
            def random(self, count):
                return u.copy()

        counted = law._counted_law(np.sort(u))
        _assert_counts_of(counted, np.sort(law._draw(Uniforms(), u.size)))

    # A pool law reaches far past what 5 000 uniforms can draw, so the count
    # searches a window strictly inside it; it must give the bytes of a
    # count over every atom.
    def test_counted_law_of_a_lattice_pool_law_matches_a_full_count(self):
        gen = np.random.default_rng(20260808)
        weights = gen.random(10) + 0.1
        law = DiscreteDistribution(0.05 * np.sort(gen.choice(40, 10, replace=False)), weights / weights.sum())
        pool = law.pool_sampler(4096).law
        u = RngSpec(20260808, 3).sorted_uniforms(5000)
        counted = pool._counted_law(u)
        ends = np.searchsorted(u, pool._cum, "right")
        ends[-1] = u.size
        counts = np.diff(ends, prepend=0)
        keep = np.flatnonzero(counts)
        assert 0 < keep[0] and keep[-1] < pool._atoms.size - 1
        assert counted._atoms.tobytes() == pool._atoms[keep].tobytes()
        assert counted._masses.tobytes() == (counts[keep] / u.size).tobytes()
        assert counted._cum.tobytes() == (ends[keep] / u.size).tobytes()


def _assert_counts_of(counted: DiscreteDistribution, searched: np.ndarray) -> None:
    """``counted`` holds the sorted draws ``searched`` as distinct atoms whose
    masses are integer counts over the draw count, each the float k / R
    itself (k / R * R may miss k in the last bit, as 114 / 376 * 376 does),
    with the sorted sample's cumulative masses e / R at each run's end e,
    and expands back to them byte for byte."""
    count = searched.size
    counts = np.rint(counted._masses * count)
    assert np.array_equal(counted._masses, counts / count) and counts.min() >= 1.0
    assert np.array_equal(counted._cum, np.cumsum(counts) / count)
    assert np.count_nonzero(np.diff(counted._atoms) > 0) == counted._atoms.size - 1
    expanded = np.repeat(counted._atoms, counts.astype(np.int64))
    assert expanded.tobytes() == searched.tobytes()


class TestPoolAverage:
    def test_normal_forced_sampling(self):
        pooled = pool_average_sample(Normal(0.0, 1.0).pool_sampler(4), 2000, RngSpec(0))
        assert isinstance(pooled, EmpiricalSample)
        assert abs(pooled.mean()) <= 5 * 0.5 / math.sqrt(2000)

    def test_two_point_pair_enumeration(self):
        # S_2/2 for a fair coin lives on {0, 1/2, 1} with probs {1/4, 1/2, 1/4}.
        pooled = pool_average_sample(TwoPoint(0.0, 1.0, 0.5).pool_sampler(2), 100_000, RngSpec(99))
        values = sorted_draws(pooled, 100_000)
        for point, prob in ((0.0, 0.25), (0.5, 0.5), (1.0, 0.25)):
            freq = float(np.mean(values == point))
            sd = math.sqrt(prob * (1 - prob) / 100_000)
            assert abs(freq - prob) <= 4 * sd

    def test_pool_of_one_replicates_the_single_risk(self):
        pooled = pool_average_sample(UNIFORM_1234.pool_sampler(1), 50_000, RngSpec(5))
        assert set(sorted_draws(pooled, 50_000).tolist()) <= {1.0, 2.0, 3.0, 4.0}
        assert abs(pooled.mean() - 2.5) <= 5 * math.sqrt(1.25 / 50_000)

    @pytest.mark.parametrize("dist", [
        UNIFORM_1234,
        TwoPoint(0.0, 1.0, 0.3),
        Uniform(0.0, 1.0),
        Exponential(2.0, 1.0),
        Normal(1.0, 2.0),
    ])
    def test_pool_moments(self, dist):
        n, reps = 8, 40_000
        pooled = pool_average_sample(dist.pool_sampler(n), reps, RngSpec(17))
        se_mean = math.sqrt(dist.variance() / n / reps)
        assert abs(pooled.mean() - dist.mean()) <= 5 * se_mean
        target_var = dist.variance() / n
        # Variance of a sample variance ~ 2 var^2 / reps for light tails.
        se_var = math.sqrt(2.0 / reps) * target_var * 2.0
        assert abs(pooled.variance() - target_var) <= 5 * se_var

    def test_validation(self):
        with pytest.raises(ValueError):
            pool_average_sample(UNIFORM_1234.pool_sampler(0), 10, RngSpec(0))
        with pytest.raises(ValueError):
            pool_average_sample(UNIFORM_1234.pool_sampler(2), 1, RngSpec(0))

    def test_deterministic_across_calls(self):
        a = pool_average_sample(Uniform(0.0, 1.0).pool_sampler(3), 500, RngSpec(7, 2))
        b = pool_average_sample(Uniform(0.0, 1.0).pool_sampler(3), 500, RngSpec(7, 2))
        assert a == b

    # Pinned pool averages: (pool size, the 6 replications drawn from
    # RngSpec(20260808, 3)). The discrete law's atoms lie on a lattice of
    # step 0.5, so it draws from its lattice pool law, and so does the
    # two-point law, pinned at n = 128, where numpy's binomial sampler
    # leaves inversion and gives other values.
    @pytest.mark.parametrize("dist, expected", [
        (Normal(0.5, 2.0), (5, [
            -0.5304488967814831, 0.14447500713029082, 0.3249542747249724,
            1.26860165421953, 1.3047760819814707, 1.4698046153355302,
        ])),
        (TwoPoint(-1.0, 3.0, 0.3), (128, [0.15625, 0.21875, 0.28125, 0.28125, 0.40625, 0.4375])),
        (DiscreteDistribution([0.0, 1.5, 4.0], [0.2, 0.5, 0.3]), (5, [1.7, 2.0, 2.2, 2.2, 3.0, 3.0])),
        (Uniform(-1.0, 2.0), (5, [
            0.02416499690084999, 0.25773748168976435, 0.47032032501001114,
            0.9176851068597498, 1.0887978091626103, 1.103486192889093,
        ])),
        (EmpiricalSample([0.25, -2.0, 1.0, 7.5]), (5, [-0.2, -0.05, 2.4, 3.45, 3.45, 3.45])),
    ])
    def test_streams_pinned(self, dist, expected):
        n, values = expected
        pooled = pool_average_sample(dist.pool_sampler(n), 6, RngSpec(20260808, 3))
        assert sorted_draws(pooled, 6).tolist() == values

    @given(
        low=st.floats(-1e6, 1e6),
        width=st.floats(1e-3, 1e6),
        p_high=st.floats(0.001, 0.999),
        n=st.integers(1, 300),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_two_point_pool_is_the_discrete_pool(self, low, width, p_high, n, seed):
        # A two-point law is a finite law like any other: the same pooled
        # sampler, the same stream, bit for bit.
        high = low + width
        rng = RngSpec(seed, n)
        pooled = pool_average_sample(TwoPoint(low, high, p_high).pool_sampler(n), 500, rng)
        same_law = DiscreteDistribution([low, high], [1.0 - p_high, p_high])
        same = pool_average_sample(same_law.pool_sampler(n), 500, rng)
        assert pooled == same

    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_exponential_pool_is_gamma(self, n):
        dist = Exponential(2.0, 0.5)
        pooled = pool_average_sample(dist.pool_sampler(n), 20_000, RngSpec(11, n))
        law = stats.gamma(n, loc=dist.shift, scale=1.0 / (n * dist.rate))
        assert stats.kstest(pooled.values, law.cdf).pvalue > 1e-4

    def test_exponential_pool_never_sums_draws(self, monkeypatch):
        def refuse(self, gen, count):
            raise AssertionError("pooled exponential summed single draws")

        monkeypatch.setattr(Exponential, "_draw", refuse)
        pooled = pool_average_sample(Exponential(1.0).pool_sampler(4096), 100, RngSpec(3))
        assert pooled.size == 100

    def test_multinomial_blocks_reproduce_one_call(self):
        # sqrt(k) atoms lie on no lattice, so the law draws multinomial
        # counts; 10^4 atoms make 838-row blocks, so 1000 replications take
        # two. Each row of the one-call reference is summed on its own.
        masses = np.random.default_rng(4).dirichlet(np.ones(10_000))
        law = DiscreteDistribution(np.sqrt(np.arange(10_000)), masses)
        assert law.pool_sampler(50).method == "multinomial"
        rng = RngSpec(5, 2)
        pooled = pool_average_sample(law.pool_sampler(50), 1000, rng)
        counts = rng.generator().multinomial(50, law._masses, size=1000)
        assert pooled == EmpiricalSample([(row * law._atoms).sum() / 50 for row in counts])

    def test_multinomial_pool_ignores_blas_threads(self):
        # A BLAS matrix product rounded some of these rows differently at
        # one and at two OpenBLAS threads; the row-wise sum does not.
        one, two = _stdout_at_blas_threads_1_and_2(
            "import numpy as np\n"
            "from riskpool.distributions import DiscreteDistribution, RngSpec, pool_average_sample\n"
            "masses = np.random.default_rng(4).dirichlet(np.ones(8000))\n"
            "law = DiscreteDistribution(np.sqrt(np.arange(8000)), masses)\n"
            "pooled = pool_average_sample(law.pool_sampler(50), 300, RngSpec(5, 2))\n"
            "print(law.pool_sampler(50).method, pooled._atoms.tobytes().hex())\n"
        )
        assert one.startswith("multinomial ")
        assert one == two

    def test_mean_ignores_blas_threads(self):
        # A BLAS dot product splits 20 000 entries across its threads and
        # rounded this mean differently at one and at two; a sum does not.
        one, two = _stdout_at_blas_threads_1_and_2(
            "import numpy as np\n"
            "from riskpool.distributions import EmpiricalSample\n"
            "sample = EmpiricalSample(np.random.default_rng(3).normal(size=20_000))\n"
            "print(sample.mean().hex())\n"
        )
        assert one == two


OFF_LATTICE = DiscreteDistribution([0.0, 1.0, math.sqrt(2.0)], [0.2, 0.5, 0.3])
ON_LATTICE = DiscreteDistribution([0.0, 0.3, 0.4, 1.0], [0.4, 0.1, 0.2, 0.3])


def _same_bits(a: DiscreteDistribution, b: DiscreteDistribution) -> bool:
    return type(a) is type(b) and all(
        getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in ("_atoms", "_masses", "_cum")
    )


class TestPoolSamplerLaw:
    # One law and pool size per sampler kind: its draw comes from the law it
    # carries, bit for bit, and a sampler that draws without one carries None.
    @pytest.mark.parametrize("dist, n, method", [
        (Normal(1.5, 2.0), 16, "normal-law"),
        (Normal(-3.0, 0.7), 1, "normal-law"),
        (ON_LATTICE, 12, "lattice"),
        (ON_LATTICE, 1, "lattice"),
        (OFF_LATTICE, 1, "inverse cdf"),
        (Exponential(2.0, 0.5), 4, "gamma"),
        (Uniform(0.0, 1.0), 4, "summed draws"),
        (EmpiricalSample([0.5, 1.0, 3.0]), 4, "summed draws"),
        (OFF_LATTICE, 4, "multinomial"),
    ])
    def test_draw_comes_from_the_carried_law(self, dist, n, method):
        sampler = dist.pool_sampler(n)
        assert sampler.method == method
        law, count = sampler.law, 1000
        drawn = sampler.draw(RngSpec(20260808, 2), count)
        fresh = RngSpec(20260808, 2)
        if method == "normal-law":
            assert law == Normal(dist.loc, dist.scale / math.sqrt(n))
            assert _same_bits(drawn, _empirical(law.loc + law.scale * fresh.sorted_normals(count)))
        elif method in ("lattice", "inverse cdf"):
            assert (law is dist) == (n == 1)
            assert _same_bits(drawn, law._counted_law(fresh.sorted_uniforms(count)))
        else:
            assert law is None


def _stdout_at_blas_threads_1_and_2(script: str) -> tuple[str, str]:
    """Standard output of the script in two fresh interpreters, run with one
    and with two OpenBLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        outputs.append(done.stdout)
    return outputs[0], outputs[1]


def _unit_pmf_power(law: DiscreteDistribution, n: int) -> np.ndarray:
    """pmf of the sum of n lattice units by direct convolution."""
    _, _, units = law._lattice
    single = np.zeros(units[-1] + 1)
    np.add.at(single, units, law._masses)
    pmf = np.ones(1)
    for _ in range(n):
        pmf = np.convolve(pmf, single)
    return pmf


class TestLatticePoolLaw:
    @pytest.mark.parametrize("atoms, step, units", [
        ([0.0, 1.5, 4.0], 0.5, [0, 3, 8]),
        ([0.1, 0.2, 0.7], 0.1, [0, 1, 6]),
        ([1000.05, 1000.1, 1003.3], 0.05, [0, 1, 65]),
        ([2.5], 1.0, [0]),
    ])
    def test_lattice_detection(self, atoms, step, units):
        law = DiscreteDistribution(atoms, np.full(len(atoms), 1.0 / len(atoms)))
        origin, found_step, found_units = law._lattice
        assert origin == atoms[0]
        assert found_step == pytest.approx(step, rel=1e-12)
        assert found_units.tolist() == units
        assert law.pool_sampler(16).method == "lattice"

    @pytest.mark.parametrize("atoms", [
        [0.0, 1.0, math.sqrt(2.0)], [0.0, 1e-10, 1.0], [-1e308, 0.0, 1e308],
    ])
    def test_off_lattice_falls_back_to_multinomial(self, atoms):
        law = DiscreteDistribution(atoms, [0.2, 0.5, 0.3])
        assert law._lattice is None
        assert law.pool_sampler(16).law is None
        assert law.pool_sampler(16).method == "multinomial"

    def test_one_copy_off_a_lattice_counts_the_law_itself(self, monkeypatch):
        # One copy is its own pool law on or off a lattice: its sorted
        # uniforms are counted against the law, an inverse-CDF draw, and no
        # multinomial counts are drawn over its 8000 atoms.
        masses = np.random.default_rng(4).dirichlet(np.ones(8000))
        law = DiscreteDistribution(np.sqrt(np.arange(8000)), masses)
        assert law._lattice is None and law.pool_sampler(1).law is law
        assert law.pool_sampler(1).method == "inverse cdf"

        class NoCounts(np.random.Generator):
            def multinomial(self, *args, **kwargs):
                raise AssertionError("one copy drew multinomial counts")

        generator = RngSpec.generator
        monkeypatch.setattr(RngSpec, "generator", lambda self: NoCounts(generator(self).bit_generator))
        pooled = pool_average_sample(law.pool_sampler(1), 5000, RngSpec(1))
        _assert_counts_of(pooled, np.sort(law._draw(RngSpec(1).generator(), 5000)))

    @pytest.mark.parametrize("atoms, probs", [
        ([0.0, 1.5, 4.0], [0.2, 0.5, 0.3]),
        ([-1.0, 0.0, 0.5], [0.3, 0.3, 0.4]),
        ([0.1, 0.2, 0.7], [0.25, 0.5, 0.25]),
    ])
    # The spectrum's power takes products besides the squarings at odd n,
    # and at 13 = 1101 in binary two of them.
    @pytest.mark.parametrize("n", [*range(1, 9), 13])
    def test_matches_direct_convolution(self, atoms, probs, n):
        law = DiscreteDistribution(atoms, probs)
        origin, step, _ = law._lattice
        exact = _unit_pmf_power(law, n)
        pool = law.pool_sampler(n).law
        sums = np.rint((pool._atoms - origin) * n / step).astype(int)
        # Gappy lattices (units 0, 3, 8) leave sums no pool can reach.
        assert sums.tolist() == np.flatnonzero(exact).tolist()
        assert 0.5 * np.abs(exact[sums] - pool._masses).sum() <= 1e-12
        assert np.abs(exact[sums] - pool._masses).max() <= 1e-15

    @pytest.mark.parametrize("p_high", [0.02, 0.3, 0.5])
    def test_two_atom_pool_is_binomial(self, p_high):
        n = 4096
        law = DiscreteDistribution([-1.0, 3.0], [1.0 - p_high, p_high])
        pool = law.pool_sampler(n).law
        counts = np.rint((pool._atoms + 1.0) * n / 4.0).astype(int)
        assert np.array_equal(pool._atoms, -1.0 + 4.0 * counts / n)
        drawn = np.zeros(n + 1)
        drawn[counts] = pool._masses
        exact = stats.binom.pmf(np.arange(n + 1), n, p_high)
        # Entries at or below the 1e-13 floor are dropped from the far tails.
        assert np.abs(drawn - exact).max() <= 1e-13
        assert 0.5 * np.abs(drawn - exact).sum() <= 1e-11

    def test_pooled_draws_follow_the_pool_law(self):
        law = DiscreteDistribution([0.0, 0.3, 0.4, 1.0], [0.4, 0.1, 0.2, 0.3])
        n, count = 12, 100_000
        sampler = law.pool_sampler(n)
        pool = sampler.law
        pooled = sorted_draws(sampler.draw(RngSpec(20260808, 1), count), count)
        idx = np.searchsorted(pool._atoms, pooled)
        assert np.array_equal(pool._atoms[idx], pooled)
        observed = np.bincount(idx, minlength=pool._atoms.size)
        expected = pool._masses * count
        # Pool the sparse tails into one cell so every expected count is >= 5.
        big = expected >= 5.0
        obs = np.append(observed[big], observed[~big].sum())
        exp = np.append(expected[big], expected[~big].sum())
        assert stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 1e-4

    def test_window_over_the_cap_falls_back_before_allocating(self):
        # Units reach 2^19, so four copies span 2^21 sums: the power-of-two
        # window, 2^22, would pass _POOL_WINDOW.
        law = DiscreteDistribution([0.0, 1.0, float(_POOL_WINDOW // 4)], [0.3, 0.4, 0.3])
        assert law.pool_sampler(1).method == "lattice"
        tracemalloc.start()
        try:
            assert law.pool_sampler(4).law is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert law.pool_sampler(4).method == "multinomial"
        # Sums of four integer outcomes, averaged.
        pooled = 4.0 * sorted_draws(pool_average_sample(law.pool_sampler(4), 1000, RngSpec(1)), 1000)
        assert np.array_equal(pooled, np.rint(pooled))

    def test_largest_window_stays_under_the_chunk_memory(self):
        # Four copies of units up to 2^19 - 1 span 2^21 - 4 sums, a window of
        # exactly _POOL_WINDOW entries; building its law traces no more than
        # the ~64 MB that _POOL_CHUNK 8-byte values take. Three copies of
        # units up to (2^21 - 1) // 3 fill the same window, and their power
        # takes a product besides the squaring. Units 0..30 below the top
        # make 32 atoms, enough that the window is no longer than
        # _POOL_ENTRIES_PER_ATOM per atom.
        assert _POOL_ENTRIES_PER_ATOM * 32 >= _POOL_WINDOW
        # j tops and n - j units from 0..30 give 121 + 91 + 61 + 31 + 1 sums
        # at n = 4 and 91 + 61 + 31 + 1 at n = 3.
        for n, top, sums in ((4, _POOL_WINDOW // 4 - 1, 305), (3, (_POOL_WINDOW - 1) // 3, 184)):
            law = DiscreteDistribution(np.array([*range(31), top], dtype=float), np.full(32, 1.0 / 32))
            assert _fft_size(n * top) == _POOL_WINDOW
            tracemalloc.start()
            try:
                pool = law.pool_sampler(n).law
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * _POOL_CHUNK
            assert law.pool_sampler(n).method == "lattice"
            assert pool._atoms.size == sums

    def test_long_window_per_atom_takes_multinomial_counts(self):
        # Units {0, 1, 2^19 - 1}: four copies reach 15 sums, spread over a
        # 2^21-entry FFT, more than _POOL_ENTRIES_PER_ATOM per atom, so the
        # pool draws counts and no FFT is built. One copy is its own lattice
        # law.
        law = DiscreteDistribution([0.0, 1.0, float(_POOL_WINDOW // 4 - 1)], [0.3, 0.4, 0.3])
        assert law.pool_sampler(1).method == "lattice"
        tracemalloc.start()
        try:
            assert law.pool_sampler(4).law is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert law.pool_sampler(4).method == "multinomial"

    def test_one_copy_of_a_long_lattice_is_its_own_pool_law(self):
        # Units {0, 1, 2^22}: from two copies on the FFT window would pass
        # _POOL_WINDOW, so pools draw counts, but one copy is the law itself
        # and draws its own sorted inverse-transform sample.
        law = DiscreteDistribution([0.0, 1.0, float(1 << 22)], [0.3, 0.4, 0.3])
        assert law.pool_sampler(1).method == "lattice"
        assert law.pool_sampler(1).law is law
        assert law.pool_sampler(2).method == "multinomial"
        pooled = pool_average_sample(law.pool_sampler(1), 1000, RngSpec(4, 1))
        searched = np.sort(law._draw(RngSpec(4, 1).generator(), 1000))
        assert sorted_draws(pooled, 1000).tobytes() == searched.tobytes()

    def test_counts_start_past_entries_per_atom(self):
        # Three atoms allow 600 000 entries: four copies of units up to
        # 2^17 - 1 take a 2^19-entry FFT and keep the lattice, up to 2^18 - 1
        # a 2^20-entry one and draw counts. Short sparse windows, such as
        # units {0, 1, 1000} along the grid, keep the lattice.
        assert 1 << 19 <= 3 * _POOL_ENTRIES_PER_ATOM < 1 << 20
        below = DiscreteDistribution([0.0, 1.0, float((1 << 17) - 1)], [0.3, 0.4, 0.3])
        above = DiscreteDistribution([0.0, 1.0, float((1 << 18) - 1)], [0.3, 0.4, 0.3])
        assert below.pool_sampler(4).method == "lattice"
        assert above.pool_sampler(4).method == "multinomial"
        short = DiscreteDistribution([0.0, 1.0, 1000.0], [0.3, 0.4, 0.3])
        assert [short.pool_sampler(n).method for n in (1, 4, 16, 64, 256)] == ["lattice"] * 5

    def test_single_atom_pool_is_the_atom(self):
        law = DiscreteDistribution([2.5], [1.0])
        assert law.pool_sampler(64).method == "lattice"
        pooled = pool_average_sample(law.pool_sampler(64), 100, RngSpec(2))
        assert sorted_draws(pooled, 100).tolist() == [2.5] * 100


# Levels from the far lower tail to the far upper one.
SCORE_LEVELS = np.concatenate([10.0 ** -np.linspace(1.0, 300.0, 300), np.linspace(0.01, 0.99, 99),
                               1.0 - 10.0 ** -np.linspace(1.0, 15.5, 30)])


class TestScoreQuantile:
    # The normal's quantile is its score quantile at Phi^-1(t), bit for bit.
    @pytest.mark.parametrize("law", [Normal(0.0, 1.0), Normal(1.0, 2.0), Normal(-3e5, 1e-7)])
    def test_normal_quantile_reads_the_score_quantile(self, law):
        z = np.array([_inv_cdf(t) for t in SCORE_LEVELS.tolist()])
        assert np.array_equal(law._score_quantile(z), [law.quantile(t) for t in SCORE_LEVELS.tolist()])

    # The uniform and exponential read Phi(Phi^-1(t)), which is t to
    # rounding; the exponential reads 1 - t as Phi(-z) above the median.
    @pytest.mark.parametrize("law", [Uniform(-1.0, 3.0), Uniform(0.0, 1e-300), Exponential(2.0, 0.5),
                                     Exponential(1e-3, -4.0)])
    def test_parametric_score_quantile_matches_the_quantile(self, law):
        z = np.array([_inv_cdf(t) for t in SCORE_LEVELS.tolist()])
        expected = [law.quantile(t) for t in SCORE_LEVELS.tolist()]
        assert law._score_quantile(z) == pytest.approx(expected, rel=1e-13, abs=1e-14 * law.sd())
