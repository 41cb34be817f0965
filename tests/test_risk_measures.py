import dataclasses
import math

import numpy as np
import pytest

from riskpool.distributions import DiscreteDistribution, Normal, RngSpec
from riskpool.risk_measures import (
    KusuokaFamily,
    MixtureMeasure,
    avar,
    check_family_condition,
    check_log_condition,
    dual_avar_discrete,
    essential_infimum,
    kusuoka_value,
    mixture_value,
)

from helpers import brute_force_dual_min, quad_avar_normal

UNIFORM_1234 = DiscreteDistribution((1.0, 2.0, 3.0, 4.0), (0.25,) * 4)

# Frozen from the quadrature oracle (quad of scipy ppf over the tail):
# avar of a standard normal at 0.5 / 0.3 / 0.7.
AVAR_N01_05 = -0.7978845608028654
AVAR_N01_03 = -1.1589753806669127
AVAR_N01_07 = -0.49670373457153405


class TestAvar:
    def test_discrete_example(self):
        assert avar(UNIFORM_1234, 0.5) == pytest.approx(1.5, abs=1e-15)

    def test_level_one_is_mean(self):
        for dist in (UNIFORM_1234, Normal(2.0, 3.0)):
            assert avar(dist, 1.0) == pytest.approx(dist.mean(), abs=1e-12)

    def test_normal_frozen_value(self):
        assert avar(Normal(0.0, 1.0), 0.5) == pytest.approx(AVAR_N01_05, abs=1e-12)

    def test_normal_matches_quadrature(self):
        for lam in (0.1, 0.3, 0.5, 0.7, 0.95):
            assert avar(Normal(0.0, 1.0), lam) == pytest.approx(quad_avar_normal(lam), abs=1e-8)

    def test_level_validation(self):
        for bad in (0.0, -0.2, 1.2):
            with pytest.raises(ValueError):
                avar(UNIFORM_1234, bad)

    def test_monotone_and_below_mean(self):
        grid = np.linspace(0.01, 1.0, 50)
        values = [avar(UNIFORM_1234, lam) for lam in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert all(v <= UNIFORM_1234.mean() + 1e-12 for v in values)

    def test_law_invariance_across_encodings(self):
        # Same law: atom split in two plus shuffled declaration order.
        a = DiscreteDistribution((1.0, 2.0, 3.0, 4.0), (0.25,) * 4)
        b = DiscreteDistribution((4.0, 1.0, 2.0, 3.0, 1.0), (0.25, 0.1, 0.25, 0.25, 0.15))
        for lam in (0.2, 0.26, 0.5, 1.0):
            assert avar(a, lam) == avar(b, lam)


class TestNormalClosedForm:
    def test_half_level(self):
        assert avar(Normal(0.0, 1.0), 0.5) == pytest.approx(AVAR_N01_05, abs=1e-12)

    def test_level_one_returns_location(self):
        assert avar(Normal(3.0, 2.0), 1.0) == 3.0

    def test_frozen_03(self):
        assert avar(Normal(0.0, 1.0), 0.3) == pytest.approx(AVAR_N01_03, abs=1e-12)
        assert avar(Normal(0.0, 1.0), 0.3) == pytest.approx(quad_avar_normal(0.3), abs=1e-8)

    def test_location_scale(self):
        for m, s, lam in ((1.0, 2.0, 0.3), (-2.0, 0.5, 0.8)):
            assert avar(Normal(m, s), lam) == pytest.approx(
                m + s * avar(Normal(0.0, 1.0), lam), abs=1e-12
            )

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            Normal(0.0, 0.0)

    def test_tail_constant_strictly_decreasing_and_vanishing(self):
        # -avar(N(0, 1), lam) = pdf(ppf(lam))/lam, the limit constant per level.
        grid = np.linspace(0.02, 0.999, 80)
        values = [-avar(Normal(0.0, 1.0), lam) for lam in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert -avar(Normal(0.0, 1.0), 1.0 - 1e-12) < 1e-10
        assert avar(Normal(0.0, 1.0), 1.0) == 0.0

    def test_level_validation(self):
        for bad in (0.0, -0.1, 1.0 + 1e-12, math.nan):
            with pytest.raises(ValueError, match="tail level"):
                avar(Normal(0.0, 1.0), bad)


class TestMixture:
    def test_point_mass_at_one_is_mean(self):
        assert mixture_value(UNIFORM_1234, MixtureMeasure.point(1.0)) == pytest.approx(
            2.5, abs=1e-12
        )

    def test_half_half_on_normal(self):
        mu = MixtureMeasure(((0.5, 0.5), (1.0, 0.5)))
        assert mixture_value(Normal(0.0, 1.0), mu) == pytest.approx(
            0.5 * AVAR_N01_05, abs=1e-12
        )

    def test_point_mass_on_discrete(self):
        assert mixture_value(UNIFORM_1234, MixtureMeasure.point(0.5)) == pytest.approx(
            1.5, abs=1e-15
        )

    def test_atom_at_zero_rejected(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            MixtureMeasure(((0.0, 1.0),))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MixtureMeasure(((0.5, 0.6), (1.0, 0.6)))
        with pytest.raises(ValueError):
            MixtureMeasure(((0.5, -0.5), (1.0, 1.5)))
        with pytest.raises(ValueError):
            MixtureMeasure(())

    def test_atoms_deduplicated_and_sorted(self):
        mu = MixtureMeasure(((1.0, 0.25), (0.5, 0.25), (1.0, 0.5)))
        assert mu.atoms == ((0.5, 0.25), (1.0, 0.75))

    def test_equal_weight_grid(self):
        mu = MixtureMeasure.equal_weight_grid(4)
        assert mu.atoms == ((0.125, 0.25), (0.375, 0.25), (0.625, 0.25), (0.875, 0.25))
        assert math.isfinite(check_log_condition(mu))


class TestKusuoka:
    def test_singleton_mean(self):
        family = KusuokaFamily((MixtureMeasure.point(1.0),))
        value, index = kusuoka_value(UNIFORM_1234, family)
        assert value == pytest.approx(2.5, abs=1e-12)
        assert index == 0

    def test_two_points_on_normal(self):
        family = KusuokaFamily((MixtureMeasure.point(0.3), MixtureMeasure.point(0.7)))
        value, index = kusuoka_value(Normal(0.0, 1.0), family)
        assert value == pytest.approx(AVAR_N01_03, abs=1e-12)
        assert index == 0

    def test_duplicate_members_first_index(self):
        mu = MixtureMeasure.point(0.5)
        value, index = kusuoka_value(UNIFORM_1234, KusuokaFamily((mu, mu)))
        assert value == mixture_value(UNIFORM_1234, mu)
        assert index == 0

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            KusuokaFamily(())

    # The cached level arrays are no dataclass field: equality, hashing and
    # repr read the members alone.
    def test_level_arrays_are_read_only_and_not_fields(self):
        members = (MixtureMeasure.point(0.5), MixtureMeasure.equal_weight_grid(8))
        family = KusuokaFamily(members)
        assert [f.name for f in dataclasses.fields(family)] == ["members"]
        assert family == KusuokaFamily(members) and hash(family) == hash(KusuokaFamily(members))
        assert repr(family) == f"KusuokaFamily(members={members!r})"
        levels, weights = family._arrays
        atoms = members[0].atoms + members[1].atoms
        assert (levels.tolist(), weights.tolist()) == tuple(map(list, zip(*atoms)))
        assert not levels.flags.writeable and not weights.flags.writeable


class TestDual:
    def test_half_level_example(self):
        solution = dual_avar_discrete(UNIFORM_1234, 0.5)
        assert solution.density == pytest.approx((2.0, 2.0, 0.0, 0.0), abs=1e-12)
        assert solution.value == pytest.approx(1.5, abs=1e-12)

    def test_fractional_atom_example(self):
        solution = dual_avar_discrete(UNIFORM_1234, 0.3)
        assert solution.density == pytest.approx((10.0 / 3.0, 2.0 / 3.0, 0.0, 0.0), abs=1e-12)
        assert solution.value == pytest.approx(7.0 / 6.0, abs=1e-12)

    def test_level_one_is_reference_measure(self):
        solution = dual_avar_discrete(UNIFORM_1234, 1.0)
        assert solution.density == pytest.approx((1.0,) * 4, abs=1e-12)
        assert solution.value == pytest.approx(2.5, abs=1e-12)

    def test_matches_primal_on_random_laws(self):
        gen = RngSpec(314, 0).generator()
        for _ in range(300):
            k = int(gen.integers(1, 65))
            outcomes = np.round(gen.normal(0, 5, k), 6)
            w = gen.random(k) + 1e-3
            law = DiscreteDistribution(tuple(outcomes), tuple(w / w.sum()))
            lam = float(gen.random() * 0.999 + 0.001)
            assert dual_avar_discrete(law, lam).value == pytest.approx(
                avar(law, lam), abs=1e-12 * max(1.0, np.abs(outcomes).max())
            )

    def test_density_feasibility(self):
        gen = RngSpec(314, 1).generator()
        for _ in range(200):
            k = int(gen.integers(1, 10))
            w = gen.random(k) + 1e-3
            law = DiscreteDistribution(tuple(gen.normal(0, 3, k)), tuple(w / w.sum()))
            lam = float(gen.random() * 0.999 + 0.001)
            solution = dual_avar_discrete(law, lam)
            density = np.asarray(solution.density)
            assert np.all(density >= -1e-12)
            assert np.all(density <= 1.0 / lam + 1e-12)
            assert float(density @ np.asarray(law.probabilities)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_matches_vertex_enumeration_small_laws(self):
        gen = RngSpec(314, 2).generator()
        for _ in range(100):
            k = int(gen.integers(1, 6))
            w = gen.random(k) + 1e-3
            law = DiscreteDistribution(tuple(gen.normal(0, 3, k)), tuple(w / w.sum()))
            lam = float(gen.random() * 0.999 + 0.001)
            oracle = brute_force_dual_min(law.outcomes, law.probabilities, lam)
            assert dual_avar_discrete(law, lam).value == pytest.approx(oracle, abs=1e-9)


class TestDiagnostics:
    def test_log_condition_examples(self):
        assert check_log_condition(MixtureMeasure.point(1.0)) == 0.0
        assert check_log_condition(MixtureMeasure.point(0.5)) == pytest.approx(
            math.log(2.0), abs=1e-12
        )
        mu = MixtureMeasure(((0.1, 0.5), (1.0, 0.5)))
        assert check_log_condition(mu) == pytest.approx(0.5 * math.log(10.0), abs=1e-12)

    def test_family_condition_examples(self):
        assert check_family_condition(KusuokaFamily((MixtureMeasure.point(1.0),))) == 0.0
        family = KusuokaFamily((MixtureMeasure.point(0.5), MixtureMeasure.point(0.1)))
        assert check_family_condition(family) == pytest.approx(math.log(10.0), abs=1e-12)
        single = KusuokaFamily((MixtureMeasure.point(0.25),))
        assert check_family_condition(single) == check_log_condition(MixtureMeasure.point(0.25))


class TestEssentialInfimum:
    def test_discrete(self):
        assert essential_infimum(UNIFORM_1234) == 1.0

    def test_unbounded_below_errors(self):
        with pytest.raises(ValueError):
            essential_infimum(Normal(0.0, 1.0))
