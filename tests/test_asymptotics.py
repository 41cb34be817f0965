import math

import numpy as np
import pytest

from riskpool.asymptotics import (
    fit_rate,
    inv_normal_cdf,
    normal_avar_constant,
    theorem1_limit,
    theorem2_limit,
)
from riskpool.distributions import Normal, RngSpec
from riskpool.risk_measures import KusuokaFamily, MixtureMeasure, avar, kusuoka_value

from helpers import bisect_inv_normal_cdf, quad_avar_normal

# Frozen oracle values: bisection on the erfc CDF / quadrature of the quantile.
PPF_0975 = 1.959963984540054
CONSTANT_05 = 0.7978845608028654
CONSTANT_03 = 1.1589753806669127


class TestInvNormalCdf:
    def test_median(self):
        assert inv_normal_cdf(0.5) == 0.0

    def test_frozen_0975(self):
        assert inv_normal_cdf(0.975) == pytest.approx(PPF_0975, abs=1e-9)
        assert inv_normal_cdf(0.975) == pytest.approx(
            -bisect_inv_normal_cdf(0.025), abs=1e-9
        )

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.37, 0.6, 0.999):
            assert inv_normal_cdf(p) + inv_normal_cdf(1.0 - p) == pytest.approx(
                0.0, abs=1e-9
            )

    def test_against_bisection_oracle(self):
        # Lower half, where the erfc CDF keeps full relative precision.
        grid = np.concatenate([np.linspace(1e-6, 0.5, 101), [1e-10, 1e-8, 0.425]])
        for p in grid:
            assert inv_normal_cdf(float(p)) == pytest.approx(
                bisect_inv_normal_cdf(float(p)), abs=1e-9
            )

    def test_against_scipy_ndtri(self):
        from scipy import stats

        grid = np.concatenate(
            [
                np.linspace(1e-6, 1 - 1e-6, 101),
                [1e-12, 1e-10, 0.425001, 0.5749, 1 - 1e-10, 1 - 1e-12],
            ]
        )
        for p in grid:
            assert inv_normal_cdf(float(p)) == pytest.approx(
                float(stats.norm.ppf(p)), abs=1e-9
            )

    def test_domain_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5, math.nan):
            with pytest.raises(ValueError):
                inv_normal_cdf(bad)

    def test_array_input(self):
        out = inv_normal_cdf(np.array([0.25, 0.5, 0.75]))
        assert out.shape == (3,)
        assert out[1] == 0.0
        assert out[0] == -out[2]


class TestNormalAvarConstant:
    def test_frozen_values(self):
        assert normal_avar_constant(0.5) == pytest.approx(CONSTANT_05, abs=1e-12)
        assert normal_avar_constant(0.3) == pytest.approx(CONSTANT_03, abs=1e-12)
        assert normal_avar_constant(1.0) == 0.0

    def test_matches_quadrature(self):
        for lam in (0.1, 0.3, 0.5, 0.9):
            assert normal_avar_constant(lam) == pytest.approx(
                -quad_avar_normal(lam), abs=1e-8
            )

    def test_equals_negative_building_block(self):
        for lam in (0.2, 0.5, 0.8, 1.0):
            assert normal_avar_constant(lam) == pytest.approx(
                -avar(Normal(0.0, 1.0), lam), abs=1e-12
            )

    def test_strictly_decreasing_and_vanishing(self):
        grid = np.linspace(0.02, 0.999, 80)
        values = [normal_avar_constant(lam) for lam in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert normal_avar_constant(1.0 - 1e-12) < 1e-10

    def test_validation(self):
        for bad in (0.0, -0.1, 1.0 + 1e-12):
            with pytest.raises(ValueError):
                normal_avar_constant(bad)


class TestTheorem1Limit:
    def test_mean_case_is_zero(self):
        assert theorem1_limit(1.0, MixtureMeasure.point(1.0)) == 0.0

    def test_half_half_mixture(self):
        mu = MixtureMeasure(((0.5, 0.5), (1.0, 0.5)))
        assert theorem1_limit(1.0, mu) == pytest.approx(0.5 * CONSTANT_05, abs=1e-12)

    def test_scaled_point_mass(self):
        assert theorem1_limit(2.0, MixtureMeasure.point(0.3)) == pytest.approx(
            2.0 * CONSTANT_03, abs=1e-12
        )

    def test_zero_sigma(self):
        assert theorem1_limit(0.0, MixtureMeasure.point(0.3)) == 0.0

    def test_zero_iff_point_mass_at_one(self):
        gen = RngSpec(21).generator()
        for _ in range(50):
            lam = float(gen.random() * 0.998 + 0.001)
            mu = MixtureMeasure(((lam, 0.5), (1.0, 0.5)))
            assert theorem1_limit(1.0, mu) > 0.0
        assert theorem1_limit(1.0, MixtureMeasure.point(1.0)) == 0.0

    def test_scale_equivariance(self):
        mu = MixtureMeasure(((0.4, 0.7), (0.9, 0.3)))
        base = theorem1_limit(1.0, mu)
        for c in (0.0, 0.5, 3.0):
            assert theorem1_limit(c, mu) == pytest.approx(c * base, abs=1e-12)

    def test_quadrature_cross_check(self):
        mu = MixtureMeasure(((0.25, 0.4), (0.6, 0.6)))
        oracle = -(0.4 * quad_avar_normal(0.25) + 0.6 * quad_avar_normal(0.6))
        assert theorem1_limit(1.0, mu) == pytest.approx(oracle, abs=1e-8)

    def test_sigma_validation(self):
        with pytest.raises(ValueError):
            theorem1_limit(-1.0, MixtureMeasure.point(0.5))

    # inf * 0 at the level-1 atom would otherwise come out as NaN.
    @pytest.mark.parametrize("sigma", [math.inf, math.nan])
    @pytest.mark.parametrize("mu", [MixtureMeasure.point(1.0), MixtureMeasure.point(0.5)])
    def test_non_finite_sigma_rejected(self, sigma, mu):
        with pytest.raises(ValueError, match="finite"):
            theorem1_limit(sigma, mu)
        with pytest.raises(ValueError, match="finite"):
            theorem2_limit(sigma, KusuokaFamily((mu,)))


class TestTheorem2Limit:
    def test_mean_family_is_zero(self):
        assert theorem2_limit(1.0, KusuokaFamily((MixtureMeasure.point(1.0),))) == 0.0

    def test_two_point_family(self):
        family = KusuokaFamily((MixtureMeasure.point(0.3), MixtureMeasure.point(0.7)))
        assert theorem2_limit(1.0, family) == pytest.approx(CONSTANT_03, abs=1e-12)

    def test_singleton_matches_theorem1(self):
        mu = MixtureMeasure(((0.5, 0.5), (1.0, 0.5)))
        assert theorem2_limit(1.0, KusuokaFamily((mu,))) == theorem1_limit(1.0, mu)

    def test_sup_monotone_in_family(self):
        small = KusuokaFamily((MixtureMeasure.point(0.5),))
        large = KusuokaFamily((MixtureMeasure.point(0.5), MixtureMeasure.point(0.2)))
        assert theorem2_limit(1.5, large) >= theorem2_limit(1.5, small)

    def test_consistency_with_family_functional(self):
        family = KusuokaFamily(
            (
                MixtureMeasure(((0.3, 0.5), (1.0, 0.5))),
                MixtureMeasure.point(0.6),
            )
        )
        value, _ = kusuoka_value(Normal(0.0, 1.0), family)
        assert theorem2_limit(1.0, family) == pytest.approx(-value, abs=1e-12)


class TestFitRate:
    def test_inverse_sqrt_power_law(self):
        points = [(n, 2.0 / math.sqrt(n)) for n in (4, 16, 64, 256)]
        fit = fit_rate(points)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_inverse_power_law(self):
        points = [(n, 3.0 / n) for n in (4, 16, 64, 256)]
        fit = fit_rate(points)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_cara_normal_closed_form_points(self):
        # alpha = sigma = 1: premium is 1/(2n) exactly.
        points = [(4, 1.0 / 8.0), (16, 1.0 / 32.0), (64, 1.0 / 128.0)]
        fit = fit_rate(points)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_drop_smallest_recorded(self):
        points = [(4, 10.0), (16, 0.25), (64, 0.125), (256, 0.0625)]
        fit = fit_rate(points)
        assert fit.points[0][0] == 16
        full = fit_rate(points, drop_smallest=0)
        assert full.points[0][0] == 4
        assert full.r_squared < fit.r_squared

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rate([(4, 1.0), (16, 0.5)])
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(4, 1.0), (16, 0.0), (64, 0.1)])
        with pytest.raises(ValueError, match="distinct"):
            fit_rate([(4, 1.0), (4, 0.5), (64, 0.1)])
