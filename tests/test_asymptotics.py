import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from riskpool import inv_normal_cdf
from riskpool.asymptotics import fit_rate, theorem1_limit
from riskpool.config import experiment_config_from_dict
from riskpool.distributions import Normal, RngSpec, quantile_grid_sample
from riskpool.mc_engine import theorem_limit
from riskpool.preferences import DEFAULT_CE_GRID_POINTS
from riskpool.risk_measures import KusuokaFamily, MixtureMeasure, kusuoka_value

from helpers import bisect_inv_normal_cdf, quad_avar_normal

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"

# Frozen oracle values: bisection on the erfc CDF / quadrature of the quantile.
PPF_0975 = 1.959963984540054
CONSTANT_05 = 0.7978845608028654
CONSTANT_03 = 1.1589753806669127

# 10^-k for k in [1, 307] and 1 - 10^-k for k in [1, 15.9], in half- and
# tenth-decade steps: the far tails of both halves of the unit interval.
DECADE_LEVELS = np.concatenate(
    [10.0 ** -np.linspace(1.0, 307.0, 613), 1.0 - 10.0 ** -np.linspace(1.0, 15.9, 150)]
)
# sha256 of the default certainty-equivalent grid's atoms on Normal(0, 1):
# a source of Φ⁻¹ that moves any grid point's bits moves parametric CEs.
DEFAULT_GRID_SHA256 = "ee52d705e551d64b7de97afdf461779361c9b7b4d9225a3a9eab4aac356171d6"


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
        rel = np.abs(inv_normal_cdf(DECADE_LEVELS) / stats.norm.ppf(DECADE_LEVELS) - 1.0)
        assert rel.max() <= 2e-15

    def test_domain_validation(self):
        for bad in (0.0, 1.0, -0.2, 1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                inv_normal_cdf(bad)
            with pytest.raises(ValueError):
                inv_normal_cdf(np.array([0.3, bad]))

    def test_array_input(self):
        out = inv_normal_cdf(np.array([0.25, 0.5, 0.75]))
        assert out.shape == (3,)
        assert out[1] == 0.0
        assert out[0] == -out[2]
        scalars = [inv_normal_cdf(float(p)) for p in DECADE_LEVELS]
        assert all(type(x) is float for x in scalars)
        assert np.array_equal(inv_normal_cdf(DECADE_LEVELS), scalars)
        for shape in ((0,), (0, 3), (2, 3)):
            levels = np.full(shape, 0.3)
            out = inv_normal_cdf(levels)
            assert out.shape == shape and out.dtype == np.float64
            assert np.all(out == inv_normal_cdf(0.3))

    def test_default_grid_pinned(self):
        atoms = quantile_grid_sample(Normal(0.0, 1.0), DEFAULT_CE_GRID_POINTS)._atoms
        assert hashlib.sha256(atoms.tobytes()).hexdigest() == DEFAULT_GRID_SHA256


class TestTheorem1Limit:
    def test_mean_case_is_zero(self):
        # +0.0, not -0.0: the CLI would print the sign.
        assert theorem1_limit(1.0, MixtureMeasure.point(1.0)).hex() == "0x0.0p+0"

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
            theorem1_limit(sigma, KusuokaFamily((mu,)))


class TestTheorem2Limit:
    def test_mean_family_is_zero(self):
        assert theorem1_limit(1.0, KusuokaFamily((MixtureMeasure.point(1.0),))) == 0.0

    def test_two_point_family(self):
        family = KusuokaFamily((MixtureMeasure.point(0.3), MixtureMeasure.point(0.7)))
        assert theorem1_limit(1.0, family) == pytest.approx(CONSTANT_03, abs=1e-12)

    def test_singleton_matches_theorem1(self):
        mu = MixtureMeasure(((0.5, 0.5), (1.0, 0.5)))
        assert theorem1_limit(1.0, KusuokaFamily((mu,))) == theorem1_limit(1.0, mu)

    def test_sup_monotone_in_family(self):
        small = KusuokaFamily((MixtureMeasure.point(0.5),))
        large = KusuokaFamily((MixtureMeasure.point(0.5), MixtureMeasure.point(0.2)))
        assert theorem1_limit(1.5, large) >= theorem1_limit(1.5, small)

    def test_consistency_with_family_functional(self):
        family = KusuokaFamily(
            (
                MixtureMeasure(((0.3, 0.5), (1.0, 0.5))),
                MixtureMeasure.point(0.6),
            )
        )
        value, _ = kusuoka_value(Normal(0.0, 1.0), family)
        assert theorem1_limit(1.0, family) == pytest.approx(-value, abs=1e-12)


def scipy_limit(sigma, mu):
    """sigma * sum of w * pdf(ppf(lam)) / lam, written with scipy.stats.norm."""
    from scipy import stats

    return sigma * math.fsum(
        w * (0.0 if lam == 1.0 else stats.norm.pdf(stats.norm.ppf(lam)) / lam)
        for lam, w in mu.atoms
    )


class TestIndependentForm:
    def test_mixtures_match_scipy(self):
        gen = RngSpec(31).generator()
        for _ in range(200):
            k = int(gen.integers(1, 9))
            levels = np.where(gen.random(k) < 0.2, 1.0, gen.uniform(1e-6, 1.0, k))
            weights = gen.dirichlet(np.ones(k))
            mu = MixtureMeasure(tuple(zip(levels.tolist(), weights.tolist())))
            sigma = float(gen.uniform(0.1, 5.0))
            expected = scipy_limit(sigma, mu)
            assert theorem1_limit(sigma, mu) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_families_match_scipy(self):
        gen = RngSpec(32).generator()
        for _ in range(100):
            members = tuple(
                MixtureMeasure(tuple(zip(gen.uniform(1e-3, 1.0, 3).tolist(),
                                         gen.dirichlet(np.ones(3)).tolist())))
                for _ in range(int(gen.integers(1, 5)))
            )
            expected = max(scipy_limit(1.5, mu) for mu in members)
            assert theorem1_limit(1.5, KusuokaFamily(members)) == pytest.approx(
                expected, rel=1e-12, abs=0.0
            )


# The limits of the shipped configs, bit for bit: any change in how the
# constant is computed shows here first.
@pytest.mark.parametrize("name, bits", [
    ("exact_normal_linear", "0x1.9884533d43651p-1"),
    ("normal_cara_mixture", "0x1.9884533d43651p-2"),
    ("twopoint_family", "0x1.28b29c4cd562fp-1"),
])
def test_shipped_config_limits_pinned(name, bits):
    config = experiment_config_from_dict(json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    assert theorem_limit(config).hex() == bits


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
        # The smallest pool size is dropped, so its outlying 10.0 leaves the
        # fit an exact n^(-1/2) law on the points it records.
        fit = fit_rate(points[::-1])
        assert fit.points == ((16, 0.25), (64, 0.125), (256, 0.0625))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rate([(4, 1.0), (16, 0.5)])
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(4, 1.0), (16, 0.0), (64, 0.1)])
        with pytest.raises(ValueError, match="distinct"):
            fit_rate([(4, 1.0), (4, 0.5), (64, 0.1)])
