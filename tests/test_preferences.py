import math
import re
from functools import partial

import numpy as np
import pytest
from scipy.special import exp1

from riskpool.distributions import (
    DiscreteDistribution,
    EmpiricalSample,
    Exponential,
    Normal,
    TwoPoint,
    Uniform,
)
from riskpool.preferences import (
    CaraUtility,
    CrraUtility,
    LinearUtility,
    LogUtility,
    UtilityDomainError,
    _pullback_value,
    _transformed_law,
    certainty_equivalent,
    risk_premium,
)
from riskpool.risk_measures import KusuokaFamily, MixtureMeasure, mixture_value

from helpers import cara_normal_mixture_ce, mp_cara_certainty_equivalent, quad_certainty_equivalent_normal

UNIFORM_1234 = DiscreteDistribution((1.0, 2.0, 3.0, 4.0), (0.25,) * 4)
MIX = MixtureMeasure(((0.5, 0.5), (1.0, 0.5)))


# Tail integrals of u(q(t)) over t in (0, lam] in closed form, each checked
# against 40-digit quadrature. On an exponential law of rate 1 the tail is
# s < S = -log(1 - lam), with e^-S = 1 - lam.
def _log_exponential_tail(a: float, lam: float) -> float:
    """Integral of log(a + s) e^-s over (0, S), by parts."""
    if lam == 1.0:
        return math.log(a) + math.exp(a) * exp1(a)
    top = -math.log1p(-lam)
    return math.log(a) - (1.0 - lam) * math.log(a + top) + math.exp(a) * (exp1(a) - exp1(a + top))


def _crra2_exponential_tail(a: float, lam: float) -> float:
    """Integral of (1 - 1 / (a + s)) e^-s over (0, S)."""
    top = math.inf if lam == 1.0 else -math.log1p(-lam)
    return lam - math.exp(a) * (exp1(a) - exp1(a + top))


def _log_half_exponential_tail(lam: float) -> float:
    """Integral of log(s / 2) e^-s over (0, S): -Euler's gamma - e^-S log S
    - E1(S) - lam log 2."""
    top = math.inf if lam == 1.0 else -math.log1p(-lam)
    edge = 0.0 if lam == 1.0 else (1.0 - lam) * math.log(top) + exp1(top)
    return -np.euler_gamma - edge - lam * math.log(2.0)


# Law, utility, and its tail integral.
SCORE_RULE_CASES = [
    pytest.param(Uniform(1.0, 2.0), LogUtility(), lambda lam: (1.0 + lam) * math.log1p(lam) - lam,
                 id="uniform-log"),
    pytest.param(Uniform(1.0, 2.0), CrraUtility(2.0), lambda lam: lam - math.log1p(lam), id="uniform-crra2"),
    pytest.param(Exponential(1.0, 0.5), LogUtility(), partial(_log_exponential_tail, 0.5), id="exponential-log"),
    pytest.param(Exponential(1.0, 0.5), CrraUtility(2.0), partial(_crra2_exponential_tail, 0.5),
                 id="exponential-crra2"),
    pytest.param(Exponential(2.0), LogUtility(), _log_half_exponential_tail, id="exponential-log-at-the-edge"),
    pytest.param(Uniform(0.0, 1.0), CrraUtility(0.5), lambda lam: 2.0 * (2.0 / 3.0 * lam**1.5 - lam),
                 id="uniform-crra0.5-at-the-edge"),
]

ALL_UTILITIES = [
    LinearUtility(2.0, 1.0),
    CaraUtility(0.8),
    LogUtility(3.0),
    CrraUtility(2.0, shift=3.0),
    CrraUtility(-0.5, shift=3.0),
]


class TestUtilityFamilies:
    @pytest.mark.parametrize("u, fields", [
        (LinearUtility(2, np.int64(1)), ("slope", "intercept")),
        (CaraUtility(1), ("alpha",)),
        (LogUtility(np.float32(0.5)), ("shift",)),
        (CrraUtility(np.int8(2), shift=3), ("gamma", "shift")),
    ])
    def test_parameters_are_floats(self, u, fields):
        assert all(type(getattr(u, name)) is float for name in fields)

    @pytest.mark.parametrize("make, message", [
        (lambda: LinearUtility("1"), "linear utility requires"),
        (lambda: CaraUtility(None), "cara utility requires"),
        (lambda: LogUtility("0"), "log utility requires"),
        (lambda: CrraUtility(2.0, shift="1"), "crra utility requires"),
    ])
    def test_non_number_parameters_fail_the_utility_check(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_cara_values_at_zero(self):
        u = CaraUtility(1.0)
        assert u.apply(0.0) == 0.0

    def test_linear_invert_identity(self):
        u = LinearUtility(1.0, 0.0)
        for y in (-3.0, 0.0, 2.5):
            assert u.invert(y) == y

    def test_log_shifted_at_zero(self):
        u = LogUtility(1.0)
        assert u.apply(0.0) == 0.0
        assert u.invert(0.0) == 0.0

    # A scalar in gives a float out: a Python float, a numpy float or a 0-d array.
    @pytest.mark.parametrize("u", ALL_UTILITIES)
    def test_invert_apply_round_trip(self, u):
        lo = u.domain_lower
        grid = np.linspace(max(lo + 0.1, -5.0) if lo > -math.inf else -5.0, 5.0, 23)
        for x in grid:
            for scalar in (float, np.float64, np.asarray):
                y = u.apply(scalar(x))
                back = u.invert(scalar(y))
                assert type(y) is float and type(back) is float
                assert back == pytest.approx(x, abs=1e-10)

    # An array in gives an array of its shape out, one element included.
    @pytest.mark.parametrize("u", ALL_UTILITIES)
    def test_strictly_increasing(self, u):
        lo = u.domain_lower
        grid = np.linspace(max(lo + 0.1, -5.0) if lo > -math.inf else -5.0, 5.0, 23)
        values = u.apply(grid)
        assert np.all(np.diff(values) > 0)
        for x in (grid, grid[:1]):
            y = u.apply(x)
            back = u.invert(y)
            assert type(y) is np.ndarray and type(back) is np.ndarray
            assert y.shape == back.shape == x.shape

    # A value beyond the largest float is an error naming the utility with
    # its parameters and the argument, not inf and not a numpy warning: the
    # largest argument when the overflow is to +inf, the smallest when to -inf.
    @pytest.mark.parametrize("u, method, args, at", [
        (LinearUtility(1e300), "apply", [1.0, 1e10], 1e10),
        (LinearUtility(1e300), "apply", [-1e10, 1.0], -1e10),
        (LinearUtility(1e-300), "invert", [1.0, 1e10], 1e10),
        (CaraUtility(1.0), "apply", [-800.0, 0.0, 800.0], -800.0),
        (CaraUtility(10.0), "invert", [-1e308, 0.0], -1e308),
        (LogUtility(1e308), "apply", [0.0, 1e308], 1e308),
        (LogUtility(), "invert", [0.0, 1000.0], 1000.0),
        (CrraUtility(-1.0), "apply", [1.0, 1.1e155], 1.1e155),
        (CrraUtility(3.0), "apply", [1e-200, 1.0], 1e-200),
        (CrraUtility(0.5), "invert", [1.0, 1e300], 1e300),
    ], ids=["linear-apply-up", "linear-apply-down", "linear-invert", "cara-apply", "cara-invert",
            "log-apply", "log-invert", "crra-apply-up", "crra-apply-down", "crra-invert"])
    def test_overflow_names_the_utility_and_argument(self, u, method, args, at):
        message = re.escape(f"{u!r} overflows at argument {at!r}")
        for x in (at, np.array(args)):
            with pytest.raises(UtilityDomainError, match=message):
                getattr(u, method)(x)

    # A value outside the range is an error naming the utility, the value
    # and the range's bound: cara's y < 1/alpha, crra's y < 1/(gamma - 1)
    # for gamma > 1 and y > -1/(1 - gamma) for gamma < 1.
    @pytest.mark.parametrize("u, args, at, bound", [
        (CaraUtility(2.0), [0.0, 0.6], 0.6, "y < 0.5"),
        (CrraUtility(2.0), [0.0, 1.5], 1.5, "y < 1.0"),
        (CrraUtility(0.5), [-3.0, 0.0], -3.0, "y > -2.0"),
    ], ids=["cara", "crra-gamma-above-1", "crra-gamma-below-1"])
    def test_range_error_names_the_utility_and_value(self, u, args, at, bound):
        message = re.escape(f"{u!r} has no inverse at value {at!r} (range {bound})")
        for y in (at, np.array(args)):
            with pytest.raises(UtilityDomainError, match=message):
                u.invert(y)

    def test_domain_violations_raise(self):
        with pytest.raises(UtilityDomainError):
            LogUtility(1.0).apply(-1.5)
        with pytest.raises(UtilityDomainError):
            CrraUtility(2.0, shift=0.0).apply(-0.1)
        with pytest.raises(UtilityDomainError):
            CaraUtility(2.0).invert(0.6)  # range is y < 1/alpha = 0.5

    # A zero shift puts the domain's open edge at +0.0, so messages read
    # "x > 0.0", not "x > -0.0".
    @pytest.mark.parametrize("u", [LogUtility(), CrraUtility(2.0)])
    def test_zero_shift_edge_reads_zero(self, u):
        assert math.copysign(1.0, u.domain_lower) == 1.0
        with pytest.raises(UtilityDomainError, match=re.escape("outside utility domain (x > 0.0)")):
            u.apply(-1.0)
        with pytest.raises(UtilityDomainError, match=re.escape("below the utility domain (x > 0.0)")):
            certainty_equivalent(Exponential(1.0, -0.5), MIX, u)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            LinearUtility(0.0)
        with pytest.raises(ValueError):
            CaraUtility(-1.0)
        with pytest.raises(ValueError):
            CrraUtility(1.0)


class TestCertaintyEquivalent:
    def test_linear_equals_mixture_value_on_discrete(self):
        for mu in (MIX, MixtureMeasure.point(0.3), MixtureMeasure.point(1.0)):
            ce = certainty_equivalent(UNIFORM_1234, mu, LinearUtility(2.0, -1.0))
            assert ce == pytest.approx(mixture_value(UNIFORM_1234, mu), abs=1e-12)

    def test_linear_on_finite_laws_matches_the_round_trip(self):
        # The closed-form table answers linear u on finite laws; _pullback_value
        # is the apply / functional / invert round trip it replaces there.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(12)
        family = KusuokaFamily((MixtureMeasure.point(0.3), MixtureMeasure.point(0.7)))
        for trial in range(40):
            k = int(rng.integers(1, 5000))
            if trial % 2:
                law = EmpiricalSample(rng.normal(rng.uniform(-50, 50), rng.uniform(0.01, 10), k))
            else:
                law = DiscreteDistribution(rng.normal(size=k) * 30.0, rng.dirichlet(np.ones(k)))
            levels = np.sort(rng.uniform(0.01, 1.0, 3))
            mixture = MixtureMeasure(tuple(zip(levels, rng.dirichlet(np.ones(3)))))
            mu = family if trial % 3 == 0 else mixture
            identity = LinearUtility()
            assert certainty_equivalent(law, mu, identity) == _pullback_value(law, mu, identity)
            u = LinearUtility(float(np.exp(rng.uniform(-7.0, 7.0))), float(rng.uniform(-100.0, 100.0)))
            scale = np.max(np.abs(law._atoms)) + abs(u.intercept) / u.slope
            gap = abs(certainty_equivalent(law, mu, u) - _pullback_value(law, mu, u))
            assert gap <= 64 * eps * scale

    def test_cara_normal_mean_case_closed_form(self):
        u = CaraUtility(0.7)
        dist = Normal(1.0, 2.0)
        ce = certainty_equivalent(dist, MixtureMeasure.point(1.0), u)
        assert ce == pytest.approx(1.0 - 0.7 * 4.0 / 2.0, abs=1e-12)
        oracle = quad_certainty_equivalent_normal(
            1.0, 2.0, ((1.0, 1.0),), u.apply, u.invert
        )
        assert ce == pytest.approx(oracle, abs=1e-8)

    def test_degenerate_law_returns_the_constant(self):
        point = DiscreteDistribution((2.5,), (1.0,))
        for u in ALL_UTILITIES:
            assert certainty_equivalent(point, MIX, u) == pytest.approx(2.5, abs=1e-10)

    # Normal(0, 1) under cara and the mixture MIX: the score rule against
    # the Gaussian closed form, from where the grid it replaced read 8.9e-6
    # (alpha = 0.1) to 0.53 (alpha = 6) off.
    @pytest.mark.parametrize("alpha", [0.1, 1.0, 3.0, 6.0])
    def test_score_rule_matches_the_gaussian_closed_form(self, alpha):
        ce = certainty_equivalent(Normal(0.0, 1.0), MIX, CaraUtility(alpha))
        assert ce == pytest.approx(cara_normal_mixture_ce(0.0, 1.0, MIX.atoms, alpha), rel=1e-13, abs=0.0)

    # The same rule on laws bounded below, supports at the domain's open
    # edge included.
    @pytest.mark.parametrize("dist, u, tail", SCORE_RULE_CASES)
    def test_score_rule_matches_closed_form_tails(self, dist, u, tail):
        value = math.fsum(w * tail(lam) / lam for lam, w in MIX.atoms)
        assert certainty_equivalent(dist, MIX, u) == pytest.approx(u.invert(value), rel=1e-13, abs=0.0)

    # Against adaptive quadrature in z of u(q(Phi(z))) phi(z) on [-40, 40],
    # with scipy's Phi, on every parametric law with each utility whose domain holds it,
    # under a mixture and a family.
    @pytest.mark.parametrize("mu", [MIX, KusuokaFamily((MIX, MixtureMeasure.point(0.2)))], ids=["mixture", "family"])
    @pytest.mark.parametrize("dist, u", [
        (dist, u)
        for dist in (Normal(0.5, 2.0), Uniform(-1.0, 3.0), Exponential(2.0, 0.5))
        for u in (CaraUtility(0.5), CaraUtility(4.0), LogUtility(2.0), CrraUtility(3.0, shift=2.0),
                  CrraUtility(-0.5, shift=2.0))
        if not isinstance(dist, Normal) or isinstance(u, CaraUtility)
    ])
    def test_score_rule_matches_adaptive_quadrature(self, dist, u, mu):
        from scipy import integrate, stats

        score_quantile = {
            Normal: lambda z: dist.loc + dist.scale * z,
            Uniform: lambda z: dist.low + (dist.high - dist.low) * stats.norm.cdf(z),
            Exponential: lambda z: dist.shift - stats.norm.logsf(z) / dist.rate,
        }[type(dist)]
        members = mu.members if isinstance(mu, KusuokaFamily) else (mu,)
        values = []
        for member in members:
            total = 0.0
            for lam, w in member.atoms:
                top = 40.0 if lam == 1.0 else stats.norm.ppf(lam)
                tail, _ = integrate.quad(lambda z: u.apply(score_quantile(z)) * stats.norm.pdf(z), -40.0, top,
                                         epsabs=1e-14, epsrel=1e-12, limit=200)
                total += w * tail / lam
            values.append(total)
        assert certainty_equivalent(dist, mu, u) == pytest.approx(u.invert(min(values)), rel=1e-11)

    def test_score_rule_value_pinned(self):
        ce = certainty_equivalent(Normal(0.0, 1.0), MIX, CaraUtility(3.0))
        assert ce == -1.6348549236350491

    # (CE - linear value) / alpha tends to a constant as alpha -> 0; u's
    # expm1 and log1p carry the small-alpha digits, where the closed form's
    # -log(S) / alpha loses 3.9e-5 at alpha = 1e-12.
    def test_score_rule_is_stable_at_small_alpha(self):
        mu = MixtureMeasure(((0.3, 0.5), (1.0, 0.5)))
        linear = certainty_equivalent(Normal(0.0, 1.0), mu, LinearUtility())
        slopes = [(certainty_equivalent(Normal(0.0, 1.0), mu, CaraUtility(a)) - linear) / a
                  for a in (1e-12, 1e-8, 1e-4)]
        assert max(slopes) - min(slopes) <= 2e-4
        assert slopes[-1] == pytest.approx(-0.48403, abs=1e-5)

    # A mixture of 64 levels reads each level alone.
    @pytest.mark.parametrize("dist, u", [(Normal(0.5, 2.0), CaraUtility(0.7)), (Uniform(1.0, 2.0), LogUtility()),
                                         (Exponential(1.0, 0.5), CrraUtility(3.0))])
    def test_score_rule_array_levels_equal_scalar_levels(self, dist, u):
        image = _transformed_law(dist, u)
        levels = np.array([lam for lam, _ in MixtureMeasure.equal_weight_grid(64).atoms])
        scalars = [image._tail_integral(lam) for lam in levels.tolist()]
        assert np.array_equal(image._tail_integrals(levels), scalars)

    # u(-1000) = 1 - e^1000 overflows, so the law is centred 700 above its
    # lowest point, as a finite law is: the value is -1000 + log(2000 / 1.5).
    def test_cara_on_a_wide_uniform_stays_finite(self):
        ce = certainty_equivalent(Uniform(-1000.0, 1000.0), MIX, CaraUtility(1.0))
        assert ce == -1000.0 + math.log(2000.0 / 1.5)

    # The certainty equivalent under cara moves with the law.
    @pytest.mark.parametrize("shift", [-1e6, -3.5, 0.25, 1e9])
    def test_cara_translation_equivariance_on_normal_laws(self, shift):
        for mu in (MIX, KusuokaFamily((MIX, MixtureMeasure.point(0.2)))):
            base = certainty_equivalent(Normal(0.0, 1.5), mu, CaraUtility(2.0))
            moved = certainty_equivalent(Normal(shift, 1.5), mu, CaraUtility(2.0))
            assert moved - shift == pytest.approx(base, abs=4 * np.spacing(abs(shift)) + 1e-15)

    # Where u of the rule's lowest node overflows, the error says so: cara
    # on a normal law from alpha * scale = 709.78 / 38 = 18.68, and crra
    # near gamma = 2 on a law starting at the domain edge, where the lowest
    # node's t^(1 - gamma) passes the largest float from gamma = 1.98.
    def test_overflow_at_the_lowest_node_is_an_error(self):
        assert certainty_equivalent(Normal(0.0, 1.0), MIX, CaraUtility(18.0)) == pytest.approx(
            cara_normal_mixture_ce(0.0, 1.0, MIX.atoms, 18.0), rel=1e-13)
        with pytest.raises(UtilityDomainError, match=re.escape("CaraUtility(alpha=18.7) overflows at argument -37.99")):
            certainty_equivalent(Normal(0.0, 1.0), MIX, CaraUtility(18.7))
        with pytest.raises(UtilityDomainError, match=re.escape("CrraUtility(gamma=1.98, shift=0.0) overflows")):
            certainty_equivalent(Uniform(0.0, 1.0), MIX, CrraUtility(1.98))

    def test_support_below_the_domain_edge_is_rejected(self):
        with pytest.raises(UtilityDomainError, match=re.escape("support of the law reaches -0.5,")):
            certainty_equivalent(Exponential(1.0, -0.5), MIX, LogUtility())

    # u(x) = 1 - 1/x has E[u(X)] = -inf on Uniform(0, 1), so the certainty
    # equivalent is the support's lower bound, 0.0, under every preference;
    # so for every gamma >= 2 and a law with a positive density at the edge.
    def test_divergent_expected_utility_gives_the_support_edge(self):
        ce = certainty_equivalent(Uniform(0.0, 1.0), MixtureMeasure.point(1.0), CrraUtility(2.0))
        assert ce == pytest.approx(0.0, abs=1e-12)
        for dist, u in [(Uniform(0.0, 1.0), CrraUtility(2.0)), (Exponential(3.0, 1.0), CrraUtility(5.0, shift=-1.0)),
                        (Uniform(-2.0, 0.0), CrraUtility(2.0, shift=2.0))]:
            for mu in (MixtureMeasure.point(0.1), MIX, KusuokaFamily((MIX, MixtureMeasure.point(0.4)))):
                assert certainty_equivalent(dist, mu, u) == u.domain_lower

    # A support starting at a shifted domain edge is valued as the same law
    # at the zero edge, shifted: the rule's lowest nodes stay above the edge.
    def test_shifted_domain_edge_matches_the_zero_edge(self):
        for u, v in [(LogUtility(-1.0), LogUtility()), (CrraUtility(0.5, shift=-1.0), CrraUtility(0.5))]:
            ce = certainty_equivalent(Uniform(1.0, 2.0), MIX, u)
            assert ce - 1.0 == pytest.approx(certainty_equivalent(Uniform(0.0, 1.0), MIX, v), rel=1e-14)

    # Crra with gamma < 0 computes (x^(1 - gamma) - 1) / (1 - gamma), and
    # the "- 1" cancels the power's digits: the exact power mean of
    # {0.1, 0.2} is 0.19350636, where gamma = -20 reads 0.19403348 (and
    # gamma = -40 finds no inverse). A log-domain crra would mend it.
    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="crra with gamma < 0 cancels in u's - 1")
    def test_crra_with_negative_gamma_keeps_its_digits(self):
        law = DiscreteDistribution((0.1, 0.2), (0.5, 0.5))
        power_mean = (0.5 * 0.1**21 + 0.5 * 0.2**21) ** (1.0 / 21.0)
        ce = certainty_equivalent(law, MixtureMeasure.point(1.0), CrraUtility(-20.0))
        assert ce == pytest.approx(power_mean, rel=1e-12)

    def test_two_point_reduces_to_discrete(self):
        tp = TwoPoint(0.0, 1.0, 0.4)
        u = CaraUtility(1.5)
        assert certainty_equivalent(tp, MIX, u) == pytest.approx(
            certainty_equivalent(DiscreteDistribution((0.0, 1.0), (0.6, 0.4)), MIX, u), abs=1e-15
        )

    def test_atoms_tied_by_the_transform(self):
        # All three outcomes map to one float under log; the transformed law
        # keeps them as tied atoms instead of re-sorting and merging.
        law = DiscreteDistribution((1e15, 1e15 + 1, 1e15 + 2), (0.2, 0.3, 0.5))
        u = LogUtility()
        assert len(set(u.apply(np.asarray(law.outcomes)).tolist())) == 1
        ce = certainty_equivalent(law, MIX, u)
        assert ce == certainty_equivalent(DiscreteDistribution((1e15,), (1.0,)), MIX, u)
        assert ce == 999999999999998.8

    def test_empirical_path(self):
        sample = EmpiricalSample([1.0, 2.0, 3.0, 4.0])
        ce = certainty_equivalent(sample, MixtureMeasure.point(0.5), LinearUtility())
        assert ce == pytest.approx(1.5, abs=1e-12)

    def test_concave_ce_below_mean(self):
        for u in (CaraUtility(1.0), LogUtility(5.0), CrraUtility(2.0, shift=5.0)):
            ce = certainty_equivalent(UNIFORM_1234, MIX, u)
            assert ce <= UNIFORM_1234.mean() + 1e-10

    def test_domain_guard_rejects_unbounded_pool(self):
        with pytest.raises(UtilityDomainError):
            certainty_equivalent(Normal(0.0, 1.0), MIX, LogUtility(0.0))
        with pytest.raises(UtilityDomainError):
            certainty_equivalent(
                DiscreteDistribution((-2.0, 1.0), (0.5, 0.5)), MIX, LogUtility(1.0)
            )

    # u(-1000) = 1 - e^1000 overflows although the certainty equivalent is
    # finite. The distorted expected utility is 1 - (3/4)e^1000 -
    # (1/4)e^-1000, so the value is -1000 + log(4/3). The mean lies more
    # than 700 above the lowest atom, so the law is centred at -300.
    def test_cara_at_a_wide_spread_stays_finite(self):
        law = DiscreteDistribution((-1000.0, 1000.0), (0.5, 0.5))
        ce = certainty_equivalent(law, MIX, CaraUtility(1.0))
        assert ce == pytest.approx(-1000.0 + math.log(4.0 / 3.0), rel=1e-12)

    # Spreads from 1 to 1e4 and alpha from 0.01 to 10 put some means past
    # the reach of the lowest atom, where the centre is clamped, and the
    # rest on the mean-centred path.
    def test_cara_matches_an_mpmath_reference(self):
        rng = np.random.default_rng(26)
        clamped = 0
        for _ in range(300):
            k = int(rng.integers(2, 12))
            spread = 10.0 ** rng.uniform(0.0, 4.0)
            alpha = float(10.0 ** rng.uniform(-2.0, 1.0))
            law = DiscreteDistribution(rng.uniform(-spread, spread, k), rng.dirichlet(np.ones(k)))
            levels = np.sort(rng.uniform(0.01, 1.0, 3))
            mu = MixtureMeasure(tuple(zip(levels.tolist(), rng.dirichlet(np.ones(3)).tolist())))
            reach = (700.0 + min(0.0, math.log(alpha))) / alpha
            clamped += law.mean() > law.support_lower_bound() + reach
            ce = certainty_equivalent(law, mu, CaraUtility(alpha))
            scale = max(abs(x) for x in law.outcomes)
            assert abs(ce - mp_cara_certainty_equivalent(law, mu, alpha)) <= 64 * np.finfo(float).eps * scale
        assert clamped >= 10

    # Where the lowest atom's ulp exceeds the reach, lowest + reach can round
    # past it: 2^53 + 700/560 rounds to 2^53 + 2, where u is -expm1(1120)/560.
    # Atoms of magnitude 2^-20 to 2^80 and alpha from 1e-3 to 1e4 hit such
    # roundings in about one law in forty.
    def test_cara_centre_never_rounds_past_its_reach(self):
        law = DiscreteDistribution((2.0**53, 2.0**53 + 2000.0), (0.5, 0.5))
        assert certainty_equivalent(law, MixtureMeasure.point(0.5), CaraUtility(560.0)) == 2.0**53
        rng = np.random.default_rng(0)
        for _ in range(1000):
            low = float(np.ldexp(rng.uniform(-2.0, 2.0), int(rng.integers(-20, 80))))
            alpha = float(10.0 ** rng.uniform(-3.0, 4.0))
            law = DiscreteDistribution((low, low + abs(low) * rng.uniform(0.01, 3.0) + 1e4 / alpha), (0.5, 0.5))
            assert math.isfinite(certainty_equivalent(law, MixtureMeasure.point(0.5), CaraUtility(alpha)))

    # Below alpha = e^-700 the reach is 0 and the law is centred on its
    # lowest atom; 1e-310 is subnormal, so 1 / alpha is inf.
    @pytest.mark.parametrize("spread", [1e3, 1e9, 1e300])
    @pytest.mark.parametrize("alpha", [1e-310, 1e-305, 1e-300, 1e-6, 6e-5, 1e-3, 1.0, 50.0])
    def test_cara_is_finite_at_any_alpha_and_spread(self, alpha, spread):
        law = DiscreteDistribution((-spread, spread), (0.5, 0.5))
        ce = certainty_equivalent(law, MIX, CaraUtility(alpha))
        assert -spread <= ce <= law.mean()


class TestFamilyCertaintyEquivalent:
    def test_singleton_family(self):
        family = KusuokaFamily((MIX,))
        for u in (LinearUtility(), CaraUtility(1.0)):
            assert certainty_equivalent(UNIFORM_1234, family, u) == pytest.approx(
                certainty_equivalent(UNIFORM_1234, MIX, u), abs=1e-12
            )

    def test_linear_on_normal_matches_kusuoka_example(self):
        family = KusuokaFamily((MixtureMeasure.point(0.3), MixtureMeasure.point(0.7)))
        ce = certainty_equivalent(Normal(0.0, 1.0), family, LinearUtility())
        assert ce == pytest.approx(-1.1589753806669127, abs=1e-12)

    def test_degenerate_law(self):
        family = KusuokaFamily((MixtureMeasure.point(0.3), MIX))
        point = DiscreteDistribution((1.75,), (1.0,))
        assert certainty_equivalent(point, family, CaraUtility(1.0)) == pytest.approx(
            1.75, abs=1e-12
        )

    def test_enlarging_family_never_increases(self):
        small = KusuokaFamily((MIX,))
        large = KusuokaFamily((MIX, MixtureMeasure.point(0.2)))
        for u in (LinearUtility(), CaraUtility(1.0)):
            assert certainty_equivalent(
                UNIFORM_1234, large, u
            ) <= certainty_equivalent(UNIFORM_1234, small, u) + 1e-12


class TestRiskPremium:
    def test_linear_mean_case_is_zero(self):
        pool = DiscreteDistribution((0.0, 1.0, 2.0), (0.3, 0.4, 0.3))
        premium = risk_premium(1.5, pool, MixtureMeasure.point(1.0), LinearUtility())
        assert premium == pytest.approx(0.0, abs=1e-12)

    def test_cara_normal_pool_closed_form(self):
        alpha, sigma, n = 0.8, 1.5, 16
        pool = Normal(0.7, sigma / math.sqrt(n))
        premium = risk_premium(0.0, pool, MixtureMeasure.point(1.0), CaraUtility(alpha))
        assert premium == pytest.approx(alpha * sigma**2 / (2 * n), abs=1e-12)

    def test_linear_tail_case_closed_form(self):
        sigma, n, lam = 2.0, 4, 0.3
        pool = Normal(1.0, sigma / math.sqrt(n))
        premium = risk_premium(0.0, pool, MixtureMeasure.point(lam), LinearUtility())
        expected = (sigma / math.sqrt(n)) * 1.1589753806669127
        assert premium == pytest.approx(expected, abs=1e-12)

    def test_wealth_shift_invariance_for_cara(self):
        pool = Normal(0.5, 0.25)
        for v in (0.0, 2.0, -1.0):
            premium = risk_premium(v, pool, MIX, CaraUtility(1.0))
            baseline = risk_premium(0.0, pool, MIX, CaraUtility(1.0))
            assert premium == pytest.approx(baseline, abs=1e-9)

    # Zero wealth leaves the law untranslated. A shift by 0.0 would only turn
    # the -0.0 atom into +0.0, and the premium keeps the bits of the shifted
    # law's, on a law of zero mean too, under each utility and preference.
    @pytest.mark.parametrize("u", [LinearUtility(), CaraUtility(0.8), LogUtility(3.0), CrraUtility(2.0, shift=3.0)],
                             ids=["linear", "cara", "log", "crra"])
    @pytest.mark.parametrize("law", [
        DiscreteDistribution((-1.0, -0.0, 1.0), (0.25, 0.5, 0.25)),
        EmpiricalSample([-0.0, 0.5, 2.0]),
        TwoPoint(-1.0, 1.0, 0.5),
        Uniform(-1.0, 1.0),
    ], ids=["zero-mean", "empirical", "two-point", "uniform"])
    def test_zero_wealth_premium_is_that_of_the_shifted_law(self, law, u):
        for pref in (MIX, KusuokaFamily((MIX, MixtureMeasure.point(0.4)))):
            m1 = law.mean()
            ce = certainty_equivalent(law.translate(0.0), pref, u)
            assert risk_premium(0.0, law, pref, u).hex() == (0.0 + m1 - ce).hex()

    def test_single_risk_mean_override(self):
        pool = EmpiricalSample([0.0, 1.0, 2.0])
        with_true_mean = risk_premium(
            0.0, pool, MixtureMeasure.point(1.0), LinearUtility(), single_risk_mean=1.25
        )
        assert with_true_mean == pytest.approx(1.25 - 1.0, abs=1e-12)

    def test_nonnegative_for_concave_utilities(self):
        pool = DiscreteDistribution((-1.0, 0.0, 3.0), (0.25, 0.5, 0.25))
        for u in (LinearUtility(), CaraUtility(0.5), LogUtility(5.0)):
            for pref in (MIX, KusuokaFamily((MIX, MixtureMeasure.point(0.4)))):
                assert risk_premium(0.0, pool, pref, u) >= -1e-10

    def test_non_concave_utility_can_go_negative(self):
        # Risk-seeking curvature (crra with gamma < 0) flips the sign once
        # the distortion is off; this is why mean-bound checks skip it.
        pool = DiscreteDistribution((-1.0, 0.0, 3.0), (0.25, 0.5, 0.25))
        u = CrraUtility(-2.0, shift=5.0)
        assert risk_premium(0.0, pool, MixtureMeasure.point(1.0), u) < 0.0

