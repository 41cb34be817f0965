import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskpool import distributions
from riskpool.distributions import (
    DiscreteDistribution,
    Exponential,
    Normal,
    RngSpec,
    TwoPoint,
    Uniform,
    pool_average_sample,
)
from riskpool.mc_engine import (
    DEFAULT_N_GRID,
    ExperimentConfig,
    _limit_and_exact_premiums,
    compare_to_limit,
    run_curve,
)
from riskpool.asymptotics import theorem1_limit
from riskpool.config import config_hash, experiment_config_to_dict
from riskpool.preferences import CaraUtility, LinearUtility, LogUtility, UtilityDomainError, risk_premium
from riskpool.risk_measures import KusuokaFamily, MixtureMeasure, mixture_value

from helpers import enumerate_pool_law, one_point

CONSTANT_05 = 0.7978845608028654
MIX = MixtureMeasure(((0.5, 0.5), (1.0, 0.5)))


def make_config(**overrides):
    base = dict(
        distribution=Normal(0.0, 1.0),
        utility=LinearUtility(),
        mixture=MixtureMeasure.point(0.5),
        n_grid=(4, 16, 64),
        replications=2000,
        batches=10,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_exactly_one_preference(self):
        with pytest.raises(ValueError):
            make_config(mixture=None)
        with pytest.raises(ValueError):
            make_config(family=KusuokaFamily((MIX,)))

    def test_grid_and_batching(self):
        with pytest.raises(ValueError):
            make_config(n_grid=(4, 4, 16))
        with pytest.raises(ValueError):
            make_config(n_grid=(16, 4))
        with pytest.raises(ValueError):
            make_config(n_grid=())
        with pytest.raises(ValueError):
            make_config(replications=2001)
        with pytest.raises(ValueError):
            make_config(batches=1)
        with pytest.raises(ValueError):
            make_config(replications=10, batches=10)

    def test_master_seed_range(self):
        assert make_config(master_seed=2**64 - 1).master_seed == 2**64 - 1
        for bad in (-1, 2**64, True):
            with pytest.raises(ValueError, match="master_seed"):
                make_config(master_seed=bad)

    # A numpy seed is stored as a Python int and hashes like the int; a
    # float or a string is not a seed.
    def test_master_seed_accepts_numpy_ints(self):
        config = make_config(master_seed=np.int64(3))
        assert type(config.master_seed) is int
        assert config_hash(experiment_config_to_dict(config)) == config_hash(
            experiment_config_to_dict(make_config(master_seed=3))
        )
        assert make_config(master_seed=np.uint64(2**64 - 1)).master_seed == 2**64 - 1
        for bad in (3.0, "3", np.int64(-1)):
            with pytest.raises(ValueError, match="master_seed"):
                make_config(master_seed=bad)

    # exact is None, True or False; numpy bools are stored as Python bools,
    # so the config hashes.
    @pytest.mark.parametrize("exact", [None, True, False])
    def test_exact_accepts_none_and_bools(self, exact):
        assert make_config(exact=exact).exact is exact

    @pytest.mark.parametrize("exact", [np.True_, np.False_])
    def test_exact_stores_numpy_bools_as_bools(self, exact):
        config = make_config(exact=exact)
        assert config.exact is bool(exact)
        assert config_hash(experiment_config_to_dict(config)) == config_hash(
            experiment_config_to_dict(make_config(exact=bool(exact)))
        )

    @pytest.mark.parametrize("exact", ["yes", 1, 0, 1.0, "false"])
    def test_exact_rejects_anything_else(self, exact):
        with pytest.raises(ValueError, match=re.escape(f"exact must be True, False or None, got {exact!r}")):
            make_config(exact=exact)

    # The pooled samplers count copies in int64: a pool of 2**63 copies
    # would reach numpy as an OverflowError (multinomial counts) or a bare
    # size error (summed uniform draws).
    @pytest.mark.parametrize("distribution", [
        DiscreteDistribution((0.0, 1.0, 3.5), (0.2, 0.3, 0.5)), Uniform(0.0, 1.0), Normal(0.0, 1.0),
    ])
    @pytest.mark.parametrize("n_grid", [(2**63,), (4, 2**64)])
    def test_pool_sizes_lie_below_2_to_the_63(self, distribution, n_grid):
        with pytest.raises(ValueError, match=re.escape(f"n_grid pool sizes must be below 2**63, got {n_grid[-1]}")):
            make_config(distribution=distribution, n_grid=n_grid)
        assert make_config(distribution=distribution, n_grid=(2**63 - 1,)).n_grid == (2**63 - 1,)

    @pytest.mark.parametrize("wealth", [math.nan, math.inf, -math.inf])
    def test_wealth_must_be_finite(self, wealth):
        with pytest.raises(ValueError, match="wealth must be finite"):
            make_config(wealth=wealth)

    # Counts are stored as Python ints and the wealth as a float, so numpy
    # scalars hash like the ints and floats of the wire form.
    def test_numpy_scalars_are_stored_as_python_numbers(self):
        config = make_config(replications=np.int64(2000), batches=np.int32(10),
                             n_grid=(np.int64(4), 16, np.uint8(64)), wealth=np.float32(0.5))
        assert type(config.replications) is int and type(config.batches) is int
        assert [type(n) for n in config.n_grid] == [int, int, int]
        assert type(config.wealth) is float
        assert config_hash(experiment_config_to_dict(config)) == config_hash(
            experiment_config_to_dict(make_config(wealth=0.5))
        )

    @pytest.mark.parametrize("overrides, message", [
        ({"replications": 2000.0}, "replications must be an integer, got 2000.0"),
        ({"batches": 10.0}, "batches must be an integer, got 10.0"),
        ({"n_grid": (4.7, 16.2)}, "n_grid[0] must be an integer, got 4.7"),
        ({"n_grid": (4, "16")}, "n_grid[1] must be an integer, got '16'"),
    ])
    def test_counts_must_be_integers(self, overrides, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            make_config(**overrides)

    def test_hash_tracks_semantic_fields(self):
        a = config_hash(experiment_config_to_dict(make_config()))
        assert a == config_hash(experiment_config_to_dict(make_config()))
        assert a != config_hash(experiment_config_to_dict(make_config(master_seed=8)))
        assert a != config_hash(experiment_config_to_dict(make_config(mixture=MixtureMeasure.point(0.4))))


class TestExactPath:
    def test_normal_linear_every_n(self):
        config = make_config(n_grid=(4, 16, 64, 256, 1024, 4096))
        for n in config.n_grid:
            estimate, stderr = one_point(config, n)
            assert stderr == 0.0
            assert estimate == pytest.approx(CONSTANT_05, abs=1e-12)

    def test_cara_mean_case_auto_exact(self):
        config = make_config(utility=CaraUtility(1.0), mixture=MixtureMeasure.point(1.0))
        for n in config.n_grid:
            estimate, stderr = one_point(config, n)
            assert stderr == 0.0
            assert estimate / math.sqrt(n) == pytest.approx(0.5 / n, abs=1e-15)

    @pytest.mark.parametrize("preference", [
        MixtureMeasure.point(0.5),
        MixtureMeasure.point(0.3),
        MIX,
        MixtureMeasure.equal_weight_grid(4),
        KusuokaFamily((MixtureMeasure.point(0.3), MixtureMeasure.point(0.7))),
        KusuokaFamily((MIX, MixtureMeasure.point(0.5))),
    ])
    def test_linear_points_equal_the_limit_at_any_n(self, preference):
        # Theorem 1 holds with equality at every n for a normal law, so the
        # exact points are the limit constant itself, not a rescaled CE.
        is_family = isinstance(preference, KusuokaFamily)
        config = make_config(
            distribution=Normal(3.0, 2.0), wealth=5.0, n_grid=(2, 3, 5, 7),
            mixture=None if is_family else preference,
            family=preference if is_family else None,
        )
        curve = run_curve(config)
        assert all(p.estimate == theorem1_limit(config.distribution.sd(), config.preference) for p in curve.points)
        assert all(row.abs_gap == 0.0 for row in compare_to_limit(curve).rows)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    def test_cara_mean_case_has_no_cancellation(self, alpha):
        # A mean of 1e6 would cost ~1e-6 relative at n=4096 if the premium
        # were formed as wealth + mean - CE. Pool sizes and alphas are chosen
        # so that alpha / (2n) is not a short binary fraction, which that
        # subtraction would keep exact.
        config = make_config(
            distribution=Normal(1e6, 1.0), utility=CaraUtility(alpha), wealth=5.0,
            mixture=MixtureMeasure.point(1.0), n_grid=(3, 10, 100, 1000, 4096),
        )
        for p in run_curve(config).points:
            assert p.estimate == pytest.approx(alpha / (2.0 * math.sqrt(p.n)), rel=1e-14)

    # The exact cara points bit for bit. The CI's cara_exact config (sd 2,
    # alpha 1, default grid) gives powers of two, which any route keeps; the
    # grid above gives fractions that forming wealth + mean - CE moves by
    # up to 1e-7 relative.
    @pytest.mark.parametrize("scale, alpha, wealth, n_grid, bits", [
        (2.0, 1.0, 2.5, DEFAULT_N_GRID, [f"0x1.0000000000000p{e:+d}" for e in range(0, -6, -1)]),
        (1.0, 0.3, 5.0, (3, 10, 100, 1000, 4096),
         ["0x1.62b9586ad0a23p-4", "0x1.8494a75f057acp-5", "0x1.eb851eb851ebap-7", "0x1.36dd52b26ac88p-8",
          "0x1.3333333333333p-9"]),
        (1.0, 1.0, 5.0, (3, 10, 100, 1000, 4096),
         ["0x1.279a74590331dp-2", "0x1.43d1362484910p-3", "0x1.999999999999bp-5", "0x1.030dc4ea03a71p-6",
          "0x1.0000000000000p-7"]),
        (1.0, 2.5, 5.0, (3, 10, 100, 1000, 4096),
         ["0x1.7181116f43fe5p-1", "0x1.94c583ada5b53p-2", "0x1.0000000000001p-3", "0x1.43d136248490ep-5",
          "0x1.4000000000000p-6"]),
    ])
    def test_cara_exact_points_pinned(self, scale, alpha, wealth, n_grid, bits):
        config = make_config(
            distribution=Normal(1e6, scale), utility=CaraUtility(alpha), wealth=wealth,
            mixture=MixtureMeasure.point(1.0), n_grid=n_grid,
        )
        assert [p.estimate.hex() for p in run_curve(config).points] == bits

    def test_family_exact_path(self):
        family = KusuokaFamily((MixtureMeasure.point(0.3), MixtureMeasure.point(0.7)))
        config = make_config(mixture=None, family=family)
        estimate, stderr = one_point(config, 4)
        assert stderr == 0.0
        assert estimate == pytest.approx(1.1589753806669127, abs=1e-12)

    # A family whose members are all the point mass at 1 is that mixture:
    # the same closed form, so the same exact curve, with or without exact=True.
    @pytest.mark.parametrize("members", [1, 3])
    @pytest.mark.parametrize("exact", [None, True])
    def test_family_of_the_point_mass_at_one_is_exact(self, members, exact):
        point = MixtureMeasure.point(1.0)
        config = make_config(utility=CaraUtility(1.0), mixture=point, n_grid=(4, 16), exact=exact)
        family = dataclasses.replace(config, mixture=None, family=KusuokaFamily((point,) * members))
        curve, expected = run_curve(family), run_curve(config)
        assert [p.method for p in curve.points] == ["exact", "exact"]
        assert curve.limit.hex() == expected.limit.hex()
        assert [(p.estimate.hex(), p.stderr) for p in curve.points] == [
            (p.estimate.hex(), p.stderr) for p in expected.points
        ]

    # The rule reads the kinds of law, utility and preference; no certainty
    # equivalent is evaluated to decide, so a table that answers more
    # (a Gaussian cara value under any mixture, say) moves no curve.
    @pytest.mark.parametrize("distribution, utility, preference, exact", [
        (Normal(1.0, 2.0), LinearUtility(), MIX, True),
        (Normal(1.0, 2.0), LinearUtility(2.0, 1.0), KusuokaFamily((MIX, MixtureMeasure.point(0.3))), True),
        (Normal(1.0, 2.0), CaraUtility(0.5), MixtureMeasure.point(1.0), True),
        (Normal(1.0, 2.0), CaraUtility(0.5), KusuokaFamily((MixtureMeasure.point(1.0),) * 2), True),
        (Normal(1.0, 2.0), CaraUtility(0.5), MIX, False),
        (TwoPoint(0.0, 1.0, 0.5), LinearUtility(), MixtureMeasure.point(0.5), False),
        (Exponential(1.0), LinearUtility(), MixtureMeasure.point(0.5), False),
    ])
    def test_auto_exact_rule_reads_kinds(self, distribution, utility, preference, exact, monkeypatch):
        is_family = isinstance(preference, KusuokaFamily)
        config = make_config(
            distribution=distribution, utility=utility, n_grid=(4, 16),
            mixture=None if is_family else preference, family=preference if is_family else None,
        )
        with monkeypatch.context() as patched:
            patched.setattr("riskpool.preferences.preference_value", pytest.fail)
            limit, points = _limit_and_exact_premiums(config)
        assert limit == theorem1_limit(config.distribution.sd(), config.preference)
        assert (points is not None) == exact
        curve = run_curve(config)
        assert [p.method == "exact" for p in curve.points] == [exact, exact]
        forced = dataclasses.replace(config, exact=True)
        if exact:
            assert run_curve(forced) == curve
        else:
            with pytest.raises(ValueError, match="closed-form"):
                run_curve(forced)

    def test_exact_true_requires_closed_form(self):
        with pytest.raises(ValueError, match="closed-form"):
            one_point(make_config(utility=CaraUtility(1.0), exact=True), 4)
        with pytest.raises(ValueError, match="closed-form"):
            one_point(make_config(distribution=TwoPoint(0.0, 1.0, 0.5), exact=True), 4)

    def test_cara_mixture_stays_monte_carlo(self):
        mixture = make_config(utility=CaraUtility(1.0), mixture=MIX)
        family = KusuokaFamily((MixtureMeasure.point(1.0), MixtureMeasure.point(0.5)))
        for config in (mixture, dataclasses.replace(mixture, mixture=None, family=family)):
            _, stderr = one_point(config, 4)
            assert stderr > 0.0


class TestMonteCarloPath:
    def test_degenerate_risk_gives_zero(self):
        config = make_config(
            distribution=DiscreteDistribution((2.0,), (1.0,)),
            utility=CaraUtility(1.0),
            mixture=MIX,
        )
        estimate, stderr = one_point(config, 4)
        assert estimate == pytest.approx(0.0, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_two_point_small_pool_matches_enumeration(self):
        tp = TwoPoint(0.0, 1.0, 0.5)
        mu = MixtureMeasure.point(0.5)
        config = make_config(
            distribution=tp, mixture=mu, n_grid=(2,), replications=100_000, batches=20,
            master_seed=11,
        )
        outcomes, probs = enumerate_pool_law((0.0, 1.0), (0.5, 0.5), 2)
        assert outcomes == (0.0, 0.5, 1.0)
        assert probs == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)
        exact_pool = DiscreteDistribution(outcomes, probs)
        exact = math.sqrt(2) * (0.5 - mixture_value(exact_pool, mu))
        assert exact == pytest.approx(math.sqrt(2) * 0.25, abs=1e-12)
        estimate, stderr = one_point(config, 2)
        assert abs(estimate - exact) <= 4 * stderr

    def test_exact_and_mc_paths_agree(self):
        config = make_config(exact=False, replications=20_000, batches=20)
        estimate, stderr = one_point(config, 16)
        assert abs(estimate - CONSTANT_05) <= 4 * stderr

    def test_domain_violation_aborts_cell_with_context(self):
        config = make_config(utility=LogUtility(0.0), mixture=MIX, exact=False)
        with pytest.raises(UtilityDomainError, match="n=4"):
            one_point(config, 4)

    def test_jensen_positive_up_to_noise_for_concave_utilities(self):
        for utility in (LinearUtility(), CaraUtility(1.0)):
            config = make_config(
                distribution=TwoPoint(0.0, 1.0, 0.3),
                utility=utility,
                mixture=MIX,
                replications=4000,
            )
            for point in run_curve(config).points:
                assert point.estimate >= -4 * point.stderr


class TestRunCurve:
    def test_mean_case_linear_all_zero(self):
        config = make_config(mixture=MixtureMeasure.point(1.0))
        curve = run_curve(config)
        assert curve.limit == 0.0
        assert all(p.estimate == 0.0 and p.stderr == 0.0 for p in curve.points)
        assert curve.rate_fit is None

    def test_cara_mean_case_rate(self):
        config = make_config(
            utility=CaraUtility(1.0),
            mixture=MixtureMeasure.point(1.0),
            n_grid=(4, 16, 64, 256),
        )
        curve = run_curve(config)
        assert curve.limit == 0.0
        assert curve.rate_fit is not None
        assert curve.rate_fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert curve.rate_fit.r_squared == pytest.approx(1.0, abs=1e-12)
        for p in curve.points:
            assert p.estimate / math.sqrt(p.n) == pytest.approx(0.5 / p.n, abs=1e-15)

    def test_reproducible_and_thread_independent(self):
        config = make_config(
            distribution=TwoPoint(0.0, 1.0, 0.5),
            utility=CaraUtility(1.0),
            mixture=MIX,
            replications=4000,
        )
        first = run_curve(config, threads=1)
        second = run_curve(config, threads=1)
        threaded = run_curve(config, threads=4)
        assert first == second
        assert first == threaded

    @pytest.mark.parametrize("threads", [0, -3])
    @pytest.mark.parametrize("exact", [None, False])
    def test_threads_below_one_rejected(self, threads, exact):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            run_curve(make_config(exact=exact), threads=threads)

    # A small curve shaped like the wide_family benchmark: lattice pools
    # (n = 1 draws the law itself), cara utility, and a family that mixes
    # 8-level members with a 2-level one. Every bit of every point and of
    # the limit, at any thread count.
    @pytest.mark.parametrize("threads", [1, 2])
    def test_lattice_cara_family_curve_pinned(self, threads):
        def member(top, k=8):
            return MixtureMeasure(tuple((top * (i + 0.5) / k, 1.0 / k) for i in range(k)))

        config = make_config(
            distribution=DiscreteDistribution((0.0, 0.15, 0.35, 0.5, 0.9, 1.2),
                                              (0.1, 0.2, 0.25, 0.15, 0.2, 0.1)),
            utility=CaraUtility(1.0),
            mixture=None,
            family=KusuokaFamily((member(0.3), MixtureMeasure(((0.2, 0.5), (1.0, 0.5))),
                                  member(0.65), member(1.0))),
            n_grid=(1, 4, 16, 64),
            replications=4000,
            batches=4,
            master_seed=20260808,
        )
        curve = run_curve(config, threads=threads)
        assert curve.limit.hex() == "0x1.383d53d7d0268p-1"
        assert [(p.n, p.method, p.estimate.hex(), p.stderr.hex()) for p in curve.points] == [
            (1, "lattice", "0x1.cea3c072284c9p-2", "0x1.6cd6202f4783cp-10"),
            (4, "lattice", "0x1.24fd233e53f7bp-1", "0x1.4850cfc59a2e3p-11"),
            (16, "lattice", "0x1.35051894d1ba5p-1", "0x1.f99f19abe197fp-12"),
            (64, "lattice", "0x1.3a1231dd9ad64p-1", "0x1.6d757f7ef8992p-11"),
        ]

    def test_run_curve_imports_no_wire_format(self):
        # The engine sits below riskpool.config: a curve runs without it.
        script = (
            "import sys\n"
            "from riskpool import ExperimentConfig, LinearUtility, MixtureMeasure, Normal, run_curve\n"
            "run_curve(ExperimentConfig(Normal(0.0, 1.0), LinearUtility(), MixtureMeasure.point(0.5),\n"
            "                           n_grid=(4,), replications=20, batches=2, exact=False))\n"
            "print('riskpool.config' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.stdout.strip() == "False"

    def test_seed_changes_results(self):
        config = make_config(exact=False)
        other = make_config(exact=False, master_seed=8)
        assert run_curve(config) != run_curve(other)

    def test_curve_metadata(self):
        config = make_config()
        curve = run_curve(config)
        assert [p.n for p in curve.points] == [4, 16, 64]
        assert all(p.replications == 2000 for p in curve.points)

    # The square of each sigma underflows to 0, so a sigma read from the
    # variance would put the limit, and the normal's exact points, at 0.0.
    @pytest.mark.parametrize("law, sigma", [
        (Normal(0.0, 1e-200), 1e-200),
        (Uniform(0.0, 1e-200), 1e-200 / math.sqrt(12.0)),
        (Exponential(1e200), 1.0 / 1e200),
    ])
    def test_underflowing_variance_keeps_its_limit(self, law, sigma):
        assert law.variance() == 0.0
        limit = theorem1_limit(sigma, MixtureMeasure.point(0.5))
        assert limit == pytest.approx(CONSTANT_05 * sigma, rel=1e-15)
        curve = run_curve(make_config(distribution=law, n_grid=(4, 16)))
        assert curve.limit == limit
        if isinstance(law, Normal):
            assert [p.estimate for p in curve.points] == [limit, limit]

    # The overflow is reported once, by the error, not by a numpy warning.
    def test_overflowing_variance_fails_before_sampling(self, monkeypatch):
        law = DiscreteDistribution((-1e200, 1e200), (0.5, 0.5))
        assert law.variance() == math.inf
        monkeypatch.setattr("riskpool.mc_engine.pool_average_sample", pytest.fail)
        with pytest.raises(ValueError, match="the law's variance is not finite"):
            run_curve(make_config(distribution=law))


# One law per pooled sampler, each with the methods of its curve on the
# grid (1, 4, 16, 64). Units {0, 1, 2^16 - 1} (step 2^-12, so cara stays
# finite) leave the lattice for multinomial counts at n = 16, so a kept
# uniform draw must not reach the counts. One copy of the law off a lattice
# counts kept uniforms against the law itself.
SAMPLER_LAWS = [
    (Normal(0.5, 2.0), ["normal-law"] * 4),
    (DiscreteDistribution((0.0, 1.5, 4.0), (0.2, 0.5, 0.3)), ["lattice"] * 4),
    (DiscreteDistribution((0.0, 2.0**-12, 16.0 - 2.0**-12), (0.3, 0.4, 0.3)), ["lattice"] * 2 + ["multinomial"] * 2),
    (DiscreteDistribution(tuple(math.sqrt(k) for k in range(7)), (0.1, 0.2, 0.1, 0.15, 0.15, 0.2, 0.1)),
     ["inverse cdf"] + ["multinomial"] * 3),
    (Exponential(1.0, 1.0), ["gamma"] * 4),
    (Uniform(1.0, 3.0), ["summed draws"] * 4),
]


def sampler_config(distribution, **overrides):
    base = dict(
        distribution=distribution,
        utility=CaraUtility(0.5),
        mixture=MIX,
        n_grid=(1, 4, 16, 64),
        replications=600,
        batches=3,
        master_seed=20260808,
        exact=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestBatchStreams:
    # Every point is the batch mean and standard error of cells that each
    # draw from a fresh RngSpec(seed, b), bit for bit, at any thread count.
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("distribution, methods", SAMPLER_LAWS)
    def test_points_equal_their_fresh_cells(self, distribution, methods, threads):
        config = sampler_config(distribution)
        curve = run_curve(config, threads=threads)
        assert [p.method for p in curve.points] == methods
        for point in curve.points:
            cells = np.array([
                math.sqrt(point.n) * risk_premium(
                    config.wealth,
                    pool_average_sample(distribution.pool_sampler(point.n), 200, RngSpec(config.master_seed, b)),
                    config.preference,
                    config.utility,
                    single_risk_mean=distribution.mean(),
                )
                for b in range(config.batches)
            ])
            assert point.estimate.hex() == float(cells.mean()).hex()
            assert point.stderr.hex() == float(cells.std(ddof=1) / math.sqrt(config.batches)).hex()

    # A single pool size is a one-point grid, whose point is the one the
    # whole grid gives at that n: exact, or drawn by each law's sampler.
    @pytest.mark.parametrize("config", [
        make_config(),
        make_config(utility=CaraUtility(1.0), mixture=MixtureMeasure.point(1.0)),
        *(sampler_config(distribution) for distribution, _ in SAMPLER_LAWS),
    ])
    def test_one_point_grid_equals_the_curve_point(self, config):
        for point in run_curve(config).points:
            assert run_curve(dataclasses.replace(config, n_grid=(point.n,))).points == (point,)

    # Normal, lattice and inverse-CDF cells draw each batch's base sample
    # once per curve, not once per pool size; other samplers open the
    # stream in every cell. Nothing is kept from one run_curve call to the next.
    @pytest.mark.parametrize("distribution, methods", SAMPLER_LAWS)
    def test_generators_per_curve(self, distribution, methods, monkeypatch):
        calls = []
        generator = RngSpec.generator
        monkeypatch.setattr(RngSpec, "generator", lambda self: calls.append(self) or generator(self))
        config = sampler_config(distribution)
        cells = sum(method not in ("normal-law", "lattice", "inverse cdf") for method in methods)
        # Cells that reuse a kept draw add the batch's first draw only.
        expected = config.batches * (cells + (cells < len(methods)))
        for _ in range(2):
            calls.clear()
            run_curve(config)
            assert len(calls) == expected
        assert sorted({spec.stream_id for spec in calls}) == list(range(config.batches))

    # The engine asks for each pool size's sampler once, so a lattice law
    # finds the window of each pool of two or more copies once and builds
    # its pool law once, at any thread count; one copy needs neither.
    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_sampler_per_pool_size(self, threads, monkeypatch):
        calls = {"_pool_window": 0, "_lattice_pool_law": 0}
        for name in calls:
            def counted(self, *args, _name=name, _method=getattr(DiscreteDistribution, name)):
                calls[_name] += 1
                return _method(self, *args)

            monkeypatch.setattr(DiscreteDistribution, name, counted)
        law = DiscreteDistribution((0, 1.5, 4), (0.2, 0.5, 0.3))
        run_curve(sampler_config(law), threads=threads)
        assert calls == {"_pool_window": 3, "_lattice_pool_law": 3}

    def test_equal_masses_built_once_per_curve(self):
        distributions._equal_masses.cache_clear()
        config = sampler_config(Normal(0.0, 1.0))
        run_curve(config)
        info = distributions._equal_masses.cache_info()
        assert (info.misses, info.hits) == (1, len(config.n_grid) * config.batches - 1)
        masses, cum = distributions._equal_masses(200)
        assert not masses.flags.writeable and not cum.flags.writeable

    # One spec reused across the grid, keeping its sorted base draws, gives
    # the bits of a fresh spec per pool size: atoms and masses, which are
    # the counts of a lattice cell.
    @pytest.mark.parametrize("distribution, methods", SAMPLER_LAWS)
    def test_reused_spec_equals_fresh_specs(self, distribution, methods):
        reused = RngSpec(20260808, 2)
        for n in (1, 4, 16, 64):
            kept = pool_average_sample(distribution.pool_sampler(n), 200, reused)
            fresh = pool_average_sample(distribution.pool_sampler(n), 200, RngSpec(20260808, 2))
            assert kept._atoms.tobytes() == fresh._atoms.tobytes()
            assert kept._masses.tobytes() == fresh._masses.tobytes()

    # Uniforms and normals of one count are kept apart, each read-only and
    # equal to a fresh sorted draw from the head of the stream.
    def test_kept_draws_are_read_only(self):
        rng = RngSpec(3, 1)
        uniforms, normals = rng.sorted_uniforms(50), rng.sorted_normals(50)
        assert not uniforms.flags.writeable and not normals.flags.writeable
        assert rng.sorted_uniforms(50) is uniforms and rng.sorted_normals(50) is normals
        assert uniforms.tobytes() == np.sort(RngSpec(3, 1).generator().random(50)).tobytes()
        assert normals.tobytes() == np.sort(RngSpec(3, 1).generator().standard_normal(50)).tobytes()


class TestCompareToLimit:
    def test_exact_linear_curve_zero_scores(self):
        comparison = compare_to_limit(run_curve(make_config()))
        assert comparison.trend_ok
        assert all(row.z_score == 0.0 and row.abs_gap == 0.0 for row in comparison.rows)

    def test_exact_cara_curve_decreasing_gaps(self):
        config = make_config(
            utility=CaraUtility(1.0),
            mixture=MixtureMeasure.point(1.0),
            n_grid=(4, 16, 64, 256),
        )
        comparison = compare_to_limit(run_curve(config))
        assert comparison.trend_ok
        gaps = [row.abs_gap for row in comparison.rows]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert all(math.isinf(row.z_score) for row in comparison.rows)

    def test_mc_z_scores_reasonable(self):
        config = make_config(exact=False, replications=20_000, batches=20)
        comparison = compare_to_limit(run_curve(config))
        final = comparison.rows[-1]
        assert abs(final.z_score) <= 5.0
        assert comparison.note

    def test_trend_failure_detected(self):
        from riskpool.mc_engine import CurvePoint, PremiumCurve

        curve = PremiumCurve(
            points=(
                CurvePoint(4, 1.0, 0.0, 100, "exact"),
                CurvePoint(16, 1.1, 0.0, 100, "exact"),
                CurvePoint(64, 1.5, 0.0, 100, "exact"),
            ),
            limit=1.0,
            rate_fit=None,
        )
        assert not compare_to_limit(curve).trend_ok
