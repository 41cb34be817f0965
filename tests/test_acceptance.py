"""Acceptance suite: the nine exit criteria, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion (a pytest FAILED line is the fail signal).
Tolerances are pinned here, not tuned elsewhere.
"""

import json
import math
import time

import pytest

from riskpool.cli import main
from riskpool.distributions import DiscreteDistribution, Normal, TwoPoint
from riskpool.mc_engine import ExperimentConfig, run_curve
from riskpool.preferences import CaraUtility, LinearUtility
from riskpool.risk_measures import KusuokaFamily, MixtureMeasure, mixture_value
from riskpool.verify import run_duality_suite, run_property_suite

from helpers import enumerate_pool_law, one_point

SEED = 20260808
MIX_HALF_MEAN = MixtureMeasure(((0.5, 0.5), (1.0, 0.5)))
FULL_GRID = (4, 16, 64, 256, 1024, 4096)


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


def test_criterion_1_exact_degenerate_taylor_case():
    started = time.perf_counter()
    config = ExperimentConfig(
        distribution=Normal(0.0, 1.0),
        utility=LinearUtility(),
        mixture=MixtureMeasure.point(0.5),
        n_grid=FULL_GRID,
        master_seed=SEED,
    )
    for point in run_curve(config).points:
        assert point.stderr == 0.0
        assert point.estimate == pytest.approx(0.7978845608, abs=1e-9)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"exact path constant 0.7978845608 at every n ({elapsed:.2f}s)")


def test_criterion_2_theorem1_with_curvature():
    started = time.perf_counter()
    config = ExperimentConfig(
        distribution=Normal(0.0, 1.0),
        utility=CaraUtility(1.0),
        mixture=MIX_HALF_MEAN,
        n_grid=FULL_GRID,
        replications=100_000,
        batches=20,
        master_seed=SEED,
    )
    curve = run_curve(config)
    elapsed = time.perf_counter() - started
    limit = curve.limit
    assert limit == pytest.approx(0.3989422804, abs=1e-9)
    final = curve.points[-1]
    tolerance = max(4 * final.stderr, 0.02 * abs(limit))
    gap = abs(final.estimate - limit)
    assert gap <= tolerance
    assert elapsed < 120.0
    report(
        2,
        f"final-n estimate {final.estimate:.5f} within {tolerance:.5f} of "
        f"limit {limit:.10f} ({elapsed:.1f}s)",
    )


def test_criterion_3_rate_dichotomy():
    exact_config = ExperimentConfig(
        distribution=Normal(0.0, 1.0),
        utility=CaraUtility(1.0),
        mixture=MixtureMeasure.point(1.0),
        n_grid=FULL_GRID,
        replications=100_000,
        batches=20,
        master_seed=SEED,
    )
    curve = run_curve(exact_config)
    assert curve.limit == 0.0
    for point in curve.points:
        unscaled = point.estimate / math.sqrt(point.n)
        assert unscaled == pytest.approx(0.5 / point.n, abs=1e-9)
    assert curve.rate_fit is not None
    assert curve.rate_fit.slope == pytest.approx(-1.0, abs=0.02)

    mc_config = ExperimentConfig(
        distribution=Normal(0.0, 1.0),
        utility=CaraUtility(1.0),
        mixture=MixtureMeasure.point(0.5),
        n_grid=FULL_GRID,
        replications=100_000,
        batches=20,
        master_seed=SEED,
    )
    mc_curve = run_curve(mc_config)
    assert mc_curve.rate_fit is not None
    assert mc_curve.rate_fit.slope == pytest.approx(-0.5, abs=0.05)
    report(
        3,
        f"undistorted slope {curve.rate_fit.slope:.4f} (premium = 1/(2n) exactly), "
        f"distorted Monte Carlo slope {mc_curve.rate_fit.slope:.4f}",
    )


def test_criterion_4_theorem2_family():
    started = time.perf_counter()
    family = KusuokaFamily((MixtureMeasure.point(0.3), MixtureMeasure.point(0.7)))
    config = ExperimentConfig(
        distribution=TwoPoint(0.0, 1.0, 0.5),
        utility=LinearUtility(),
        family=family,
        n_grid=FULL_GRID,
        replications=100_000,
        batches=20,
        master_seed=SEED,
    )
    curve = run_curve(config)
    elapsed = time.perf_counter() - started
    assert curve.limit == pytest.approx(0.5 * 1.1589753806669127, abs=1e-12)
    assert curve.limit == pytest.approx(0.57948, abs=1e-4)
    final = curve.points[-1]
    tolerance = max(4 * final.stderr, 0.02 * abs(curve.limit))
    assert abs(final.estimate - curve.limit) <= tolerance
    assert elapsed < 120.0
    report(
        4,
        f"family limit {curve.limit:.5f}, final-n estimate {final.estimate:.5f} "
        f"within {tolerance:.5f} ({elapsed:.1f}s)",
    )


def test_criterion_5_u_independence_of_the_limit():
    shared = dict(
        distribution=Normal(0.0, 1.0),
        mixture=MIX_HALF_MEAN,
        n_grid=FULL_GRID,
        replications=100_000,
        batches=20,
        master_seed=SEED,
        exact=False,  # force both curves onto the sampler: common random numbers
    )
    cara = run_curve(ExperimentConfig(utility=CaraUtility(1.0), **shared)).points[-1]
    linear = run_curve(ExperimentConfig(utility=LinearUtility(), **shared)).points[-1]
    joint_stderr = math.hypot(cara.stderr, linear.stderr)
    tolerance = max(4 * joint_stderr, 0.02 * abs(linear.estimate))
    gap = abs(cara.estimate - linear.estimate)
    assert gap <= tolerance
    report(
        5,
        f"cara {cara.estimate:.5f} vs linear {linear.estimate:.5f} under common "
        f"random numbers, gap {gap:.5f} <= {tolerance:.5f}",
    )


def test_criterion_6_duality_oracle():
    started = time.perf_counter()
    results = run_duality_suite(1000, SEED)
    elapsed = time.perf_counter() - started
    for result in results:
        assert result.trials == 1000
        assert result.failures == 0, result.counterexample
    assert elapsed < 10.0
    worst = max(r.worst_error for r in results)
    report(6, f"greedy dual = primal on 1000 laws, vertex enumeration agrees "
              f"(worst error {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_7_property_suite():
    results = run_property_suite(1000, SEED)
    names = {r.name for r in results}
    assert {
        "translation_invariance",
        "positive_homogeneity",
        "superadditivity",
        "comonotone_additivity",
        "jensen_premium_nonnegative",
        "avar_monotone_in_level",
    } <= names
    for result in results:
        assert result.trials == 1000
        assert result.failures == 0, (result.name, result.counterexample)
    worst = max(r.worst_error for r in results)
    report(7, f"six structural properties, 1000 trials each, zero violations "
              f"(worst error {worst:.2e})")


def test_criterion_8_small_pool_enumeration():
    mu = MixtureMeasure.point(0.5)
    messages = []
    for n in (2, 3):
        outcomes, probs = enumerate_pool_law((0.0, 1.0), (0.5, 0.5), n)
        exact_pool = DiscreteDistribution(outcomes, probs)
        exact = math.sqrt(n) * (0.5 - mixture_value(exact_pool, mu))
        config = ExperimentConfig(
            distribution=TwoPoint(0.0, 1.0, 0.5),
            utility=LinearUtility(),
            mixture=mu,
            n_grid=(n,),
            replications=100_000,
            batches=20,
            master_seed=SEED,
        )
        estimate, stderr = one_point(config, n)
        assert abs(estimate - exact) <= 4 * stderr
        messages.append(f"n={n}: |{estimate:.5f} - {exact:.5f}| <= {4 * stderr:.5f}")
    report(8, "; ".join(messages))


def test_criterion_9_determinism_across_threads(tmp_path):
    payload = {
        "distribution": {"family": "two_point", "low": 0.0, "high": 1.0, "p_high": 0.5},
        "mixture": {
            "atoms": [{"lambda": 0.5, "weight": 0.5}, {"lambda": 1.0, "weight": 0.5}]
        },
        "utility": {"family": "cara", "alpha": 1.0},
        "n_grid": [4, 16, 64],
        "replications": 10_000,
        "batches": 20,
        "master_seed": SEED,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(payload))
    artifacts = []
    codes = []
    for threads, name in ((1, "one"), (4, "four")):
        out = tmp_path / name
        codes.append(
            main([
                "premium-curve", "--config", str(config_path),
                "--out-dir", str(out), "--threads", str(threads),
            ])
        )
        artifacts.append((out / "curve.csv").read_bytes())
    assert codes[0] in (0, 3) and codes[0] == codes[1]
    assert artifacts[0] == artifacts[1]
    report(9, f"curve.csv byte-identical for --threads 1 and 4 ({len(artifacts[0])} bytes)")
