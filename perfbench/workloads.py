"""The four benchmark workloads and the correctness checks on their outputs.

Each workload is built from the workload seed (constructing it is the
set-up that ``setup_s`` times), runs one pass at a given thread count, and
checks the outputs of a pass. The seed becomes every config's
``master_seed`` and seeds every generated law; the package only ever sees
the generated configs.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses any other ``riskpool``, so a directory without the package fails
instead of measuring an installed copy.
"""

from __future__ import annotations

import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import NormalDist

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import riskpool  # noqa: E402

if not Path(riskpool.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"riskpool imported from {riskpool.__file__}, not from {SRC}")

from riskpool import cli, config, mc_engine, verify  # noqa: E402

DEFAULT_SEED = 20260808
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# A Monte Carlo point passes when it lies within this many joint standard
# errors of its reference. Batch-mean errors have 19 degrees of freedom:
# the two-sided t19 tail beyond 6 is 9e-6, so over the at most 12 points a
# run checks, a consistent sampler fails by chance about once in 10^4 runs.
# With per-point standard errors of 0.2-0.8% of the estimate on the
# seed-independent curves, a bias of 1.4-4.8% fails. Points of one curve share their random streams across
# pool sizes (the normal curve's almost fully), so a curve-mean test would
# need the same bound and adds no power.
Z_BOUND = 6.0


class Checks:
    """Counted correctness checks plus uncounted diagnostics."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.diagnostics: dict[str, object] = {}

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _mixture(atoms) -> dict:
    return {"atoms": [{"lambda": lam, "weight": w} for lam, w in atoms]}


def _mc_expected_counts(cfg) -> tuple[int, int]:
    """(avar calls, sorted-law values) one Monte Carlo config costs today.

    Every (n, batch) cell evaluates each building block once and builds the
    batch's sorted law for the sample, the wealth translate and the utility
    transform, plus the cara mean-centring translate.
    """
    cells = len(cfg.n_grid) * cfg.batches
    members = cfg.family.members if cfg.family is not None else (cfg.mixture,)
    blocks = sum(len(m.atoms) for m in members)
    builds = 3 + isinstance(cfg.utility, riskpool.CaraUtility)
    return cells * blocks, cells * builds * (cfg.replications // cfg.batches)


def _reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["curves"]


def check_mc_points(checks: Checks, label: str, points, reference) -> None:
    """Finite points with positive stderr, each near its reference value."""
    ref = {p["n"]: p for p in reference}
    for n, estimate, stderr in points:
        finite = math.isfinite(estimate) and math.isfinite(stderr) and stderr > 0.0
        checks.expect(finite, f"{label} n={n}: estimate {estimate!r}, stderr {stderr!r}")
        r = ref.get(n)
        z = math.inf
        if finite and r is not None:
            z = abs(estimate - r["estimate"]) / math.hypot(stderr, r["stderr"])
        checks.expect(z <= Z_BOUND, f"{label} n={n}: {z:.2f} standard errors from reference")


def _curve_points(curve) -> tuple:
    return tuple((p.n, p.estimate, p.stderr) for p in curve.points)


class SampleConfigs:
    """The three shipped configs through ``riskpool premium-curve`` in-process."""

    name = "sample_configs"
    thread_counts = (1, 2)
    CONFIGS = ("exact_normal_linear", "normal_cara_mixture", "twopoint_family")

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.paths = {c: ROOT / "scripts" / "configs" / f"{c}.json" for c in self.CONFIGS}
        self.configs = {
            c: config.with_master_seed(config.experiment_config_from_dict(json.loads(p.read_text())), seed)
            for c, p in self.paths.items()
        }

    def run(self, threads: int) -> dict:
        codes = {}
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for c, path in self.paths.items():
                argv = ["premium-curve", "--config", str(path), "--seed", str(self.seed),
                        "--out-dir", str(self.work_dir / c), "--threads", str(threads)]
                codes[c] = cli.main(argv)
        return codes

    def collect(self, codes: dict) -> dict:
        out = {}
        for c, code in codes.items():
            d = self.work_dir / c
            record = json.loads((d / "curve.json").read_text()) if code in (0, 3) else None
            out[c] = (code, (d / "curve.csv").read_text() if record else None, record)
        return out

    def check(self, output: dict, checks: Checks) -> None:
        reference = _reference()
        for c, (code, _, record) in output.items():
            # Exit code 3 is the trend diagnostic; results are still written.
            checks.expect(code in (0, 3), f"{c}: exit code {code}")
            if record is None:
                continue
            checks.diagnostics[f"trend_ok.{c}"] = record["trend_ok"]
            points = [(p["n"], p["estimate"], p["stderr"]) for p in record["points"]]
            if c == "exact_normal_linear":
                self._check_exact(checks, c, points, record["limit"])
            else:
                check_mc_points(checks, c, points, reference[f"{self.name}/{c}"])

    def _check_exact(self, checks: Checks, c: str, points, limit: float) -> None:
        cfg = self.configs[c]
        sigma = math.sqrt(cfg.distribution.variance())
        theorem = riskpool.theorem1_limit(sigma, cfg.mixture)
        # Independent closed form: sigma * sum w * pdf(ppf(lam)) / lam.
        std = NormalDist()
        oracle = sigma * math.fsum(w * std.pdf(std.inv_cdf(lam)) / lam for lam, w in cfg.mixture.atoms)
        checks.expect(abs(theorem - oracle) <= 1e-12 * abs(oracle), f"{c}: limit {theorem!r} vs {oracle!r}")
        checks.expect(limit == theorem, f"{c}: reported limit {limit!r} != {theorem!r}")
        for n, estimate, stderr in points:
            checks.expect(estimate == theorem and stderr == 0.0, f"{c} n={n}: exact point {estimate!r}")

    def expected_counts(self) -> dict:
        avar_calls = values = 0
        for c, cfg in self.configs.items():
            if c == "exact_normal_linear":
                continue
            calls, vals = _mc_expected_counts(cfg)
            avar_calls += calls
            values += vals
            # The CLI parses the config in every pass, so a two-atom law's
            # discrete form is built once per pass.
            if isinstance(cfg.distribution, riskpool.TwoPoint):
                values += 2
        return {"risk_measures.avar.calls": avar_calls, "distributions.sorted_law.values": values}


class _CurveWorkload:
    """A single premium curve run through ``run_curve``."""

    thread_counts = (1, 2)

    def run(self, threads: int):
        return mc_engine.run_curve(self.config, threads=threads)

    def collect(self, curve) -> tuple:
        return _curve_points(curve), curve.limit, mc_engine.compare_to_limit(curve).trend_ok

    def check(self, output, checks: Checks) -> None:
        points, _, trend_ok = output
        checks.diagnostics[f"trend_ok.{self.name}"] = trend_ok
        check_mc_points(checks, self.name, points, self.reference_points())

    def expected_counts(self) -> dict:
        calls, values = _mc_expected_counts(self.config)
        return {"risk_measures.avar.calls": calls, "distributions.sorted_law.values": values}


class SummedDraws(_CurveWorkload):
    """Exponential risks, log utility: the chunked summed-draw sampler."""

    name = "summed_draws"

    def __init__(self, seed: int, work_dir: Path):
        self.config = config.experiment_config_from_dict({
            "distribution": {"family": "exponential", "rate": 1.0, "shift": 0.5},
            "utility": {"family": "log", "shift": 0.0},
            "mixture": _mixture([(0.5, 0.5), (1.0, 0.5)]),
            "n_grid": [4, 16, 64, 256, 1024],
            "replications": 100_000,
            "batches": 20,
            "master_seed": seed,
            "exact": False,
        })

    def reference_points(self):
        return _reference()[self.name]


class WideFamily(_CurveWorkload):
    """A seeded 10-atom law, cara utility and an 8-member, 32-atom family.

    The law's outcomes lie on a lattice of step ``STEP``, so the exact law of
    every pool average follows from an FFT power of its characteristic
    function, and the exact scaled premium is the reference.
    """

    name = "wide_family"
    ATOMS = 10
    LATTICE = 40
    STEP = 0.05
    MEMBERS = 8
    LEVELS = 32

    def __init__(self, seed: int, work_dir: Path):
        gen = np.random.default_rng(seed)
        self.units = np.sort(gen.choice(self.LATTICE, self.ATOMS, replace=False))
        weights = gen.random(self.ATOMS) + 0.1
        self.probs = weights / weights.sum()
        tops = np.linspace(0.3, 1.0, self.MEMBERS)
        self.family = [
            [(float(top * (i + 0.5) / self.LEVELS), 1.0 / self.LEVELS) for i in range(self.LEVELS)]
            for top in tops
        ]
        self.config = config.experiment_config_from_dict({
            "distribution": {
                "family": "discrete",
                "outcomes": [float(k * self.STEP) for k in self.units],
                "probs": [float(p) for p in self.probs],
            },
            "utility": {"family": "cara", "alpha": 1.0},
            "family": {"members": [_mixture(m) for m in self.family]},
            "master_seed": seed,
        })

    def reference_points(self):
        mean = float(self.probs @ self.units) * self.STEP
        out = []
        for n in self.config.n_grid:
            values, probs = exact_pool_average(self.units, self.probs, self.STEP, n)
            premium = mean - cara_family_ce(values, probs, self.config.utility.alpha, self.family)
            out.append({"n": n, "estimate": math.sqrt(n) * premium, "stderr": 0.0})
        return out


def exact_pool_average(units, probs, step: float, n: int):
    """Exact law of the average of n i.i.d. draws of ``step * units``."""
    lo = int(units.min())
    size = n * (int(units.max()) - lo) + 1
    fft_len = 1 << (size - 1).bit_length()
    single = np.zeros(fft_len)
    single[units - lo] = probs
    pmf = np.fft.irfft(np.fft.rfft(single) ** n, fft_len)[:size]
    # FFT rounding leaves |noise| ~ 1e-15 on impossible sums.
    keep = pmf > 1e-13
    sums = n * lo + np.flatnonzero(keep)
    return sums * step / n, pmf[keep] / pmf[keep].sum()


def cara_family_ce(values, probs, alpha: float, family) -> float:
    """Certainty equivalent under cara utility and the family minimum.

    An oracle independent of the package: mean-centred cara transform,
    tail integrals from cumulative sums, the family minimum, and the
    inverse utility.
    """
    center = float(probs @ values)
    u = -np.expm1(-alpha * (values - center)) / alpha
    cum = np.cumsum(probs)
    partial = np.cumsum(probs * u)

    def tail_integral(lam: float) -> float:
        j = min(int(np.searchsorted(cum, lam - 1e-12)), len(u) - 1)
        below, prev = (partial[j - 1], cum[j - 1]) if j else (0.0, 0.0)
        return below + (lam - prev) * u[j]

    value = min(math.fsum(w * tail_integral(lam) / lam for lam, w in member) for member in family)
    return center - math.log1p(-alpha * value) / alpha


class VerifySuites:
    """``run_property_suite`` then ``run_duality_suite`` at 1000 trials.

    ``verify`` has no thread option, so only threads=1 passes run.
    """

    name = "verify_suites"
    thread_counts = (1,)
    TRIALS = 1000

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed

    def run(self, threads: int):
        return [suite(self.TRIALS, self.seed) for suite in (verify.run_property_suite, verify.run_duality_suite)]

    def collect(self, results):
        return tuple(tuple(r) for r in results)

    def check(self, output, checks: Checks) -> None:
        for suite in output:
            for result in suite:
                checks.expect(result.trials == self.TRIALS and result.failures == 0,
                              f"{result.name}: {result.failures} of {result.trials} failed")

    def expected_counts(self) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (SampleConfigs, SummedDraws, WideFamily, VerifySuites)}
