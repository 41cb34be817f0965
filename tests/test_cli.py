import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskpool.verify
from riskpool.cli import build_parser, main, parse_family_text, parse_mixture_text
from riskpool.config import (
    ConfigError,
    experiment_config_from_dict,
    experiment_config_to_dict,
)
from riskpool.distributions import DiscreteDistribution, EmpiricalSample, TwoPoint
from riskpool.mc_engine import ExperimentConfig
from riskpool.risk_measures import MixtureMeasure

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"

DISCRETE_1234 = '{"family":"discrete","outcomes":[1,2,3,4],"probs":[0.25,0.25,0.25,0.25]}'

EXACT_CONFIG = {
    "distribution": {"family": "normal", "mean": 0.0, "sd": 1.0},
    "mixture": {"atoms": [{"lambda": 0.5, "weight": 1.0}]},
    "utility": {"family": "linear", "slope": 1.0, "intercept": 0.0},
    "n_grid": [4, 16, 64],
    "replications": 2000,
    "batches": 10,
    "master_seed": 7,
}

MC_CONFIG = {
    "distribution": {"family": "two_point", "low": 0.0, "high": 1.0, "p_high": 0.5},
    "mixture": {"atoms": [{"lambda": 0.5, "weight": 0.5}, {"lambda": 1.0, "weight": 0.5}]},
    "utility": {"family": "cara", "alpha": 1.0},
    "n_grid": [4, 16, 64],
    "replications": 4000,
    "batches": 10,
    "master_seed": 3,
}

# Outcomes on a lattice of step 0.05, so pools are drawn from the lattice pool law.
LATTICE_CONFIG = {
    **MC_CONFIG,
    "distribution": {"family": "discrete", "outcomes": [0.1, 0.25, 0.35, 0.55, 1.9],
                     "probs": [0.1, 0.3, 0.2, 0.15, 0.25]},
}
# sqrt(2) puts the outcomes on no lattice, so pools take multinomial counts.
OFF_LATTICE_DISTRIBUTION = {"family": "discrete", "outcomes": [0.0, 1.0, 1.4142135623730951],
                            "probs": [0.2, 0.5, 0.3]}
# One small Monte Carlo config per pooled sampler, keyed by the method its
# points name.
SAMPLER_CONFIGS = {
    "lattice": LATTICE_CONFIG,
    "multinomial": {**MC_CONFIG, "distribution": OFF_LATTICE_DISTRIBUTION},
    "normal-law": {**MC_CONFIG, "distribution": {"family": "normal", "mean": 0.0, "sd": 1.0}},
    "gamma": {**MC_CONFIG, "distribution": {"family": "exponential", "rate": 1.0, "shift": 0.5},
              "utility": {"family": "log", "shift": 0.0}},
    "summed draws": {**MC_CONFIG, "distribution": {"family": "uniform", "low": 0.0, "high": 1.0}},
}


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity, as the CI workflow does."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestShorthandParsing:
    def test_point_mass_variants(self):
        assert parse_mixture_text("delta1").atoms == ((1.0, 1.0),)
        assert parse_mixture_text("δ0.3").atoms == ((0.3, 1.0),)

    def test_weighted_terms(self):
        mu = parse_mixture_text("0.5@0.5 + 0.5@1")
        assert mu.atoms == ((0.5, 0.5), (1.0, 0.5))

    def test_grid_shorthand(self):
        mu = parse_mixture_text("grid:4")
        assert mu == MixtureMeasure.equal_weight_grid(4)

    def test_json_mixture(self):
        mu = parse_mixture_text('{"atoms":[{"lambda":0.5,"weight":1.0}]}')
        assert mu.atoms == ((0.5, 1.0),)

    def test_family_shorthand(self):
        family = parse_family_text("{δ0.3, δ0.7}")
        assert len(family.members) == 2
        assert family.members[0].atoms == ((0.3, 1.0),)
        mixed = parse_family_text("{delta0.3, 0.5@0.5 + 0.5@1}")
        assert mixed.members[1].atoms == ((0.5, 0.5), (1.0, 0.5))

    def test_bad_shorthand(self):
        with pytest.raises(ConfigError):
            parse_mixture_text("0.5&0.5")
        with pytest.raises(ConfigError):
            parse_mixture_text("deltaX")


class TestMeasure:
    def test_discrete_avar(self, capsys):
        code = main(["measure", "--dist", DISCRETE_1234, "--lambda", "0.5"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1.5"

    def test_normal_mean_mixture(self, capsys):
        code = main(["measure", "--dist", "normal01", "--mu", "delta1"])
        assert code == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_family_with_argmin(self, capsys):
        code = main(["measure", "--dist", "normal01", "--family", "{delta0.3, delta0.7}"])
        assert code == 0
        out = capsys.readouterr().out.split()
        assert float(out[0]) == pytest.approx(-1.1589753806669127, abs=1e-10)
        assert out[1] == "argmin=0"

    def test_json_output(self, capsys):
        code = main(["measure", "--dist", "normal01", "--mu", "0.5@0.5 + 0.5@1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["operation"] == "mixture_value"
        assert payload["value"] == pytest.approx(-0.3989422804014327, abs=1e-10)
        assert payload["log_condition"] == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_invalid_level_exits_2(self, capsys):
        assert main(["measure", "--dist", DISCRETE_1234, "--lambda", "0"]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_requires_exactly_one_mode(self, capsys):
        assert main(["measure", "--dist", "normal01"]) == 2
        assert main(["measure", "--dist", "normal01", "--mu", "delta1", "--lambda", "0.5"]) == 2

    # sd 1e300 gives a finite value; sd 1e308 overflows it to -inf, which
    # json.dumps would print as -Infinity.
    @pytest.mark.parametrize("mode", [
        ["--lambda", "1e-10"], ["--mu", "delta1e-10"], ["--family", "{delta1e-10, delta1}"],
    ])
    def test_non_finite_value_exits_2_without_output(self, capsys, mode):
        dist = '{"family":"normal","mean":0,"sd":%s}'
        assert main(["measure", "--dist", dist % "1e300", *mode, "--json"]) == 0
        assert math.isfinite(strict_json(capsys.readouterr().out)["value"])
        assert main(["measure", "--dist", dist % "1e308", *mode, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the value is not finite, got -inf" in captured.err

    def test_bad_distribution_field_path(self, capsys):
        bad = '{"family":"normal","mean":0.0}'
        assert main(["measure", "--dist", bad, "--lambda", "0.5"]) == 2
        assert "dist.sd" in capsys.readouterr().err


class TestLimit:
    def test_mean_case(self, capsys):
        assert main(["limit", "--sigma", "1", "--mu", "delta1"]) == 0
        assert float(capsys.readouterr().out) == 0.0

    def test_mixture_value(self, capsys):
        assert main(["limit", "--sigma", "1", "--mu", "0.5@0.5 + 0.5@1"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.3989422804014327, abs=1e-10)

    def test_family_scaled(self, capsys):
        assert main(["limit", "--sigma", "2", "--family", "{δ0.3}"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(
            2 * 1.1589753806669127, abs=1e-9
        )

    def test_atom_at_zero_exits_2_citing_support(self, capsys):
        assert main(["limit", "--sigma", "1", "--mu", "delta0"]) == 2
        assert "(0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("preference", [["--mu", "0.5@0.5 + 0.5@1"], ["--family", "{δ0.3}"]])
    def test_bad_sigma_exits_2_without_output(self, capsys, sigma, preference):
        assert main(["limit", "--sigma", sigma, *preference, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma must be finite and nonnegative" in captured.err


    # sigma 1e300 gives a finite limit; sigma 1e308 overflows it to inf,
    # which json.dumps would print as Infinity.
    @pytest.mark.parametrize("preference", [["--mu", "delta1e-10"], ["--family", "{delta1e-10, delta1}"]])
    def test_overflowing_limit_exits_2_without_output(self, capsys, preference):
        assert main(["limit", "--sigma", "1e300", *preference, "--json"]) == 0
        assert math.isfinite(strict_json(capsys.readouterr().out)["value"])
        assert main(["limit", "--sigma", "1e308", *preference, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the limit is not finite" in captured.err


class TestPremiumCurve:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_exact_run_writes_artifacts(self, tmp_path, capsys):
        config = self.write_config(tmp_path, EXACT_CONFIG)
        out = tmp_path / "results"
        code = main(["premium-curve", "--config", str(config), "--out-dir", str(out)])
        assert code == 0
        csv_lines = (out / "curve.csv").read_text().splitlines()
        assert csv_lines[0] == "n,estimate,stderr,limit,abs_gap,z_score"
        assert len(csv_lines) == 4
        first = csv_lines[1].split(",")
        assert first[0] == "4"
        assert float(first[1]) == pytest.approx(0.7978845608028654, abs=1e-12)
        assert float(first[2]) == 0.0
        payload = json.loads((out / "curve.json").read_text())
        assert payload["trend_ok"] is True
        assert payload["limit"] == pytest.approx(0.7978845608028654, abs=1e-12)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert manifest["config_hash"] == payload["config_hash"]

    def assert_byte_identical_across_threads(self, tmp_path, payload, method):
        config = self.write_config(tmp_path, payload)
        outputs = []
        codes = []
        for threads, name in ((1, "a"), (4, "b")):
            out = tmp_path / name
            codes.append(
                main([
                    "premium-curve", "--config", str(config),
                    "--out-dir", str(out), "--threads", str(threads),
                ])
            )
            outputs.append((out / "curve.csv").read_bytes())
            points = json.loads((out / "curve.json").read_text())["points"]
            assert {p["method"] for p in points} == {method}
        assert codes[0] == codes[1]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("method", SAMPLER_CONFIGS)
    def test_curve_byte_identical_across_threads(self, tmp_path, method):
        self.assert_byte_identical_across_threads(tmp_path, SAMPLER_CONFIGS[method], method)

    def test_byte_identical_across_threads(self, tmp_path):
        self.assert_byte_identical_across_threads(tmp_path, MC_CONFIG, "lattice")

    def test_lattice_curve_byte_identical_across_threads(self, tmp_path):
        self.assert_byte_identical_across_threads(tmp_path, LATTICE_CONFIG, "lattice")

    @pytest.mark.parametrize("name, payload, method", [
        ("exact_normal_linear.json", None, "exact"),
        ("normal_cara_mixture.json", None, "normal-law"),
        ("twopoint_family.json", None, "lattice"),
        ("exponential", {
            "distribution": {"family": "exponential", "rate": 1.0, "shift": 0.5},
            "utility": {"family": "log", "shift": 0.0},
            "mixture": {"atoms": [{"lambda": 0.5, "weight": 0.5}, {"lambda": 1.0, "weight": 0.5}]},
            "exact": False,
        }, "gamma"),
        ("lattice", LATTICE_CONFIG, "lattice"),
        ("off_lattice", {**MC_CONFIG, "distribution": OFF_LATTICE_DISTRIBUTION}, "multinomial"),
    ])
    def test_curve_json_names_the_method(self, tmp_path, name, payload, method):
        if payload is None:
            payload = json.loads((CONFIG_DIR / name).read_text())
        payload = {**payload, "n_grid": [4, 16, 64], "replications": 2000, "batches": 10}
        out = tmp_path / "out"
        main(["premium-curve", "--config", str(self.write_config(tmp_path, payload)),
              "--out-dir", str(out)])
        points = json.loads((out / "curve.json").read_text())["points"]
        assert [p["method"] for p in points] == [method] * 3

    def test_curve_json_method_follows_the_pool_size(self, tmp_path):
        # Units up to 2^19: one copy is its own lattice law, but the window
        # of four copies passes the 2^21-entry FFT cap and falls back to counts.
        payload = {
            "distribution": {"family": "discrete", "outcomes": [0, 1, 524288],
                             "probs": [0.3, 0.4, 0.3]},
            "mixture": {"atoms": [{"lambda": 0.5, "weight": 1.0}]},
            "utility": {"family": "linear", "slope": 1.0, "intercept": 0.0},
            "n_grid": [1, 4], "replications": 200, "batches": 10,
        }
        out = tmp_path / "out"
        main(["premium-curve", "--config", str(self.write_config(tmp_path, payload)),
              "--out-dir", str(out)])
        points = json.loads((out / "curve.json").read_text())["points"]
        assert [p["method"] for p in points] == ["lattice", "multinomial"]

    def test_manifest_records_the_run(self, tmp_path):
        out = tmp_path / "out"
        argv = ["premium-curve", "--config", str(self.write_config(tmp_path, MC_CONFIG)),
                "--out-dir", str(out), "--threads", "2"]
        main(argv)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["argv"] == argv
        assert manifest["threads"] == 2
        assert manifest["machine"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
        }

    def test_machine_facts_and_parser_are_not_made_at_import(self):
        src = Path(riskpool.verify.__file__).parents[1]
        code = ("import riskpool.cli as c; "
                "print(c._machine.cache_info().currsize, c.build_parser.cache_info().currsize)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
        assert done.stdout.strip() == "0 0"

    # One process, one parser: after a usage error, --help and a verify run,
    # the shared parser still writes the bytes of a fresh console run.
    def test_repeated_calls_share_one_parser(self, tmp_path, capsys):
        names = ("exact_normal_linear.json", "twopoint_family.json")
        src = Path(riskpool.verify.__file__).parents[1]
        for name in names:
            subprocess.run([sys.executable, "-m", "riskpool.cli", "premium-curve",
                            "--config", str(CONFIG_DIR / name), "--out-dir", str(tmp_path / "fresh" / name)],
                           capture_output=True, text=True, check=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": str(src)})
        build_parser.cache_clear()
        for argv, code in ((["premium-curve"], 2), (["--help"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        assert main(["verify", "duality", "--trials", "5", "--seed", "7"]) == 0
        for name in names:
            out = tmp_path / "shared" / name
            assert main(["premium-curve", "--config", str(CONFIG_DIR / name), "--out-dir", str(out)]) == 0
            for file in ("curve.csv", "curve.json"):
                assert (out / file).read_bytes() == (tmp_path / "fresh" / name / file).read_bytes()
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_limit_experiments_write_manifests(self, tmp_path):
        script = CONFIG_DIR.parent / "run_limit_experiments.py"
        src = Path(riskpool.verify.__file__).parents[1]
        subprocess.run([sys.executable, str(script), "--seed", "7", "--out-dir", str(tmp_path)],
                       capture_output=True, text=True, check=True, timeout=300,
                       env={**os.environ, "PYTHONPATH": str(src)})
        for name in ("normal_cara_mixture", "twopoint_family"):
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            payload = json.loads((tmp_path / name / "curve.json").read_text())
            assert manifest["master_seed"] == payload["master_seed"] == 7
            assert manifest["config_hash"] == payload["config_hash"]

    def test_seed_flag_overrides_config(self, tmp_path):
        config = self.write_config(tmp_path, MC_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["premium-curve", "--config", str(config), "--out-dir", str(out_a)])
        main(["premium-curve", "--config", str(config), "--out-dir", str(out_b), "--seed", "99"])
        assert (out_a / "curve.csv").read_bytes() != (out_b / "curve.csv").read_bytes()
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["master_seed"] == 99

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        payload = dict(MC_CONFIG)
        payload.pop("master_seed")
        config = self.write_config(tmp_path, payload)
        monkeypatch.setenv("RISKPOOL_SEED", "1234")
        out = tmp_path / "results"
        main(["premium-curve", "--config", str(config), "--out-dir", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 1234

    def test_seed_past_64_bits_exits_2(self, tmp_path, capsys):
        # 2**64 would key the same streams as seed 0 under another config hash.
        config = self.write_config(tmp_path, EXACT_CONFIG)
        out = tmp_path / "results"
        argv = ["premium-curve", "--config", str(config), "--out-dir", str(out)]
        assert main(argv + ["--seed", str(2**64)]) == 2
        assert "master_seed" in capsys.readouterr().err
        assert not out.exists()

    def test_env_seed_past_64_bits_exits_2(self, tmp_path, capsys, monkeypatch):
        payload = dict(EXACT_CONFIG)
        payload.pop("master_seed")
        config = self.write_config(tmp_path, payload)
        monkeypatch.setenv("RISKPOOL_SEED", str(2**64))
        assert main(["premium-curve", "--config", str(config), "--out-dir", str(tmp_path / "r")]) == 2
        assert "master_seed" in capsys.readouterr().err

    def test_invalid_config_exits_2_with_path(self, tmp_path, capsys):
        payload = dict(EXACT_CONFIG)
        payload["mixture"] = {"atoms": [{"lambda": 0.5}]}
        config = self.write_config(tmp_path, payload)
        assert main(["premium-curve", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert "config.mixture.atoms[0].weight" in capsys.readouterr().err

    @pytest.mark.parametrize("wealth", [math.nan, math.inf])
    def test_non_finite_wealth_exits_2(self, tmp_path, capsys, wealth):
        # json.dumps writes NaN / Infinity, which the config parser accepts.
        config = self.write_config(tmp_path, {**EXACT_CONFIG, "wealth": wealth})
        out = tmp_path / "results"
        assert main(["premium-curve", "--config", str(config), "--out-dir", str(out)]) == 2
        assert "wealth must be finite" in capsys.readouterr().err
        assert not out.exists()

    # Failures inside the run, after the config parsed, also leave no
    # output directory behind.
    @pytest.mark.parametrize("patch, code, message", [
        ({"distribution": {"family": "uniform", "low": 0.0, "high": 1.0}, "exact": True},
         2, "exact=True requires"),
        ({"distribution": {"family": "discrete", "outcomes": [-1e200, 1e200], "probs": [0.5, 0.5]}},
         2, "variance is not finite"),
    ], ids=["exact-without-closed-form", "overflowing-variance"])
    def test_run_time_failure_leaves_no_out_dir(self, tmp_path, capsys, patch, code, message):
        config = self.write_config(tmp_path, {**EXACT_CONFIG, **patch})
        out = tmp_path / "results"
        assert main(["premium-curve", "--config", str(config), "--out-dir", str(out)]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
    def test_shipped_configs_write_strict_json(self, tmp_path, name):
        out = tmp_path / "out"
        main(["premium-curve", "--config", str(CONFIG_DIR / name), "--out-dir", str(out)])
        written = sorted(out.glob("*.json"))
        assert [p.name for p in written] == ["curve.json", "manifest.json"]
        for path in written:
            strict_json(path.read_text())

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["premium-curve", "--config", str(tmp_path / "nope.json")]) == 2

    def test_trend_failure_exits_3_with_results_written(self, tmp_path, capsys):
        # Pooled fair coins on a tiny consecutive n grid: the lattice parity
        # oscillation makes |estimate - limit| rise far beyond stderr slack.
        payload = {
            "distribution": {"family": "two_point", "low": 0.0, "high": 1.0, "p_high": 0.5},
            "mixture": {"atoms": [{"lambda": 0.3, "weight": 1.0}]},
            "utility": {"family": "linear", "slope": 1.0, "intercept": 0.0},
            "n_grid": [2, 3, 4],
            "replications": 20_000,
            "batches": 10,
            "master_seed": 5,
        }
        config = self.write_config(tmp_path, payload)
        out = tmp_path / "results"
        code = main(["premium-curve", "--config", str(config), "--out-dir", str(out)])
        assert code == 3
        assert (out / "curve.csv").exists()
        assert (out / "curve.json").exists()
        assert (out / "manifest.json").exists()
        assert "trend check failed" in capsys.readouterr().err
        assert json.loads((out / "curve.json").read_text())["trend_ok"] is False

    def test_domain_abort_exits_4_with_offending_n(self, tmp_path, capsys):
        payload = dict(EXACT_CONFIG)
        payload["utility"] = {"family": "log", "shift": 0.0}
        payload["n_grid"] = [4]
        payload["replications"] = 100
        payload["batches"] = 2
        config = self.write_config(tmp_path, payload)
        out = tmp_path / "results"
        code = main(["premium-curve", "--config", str(config), "--out-dir", str(out)])
        assert code == 4
        assert "n=4" in capsys.readouterr().err
        assert not out.exists()

    # u(-800) = -expm1(800) overflows: the pool whose every risk pays -800
    # aborts the run, naming alpha and the argument, not as a config error
    # and without a numpy warning. The argument is the pool's own -800, not
    # the value the certainty equivalent applies u to after centring the
    # batch's law on its mean: the first failing batch has mean 0 at seed
    # 20260808 with 10 batches, but 20 at seed 0 with 2.
    def test_cara_overflow_exits_4(self, tmp_path, capsys):
        for seed, batches in ((20260808, 10), (0, 2)):
            payload = {
                **MC_CONFIG,
                "distribution": {"family": "discrete", "outcomes": [-800, 800], "probs": [0.5, 0.5]},
                "n_grid": [4], "replications": 200, "batches": batches, "master_seed": seed,
            }
            config = self.write_config(tmp_path, payload)
            out = tmp_path / "results"
            code = main(["premium-curve", "--config", str(config), "--out-dir", str(out)])
            err = capsys.readouterr().err
            assert code == 4
            assert "n=4, batch " in err and "alpha=1.0" in err and "overflows at argument -800.0" in err
            assert not out.exists()

    # u(x) = (x^2 - 1)/2 at gamma = -1 overflows from x ~ 1.3e154 on.
    def test_crra_overflow_exits_4(self, tmp_path, capsys):
        payload = {
            "distribution": {"family": "discrete", "outcomes": [1e155, 1.1e155], "probs": [0.5, 0.5]},
            "mixture": {"atoms": [{"lambda": 0.5, "weight": 1.0}]},
            "utility": {"family": "crra", "gamma": -1.0},
            "n_grid": [4], "replications": 200, "batches": 2, "master_seed": 20260808,
        }
        config = self.write_config(tmp_path, payload)
        out = tmp_path / "results"
        code = main(["premium-curve", "--config", str(config), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert "n=4, batch " in err and "gamma=-1.0" in err and "overflows at argument 1.1e+155" in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_2_without_output(self, tmp_path, capsys, threads):
        config = self.write_config(tmp_path, MC_CONFIG)
        out = tmp_path / "results"
        code = main(["premium-curve", "--config", str(config), "--out-dir", str(out), "--threads", threads])
        assert code == 2
        assert "threads must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestVerifyCommand:
    def test_duality_passes(self, capsys):
        assert main(["verify", "duality", "--trials", "50", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "primal_dual_greedy: 50 trials, 0 failures" in out

    def test_properties_pass(self, capsys):
        assert main(["verify", "properties", "--trials", "25", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "translation_invariance: 25 trials, 0 failures" in out
        assert "jensen_premium_nonnegative" in out

    def test_zero_trials_vacuous_pass(self, capsys):
        assert main(["verify", "duality", "--trials", "0"]) == 0
        assert "vacuous" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", [-1, 2**64])
    @pytest.mark.parametrize("trials", [0, 1])
    def test_bad_seed_exits_2_before_any_trial(self, capsys, seed, trials):
        argv = ["verify", "duality", "--trials", str(trials), "--seed", str(seed)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "2**64" in captured.err
        assert "vacuous" not in captured.out

    def test_injected_bug_exits_5_with_counterexample(self, capsys, monkeypatch):
        real = riskpool.verify.avar
        monkeypatch.setattr(riskpool.verify, "avar", lambda d, lam: -real(d, lam))
        assert main(["verify", "duality", "--trials", "20", "--seed", "42"]) == 5
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "minimal failing instance" in captured.err
        assert "outcomes" in captured.err

    def test_property_failure_reports_shrunk_joint_counterexample(self, capsys, monkeypatch):
        real = riskpool.verify.mixture_value
        buggy = lambda d, mu: -real(d, mu)  # noqa: E731
        monkeypatch.setattr(riskpool.verify, "mixture_value", buggy)
        assert main(["verify", "properties", "--trials", "20", "--seed", "42"]) == 5
        captured = capsys.readouterr()
        assert "superadditivity: 20 trials" in captured.out
        prefix = "minimal failing instance: "
        instances = [
            json.loads(line[len(prefix):])
            for line in captured.err.splitlines()
            if line.startswith(prefix)
        ]
        assert instances
        failed = {
            line.split(":", 1)[0] for line in captured.out.splitlines() if line.endswith("[FAIL]")
        }
        assert all(c["property"] in failed for c in instances)
        joint = next(c for c in instances if "x_outcomes" in c)
        assert joint["property"] == "superadditivity"
        x, y = np.array(joint["x_outcomes"]), np.array(joint["y_outcomes"])
        probs = np.array(joint["probabilities"])
        # At most the 16 states a joint case draws, and still failing.
        assert 1 <= probs.size == x.size == y.size <= 16
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        mu = MixtureMeasure(tuple(map(tuple, joint["mixture"])))

        def violation(keep):
            p = probs[keep] / probs[keep].sum()
            value = lambda v: buggy(DiscreteDistribution(v[keep], p), mu)  # noqa: E731
            return value(x) + value(y) - value(x + y)

        everything = np.ones(probs.size, dtype=bool)
        assert violation(everything) == joint["violation"] > 1e-10
        # Shrunk: dropping any one state makes the case pass.
        for i in range(probs.size):
            assert violation(everything & (np.arange(probs.size) != i)) <= 1e-10

    # A functional that returns NaN fails every property that reads it: a
    # NaN violation is within no bound, it is the worst error, and the
    # counterexample line stays strict JSON with the violation as its repr.
    # The Jensen check reads neither functional, so it still passes.
    def test_nan_violation_fails(self, capsys, monkeypatch):
        nan = lambda *args: math.nan  # noqa: E731
        monkeypatch.setattr(riskpool.verify, "avar", nan)
        monkeypatch.setattr(riskpool.verify, "mixture_value", nan)
        assert main(["verify", "properties", "--trials", "50", "--seed", "7"]) == 5
        assert main(["verify", "duality", "--trials", "50", "--seed", "7"]) == 5
        captured = capsys.readouterr()
        failed = [line for line in captured.out.splitlines() if line.endswith("[FAIL]")]
        assert [line.split(":", 1)[0] for line in failed] == [
            "translation_invariance", "positive_homogeneity", "avar_monotone_in_level",
            "superadditivity", "comonotone_additivity",
            "primal_dual_greedy", "primal_dual_vertex_enumeration",
        ]
        assert all(line.endswith("50 failures, worst error nan [FAIL]") for line in failed)
        prefix = "minimal failing instance: "
        instances = [strict_json(line[len(prefix):]) for line in captured.err.splitlines()]
        assert [c["property"] for c in instances] == [line.split(":", 1)[0] for line in failed]
        assert all(c["violation"] == "nan" for c in instances)

    def test_seed_past_64_bits_exits_2(self, capsys, monkeypatch):
        assert main(["verify", "duality", "--trials", "5", "--seed", str(2**64)]) == 2
        assert "2**64" in capsys.readouterr().err
        monkeypatch.setenv("RISKPOOL_SEED", str(2**64))
        assert main(["verify", "properties", "--trials", "5"]) == 2


class TestRemovedFlags:
    # Each subcommand parses only the flags it reads.
    @pytest.mark.parametrize("argv", [
        ["measure", "--dist", "normal01", "--lambda", "0.5", "--seed", "1"],
        ["measure", "--dist", "normal01", "--lambda", "0.5", "--out-dir", "out"],
        ["measure", "--dist", "normal01", "--lambda", "0.5", "--threads", "2"],
        ["limit", "--sigma", "1", "--mu", "delta1", "--seed", "1"],
        ["limit", "--sigma", "1", "--mu", "delta1", "--out-dir", "out"],
        ["limit", "--sigma", "1", "--mu", "delta1", "--threads", "2"],
        ["premium-curve", "--config", "config.json", "--json"],
        ["verify", "duality", "--trials", "1", "--json"],
        ["verify", "duality", "--trials", "1", "--out-dir", "out"],
        ["verify", "duality", "--trials", "1", "--threads", "2"],
    ])
    def test_unread_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# Every wire-table entry, with each optional key mapped to the default its
# class gives when the key is omitted.
WIRE_ENTRIES = [
    ("distribution", {"family": "normal", "mean": 1.5, "sd": 2.0}, {}),
    ("distribution", {"family": "uniform", "low": -1.0, "high": 2.0}, {}),
    ("distribution", {"family": "exponential", "rate": 2.0, "shift": -0.5}, {"shift": 0.0}),
    ("distribution", {"family": "two_point", "low": 0.0, "high": 1.0, "p_high": 0.25}, {}),
    ("utility", {"family": "linear", "slope": 2.0, "intercept": -1.0},
     {"slope": 1.0, "intercept": 0.0}),
    ("utility", {"family": "cara", "alpha": 0.5}, {}),
    ("utility", {"family": "log", "shift": 3.0}, {"shift": 0.0}),
    ("utility", {"family": "crra", "gamma": 2.0, "shift": 3.0}, {"shift": 0.0}),
]
WIRE_IDS = [entry["family"] for _, entry, _ in WIRE_ENTRIES]


class TestWireTable:
    @pytest.mark.parametrize("kind, entry, defaults", WIRE_ENTRIES, ids=WIRE_IDS)
    @pytest.mark.parametrize("with_optional", [True, False], ids=["full", "required-only"])
    def test_round_trip(self, kind, entry, defaults, with_optional):
        given = entry if with_optional else {k: v for k, v in entry.items() if k not in defaults}
        config = experiment_config_from_dict(dict(MC_CONFIG, **{kind: given}))
        emitted = experiment_config_to_dict(config)
        expected = entry if with_optional else {**entry, **defaults}
        assert list(emitted[kind].items()) == list(expected.items())
        assert experiment_config_from_dict(emitted) == config

    @pytest.mark.parametrize("kind, entry, defaults", WIRE_ENTRIES, ids=WIRE_IDS)
    def test_missing_required_key_names_its_path(self, kind, entry, defaults):
        for key in entry.keys() - defaults.keys():
            given = {k: v for k, v in entry.items() if k != key}
            with pytest.raises(ConfigError, match="missing required field") as exc:
                experiment_config_from_dict(dict(MC_CONFIG, **{kind: given}))
            assert exc.value.path == f"config.{kind}.{key}"


class TestConfigRoundTrip:
    @pytest.mark.parametrize("payload", [EXACT_CONFIG, MC_CONFIG])
    def test_parse_serialize_parse_fixed_point(self, payload):
        config = experiment_config_from_dict(payload)
        emitted = experiment_config_to_dict(config)
        again = experiment_config_from_dict(emitted)
        assert again == config
        assert experiment_config_to_dict(again) == emitted

    def test_family_config_round_trip(self):
        payload = dict(MC_CONFIG)
        payload.pop("mixture")
        payload["family"] = {
            "members": [
                {"atoms": [{"lambda": 0.3, "weight": 1.0}]},
                {"atoms": [{"lambda": 0.5, "weight": 0.25}, {"lambda": 1.0, "weight": 0.75}]},
            ]
        }
        config = experiment_config_from_dict(payload)
        assert experiment_config_from_dict(experiment_config_to_dict(config)) == config

    @pytest.mark.parametrize("dist, law", [
        ({"family": "discrete", "outcomes": [2.0, 1.0], "probs": [0.75, 0.25]},
         DiscreteDistribution((1.0, 2.0), (0.25, 0.75))),
        ({"family": "empirical", "values": [3.0, 1.0, 1.0]}, EmpiricalSample([1.0, 1.0, 3.0])),
        ({"family": "bernoulli", "p": 0.3, "loc": 1.0, "scale": 2.0}, TwoPoint(1.0, 3.0, 0.3)),
    ])
    def test_finite_law_families_round_trip(self, dist, law):
        config = experiment_config_from_dict(dict(MC_CONFIG, distribution=dist))
        assert config.distribution == law
        emitted = experiment_config_to_dict(config)
        assert emitted["distribution"]["family"] == {"bernoulli": "two_point"}.get(
            dist["family"], dist["family"]
        )
        assert experiment_config_from_dict(emitted) == config

    @pytest.mark.parametrize("bad", [
        {"p": 1.0}, {"p": 0.5, "scale": 0.0}, {"p": 0.5, "scale": -1.0},
        {"p": 0.5, "loc": 1e16, "scale": 1.0}, {"p": 0.5, "loc": math.nan},
    ])
    def test_bernoulli_alias_validation(self, bad):
        with pytest.raises(ConfigError, match="bernoulli law requires"):
            experiment_config_from_dict(dict(MC_CONFIG, distribution={"family": "bernoulli", **bad}))

    def test_omitted_fields_take_the_dataclass_defaults(self):
        payload = {key: EXACT_CONFIG[key] for key in ("distribution", "mixture", "utility")}
        config = experiment_config_from_dict(payload)
        assert config == ExperimentConfig(
            distribution=config.distribution, utility=config.utility, mixture=config.mixture
        )

    def test_nan_outcome_rejected(self):
        dist = json.loads('{"family": "discrete", "outcomes": [1, 2, NaN], "probs": [0.3, 0.3, 0.4]}')
        with pytest.raises(ConfigError, match="outcomes must be finite"):
            experiment_config_from_dict(dict(MC_CONFIG, distribution=dist))
