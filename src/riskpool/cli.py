"""Command line interface: measure, limit, premium-curve, verify.

Exit codes: 0 success; 2 configuration/validation error; 3 premium-curve
trend check failed (results still written); 4 utility-domain abort;
5 property violation in a verify suite.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    config_hash,
    dist_from_dict,
    experiment_config_from_dict,
    experiment_config_to_dict,
    family_from_dict,
    mixture_from_dict,
    reported_at,
    with_master_seed,
)
from .distributions import Normal, RngSpec
from .mc_engine import LimitComparison, PremiumCurve, compare_to_limit, run_curve
from .preferences import UtilityDomainError
from .risk_measures import (
    KusuokaFamily,
    MixtureMeasure,
    avar,
    check_family_condition,
    check_log_condition,
    kusuoka_value,
    mixture_value,
)
from .asymptotics import theorem1_limit
from .verify import run_duality_suite, run_property_suite

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TREND = 3
EXIT_DOMAIN = 4
EXIT_PROPERTY = 5

SEED_ENV_VAR = "RISKPOOL_SEED"


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _repr_float(value: float) -> str:
    return repr(float(value))


def _read_json(text: str, path: str):
    """The JSON value of ``text``; invalid JSON is a ConfigError at ``path``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from exc


def parse_mixture_text(text: str, path: str = "mu") -> MixtureMeasure:
    """Mixture from JSON, 'deltaL', 'grid:K', or 'w@L + w@L' shorthand."""
    s = text.strip()
    if s.startswith("{"):
        return mixture_from_dict(_read_json(s, path), path)
    for prefix in ("delta", "δ"):
        if s.startswith(prefix):
            level = reported_at(path, float, s[len(prefix) :], message=f"bad point-mass level in {s!r}")
            return reported_at(path, MixtureMeasure.point, level)
    if s.startswith("grid:"):
        points = reported_at(path, int, s[len("grid:") :], message=f"bad grid size in {s!r}")
        return reported_at(path, MixtureMeasure.equal_weight_grid, points)
    atoms = []
    for i, term in enumerate(s.split("+")):
        parts = term.strip().split("@")
        if len(parts) != 2:
            raise ConfigError(
                f"{path}[{i}]", f"expected 'weight@level', got {term.strip()!r}"
            )
        weight, level = (
            reported_at(f"{path}[{i}]", float, part, message=f"non-numeric term {term.strip()!r}")
            for part in parts
        )
        atoms.append((level, weight))
    return reported_at(path, MixtureMeasure, tuple(atoms))


def parse_family_text(text: str, path: str = "family") -> KusuokaFamily:
    """Family from JSON or '{member, member, ...}' of mixture shorthands."""
    s = text.strip()
    if s.startswith("{"):
        try:
            obj = json.loads(s)
        except json.JSONDecodeError:
            obj = None
        if isinstance(obj, dict):
            return family_from_dict(obj, path)
        if s.endswith("}"):
            inner = s[1:-1]
            members = [
                parse_mixture_text(part, f"{path}[{i}]")
                for i, part in enumerate(inner.split(","))
                if part.strip()
            ]
            if not members:
                raise ConfigError(path, "family shorthand is empty")
            return KusuokaFamily(tuple(members))
    return KusuokaFamily((parse_mixture_text(s, path),))


def parse_dist_text(text: str, path: str = "dist"):
    s = text.strip()
    if s == "normal01":
        return Normal(0.0, 1.0)
    return dist_from_dict(_read_json(s, path), path)


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return flag_value
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return reported_at(SEED_ENV_VAR, int, env, message=f"not an integer: {env!r}")
    return 0


def _cmd_measure(args) -> int:
    dist = parse_dist_text(args.dist)
    chosen = [x is not None for x in (args.tail_level, args.mu, args.family)]
    if sum(chosen) != 1:
        raise ConfigError("measure", "exactly one of --lambda, --mu, --family is required")
    if args.tail_level is not None:
        value = reported_at("lambda", avar, dist, args.tail_level)
        payload = {"operation": "avar", "lambda": args.tail_level, "value": value}
        text = _fmt(value)
    elif args.mu is not None:
        mu = parse_mixture_text(args.mu)
        value = mixture_value(dist, mu)
        payload = {
            "operation": "mixture_value",
            "value": value,
            "log_condition": check_log_condition(mu),
        }
        text = _fmt(value)
    else:
        family = parse_family_text(args.family)
        value, index = kusuoka_value(dist, family)
        payload = {
            "operation": "kusuoka_value",
            "value": value,
            "argmin_index": index,
            "log_condition": check_family_condition(family),
        }
        text = f"{_fmt(value)} argmin={index}"
    if not math.isfinite(value):
        raise ConfigError(payload["operation"], f"the value is not finite, got {value!r}")
    print(json.dumps(payload) if args.json else text)
    return EXIT_OK


def _cmd_limit(args) -> int:
    if (args.mu is None) == (args.family is None):
        raise ConfigError("limit", "exactly one of --mu, --family is required")
    # The operation names the paper's theorem: 1 for a mixture, 2 for a family.
    if args.mu is not None:
        preference, theorem = parse_mixture_text(args.mu), 1
    else:
        preference, theorem = parse_family_text(args.family), 2
    value = theorem1_limit(args.sigma, preference)
    payload = {"operation": f"theorem{theorem}_limit", "sigma": args.sigma, "value": value}
    print(json.dumps(payload) if args.json else _fmt(value))
    return EXIT_OK


def curve_to_dict(config_dict: dict, digest: str, curve: PremiumCurve, comparison: LimitComparison) -> dict:
    """curve.json: each point is its :class:`CurvePoint` fields plus the
    unscaled premium and its comparison row; a non-finite z-score is its repr."""
    points = [
        {
            **asdict(point),
            "unscaled_premium": point.estimate / math.sqrt(point.n),
            "abs_gap": row.abs_gap,
            "z_score": row.z_score if math.isfinite(row.z_score) else repr(row.z_score),
        }
        for point, row in zip(curve.points, comparison.rows)
    ]
    return {
        "config": config_dict,
        "config_hash": digest,
        "master_seed": config_dict["master_seed"],
        "limit": curve.limit,
        "points": points,
        "rate_fit": None if curve.rate_fit is None else asdict(curve.rate_fit),
        "trend_ok": comparison.trend_ok,
        "note": comparison.note,
    }


def write_curve(
    out_dir: Path, config_dict: dict, digest: str, curve: PremiumCurve, comparison: LimitComparison
) -> None:
    """Make ``out_dir`` and write ``curve.csv`` and ``curve.json`` into it.

    The one writer of both files, whose bytes are pinned across thread counts.
    """
    lines = ["n,estimate,stderr,limit,abs_gap,z_score"]
    for point, row in zip(curve.points, comparison.rows):
        fields = (point.estimate, point.stderr, curve.limit, row.abs_gap, row.z_score)
        lines.append(",".join([str(point.n), *map(_repr_float, fields)]))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "curve.csv").write_text("\n".join(lines) + "\n")
    (out_dir / "curve.json").write_text(
        json.dumps(curve_to_dict(config_dict, digest, curve, comparison), indent=2) + "\n"
    )


@functools.cache
def _machine() -> dict:
    """Interpreter and host facts for the manifest, read on first use and
    kept for the process: ``platform.platform()`` reads the interpreter
    binary on its first call, about 9 ms."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


def _cmd_premium_curve(args) -> int:
    config_path = Path(args.config)
    try:
        text = config_path.read_text()
    except FileNotFoundError as exc:
        raise ConfigError("config", f"no such file: {config_path}") from exc
    except OSError as exc:
        raise ConfigError("config", f"cannot read {config_path}: {exc.strerror or exc}") from exc
    raw = _read_json(text, "config")
    config = experiment_config_from_dict(raw)
    if args.seed is not None:
        config = with_master_seed(config, args.seed)
    elif "master_seed" not in raw and os.environ.get(SEED_ENV_VAR) is not None:
        config = with_master_seed(config, _resolve_seed(None))
    # A file where the output directory or one of its parents should go is
    # refused before sampling.
    out_dir = Path(args.out_dir)
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError("out-dir", f"not a directory: {existing}")

    started = datetime.now(timezone.utc).isoformat()
    curve = run_curve(config, threads=args.threads)
    finished = datetime.now(timezone.utc).isoformat()
    comparison = compare_to_limit(curve)

    config_dict = experiment_config_to_dict(config)
    digest = config_hash(config_dict)
    manifest = {  # provenance written alongside every result file
        "tool": "riskpool",
        "tool_version": __version__,
        "master_seed": config.master_seed,
        "config_hash": digest,
        "started_at": started,
        "finished_at": finished,
        "argv": args.argv,
        "threads": args.threads,
        "machine": _machine(),
        "config": config_dict,
    }
    # Made only now, so a run that fails leaves no empty directory behind.
    try:
        write_curve(out_dir, config_dict, digest, curve, comparison)
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    except OSError as exc:
        raise ConfigError("out-dir", f"cannot write {exc.filename or out_dir}: {exc.strerror or exc}") from exc

    print(f"curve written to {out_dir} (limit {_fmt(curve.limit)})")
    if not comparison.trend_ok:
        print("trend check failed: |estimate - limit| not nonincreasing "
              "over the last three pool sizes", file=sys.stderr)
        return EXIT_TREND
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials < 0:
        raise ConfigError("trials", "must be nonnegative")
    seed = _resolve_seed(args.seed)
    RngSpec(seed)  # rejects a seed outside [0, 2**64), even when no trial runs
    if args.trials == 0:
        print("warning: 0 trials requested; vacuous pass")
        return EXIT_OK
    suite = run_duality_suite if args.suite == "duality" else run_property_suite
    failed = False
    for result in suite(args.trials, seed):
        status = "ok" if result.passed else "FAIL"
        print(
            f"{result.name}: {result.trials} trials, {result.failures} failures, "
            f"worst error {result.worst_error:.3e} [{status}]"
        )
        if not result.passed:
            failed = True
            instance = {"property": result.name, **result.counterexample}
            if not math.isfinite(instance["violation"]):  # strict JSON, as curve.json's z_score
                instance["violation"] = repr(float(instance["violation"]))
            print("minimal failing instance: " + json.dumps(instance), file=sys.stderr)
    return EXIT_PROPERTY if failed else EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one ``riskpool`` parser of the process, built on first use.

    Building it takes about 0.8 ms, so :func:`main` reuses it on every call
    in a process: ``parse_args`` keeps its state in the namespace it
    returns and never changes the parser. Callers share this instance and
    must not mutate it.
    """
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="machine-readable output")
    seed_flag = argparse.ArgumentParser(add_help=False)
    seed_flag.add_argument("--seed", type=int, default=None,
                           help=f"master seed in [0, 2**64) (fallback: ${SEED_ENV_VAR})")

    parser = argparse.ArgumentParser(
        prog="riskpool",
        description="Law-invariant risk measures and pooled premium experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", parents=[json_flag],
                             help="evaluate a tail average, mixture, or family value")
    measure.add_argument("--dist", required=True,
                         help="distribution JSON or the shorthand 'normal01'")
    measure.add_argument("--lambda", dest="tail_level", type=float, default=None,
                         help="tail level for a single building block")
    measure.add_argument("--mu", default=None,
                         help="mixture: JSON, 'deltaL', 'grid:K', or 'w@L + w@L'")
    measure.add_argument("--family", default=None,
                         help="family: JSON or '{deltaL, w@L + w@L, ...}'")
    measure.set_defaults(func=_cmd_measure)

    limit = sub.add_parser("limit", parents=[json_flag],
                           help="closed-form limit of the scaled pooled premium")
    limit.add_argument("--sigma", type=float, required=True,
                       help="single-risk standard deviation")
    limit.add_argument("--mu", default=None, help="mixture shorthand or JSON")
    limit.add_argument("--family", default=None, help="family shorthand or JSON")
    limit.set_defaults(func=_cmd_limit)

    curve = sub.add_parser("premium-curve", parents=[seed_flag],
                           help="run a premium-curve experiment from a config file")
    curve.add_argument("--config", required=True, help="experiment config JSON path")
    curve.add_argument("--out-dir", default=".", help="directory for result files")
    curve.add_argument("--threads", type=int, default=1,
                       help="worker threads (speed only, never results)")
    curve.set_defaults(func=_cmd_premium_curve)

    verify = sub.add_parser("verify", parents=[seed_flag],
                            help="randomized self-checks of the measure implementations")
    verify.add_argument("suite", choices=("duality", "properties"))
    verify.add_argument("--trials", type=int, default=1000)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    # A domain abort is a ValueError too, so it is caught first; a
    # ConfigError is one of the ValueErrors below.
    except UtilityDomainError as exc:
        print(f"utility-domain abort: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
