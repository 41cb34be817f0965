"""JSON wire formats for laws, measures, utilities, and experiment configs.

Every parser reports failures through :class:`ConfigError` carrying the
path of the offending field (``distribution.sd``, ``mixture.atoms[1].weight``,
...). Serialization emits plain dicts whose floats round-trip exactly
through ``json`` (shortest-representation encoding), so parse -> serialize
-> parse is a fixed point.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .distributions import (
    DiscreteDistribution,
    Distribution,
    EmpiricalSample,
    Exponential,
    Normal,
    TwoPoint,
    Uniform,
)
from .mc_engine import ExperimentConfig
from .preferences import (
    CaraUtility,
    CrraUtility,
    LinearUtility,
    LogUtility,
    UtilityFunction,
)
from .risk_measures import KusuokaFamily, MixtureMeasure


class ConfigError(ValueError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


_MISSING = object()


def _as_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _get(obj, key, path, default=_MISSING):
    if key not in obj:
        if default is _MISSING:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    return obj[key]


def _as_float(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _as_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _as_list(value, path):
    if not isinstance(value, list):
        raise ConfigError(path, f"expected a list, got {type(value).__name__}")
    return value


def dist_from_dict(obj, path: str = "distribution") -> Distribution:
    obj = _as_mapping(obj, path)
    family = _get(obj, "family", path)
    try:
        if family == "discrete":
            outcomes = [_as_float(v, f"{path}.outcomes[{i}]") for i, v in enumerate(_as_list(_get(obj, "outcomes", path), f"{path}.outcomes"))]
            probs = [_as_float(v, f"{path}.probs[{i}]") for i, v in enumerate(_as_list(_get(obj, "probs", path), f"{path}.probs"))]
            return DiscreteDistribution(tuple(outcomes), tuple(probs))
        if family == "normal":
            return Normal(
                _as_float(_get(obj, "mean", path), f"{path}.mean"),
                _as_float(_get(obj, "sd", path), f"{path}.sd"),
            )
        if family == "uniform":
            return Uniform(
                _as_float(_get(obj, "low", path), f"{path}.low"),
                _as_float(_get(obj, "high", path), f"{path}.high"),
            )
        if family == "bernoulli":
            # Input alias: loc + scale * B with B a p-coin is a two-point law.
            p = _as_float(_get(obj, "p", path), f"{path}.p")
            loc = _as_float(_get(obj, "loc", path, 0.0), f"{path}.loc")
            scale = _as_float(_get(obj, "scale", path, 1.0), f"{path}.scale")
            if not (0.0 < p < 1.0 and math.isfinite(loc) and loc < loc + scale < math.inf):
                raise ValueError("bernoulli law requires 0 < p < 1 and scale > 0")
            return TwoPoint(loc, loc + scale, p)
        if family == "exponential":
            return Exponential(
                _as_float(_get(obj, "rate", path), f"{path}.rate"),
                _as_float(_get(obj, "shift", path, 0.0), f"{path}.shift"),
            )
        if family == "two_point":
            return TwoPoint(
                _as_float(_get(obj, "low", path), f"{path}.low"),
                _as_float(_get(obj, "high", path), f"{path}.high"),
                _as_float(_get(obj, "p_high", path), f"{path}.p_high"),
            )
        if family == "empirical":
            values = [_as_float(v, f"{path}.values[{i}]") for i, v in enumerate(_as_list(_get(obj, "values", path), f"{path}.values"))]
            return EmpiricalSample(values)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.family", f"unknown family {family!r}")


def dist_to_dict(dist: Distribution) -> dict:
    if isinstance(dist, TwoPoint):
        return {"family": "two_point", "low": dist.low, "high": dist.high, "p_high": dist.p_high}
    if isinstance(dist, EmpiricalSample):
        return {"family": "empirical", "values": list(dist.values)}
    if isinstance(dist, DiscreteDistribution):
        return {"family": "discrete", "outcomes": list(dist.outcomes), "probs": list(dist.probabilities)}
    if isinstance(dist, Normal):
        return {"family": "normal", "mean": dist.loc, "sd": dist.scale}
    if isinstance(dist, Uniform):
        return {"family": "uniform", "low": dist.low, "high": dist.high}
    if isinstance(dist, Exponential):
        return {"family": "exponential", "rate": dist.rate, "shift": dist.shift}
    raise TypeError(f"unsupported distribution type {type(dist).__name__}")


def mixture_from_dict(obj, path: str = "mixture") -> MixtureMeasure:
    obj = _as_mapping(obj, path)
    atoms = []
    for i, atom in enumerate(_as_list(_get(obj, "atoms", path), f"{path}.atoms")):
        atom = _as_mapping(atom, f"{path}.atoms[{i}]")
        lam = _as_float(_get(atom, "lambda", f"{path}.atoms[{i}]"), f"{path}.atoms[{i}].lambda")
        weight = _as_float(_get(atom, "weight", f"{path}.atoms[{i}]"), f"{path}.atoms[{i}].weight")
        atoms.append((lam, weight))
    try:
        return MixtureMeasure(tuple(atoms))
    except ValueError as exc:
        raise ConfigError(f"{path}.atoms", str(exc)) from exc


def mixture_to_dict(mu: MixtureMeasure) -> dict:
    return {"atoms": [{"lambda": lam, "weight": w} for lam, w in mu.atoms]}


def family_from_dict(obj, path: str = "family") -> KusuokaFamily:
    obj = _as_mapping(obj, path)
    members = [
        mixture_from_dict(m, f"{path}.members[{i}]")
        for i, m in enumerate(_as_list(_get(obj, "members", path), f"{path}.members"))
    ]
    try:
        return KusuokaFamily(tuple(members))
    except ValueError as exc:
        raise ConfigError(f"{path}.members", str(exc)) from exc


def family_to_dict(family: KusuokaFamily) -> dict:
    return {"members": [mixture_to_dict(m) for m in family.members]}


def utility_from_dict(obj, path: str = "utility") -> UtilityFunction:
    obj = _as_mapping(obj, path)
    family = _get(obj, "family", path)
    try:
        if family == "linear":
            return LinearUtility(
                _as_float(_get(obj, "slope", path, 1.0), f"{path}.slope"),
                _as_float(_get(obj, "intercept", path, 0.0), f"{path}.intercept"),
            )
        if family == "cara":
            return CaraUtility(_as_float(_get(obj, "alpha", path), f"{path}.alpha"))
        if family == "log":
            return LogUtility(_as_float(_get(obj, "shift", path, 0.0), f"{path}.shift"))
        if family == "crra":
            return CrraUtility(
                _as_float(_get(obj, "gamma", path), f"{path}.gamma"),
                _as_float(_get(obj, "shift", path, 0.0), f"{path}.shift"),
            )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.family", f"unknown family {family!r}")


def utility_to_dict(u: UtilityFunction) -> dict:
    if isinstance(u, LinearUtility):
        return {"family": "linear", "slope": u.slope, "intercept": u.intercept}
    if isinstance(u, CaraUtility):
        return {"family": "cara", "alpha": u.alpha}
    if isinstance(u, LogUtility):
        return {"family": "log", "shift": u.shift}
    if isinstance(u, CrraUtility):
        return {"family": "crra", "gamma": u.gamma, "shift": u.shift}
    raise TypeError(f"unsupported utility type {type(u).__name__}")


def experiment_config_from_dict(obj, path: str = "config") -> ExperimentConfig:
    obj = _as_mapping(obj, path)
    if ("mixture" in obj) == ("family" in obj):
        raise ConfigError(path, "exactly one of 'mixture' and 'family' must be given")
    mixture = mixture_from_dict(obj["mixture"], f"{path}.mixture") if "mixture" in obj else None
    family = family_from_dict(obj["family"], f"{path}.family") if "family" in obj else None
    # Only the fields the file gives are passed on: ExperimentConfig holds
    # the one copy of every default.
    optional = {}
    if "exact" in obj:
        if obj["exact"] is not None and not isinstance(obj["exact"], bool):
            raise ConfigError(f"{path}.exact", "expected true, false, or null")
        optional["exact"] = obj["exact"]
    if "n_grid" in obj:
        optional["n_grid"] = tuple(
            _as_int(n, f"{path}.n_grid[{i}]")
            for i, n in enumerate(_as_list(obj["n_grid"], f"{path}.n_grid"))
        )
    distribution = dist_from_dict(_get(obj, "distribution", path), f"{path}.distribution")
    utility = utility_from_dict(_get(obj, "utility", path), f"{path}.utility")
    for key, parse in (
        ("wealth", _as_float),
        ("replications", _as_int),
        ("batches", _as_int),
        ("master_seed", _as_int),
    ):
        if key in obj:
            optional[key] = parse(obj[key], f"{path}.{key}")
    try:
        return ExperimentConfig(
            distribution=distribution, utility=utility, mixture=mixture, family=family, **optional
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def experiment_config_to_dict(config: ExperimentConfig) -> dict:
    out = {
        "distribution": dist_to_dict(config.distribution),
        "utility": utility_to_dict(config.utility),
        "wealth": config.wealth,
        "n_grid": list(config.n_grid),
        "replications": config.replications,
        "batches": config.batches,
        "master_seed": config.master_seed,
        "exact": config.exact,
    }
    if config.mixture is not None:
        out["mixture"] = mixture_to_dict(config.mixture)
    else:
        out["family"] = family_to_dict(config.family)
    return out


def with_master_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(config, master_seed=seed)
