"""JSON wire formats for laws, measures, utilities, and experiment configs.

Every law and utility family is one row of a wire table, which both
parses and writes it; a new law kind is one more row. Every parser
reports failures through :class:`ConfigError` carrying the path of the
offending field (``distribution.sd``, ``mixture.atoms[1].weight``, ...);
a constructor's or parser's ``ValueError`` reaches it through
:func:`reported_at`, the one place that rule is written.
A key that no parser reads is an error at every level, so a misspelt
optional field cannot quietly take its default. Serialization emits plain
dicts whose floats round-trip exactly through ``json``
(shortest-representation encoding), so parse -> serialize -> parse is a
fixed point; the input-only ``bernoulli`` row is written back as the
``two_point`` law it builds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math

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


def reported_at(path: str, make, /, *args, message: str | None = None, **kwargs):
    """``make(*args, **kwargs)``, whose ValueError becomes a ConfigError
    at ``path``: the error's own text, or ``message`` when one is given."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, message or str(exc)) from exc


def _as_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _check_fields(obj, keys, path):
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}.{key}", "unknown field")


def _get(obj, key, path):
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required field")
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


def _floats(value, path):
    return tuple(_as_float(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path)))


def _bernoulli(p: float, loc: float = 0.0, scale: float = 1.0) -> TwoPoint:
    """Input alias: loc + scale * B, with B a p-coin, is a two-point law."""
    if not (0.0 < p < 1.0 and math.isfinite(loc) and loc < loc + scale < math.inf):
        raise ValueError("bernoulli law requires 0 < p < 1 and scale > 0")
    return TwoPoint(loc, loc + scale, p)


def _wire_table(entries) -> dict:
    """Wire name -> (constructor, ((wire key, argument, parser, required), ...)).

    A field is a single number unless its entry names a parser; whether an
    argument is required is read once, from the constructor's signature.
    """
    table = {}
    for name, (make, pairs) in entries.items():
        params = inspect.signature(make).parameters
        table[name] = make, tuple(
            (key, arg, parser[0] if parser else _as_float, params[arg].default is inspect.Parameter.empty)
            for key, arg, *parser in pairs
        )
    return table


# Each family's constructor and its (wire key, constructor argument[,
# parser]) fields, in serialization order. A key may be omitted exactly when
# the constructor gives its argument a default, so every default is held
# once, by the constructor. A row is written back only for a value whose
# type is its constructor, so ``bernoulli`` is read but written as
# ``two_point``.
_LAWS = _wire_table({
    "normal": (Normal, (("mean", "loc"), ("sd", "scale"))),
    "uniform": (Uniform, (("low", "low"), ("high", "high"))),
    "exponential": (Exponential, (("rate", "rate"), ("shift", "shift"))),
    "two_point": (TwoPoint, (("low", "low"), ("high", "high"), ("p_high", "p_high"))),
    "discrete": (DiscreteDistribution, (("outcomes", "outcomes", _floats),
                                        ("probs", "probabilities", _floats))),
    "empirical": (EmpiricalSample, (("values", "values", _floats),)),
    "bernoulli": (_bernoulli, (("p", "p"), ("loc", "loc"), ("scale", "scale"))),
})
_UTILITIES = _wire_table({
    "linear": (LinearUtility, (("slope", "slope"), ("intercept", "intercept"))),
    "cara": (CaraUtility, (("alpha", "alpha"),)),
    "log": (LogUtility, (("shift", "shift"),)),
    "crra": (CrraUtility, (("gamma", "gamma"), ("shift", "shift"))),
})


def _from_wire(table, obj, path):
    obj = _as_mapping(obj, path)
    family = _get(obj, "family", path)
    if not (isinstance(family, str) and family in table):
        raise ConfigError(f"{path}.family", f"unknown family {family!r}")
    make, fields = table[family]
    _check_fields(obj, ("family", *(key for key, *_ in fields)), path)
    kwargs = {}
    for key, arg, parse, required in fields:
        if key in obj or required:
            kwargs[arg] = parse(_get(obj, key, path), f"{path}.{key}")
    return reported_at(path, make, **kwargs)


def _listed(value):
    return list(value) if isinstance(value, tuple) else value


def _to_wire(table, value, kind: str) -> dict:
    for family, (make, fields) in table.items():
        if type(value) is make:
            return {"family": family, **{key: _listed(getattr(value, arg)) for key, arg, *_ in fields}}
    raise TypeError(f"unsupported {kind} type {type(value).__name__}")


def dist_from_dict(obj, path: str = "distribution") -> Distribution:
    return _from_wire(_LAWS, obj, path)


def dist_to_dict(dist: Distribution) -> dict:
    return _to_wire(_LAWS, dist, "distribution")


def mixture_from_dict(obj, path: str = "mixture") -> MixtureMeasure:
    obj = _as_mapping(obj, path)
    _check_fields(obj, ("atoms",), path)
    atoms = []
    for i, atom in enumerate(_as_list(_get(obj, "atoms", path), f"{path}.atoms")):
        atom = _as_mapping(atom, f"{path}.atoms[{i}]")
        _check_fields(atom, ("lambda", "weight"), f"{path}.atoms[{i}]")
        lam = _as_float(_get(atom, "lambda", f"{path}.atoms[{i}]"), f"{path}.atoms[{i}].lambda")
        weight = _as_float(_get(atom, "weight", f"{path}.atoms[{i}]"), f"{path}.atoms[{i}].weight")
        atoms.append((lam, weight))
    return reported_at(f"{path}.atoms", MixtureMeasure, tuple(atoms))


def mixture_to_dict(mu: MixtureMeasure) -> dict:
    return {"atoms": [{"lambda": lam, "weight": w} for lam, w in mu.atoms]}


def family_from_dict(obj, path: str = "family") -> KusuokaFamily:
    obj = _as_mapping(obj, path)
    _check_fields(obj, ("members",), path)
    members = [
        mixture_from_dict(m, f"{path}.members[{i}]")
        for i, m in enumerate(_as_list(_get(obj, "members", path), f"{path}.members"))
    ]
    return reported_at(f"{path}.members", KusuokaFamily, tuple(members))


def family_to_dict(family: KusuokaFamily) -> dict:
    return {"members": [mixture_to_dict(m) for m in family.members]}


def utility_from_dict(obj, path: str = "utility") -> UtilityFunction:
    return _from_wire(_UTILITIES, obj, path)


def utility_to_dict(u: UtilityFunction) -> dict:
    return _to_wire(_UTILITIES, u, "utility")


def experiment_config_from_dict(obj, path: str = "config") -> ExperimentConfig:
    obj = _as_mapping(obj, path)
    # The wire keys are the dataclass's field names.
    _check_fields(obj, [f.name for f in dataclasses.fields(ExperimentConfig)], path)
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
    return reported_at(
        path, ExperimentConfig,
        distribution=distribution, utility=utility, mixture=mixture, family=family, **optional,
    )


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


def config_hash(config_dict: dict) -> str:
    """SHA-256 of the canonical JSON of a config's wire dict, as
    :func:`experiment_config_to_dict` gives it: every semantically
    meaningful field, no speed knobs."""
    payload = json.dumps(config_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def with_master_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    return dataclasses.replace(config, master_seed=seed)
