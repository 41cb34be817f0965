"""Tail-average building blocks, distortion mixtures, and worst-case families.

The building block at level lam averages the lower lam-tail of the quantile
function, avar(X, lam) = (1/lam) * integral of q_X over (0, lam]; lam = 1
is the plain mean. A mixture weights building blocks by a finite probability
measure on (0, 1]; a family takes the smallest mixture value over a finite
set of such measures. On finite discrete laws the building block is
certified by a greedy solution of the dual program over densities bounded
by 1/lam.

All functions are pure over immutable inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import DiscreteDistribution, Distribution, _check_tail

_WEIGHT_SUM_TOL = 1e-12
# One array tail-integral call costs about as much as five scalar ones
# (numpy's fixed cost per call: 11 µs against 2.1 µs per level on laws of
# 12 and 5000 atoms, 2-core x86-64 VM, numpy 2.4), so mixtures with fewer
# levels call per level.
_ARRAY_LEVELS = 6


def _level_arrays(atoms) -> tuple[np.ndarray, np.ndarray] | None:
    """Read-only (levels, weights) arrays of (level, weight) atoms, or None
    below ``_ARRAY_LEVELS`` atoms, where levels are evaluated one by one."""
    if len(atoms) < _ARRAY_LEVELS:
        return None
    levels, weights = np.array(atoms).T.copy()
    levels.flags.writeable = weights.flags.writeable = False
    return levels, weights


def _family_atoms(members):
    """Every member's (level, weight) atoms in one run, in member order."""
    return itertools.chain.from_iterable(m.atoms for m in members)


def _terms(dist: Distribution, atoms, arrays) -> list[float]:
    """weight * avar(dist, level) per atom, each bit for bit; ``arrays``
    is ``_level_arrays(atoms)``, and ``atoms`` is read only when it is None."""
    if arrays is None:
        return [w * (dist._tail_integral(lam) / lam) for lam, w in atoms]
    levels, weights = arrays
    return (weights * (dist._tail_integrals(levels) / levels)).tolist()


@dataclass(frozen=True)
class MixtureMeasure:
    """Finite probability measure on (0, 1], as (level, weight) atoms.

    Atoms are deduplicated (weights at equal levels merged) and sorted by
    level. An atom at level 0 is rejected: the essential infimum is not an
    admissible building block inside a mixture (its log-integrability
    diagnostic would be infinite); see :func:`essential_infimum` for the
    standalone functional.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        try:
            pairs = [(float(lam), float(w)) for lam, w in self.atoms]
        except (TypeError, ValueError) as exc:
            raise ValueError("atoms must be (level, weight) pairs") from exc
        if not pairs:
            raise ValueError("at least one atom is required")
        for lam, w in pairs:
            if not 0.0 < lam <= 1.0 or math.isnan(lam):
                raise ValueError(
                    f"mixture atoms must have levels in (0, 1], got {lam!r}; "
                    "an atom at 0 is outside the supported class"
                )
            if not w > 0.0 or math.isinf(w):
                raise ValueError("atom weights must be strictly positive and finite")
        total = math.fsum(w for _, w in pairs)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        merged: dict[float, float] = {}
        for lam, w in pairs:
            merged[lam] = merged.get(lam, 0.0) + w
        atoms = tuple(sorted((lam, w) for lam, w in merged.items()))
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def point(cls, lam: float) -> "MixtureMeasure":
        """Point mass at a single tail level."""
        return cls(((lam, 1.0),))

    @classmethod
    def equal_weight_grid(cls, points: int) -> "MixtureMeasure":
        """Equal weights 1/K at the midpoint levels (i - 1/2)/K, i = 1..K.

        Discretizer for callers holding a continuous mixing measure; the
        grid is entirely inside (0, 1) so the log diagnostic stays finite.
        """
        if points < 1:
            raise ValueError("grid needs at least one point")
        return cls(tuple(((i + 0.5) / points, 1.0 / points) for i in range(points)))


DELTA_ONE = MixtureMeasure.point(1.0)


@dataclass(frozen=True)
class KusuokaFamily:
    """Nonempty finite set of mixture measures, evaluated by their minimum."""

    members: tuple[MixtureMeasure, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("family must contain at least one member")
        for m in members:
            if not isinstance(m, MixtureMeasure):
                raise ValueError("family members must be MixtureMeasure instances")
        object.__setattr__(self, "members", members)
        # Every member's levels in one run, so one search covers the family;
        # member i owns terms[ends[i-1]:ends[i]]. Not fields, so equality,
        # hashing and repr see the members alone.
        object.__setattr__(self, "_ends", tuple(itertools.accumulate(len(m.atoms) for m in members)))
        object.__setattr__(self, "_arrays", _level_arrays(tuple(_family_atoms(members))))


@dataclass(frozen=True)
class DualSolution:
    """Optimal density dQ/dP per atom of a discrete law, and its value."""

    density: tuple[float, ...]
    value: float


def avar(dist: Distribution, lam: float) -> float:
    """Building-block value (1/lam) * integral of q_X over (0, lam].

    At lam = 1 this is the mean. Decreasing lam weighs the lower tail more
    heavily, so the value is nondecreasing in lam and never above the mean.
    """
    lam = _check_tail(lam)
    return dist._tail_integral(lam) / lam


def essential_infimum(dist: Distribution) -> float:
    """Worst outcome (quantile at 0); the lam -> 0 limit of :func:`avar`.

    Standalone convenience only: not admissible as a mixture atom.
    """
    return dist.quantile(0.0)


def mixture_value(dist: Distribution, mu: MixtureMeasure) -> float:
    """Weighted sum of building blocks over the atoms of mu.

    Each term is the weight times :func:`avar` at its level, bit for bit,
    and the terms are summed exactly. The levels were checked by the
    measure, so each is read straight from the law's tail integral; from
    ``_ARRAY_LEVELS`` levels up, one array call covers every level.
    """
    return math.fsum(_terms(dist, mu.atoms, _level_arrays(mu.atoms)))


def kusuoka_value(dist: Distribution, family: KusuokaFamily) -> tuple[float, int]:
    """Smallest mixture value over the family, with the argmin member index.

    Each member value equals :func:`mixture_value`, bit for bit: the same
    terms, summed exactly. The terms of all members come from one pass over
    the family's levels, one array call from ``_ARRAY_LEVELS`` levels in
    total up. Ties resolve to the first member in declaration order.
    """
    terms = _terms(dist, _family_atoms(family.members), family._arrays)
    best_value = math.inf
    best_index = 0
    for i, (start, stop) in enumerate(zip((0,) + family._ends, family._ends)):
        value = math.fsum(terms[start:stop])
        if value < best_value:
            best_value = value
            best_index = i
    return best_value, best_index


def preference_value(dist: Distribution, preference: MixtureMeasure | KusuokaFamily) -> float:
    """Value of a law under a mixture, or under a family (its smallest
    member value): the one place that tells the two preference kinds apart."""
    if isinstance(preference, KusuokaFamily):
        return kusuoka_value(dist, preference)[0]
    return mixture_value(dist, preference)


def dual_avar_discrete(dist: DiscreteDistribution, lam: float) -> DualSolution:
    """Greedy optimum of min E_Q[X] over densities dQ/dP <= 1/lam.

    Atom i can absorb Q-mass at most p_i/lam; filling from the smallest
    outcome until total Q-mass 1 is reached (fractional density on the
    marginal atom, zero above) attains the optimum, and the value equals
    :func:`avar` up to rounding.
    """
    lam = _check_tail(lam)
    probs = dist._masses
    q_mass = np.zeros(probs.size)
    remaining = 1.0
    for i, cap in enumerate((probs / lam).tolist()):
        take = min(cap, remaining)
        q_mass[i] = take
        remaining -= take
        if remaining <= 0.0:
            break
    value = float((q_mass * dist._atoms).sum())
    return DualSolution(tuple((q_mass / probs).tolist()), value)


def check_log_condition(mu: MixtureMeasure) -> float:
    """Log-integrability diagnostic: sum of weight * log(1/level).

    Finite by construction for atomic measures on (0, 1]; reported so that
    grids pushed toward 0 can be monitored.
    """
    return math.fsum(w * math.log(1.0 / lam) for lam, w in mu.atoms)


def check_family_condition(family: KusuokaFamily) -> float:
    """Largest member log diagnostic; finite for every finite family."""
    return max(check_log_condition(mu) for mu in family.members)
