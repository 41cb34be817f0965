"""Laws of a single risk and of pooled averages.

Every finite law is a :class:`DiscreteDistribution`: nondecreasing atoms
with their masses and cumulative masses, held as read-only arrays.
Empirical samples (equal masses 1/k) and two-point laws are the same
representation with their own constructors, so quantiles, tail integrals,
moments, translation and sampling are written once. The parametric
families (normal, uniform, exponential) use closed forms. Quantile
functions follow the left-continuous convention
q(t) = inf{m : P[X <= m] >= t}; integration of the quantile over a lower
tail is exact (up to rounding) for finite laws and closed-form for every
parametric family. All types are immutable and all operations are pure
given their inputs and an :class:`RngSpec`; a pool size's sampler holds
what it needs (a lattice pool law, say) and nothing else keeps it.

Unbounded laws (normal, exponential) are admitted even though the limit
theory is phrased for bounded risks; the only operational consequence is
that the quantile at level 0 is an error for laws unbounded below.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .normal import inv_normal_cdf, normal_pdf

_PROB_SUM_TOL = 1e-12
# Slack used when locating a probability level among cumulative atom
# masses, so binary rounding in cumulative sums cannot flip an atom
# boundary (q(0.3) on ten equal atoms must hit the third, not the fourth).
_LEVEL_TOL = 1e-12

# Block size, in draws or in multinomial counts, for pooled sampling;
# bounds peak memory at ~64 MB of 8-byte values.
_POOL_CHUNK = 1 << 23
# Longest FFT window of a lattice pool law. Building the law holds about
# four 8-byte values per window entry at once, so this keeps the same
# ~64 MB peak.
_POOL_WINDOW = _POOL_CHUNK // 4
# A lattice pool sum is drawn from a window around its mean that, by
# Hoeffding's inequality, leaves out at most this much mass.
_POOL_TAIL_MASS = 2.0**-60
# Building a lattice pool law costs about 0.11 us per FFT entry, once per
# pool size; drawing multinomial counts costs 0.06-0.3 us per atom and
# replicate (more at larger n), a lattice draw about 0.03 us. At the 100 000
# replicates per pool size of the default and shipped configs, whole curves
# (n = 4-256, 3 and 10 atoms, FFTs of 2**16-2**21 entries) ran faster on the
# lattice in every case up to 0.52 FFT entries per atom and replicate, and
# faster on counts in every case from 2.1 on (2-core x86-64 VM, numpy 2.4;
# scripts/pool_crossover.py). So, from two copies on, an FFT longer than
# this many entries per atom draws counts instead: units {0, 1, 2**19 - 1}
# at n = 4 would build 2**21 entries to keep 15 sums. A config drawing
# far more replicates per pool size could gain from a longer FFT.
_POOL_ENTRIES_PER_ATOM = 200_000
# FFT rounding leaves noise near 1e-16 on every entry of a lattice pool pmf,
# impossible sums included; entries at or below this floor are dropped.
_FFT_FLOOR = 1e-13


def _check_level(t: float, name: str = "t") -> float:
    t = float(t)
    if not 0.0 <= t <= 1.0 or math.isnan(t):
        raise ValueError(f"{name} must lie in [0, 1], got {t!r}")
    return t


def _check_tail(lam) -> float:
    """A tail level in (0, 1] as a float."""
    lam = float(lam)
    if not 0.0 < lam <= 1.0 or math.isnan(lam):
        raise ValueError(f"tail level must lie in (0, 1], got {lam!r}")
    return lam


@dataclass(frozen=True)
class RngSpec:
    """Counter-based random stream identified by (master_seed, stream_id).

    Streams are realized as Philox generators keyed by the pair, so
    identical specs yield identical draws regardless of execution order,
    thread count, or how many other streams were consumed in between.
    Both fields are Philox key words in [0, 2**64).

    The sorted standard normals and sorted uniforms at the head of the
    stream are drawn once, on first use, and kept read-only for as long as
    the spec lives; equality, hashing and repr see only the key. Threads
    that race on a kept draw store equal arrays.
    """

    master_seed: int
    stream_id: int = 0
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 1 << 64:
                raise ValueError(f"{name} must be an integer in [0, 2**64)")

    def generator(self) -> np.random.Generator:
        """A fresh generator at the head of the stream."""
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def sorted_uniforms(self, count: int) -> np.ndarray:
        """``np.sort(self.generator().random(count))``, drawn once."""
        return self._sorted_base("random", count)

    def sorted_normals(self, count: int) -> np.ndarray:
        """``np.sort(self.generator().standard_normal(count))``, drawn once."""
        return self._sorted_base("standard_normal", count)

    def _sorted_base(self, method: str, count: int) -> np.ndarray:
        draw = self._kept.get((method, count))
        if draw is None:
            draw = np.sort(getattr(self.generator(), method)(count))
            draw.setflags(write=False)
            self._kept[method, count] = draw
        return draw


@dataclass(frozen=True)
class PoolSampler:
    """How a law draws the average of n i.i.d. copies: ``method`` names it,
    as a curve point records it, and ``draw(rng, count)`` returns count draws
    in nondecreasing order from the head of ``rng``'s stream, sorting only
    what it did not draw sorted."""

    method: str
    draw: Callable[[RngSpec, int], np.ndarray]


class Distribution:
    """Interface shared by all supported laws."""

    def quantile(self, t: float) -> float:
        """Left-continuous quantile q(t) = inf{m : P[X <= m] >= t}.

        t = 0 returns the essential infimum; on laws unbounded below this
        is an error rather than a -inf sentinel.
        """
        raise NotImplementedError

    def _ppf(self, t):
        """Quantile at levels strictly inside (0, 1), elementwise on arrays: the
        one inverse CDF, called by :meth:`quantile` and :func:`quantile_grid_sample`."""
        raise NotImplementedError

    def lower_quantile_integral(self, lam: float) -> float:
        """Integral of the quantile function over (0, lam], lam in (0, 1]."""
        return self._tail_integral(_check_tail(lam))

    def _tail_integral(self, lam: float) -> float:
        """:meth:`lower_quantile_integral` at one checked level."""
        raise NotImplementedError

    def _tail_integrals(self, lam: np.ndarray) -> np.ndarray:
        """:meth:`lower_quantile_integral` at an array of checked levels,
        each equal bit for bit to the float its level gives alone; level by
        level unless a law has an array form."""
        return np.array([self._tail_integral(t) for t in lam.tolist()], dtype=float)

    def mean(self) -> float:
        raise NotImplementedError

    def variance(self) -> float:
        raise NotImplementedError

    def support_lower_bound(self) -> float:
        raise NotImplementedError

    def translate(self, c: float) -> "Distribution":
        """The law of X + c."""
        raise NotImplementedError

    def _draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def pool_sampler(self, n: int) -> PoolSampler:
        """The sampler of the average of n i.i.d. copies."""
        if n < 1:
            raise ValueError("pool size n must be >= 1")
        return self._pool_sampler(n)

    def _pool_sampler(self, n: int) -> PoolSampler:
        # Laws without an exact pooled sampler sum n draws per replicate, in
        # blocks of at most _POOL_CHUNK draws.
        def summed(rng: RngSpec, count: int) -> np.ndarray:
            gen = rng.generator()
            sums = np.zeros(count)
            rows = max(1, _POOL_CHUNK // n)
            for start in range(0, count, rows):
                stop = min(start + rows, count)
                block = self._draw(gen, (stop - start) * n).reshape(stop - start, n)
                sums[start:stop] = block.sum(axis=1)
            return np.sort(sums / n)

        return PoolSampler("summed draws", summed)

    def sample(self, rng: RngSpec, count: int) -> "EmpiricalSample":
        """count i.i.d. draws as an :class:`EmpiricalSample`.

        Discrete and empirical laws use inverse-transform sampling; the
        continuous parametric families use their native samplers. The same
        RngSpec always reproduces the same draws.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        return EmpiricalSample(self._draw(rng.generator(), count))


class DiscreteDistribution(Distribution):
    """Finite law on nondecreasing atoms with strictly positive masses.

    The constructor sorts the outcomes and merges duplicates. Atoms, masses
    and cumulative masses are stored as read-only float64 arrays; the
    prefix sums of mass x outcome are cached on first use, so every tail
    integral is one binary search. Laws derived by an order-preserving map
    (:meth:`translate`, a utility transform) skip the sort and may carry
    tied atoms. ``outcomes`` and ``probabilities`` are tuple views.
    """

    def __init__(self, outcomes, probabilities):
        out = np.asarray(outcomes, dtype=float)
        prob = np.asarray(probabilities, dtype=float)
        if out.ndim != 1 or prob.shape != out.shape:
            raise ValueError("outcomes and probabilities must be equal-length 1-d sequences")
        if out.size == 0:
            raise ValueError("at least one atom is required")
        order = out.argsort(kind="stable")
        out = out[order]
        # -inf sorts first, +inf and NaN last, so finite ends mean finite
        # atoms; checked before the merge, where a NaN would fold into its
        # neighbour.
        if not (math.isfinite(out[0]) and math.isfinite(out[-1])):
            raise ValueError("outcomes must be finite")
        if not prob.min() > 0.0:
            raise ValueError("probabilities must be strictly positive")
        # No accepted mass exceeds 2, so capping there changes no accepted
        # sum and keeps numpy's sum from overflowing and warning, more
        # cheaply than silencing it. A failed check takes the true total for
        # its message, and tells an infinite mass from finite masses whose
        # sum overflows.
        total = float(np.minimum(prob, 2.0).sum())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            with np.errstate(over="ignore"):
                total = float(prob.sum())
            if total == math.inf and prob.max() == math.inf:
                raise ValueError("probabilities must be strictly positive")
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        prob = prob[order]
        rising = out[1:] > out[:-1]
        if np.count_nonzero(rising) < rising.size:
            idx = np.flatnonzero(np.concatenate(([True], rising)))
            prob = np.add.reduceat(prob, idx)
            out = out[idx]
        self._fill(out, prob, np.add.accumulate(prob))

    def _fill(self, atoms: np.ndarray, masses: np.ndarray, cum: np.ndarray) -> None:
        atoms.setflags(write=False)
        masses.setflags(write=False)
        cum.setflags(write=False)
        self.__dict__.update(_atoms=atoms, _masses=masses, _cum=cum)

    @classmethod
    def _sorted(cls, atoms: np.ndarray, masses: np.ndarray, cum: np.ndarray):
        """Law of the given type on atoms already in nondecreasing order.

        Every atom is checked: the callers' maps (a shift, a utility) can
        overflow or leave the domain anywhere along the array.
        """
        if np.count_nonzero(np.isfinite(atoms)) < atoms.size:
            raise ValueError("outcomes must be finite")
        law = object.__new__(cls)
        law._fill(atoms, masses, cum)
        return law

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _key(self):
        # + 0.0 turns -0.0 into 0.0, so atoms equal as numbers give equal bytes.
        return type(self), (self._atoms + 0.0).tobytes(), self._masses.tobytes()

    def __eq__(self, other):
        return isinstance(other, DiscreteDistribution) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}(outcomes={self.outcomes!r}, probabilities={self.probabilities!r})"

    @property
    def outcomes(self) -> tuple[float, ...]:
        return tuple(self._atoms.tolist())

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(self._masses.tolist())

    def __getattr__(self, name):
        # Reached only when the instance lacks the attribute: the prefix sums
        # of mass x outcome are made on first use and kept in __dict__
        # (threads that race here store equal arrays).
        if name != "_prefix":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        prefix = self.__dict__["_prefix"] = np.add.accumulate(self._masses * self._atoms)
        return prefix

    def quantile(self, t: float) -> float:
        # At t = 0 the search lands on the first atom, the essential infimum.
        return float(self._ppf(_check_level(t)))

    def _ppf(self, t):
        idx = np.searchsorted(self._cum, t - _LEVEL_TOL, side="left")
        return self._atoms[np.minimum(idx, self._atoms.size - 1)]

    # The search is capped at the last atom, which takes every level above
    # the cumulative mass before it. Every cumulative mass before atom j
    # lies below lam - _LEVEL_TOL, so lam - prev is positive.
    def _tail_integral(self, lam: float) -> float:
        cum = self._cum
        j = min(int(cum.searchsorted(lam - _LEVEL_TOL)), cum.size - 1)
        below, prev = (self._prefix.item(j - 1), cum.item(j - 1)) if j else (0.0, 0.0)
        return below + min(lam - prev, self._masses.item(j)) * self._atoms.item(j)

    # The array form searches all but the last cumulative mass instead.
    def _tail_integrals(self, lam: np.ndarray) -> np.ndarray:
        j = self._cum[:-1].searchsorted(lam - _LEVEL_TOL)
        # At j = 0 the index j - 1 wraps around; np.where puts 0 there.
        first = j == 0
        below = np.where(first, 0.0, self._prefix[j - 1])
        prev = np.where(first, 0.0, self._cum[j - 1])
        return below + np.minimum(lam - prev, self._masses[j]) * self._atoms[j]

    # Sums, not BLAS dot products: a BLAS product splits long vectors across
    # its threads and rounds by the thread count.
    def mean(self) -> float:
        return float((self._masses * self._atoms).sum())

    # Atoms far apart overflow the square; the caller reports the inf.
    def variance(self) -> float:
        with np.errstate(over="ignore"):
            return float((self._masses * np.square(self._atoms - self.mean())).sum())

    def support_lower_bound(self) -> float:
        return float(self._atoms[0])

    # A shift that overflows is reported by _sorted, as a non-finite atom.
    # Silencing numpy's warning costs more than the shift, so it is done
    # only when |c| plus the largest |atom| passes the largest float.
    def translate(self, c: float) -> "DiscreteDistribution":
        atoms = self._atoms
        if abs(float(c)) + max(-atoms.item(0), atoms.item(-1)) < math.inf:
            return self._sorted(atoms + c, self._masses, self._cum)
        with np.errstate(over="ignore"):
            return self._sorted(atoms + c, self._masses, self._cum)

    def _draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        u = gen.random(count)
        idx = np.minimum(np.searchsorted(self._cum, u, side="left"), self._atoms.size - 1)
        return self._atoms[idx]

    def _sorted_draw(self, u: np.ndarray) -> np.ndarray:
        """``np.sort(self._draw(gen, u.size))`` from the sorted uniforms
        ``u = np.sort(gen.random(u.size))``, bit for bit.

        The sorted uniforms are counted against the cumulative masses: atom i
        takes those in (cum[i-1], cum[i]], and the last atom every uniform
        above cum[-2], as the capped search of :meth:`_draw` gives it.
        """
        ends = np.searchsorted(u, self._cum, side="right")
        ends[-1] = u.size
        return np.repeat(self._atoms, np.diff(ends, prepend=0))

    @cached_property
    def _lattice(self) -> tuple[float, float, np.ndarray] | None:
        """(origin, step, units) with atoms = origin + step * units, or None.

        The step is a float gcd of the offsets from the first atom. Euclid
        stops at remainders below span * 2**-26, an eighth of the finest step
        that keeps the units under ``_POOL_CHUNK``; the step counts only if
        it reproduces every atom to within 4 ulp.
        """
        atoms = self._atoms
        span = float(atoms[-1]) - float(atoms[0])
        if span == 0.0:
            return float(atoms[0]), 1.0, np.zeros(atoms.size, dtype=np.int64)
        if span == math.inf:  # finite atoms whose offsets overflow
            return None
        offsets = atoms - atoms[0]
        tol = span * 2.0**-26
        step = span
        for x in np.unique(offsets[offsets > tol]).tolist():
            a, b = max(step, x), min(step, x)
            while b > tol:
                a, b = b, math.fmod(a, b)
            step = a
            if span >= step * _POOL_CHUNK:
                return None
        step = span / round(span / step)
        units = np.rint(offsets / step).astype(np.int64)
        bound = 4.0 * np.spacing(max(abs(atoms[0]), abs(atoms[-1])))
        if np.max(np.abs(atoms[0] + step * units - atoms)) > bound:
            return None
        return float(atoms[0]), step, units

    def _pool_window(self, n: int) -> tuple[int, int] | None:
        """Unit sums [lo, hi] of n copies kept by the pool law, or None off a
        lattice or, from n = 2 on (one copy is its own pool law, built
        without an FFT), when the FFT window would pass ``_POOL_WINDOW`` or
        ``_POOL_ENTRIES_PER_ATOM`` per atom.

        The unit sum S lies in [0, n * r]; Hoeffding bounds
        P(|S - n * mean| >= t) by 2 exp(-2 t^2 / (n r^2)), so the window
        misses at most ``_POOL_TAIL_MASS``.
        """
        if self._lattice is None:
            return None
        _, _, units = self._lattice
        r = int(units[-1])
        if n == 1:
            return 0, r
        centre = n * float((self._masses * units).sum())
        reach = r * math.sqrt(n * math.log(2.0 / _POOL_TAIL_MASS) / 2.0)
        lo = max(0, math.floor(centre - reach))
        hi = min(n * r, math.ceil(centre + reach))
        size = _fft_size(hi - lo)
        if size > _POOL_WINDOW or size > _POOL_ENTRIES_PER_ATOM * units.size:
            return None
        return lo, hi

    def _pool_law(self, n: int) -> "DiscreteDistribution | None":
        """Law of the average of n copies when the atoms lie on a lattice,
        or None where :meth:`_pool_window` is None."""
        window = self._pool_window(n)
        if window is None:
            return None
        return self if n == 1 else self._lattice_pool_law(n, *window)

    def _lattice_pool_law(self, n: int, lo: int, hi: int) -> "DiscreteDistribution":
        # The pmf of S mod M, on the power of two M covering [lo, hi], is an
        # FFT power of the single-risk pmf; rolled back by lo, it lists the
        # sums lo, ..., hi.
        origin, step, units = self._lattice
        size = _fft_size(hi - lo)
        spectrum = np.fft.rfft(np.bincount(units % size, weights=self._masses, minlength=size))
        spectrum **= n
        pmf = np.fft.irfft(spectrum, size)
        del spectrum
        pmf = np.roll(pmf, -lo)[: hi - lo + 1]
        keep = np.flatnonzero(pmf > _FFT_FLOOR)
        masses = pmf[keep] / pmf[keep].sum()
        atoms = origin + step * (lo + keep) / n
        return DiscreteDistribution._sorted(atoms, masses, np.cumsum(masses))

    def _pool_sampler(self, n: int) -> PoolSampler:
        law = self._pool_law(n)
        if law is not None:
            return PoolSampler("lattice", lambda rng, count: law._sorted_draw(rng.sorted_uniforms(count)))
        # Counts come in row blocks of at most _POOL_CHUNK entries; numpy
        # draws multinomial rows in sequence, so the blocks reproduce the
        # stream of one count x atoms call. Each row is summed on its own:
        # a BLAS product rounds a row by its place in the call and by the
        # BLAS thread count.
        def counted(rng: RngSpec, count: int) -> np.ndarray:
            gen = rng.generator()
            values = np.empty(count)
            rows = max(1, _POOL_CHUNK // self._atoms.size)
            for start in range(0, count, rows):
                stop = min(start + rows, count)
                counts = gen.multinomial(n, self._masses, size=stop - start)
                values[start:stop] = (counts * self._atoms).sum(axis=1) / n
            return np.sort(values)

        return PoolSampler("multinomial", counted)


def _fft_size(width: int) -> int:
    """Power-of-two FFT length that holds width + 1 consecutive sums."""
    return 1 << width.bit_length()


# Every cell of a curve pools the same number of replicates, so one entry
# serves the whole curve.
@lru_cache(maxsize=1)
def _equal_masses(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Masses 1/k and their exact cumulative masses i/k, read-only."""
    masses, cum = np.full(k, 1.0 / k), np.arange(1, k + 1, dtype=float) / k
    masses.setflags(write=False)
    cum.setflags(write=False)
    return masses, cum


class EmpiricalSample(DiscreteDistribution):
    """Equal-weight law of a stored sample; values kept sorted ascending.

    Every value keeps its own atom of mass 1/k, ties included, and the
    cumulative masses are exactly i/k, so q(t) is the value at index
    ceil(t*k) (1-based) and the tail integral is exact over that step
    function, never an average of a sub-sample. The variance is the law's
    own (denominator k, not k-1).
    """

    def __init__(self, values):
        arr = np.sort(np.asarray(values, dtype=float).ravel())
        if arr.size == 0:
            raise ValueError("at least one value is required")
        # -inf sorts first, +inf and NaN last.
        if not (math.isfinite(arr[0]) and math.isfinite(arr[-1])):
            raise ValueError("outcomes must be finite")
        self._fill(arr, *_equal_masses(arr.size))

    # A sample has an atom per value, so multinomial counts over it would
    # cost replications x size; it sums draws like the continuous laws.
    _pool_sampler = Distribution._pool_sampler

    @property
    def values(self) -> tuple[float, ...]:
        return self.outcomes

    @property
    def size(self) -> int:
        return self._atoms.size


class TwoPoint(DiscreteDistribution):
    """Law on {low, high} with P[X = high] = p_high."""

    def __init__(self, low: float, high: float, p_high: float):
        ok = (
            math.isfinite(low)
            and math.isfinite(high)
            and high > low
            and 0.0 < p_high < 1.0
        )
        if not ok:
            raise ValueError("two-point law requires high > low and 0 < p_high < 1")
        masses = np.array([1.0 - p_high, p_high])
        self._fill(np.array([low, high], dtype=float), masses, np.cumsum(masses))

    @property
    def low(self) -> float:
        return float(self._atoms[0])

    @property
    def high(self) -> float:
        return float(self._atoms[1])

    @property
    def p_high(self) -> float:
        return float(self._masses[1])

    def translate(self, c: float) -> "TwoPoint":
        return TwoPoint(self.low + c, self.high + c, self.p_high)


@dataclass(frozen=True)
class Normal(Distribution):
    loc: float
    scale: float

    def __post_init__(self):
        if not (math.isfinite(self.loc) and math.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("normal law requires finite loc and scale > 0")

    def quantile(self, t: float) -> float:
        t = _check_level(t)
        if t == 0.0:
            raise ValueError("t = 0: a normal law is unbounded below, essential infimum is -inf")
        if t == 1.0:
            return math.inf
        return float(self._ppf(t))

    def _ppf(self, t):
        return self.loc + self.scale * inv_normal_cdf(t)

    def _tail_integral(self, lam: float) -> float:
        if lam == 1.0:
            return self.loc
        return lam * self.loc - self.scale * float(normal_pdf(inv_normal_cdf(lam)))

    def _tail_integrals(self, lam: np.ndarray) -> np.ndarray:
        values = np.full(lam.shape, float(self.loc))
        inner = lam < 1.0
        t = lam[inner]
        values[inner] = t * self.loc - self.scale * normal_pdf(inv_normal_cdf(t))
        return values

    def mean(self) -> float:
        return self.loc

    def variance(self) -> float:
        return self.scale**2

    def support_lower_bound(self) -> float:
        return -math.inf

    def translate(self, c: float) -> "Normal":
        return Normal(self.loc + c, self.scale)

    def _draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return self.loc + self.scale * gen.standard_normal(count)

    def _pool_sampler(self, n: int) -> PoolSampler:
        # The pool average is exactly Normal(loc, scale / sqrt(n)). The map
        # is nondecreasing, so it keeps the sorted draw sorted: the result is
        # np.sort of the mapped unsorted draw, bit for bit.
        scale = self.scale / math.sqrt(n)
        return PoolSampler("normal-law", lambda rng, count: self.loc + scale * rng.sorted_normals(count))


@dataclass(frozen=True)
class Uniform(Distribution):
    low: float
    high: float

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high) and self.high > self.low):
            raise ValueError("uniform law requires finite bounds with high > low")

    def quantile(self, t: float) -> float:
        return float(self._ppf(_check_level(t)))

    def _ppf(self, t):
        return self.low + (self.high - self.low) * t

    def _tail_integral(self, lam: float) -> float:
        return self.low * lam + 0.5 * (self.high - self.low) * lam**2

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def support_lower_bound(self) -> float:
        return self.low

    def translate(self, c: float) -> "Uniform":
        return Uniform(self.low + c, self.high + c)

    def _draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return self.low + (self.high - self.low) * gen.random(count)


@dataclass(frozen=True)
class Exponential(Distribution):
    rate: float
    shift: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0 and math.isfinite(self.shift)):
            raise ValueError("exponential law requires rate > 0 and finite shift")

    def quantile(self, t: float) -> float:
        t = _check_level(t)
        if t == 1.0:
            return math.inf
        return float(self._ppf(t))

    def _ppf(self, t):
        return self.shift - np.log1p(-t) / self.rate

    def _tail_integral(self, lam: float) -> float:
        if lam == 1.0:
            return self.shift + 1.0 / self.rate
        return self.shift * lam + ((1.0 - lam) * math.log1p(-lam) + lam) / self.rate

    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / self.rate**2

    def support_lower_bound(self) -> float:
        return self.shift

    def translate(self, c: float) -> "Exponential":
        return Exponential(self.rate, self.shift + c)

    def _draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        return self.shift + gen.standard_exponential(count) / self.rate

    def _pool_sampler(self, n: int) -> PoolSampler:
        # The pool average is exactly shift + Gamma(shape n, rate n * rate).
        def gamma(rng: RngSpec, count: int) -> np.ndarray:
            return np.sort(self.shift + rng.generator().standard_gamma(n, count) / (n * self.rate))

        return PoolSampler("gamma", gamma)


def quantile_grid_sample(dist: Distribution, n_points: int) -> EmpiricalSample:
    """Equal-probability discretization on the midpoint grid t_i = (i-1/2)/N.

    The returned sample has exactly these quantile values with weight 1/N
    each; it is the deterministic stand-in used when a law has no closed
    form for a downstream functional. Quantile values are nondecreasing in
    t, so the sample is built without a sort.
    """
    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    t = (np.arange(n_points) + 0.5) / n_points
    return EmpiricalSample._sorted(dist._ppf(t), *_equal_masses(n_points))


def pool_average_sample(sampler: PoolSampler, replications: int, rng: RngSpec) -> EmpiricalSample:
    """Replications of the equally shared pool average of n i.i.d. copies,
    drawn by ``sampler = dist.pool_sampler(n)``.

    Every sampler starts at the head of ``rng``'s stream, so the result
    depends only on (dist, n, replications) and the key of ``rng``: a spec
    reused across pool sizes, which keeps its sorted base draws, gives the
    same bits as a fresh one.
    """
    if replications < 2:
        raise ValueError("replications must be >= 2")
    return EmpiricalSample._sorted(sampler.draw(rng, replications), *_equal_masses(replications))
