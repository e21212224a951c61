"""Explicitly computable dynamical systems.

Phase spaces come in three kinds:

* full shifts over a finite alphabet with a Bernoulli measure, whose
  points are lazy symbol tapes with O(1) coordinate access (periodic,
  counter-PRF-seeded, or block-scheduled).  Each point kind defines one
  vectorized read, reached through ``coordinates(indices)``, which
  refuses a negative index on a one-sided point; a single
  ``coordinate(i)`` is its length-1 case;
* circle rotations stored as exact 128-bit binary fractions, iterated
  by exact modular arithmetic so that T**m at m up to 2**63 loses no
  precision;
* finite products of the above.

The natural extension of a one-sided Bernoulli shift is the two-sided
``FullShift`` on the same weights, so it needs no kind of its own.

A shift has one metric: 2**-(|j| + 1) summed over the differing
coordinates j, halved on two sides; an equivalent metric has the same
mean Li-Yorke tuples.  A product of k factors takes the max of its
factors' distances, equivalent to their weighted sum as
2**-k max_j d_j <= sum_j 2**-(j+1) d_j <= max_j d_j.  Every metric is
truncated at a configurable coordinate window ``w``, with its error
bound (2**-w style) from :func:`metric_error_bound`.
:func:`distance_series` evaluates d(T**m x, T**m y) for a list of pairs
(x, y), one row each, and a whole array of times without iterating: a
shift's metric reads each window of a difference tape as one 64-bit
word of the packed tape, and each distinct point reads its tape once
for all of its pairs.  :func:`distance` is the one-pair, one-time case.

Points enter every vectorized read as :class:`Rows`, a tuple that
computes the checks that do not depend on the times once; a list of
points is wrapped on entry.

Nothing here mutates after construction; points and systems are safe to
share across any number of workers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, DomainError, SequenceOverflowError
from .prf import MASK64, child_seed, prf64, prf64_np

ONE_SIDED = "one_sided"
TWO_SIDED = "two_sided"

FRACTION_BITS = 128
FRACTION_MOD = 1 << FRACTION_BITS
_INT64 = range(-(1 << 63), 1 << 63)

DEFAULT_WINDOW = 48
# Widest metric window.  Up to 53 coordinates the one-sided window distance,
# a sum of distinct powers 2**-(i+1), is exact in float64, so the windowed
# distance series and :func:`distance` give the same bits.
MAX_WINDOW = 53

# The one shift metric, as manifests name it.
METRIC_SUMMED = "summed"


# floor(((sqrt(5) - 1) / 2) * 2**128), exact to the last bit: from the
# integer square root of 5 * 2**256; equals 0x9e3779b97f4a7c15f39cc0605cedc834.
GOLDEN_CONJUGATE = (math.isqrt(5 << (2 * FRACTION_BITS)) - FRACTION_MOD) // 2


def _weights_to_separators(weights: tuple[Fraction, ...]) -> np.ndarray:
    # Cumulative thresholds on the 2**64 grid; symbol(h) = #separators <= h.
    cum = Fraction(0)
    seps = []
    for w in weights[:-1]:
        cum += w
        seps.append((cum.numerator << 64) // cum.denominator)
    return np.array(seps, dtype=np.uint64)


# ---------------------------------------------------------------------------
# symbolic points


class SymbolicPoint:
    """A point of a shift space: a deterministic map index -> symbol.  Each
    kind defines :meth:`_read`, which every :meth:`coordinates` call reaches."""

    alphabet_size: int
    side: str

    def coordinates(self, indices) -> np.ndarray:
        """The symbols at every index of ``indices``, as int64."""
        idx = _as_indices(indices)
        _check_sides((self.side,), idx)
        return self._read(idx)

    def _read(self, idx: np.ndarray) -> np.ndarray:  # idx: int64, already checked
        raise NotImplementedError

    def coordinate(self, i: int) -> int:
        """The symbol at index ``i``: the length-1 case of :meth:`coordinates`."""
        return int(self.coordinates([i])[0])


def _as_indices(indices) -> np.ndarray:
    """``indices`` as an int64 array; an index outside int64 raises DomainError, never wraps."""
    try:
        return np.asarray(indices, dtype=np.int64)
    except OverflowError:
        raise DomainError("coordinate outside the 64-bit range") from None


def _check_sides(sides, idx: np.ndarray) -> None:
    """DomainError where a point of one of ``sides`` would read below 0 on one side."""
    low = idx.min(initial=0)
    if low < 0 and ONE_SIDED in sides:
        raise DomainError(f"coordinate {low} < 0 on a one-sided point")


def _offset(indices, offset: int) -> np.ndarray:
    """int64 ``indices + offset``; DomainError where an index would leave int64."""
    idx = _as_indices(indices)
    if not all(int(e) + int(offset) in _INT64 for e in (idx.min(initial=0), idx.max(initial=0))):
        raise DomainError("coordinate outside the 64-bit range")
    return idx + offset


@dataclass(frozen=True)
class PeriodicPoint(SymbolicPoint):
    word: tuple[int, ...]
    alphabet_size: int
    side: str = ONE_SIDED

    def __post_init__(self):
        if not self.word:
            raise ConfigError("periodic word must be non-empty")
        if any(not (0 <= s < self.alphabet_size) for s in self.word):
            raise ConfigError("periodic word symbol out of range")

    def _read(self, idx: np.ndarray) -> np.ndarray:
        return np.array(self.word, dtype=np.int64)[idx % len(self.word)]


@dataclass(frozen=True)
class SeededRandomPoint(SymbolicPoint):
    """Coordinates drawn i.i.d. from ``weights`` via the counter PRF.

    Symbol at index i is a pure function of (seed, i); there is no tape.
    """

    seed: int
    weights: tuple[Fraction, ...]
    side: str = ONE_SIDED

    @property
    def alphabet_size(self) -> int:
        return len(self.weights)

    @cached_property
    def _separators(self) -> np.ndarray:
        return _weights_to_separators(self.weights)

    def _read(self, idx: np.ndarray) -> np.ndarray:
        return self._symbols(prf64_np(self.seed, idx))

    def _symbols(self, h: np.ndarray) -> np.ndarray:
        """The symbols, as int64, that the fresh PRF words ``h`` select under
        these weights; two symbols are written over ``h`` in place."""
        if len(self._separators) == 1:
            return np.greater_equal(h, self._separators[0], out=h.view(np.int64))
        return np.searchsorted(self._separators, h, side="right").astype(np.int64, copy=False)


class Rows(tuple):
    """Points as the rows of one vectorized read.

    Points never change, so the facts that every block of times would
    otherwise check again are computed once, on first use.  Each read
    wraps the points it is given with :meth:`of`, so a list is the
    length-n case of the same path and a caller that keeps its ``Rows``
    across blocks pays for the facts once.
    """

    @classmethod
    def of(cls, points: Sequence) -> "Rows":
        return points if isinstance(points, cls) else cls(points)

    @cached_property
    def symbolic(self) -> bool:
        """True when every point is a :class:`SymbolicPoint`."""
        return all(isinstance(p, SymbolicPoint) for p in self)

    @cached_property
    def sides(self) -> frozenset:
        """The points' sides; None stands for a point without one."""
        return frozenset(getattr(p, "side", None) for p in self)

    @cached_property
    def alphabet(self) -> int:
        """The largest alphabet of the points (0 for no point)."""
        return max((p.alphabet_size for p in self), default=0)

    @cached_property
    def seeds(self) -> np.ndarray | None:
        """The uint64 seeds when every point is a :class:`SeededRandomPoint`
        on one weights tuple (the same object), else None."""
        if self and all(type(p) is SeededRandomPoint and p.weights is self[0].weights
                        for p in self):
            return np.array([p.seed & MASK64 for p in self], dtype=np.uint64)
        return None

    def toggles(self, ys: "Rows") -> tuple | None:
        """Per row r, the :func:`_toggles` of the pair (self[r], ys[r]); None
        unless every point is piecewise constant.  Kept for the last ``ys``."""
        held = self.__dict__.get("_toggles")
        if held is None or held[0] is not ys:
            runs = [(_symbol_runs(x), _symbol_runs(y)) for x, y in zip(self, ys)]
            found = None
            if all(None not in pair for pair in runs):
                found = tuple(_toggles(rx, ry) for rx, ry in runs)
            held = self.__dict__["_toggles"] = (ys, found)
        return held[1]

    def factors(self, k: int) -> tuple["Rows", ...]:
        """The rows of each of the ``k`` factors of product points, built
        once; DomainError unless every point has one component per factor."""
        if len(self.__dict__.get("_factors", ())) != k:
            if any(len(p) != k for p in self):
                raise DomainError("product points need one component per factor")
            self.__dict__["_factors"] = tuple(Rows(p[j] for p in self) for j in range(k))
        return self.__dict__["_factors"]


def coordinates_of(points: Sequence[SymbolicPoint], indices) -> np.ndarray:
    """The symbols of each point at every index of ``indices``, one row per point.

    Row r is ``points[r].coordinates(indices)``.  When every point is a
    seeded random point on one weights tuple, the rows come from one
    :func:`prf64_np` table, which mixes each index once for all seeds.
    """
    rows = Rows.of(points)
    idx = _as_indices(indices)
    shape = (len(rows), len(idx))
    if rows.seeds is not None:
        _check_sides(rows.sides, idx)
        return rows[0]._symbols(prf64_np(rows.seeds, idx)).reshape(shape)
    return np.array([p.coordinates(idx) for p in rows], dtype=np.int64).reshape(shape)


BlockContent = Union[int, SymbolicPoint]


@dataclass(frozen=True)
class BlockScheduledPoint(SymbolicPoint):
    """Piecewise content on coordinate blocks.

    ``boundaries[k]`` is the first index of block k+1; block 0 covers
    everything below ``boundaries[0]``.  Each block holds either a
    constant symbol or a view onto another point.
    """

    boundaries: tuple[int, ...]
    contents: tuple[BlockContent, ...]
    alphabet_size: int
    side: str = ONE_SIDED

    def __post_init__(self):
        if len(self.contents) != len(self.boundaries) + 1:
            raise ConfigError("need exactly one block content per boundary gap")
        if any(b >= c for b, c in zip(self.boundaries, self.boundaries[1:])):
            raise ConfigError("block boundaries must be strictly increasing")
        for c in self.contents:
            if isinstance(c, int) and not (0 <= c < self.alphabet_size):
                raise ConfigError("block symbol out of range")

    def _read(self, idx: np.ndarray) -> np.ndarray:
        out = np.empty(idx.shape, dtype=np.int64)
        block = np.searchsorted(np.array(self.boundaries, dtype=np.int64), idx, side="right")
        for k, c in enumerate(self.contents):
            mask = block == k
            if not mask.any():
                continue
            out[mask] = c if isinstance(c, int) else c.coordinates(idx[mask])
        return out


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class FullShift:
    """Shift on sequences over {0..s-1} with a Bernoulli product measure."""

    weights: tuple[Fraction, ...]
    side: str = ONE_SIDED
    window: int = DEFAULT_WINDOW

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if self.alphabet_size < 2:
            raise ConfigError("alphabet size must be >= 2")
        if any(w < 0 for w in self.weights):
            raise ConfigError("weights must be non-negative")
        total = sum(self.weights)
        if abs(total - 1) > Fraction(1, 1 << 52):
            raise ConfigError(f"weights sum to {total}, expected 1 within 2**-52")
        if total != 1:  # exact renormalization of an in-tolerance sum
            object.__setattr__(self, "weights", tuple(w / total for w in self.weights))
        if not 1 <= self.window <= MAX_WINDOW:
            raise ConfigError(f"metric window must be in [1, {MAX_WINDOW}], got {self.window}")
        if self.side not in (ONE_SIDED, TWO_SIDED):
            raise ConfigError(f"unknown side {self.side!r}")

    @property
    def alphabet_size(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, alphabet_size: int, **kwargs) -> "FullShift":
        return cls((Fraction(1, alphabet_size),) * alphabet_size, **kwargs)

    def to_json_dict(self) -> dict:
        return {
            "kind": "FullShift",
            "weights": [str(w) for w in self.weights],
            "window": self.window,
            "side": self.side,
            "metric": METRIC_SUMMED,
        }


@dataclass(frozen=True)
class Rotation:
    """Rotation x -> x + alpha on the circle, on the 2**-128 dyadic grid.

    ``alpha_num`` is the exact numerator of alpha * 2**128; all orbit
    arithmetic is exact modular arithmetic on that grid.
    """

    alpha_num: int

    def __post_init__(self):
        if not (0 <= self.alpha_num < FRACTION_MOD):
            raise ConfigError("alpha numerator out of [0, 2**128) range")

    @classmethod
    def from_fraction(cls, alpha: Fraction | int | str) -> "Rotation":
        fr = Fraction(alpha)
        if not (0 <= fr < 1):
            raise ConfigError("alpha must lie in [0, 1)")
        return cls((fr.numerator << FRACTION_BITS) // fr.denominator)

    @classmethod
    def golden(cls) -> "Rotation":
        return cls(GOLDEN_CONJUGATE)

    def to_json_dict(self) -> dict:
        return {"kind": "Rotation", "alpha_num_2pow128": f"0x{self.alpha_num:032x}"}


@dataclass(frozen=True)
class ProductSystem:
    components: tuple["SystemSpec", ...]

    def __post_init__(self):
        if len(self.components) < 1:
            raise ConfigError("product needs at least one component")

    def to_json_dict(self) -> dict:
        return {"kind": "Product", "components": [c.to_json_dict() for c in self.components]}


SystemSpec = Union[FullShift, Rotation, ProductSystem]
Point = Union[SymbolicPoint, int, tuple]


def check_members(system: FullShift, points: Sequence) -> None:
    """DomainError unless every point of ``points`` lives in the shift
    ``system``, on its side and over its alphabet: the one membership test
    of distances and observables."""
    rows = Rows.of(points)
    if not rows.sides <= {system.side} or rows.alphabet > system.alphabet_size:
        raise DomainError("points do not live in this shift space")


# ---------------------------------------------------------------------------
# distances
#
# Every shift metric reads a window [m + lo, m + lo + span) of both
# points at each time m and sums the weights of the differing cells; a
# shift's side picks only the window and the reads that sum it.


def _window_sums(bits: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """sum over j < ``width`` of bits[s + j] * 2**-(j + 1), at every start s.

    The bits are packed once.  The big-endian 64-bit word at byte s >> 3,
    shifted left by s & 7, holds bits s, s + 1, ... from its top bit down;
    its top ``width`` bits are the window, so the word times 2**-64 is the
    sum.  As (s & 7) + width <= 7 + MAX_WINDOW < 64, every window bit is in
    the word, and a word of at most 53 significant bits converts to
    float64 exactly.
    """
    packed = np.packbits(bits)
    # a word at every byte, and one past the tape for an empty window at its end
    padded = np.zeros(len(packed) + 8, dtype=np.uint8)
    padded[: len(packed)] = packed
    words = np.ndarray((len(packed) + 1,), dtype=">u8", buffer=padded, strides=(1,))
    mask = np.uint64(((1 << width) - 1) << (64 - width))
    picked = words[starts >> 3] << (starts & 7).astype(np.uint64)
    picked &= mask
    return picked * 2.0**-64


def _symbol_runs(point) -> list[tuple[int, int]] | None:
    """Change points [(start, symbol), ...] of a piecewise-constant point, else None."""
    if isinstance(point, PeriodicPoint):
        return [(0, point.word[0])] if len(set(point.word)) == 1 else None
    if isinstance(point, BlockScheduledPoint) and all(isinstance(c, int) for c in point.contents):
        # blocks that start at or before coordinate 0 collapse into the last of them
        runs = list(zip((0, *point.boundaries), point.contents))
        last = max(i for i, (start, _) in enumerate(runs) if start <= 0)
        return [(0, runs[last][1]), *runs[last + 1 :]]
    return None


def _toggles(rx, ry) -> list[int]:
    """The positions where the pair with change points ``rx`` and ``ry``
    starts or stops differing, in increasing order."""
    def symbol_at(runs: list[tuple[int, int]], pos: int) -> int:
        return runs[bisect_right(runs, pos, key=lambda run: run[0]) - 1][1]

    toggles = []
    for pos in sorted({s for s, _ in rx} | {s for s, _ in ry}):
        if (len(toggles) % 2 == 1) != (symbol_at(rx, pos) != symbol_at(ry, pos)):
            toggles.append(pos)
    return toggles


def _series_from_toggles(toggles: list[int], times: np.ndarray, window: int) -> np.ndarray:
    """d(T**m x, T**m y) at strictly increasing ``times`` from the
    :func:`_toggles` of x and y, by interval algebra.

    The pair differs between toggles p_1 < p_2 < ...; toggle i adds
    (-1)**(i+1) 2**-clip(p_i - m, 0, w) to the distance at time m, and a
    difference that never ends takes 2**-w off.  A toggle at or below m
    adds +-1 and one at or past m + w adds +-2**-w, so the distance is

        D(m) + sum of +-2**-(p - m) over the toggles p in (m, m + w) - 2**-w G(m)

    with D(m) and G(m) the parities of the toggles at or below m and below
    m + w.  Per pair that is two searches per toggle and a few passes over
    the times, and only the fewer than w times before each toggle take a
    power.  Every partial sum, in toggle order, is a multiple of 2**-w in
    [0, 1], so it is exact (w <= 53) and the result is the same bits
    whatever the order of the additions.
    """
    n = len(times)
    if not toggles or not n:
        return np.zeros(n, dtype=np.float64)
    # clamped into [t_min - w, t_max], a toggle keeps its side of every time
    # and of every m + w, and its search stays in int64
    lo, hi = int(times[0]) - window, int(times[-1])

    def searched(shift: int) -> tuple[np.ndarray, np.ndarray]:
        keys = np.array([min(max(p - shift, lo), hi) for p in toggles], dtype=np.int64)
        return keys, np.searchsorted(times, keys, side="right")

    starts, j0 = searched(window)  # times[:j0] <= p - w
    _, j1 = searched(1)  # times[:j1] < p
    parity = (np.arange(len(toggles) + 1) & 1).astype(np.float64)

    def runs_of(cuts: np.ndarray) -> np.ndarray:  # lengths between 0, the cuts and n
        return np.diff(np.concatenate(([0], cuts, [n])))

    out = np.repeat(parity, runs_of(j1))
    lengths = j1 - j0
    if lengths.any():
        # the times in (p - w, p); there p - w is unclamped
        k = np.repeat(j0 - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
        exponents = times[k] - np.repeat(starts, lengths) - window  # m - p, in (-w, 0)
        signs = np.repeat(1.0 - 2.0 * parity[:-1], lengths)
        out += np.bincount(k, np.ldexp(signs, exponents.astype(np.int32)), minlength=n)
    out -= np.repeat(parity * 2.0**-window, runs_of(j0))
    return out


def _on_distinct(times: np.ndarray, series) -> np.ndarray:
    """The rows ``series(u)`` on the strictly increasing distinct times u,
    read back at every time; times that already increase skip the sort."""
    if (times[1:] > times[:-1]).all():
        return series(times)
    u, inverse = np.unique(times, return_inverse=True)
    return series(u)[:, inverse]


# Tape cells read per coordinates call: small enough that the PRF's
# temporaries stay in cache, large enough that a chunk's last window,
# which is read again by the next chunk, costs little.
_TAPE_CELLS = 1 << 17


def _tape_chunks(u: np.ndarray, lo: int, window: int):
    """Lay the windows [t + lo, t + lo + w) of the sorted unique times u out as a tape.

    Overlapping windows share their cells, so the tape holds at most
    len(u)*w cells, and about len(u) + w when the times are dense.  The
    tape is cut into chunks of about _TAPE_CELLS cells at the start of a
    window; each chunk also holds its last window whole, so up to w - 1
    cells at each cut are read twice.  Yields, per chunk, the index of its
    first time in ``u``, the coordinate position of every cell and the
    offset of each window.
    """
    # gaps of sorted int64 times as uint64: exact even where they pass 2**63
    gaps = np.minimum(np.diff(u.view(np.uint64)), window).astype(np.int64)
    lengths = np.append(gaps, window)
    starts = np.cumsum(lengths) - lengths
    cuts = np.unique(np.searchsorted(starts, np.arange(0, starts[-1] + 1, _TAPE_CELLS)))
    for first, end in zip(cuts, [*cuts[1:], len(u)]):
        spans = lengths[first:end].copy()
        spans[-1] = window
        offsets = starts[first:end] - starts[first]
        positions = np.repeat(u[first:end] - offsets, spans)
        positions += np.arange(lo, lo + len(positions))
        yield first, positions, offsets


def _series_from_windows(system, xs: Rows, ys: Rows, u: np.ndarray) -> np.ndarray:
    """The distances at strictly increasing times u, read from tape chunks.

    Every distinct point (by identity) reads each chunk once through its
    own ``coordinates``, for all of its rows.  Each pair then packs its
    difference tape once, and :func:`_window_sums` reads each window as
    one word of it.  On two sides the w forward coordinates m, m + 1, ...
    are read ahead from cell o + w - 1 of a window at cell o, and the
    w - 1 backward coordinates m - 1, m - 2, ... from the reversed tape;
    one correctly rounded add joins the two exact sums.
    """
    if not len(u):
        return np.empty((len(xs), 0), dtype=np.float64)
    w, one_sided = system.window, system.side == ONE_SIDED
    lo, span = (0, w) if one_sided else (1 - w, 2 * w - 1)
    if int(u[0]) + lo < -(1 << 63) or int(u[-1]) + lo + span >= 1 << 63:
        raise DomainError("times too close to the 64-bit range for the metric window")
    points = {id(p): p for p in (*xs, *ys)}
    out = np.empty((len(xs), len(u)), dtype=np.float64)
    for first, positions, offsets in _tape_chunks(u, lo, span):
        tapes = {key: p.coordinates(positions) for key, p in points.items()}
        cols = slice(first, first + len(offsets))
        for r, (x, y) in enumerate(zip(xs, ys)):
            diff = tapes[id(x)] != tapes[id(y)]
            if one_sided:
                out[r, cols] = _window_sums(diff, offsets, w)
            else:
                ahead = _window_sums(diff, offsets + (w - 1), w)
                behind = _window_sums(diff[::-1], len(diff) - w + 1 - offsets, w - 1)
                out[r, cols] = (ahead + behind / 2) / 2
    return out


def distance_series(system: SystemSpec, xs: Sequence, ys: Sequence, times) -> np.ndarray:
    """d(T**m x, T**m y) for every pair (x, y) of ``zip(xs, ys)`` and every m
    in ``times``, truncated at the metric window: one row per pair.

    A shift's metric reads each window of a difference tape as one 64-bit
    word of the packed tape, or takes interval algebra when every point
    is piecewise constant on a one-sided shift.  On one side both are
    exact, as ``FullShift`` caps the window at 53 coordinates; on two
    sides one correctly rounded add joins two exact sums.  A rotation's
    rows are constant; a product's rows are the max of its factors' rows.
    Three things raise ``DomainError``: a negative time on a one-sided
    shift (a product defers to its components), a point that fails
    :func:`check_members`, and a point with the wrong number of
    components on a product.

    Each distinct point reads its tape once per chunk of about 2**17
    cells for all the rows it belongs to, so working memory does not grow
    with the gaps between times and a tuple's pairs share their reads.
    The interval path costs O(w) per change point beyond a few passes per
    pair; a caller that passes ``xs`` and ``ys`` as :class:`Rows` across
    blocks of times has their membership checked and their factor rows
    and each pair's toggles found once.  Both paths run on the distinct
    times, sorted only when they do not already increase.
    """
    if len(xs) != len(ys):
        raise DomainError("need one y for every x")
    ts = _as_times(times)
    if getattr(system, "side", None) == ONE_SIDED and len(ts) and ts.min() < 0:
        raise DomainError("negative iteration on a non-invertible system")
    if isinstance(system, Rotation):
        deltas = [(x - y) % FRACTION_MOD for x, y in zip(xs, ys)]
        rows = np.array([min(d, FRACTION_MOD - d) / FRACTION_MOD for d in deltas])
        return np.repeat(rows.reshape(-1, 1), len(ts), axis=1)
    xs, ys = Rows.of(xs), Rows.of(ys)
    if isinstance(system, ProductSystem):
        k = len(system.components)
        parts = zip(system.components, xs.factors(k), ys.factors(k))
        return np.maximum.reduce([distance_series(c, x, y, ts) for c, x, y in parts])
    if not isinstance(system, FullShift):
        raise ConfigError(f"unknown system {system!r}")
    check_members(system, xs)
    check_members(system, ys)
    toggles = xs.toggles(ys) if system.side == ONE_SIDED else None
    if toggles is not None:
        return _on_distinct(ts, lambda u: np.array(
            [_series_from_toggles(t, u, system.window) for t in toggles], dtype=np.float64,
        ).reshape(len(xs), len(u)))
    return _on_distinct(ts, partial(_series_from_windows, system, xs, ys))


def distance(system: SystemSpec, x: Point, y: Point) -> float:
    """Metric evaluation: the one-pair, one-time case of :func:`distance_series`.

    The certified truncation bound is :func:`metric_error_bound`; the
    true distance lies within that bound of the returned value.
    """
    return float(distance_series(system, [x], [y], [0])[0, 0])


def metric_error_bound(system: SystemSpec) -> float:
    """Certified truncation/rounding bound for :func:`distance`."""
    if isinstance(system, FullShift):
        # on two sides, plus the rounding of the one add, halved
        return 2.0 ** (-system.window) + (2.0**-54 if system.side == TWO_SIDED else 0.0)
    if isinstance(system, Rotation):
        return 2.0**-53
    if isinstance(system, ProductSystem):
        # |max a - max b| <= max |a - b|, and the max itself is exact
        return max(metric_error_bound(c) for c in system.components)
    raise ConfigError(f"unknown system {system!r}")


def sample_point(system: SystemSpec, seed: int) -> Point:
    """A point distributed per the system's invariant measure; pure in seed."""
    if isinstance(system, FullShift):
        return SeededRandomPoint(seed & MASK64, system.weights, side=system.side)
    if isinstance(system, Rotation):
        return (prf64(seed, 0) << 64) | prf64(seed, 1)
    if isinstance(system, ProductSystem):
        return tuple(
            sample_point(c, child_seed(seed, f"component/{j}"))
            for j, c in enumerate(system.components)
        )
    raise ConfigError(f"unknown system {system!r}")


# ---------------------------------------------------------------------------
# orbit evaluation helpers


_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_SHIFT32 = _U64(32)
_GRID_BLOCK = 1 << 14


def _as_times(times) -> np.ndarray:
    """``times`` as an int64 array; a time outside int64 raises, never wraps."""
    try:
        return np.asarray(times, dtype=np.int64)
    except OverflowError:
        index = next(i for i, m in enumerate(times) if not -(1 << 63) <= int(m) < 1 << 63)
        raise SequenceOverflowError(
            index, f"time #{index} lies outside the signed 64-bit range"
        ) from None


def rotation_orbit_fractions(system: Rotation, x0, times) -> np.ndarray:
    """Fractions (x0 + m*alpha mod 1) for each m, as float64.

    ``x0`` is one start, giving one fraction per time, or a 1-D sequence
    of starts, giving one row per start that shares the products m*alpha.
    The orbit point is computed exactly on the 2**-128 grid, in blocks of
    at most ``_GRID_BLOCK`` grid points over all starts so that every
    temporary stays cache-sized; its top 53 bits become the float, so the
    per-entry error is below 2**-53.  Every time must fit a signed 64-bit
    integer; one that does not raises :class:`SequenceOverflowError`
    instead of wrapping.

    Exact limb arithmetic in the style of Knuth's Algorithm M (TAOCP
    vol. 2, 4.3.1).  With u = m mod 2**64 and alpha = A1*2**64 + A0,
    u * alpha mod 2**128 has lo = u*A0 and hi = mulhi(u, A0) + u*A1, in
    wrapping uint64.  mulhi(u, A0) is assembled from four 32x32-bit
    partial products, none of which overflows.  A negative m equals
    u - 2**64, so its product is smaller by A0 * 2**64 mod 2**128: A0
    comes off the high word.  The product is formed once per block; each
    start then adds its words, with a carry into the high word when the
    low word wraps.  Only uint64 operands enter the arithmetic, so no
    operand is promoted to float64 on any numpy version.
    """
    ts = _as_times(times)
    starts = [int(x) % FRACTION_MOD for x in (x0 if np.ndim(x0) > 0 else [x0])]
    x1 = np.array([x >> 64 for x in starts], dtype=_U64)[:, None]
    x0_lo = np.array([x & MASK64 for x in starts], dtype=_U64)[:, None]
    a1, a0 = _U64(system.alpha_num >> 64), _U64(system.alpha_num & MASK64)
    b1, b0 = a0 >> _SHIFT32, a0 & _LOW32
    step = max(1, _GRID_BLOCK // max(1, len(starts)))
    out = np.empty(np.shape(x0)[:1] + ts.shape, dtype=np.float64)
    for start in range(0, len(ts), step):
        t = ts[start : start + step]
        u = t.view(_U64)
        u1, u0 = u >> _SHIFT32, u & _LOW32
        p01 = u0 * b1
        p10 = u1 * b0
        mid = (u0 * b0) >> _SHIFT32
        mid += p01 & _LOW32
        mid += p10 & _LOW32  # below 3 * 2**32
        hi = u1 * b1
        hi += p01 >> _SHIFT32
        hi += p10 >> _SHIFT32
        hi += mid >> _SHIFT32
        hi += u * a1
        hi -= (t >> 63).view(_U64) & a0
        lo = x0_lo + u * a0
        hi = hi + x1
        hi += lo < x0_lo
        hi >>= _U64(11)
        out[..., start : start + len(t)] = hi  # exact: below 2**53
    out *= 2.0**-53
    return out
