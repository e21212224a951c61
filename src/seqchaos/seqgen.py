"""Integer sequence families and close-pair density profiles.

Provides the catalogue of sampling-time sequences used throughout the
package (naturals, primes, integer parts of rational-coefficient
polynomials and of fractional powers, return times of the Thue-Morse
word to the 1-cylinder, geometric/lacunary sequences, explicit lists)
together with exact counting of close index pairs

    #{(i, j) in [1, N]^2 : |a_i - a_j| <= L},

whose N**-2 density vanishing for every fixed L is the mildness
condition.  A strictly increasing sequence, lacunary or not, has at most
2L + 1 terms within L of each term, so its count lies in [N, (2L + 1) N]
and the condition holds; only repeated terms (an Explicit list) can fail it.

Each family has one generator, a source of int64 blocks of at most 2**16
consecutive terms (`_blocks`); the primes come from an odd-only
segmented sieve, Thue-Morse from one table of 2**16 digit-sum parities.
A prefix (`times_array`) fills one array from it, and
`close_pair_profile` counts pairs one block at a time, looking back from
each term over its few earlier neighbours within the gap, and keeping
only the terms within the gap of the newest one.  `times_array` keeps
the longest prefix of each sequence for one experiment: the CLI calls
`release_prefixes` when each run ends, so no prefix outlives the run
that read it.

All arithmetic that feeds a floor function is exact: polynomial values
are evaluated by Horner's rule over a common integer denominator, and
the float64 root estimate of k**(p/q) is corrected exactly, by comparing
r**q with k**p or by integer Newton steps, so the emitted integer parts
are bit-exact on every platform.  Both run in one loop over blocks of
candidates: 2**16 int64 candidates wherever a bound proves that no value
passes 2**62, and after that numpy arrays of Python ints (dtype object),
doubling from 1 to 1,024 candidates so that a short prefix stays cheap.
Terms are capped at 2**63 - 1 (`MAX_TERM`); generation raises instead
of wrapping.
"""

from __future__ import annotations

import math
import operator
import os
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, SequenceOverflowError

MAX_TERM = (1 << 63) - 1


def _fraction(v) -> Fraction:
    """``v`` as a Fraction; a float is refused, not taken at its binary value."""
    if isinstance(v, float):
        raise TypeError(f"{v!r} is a float; give it as a string or a Fraction")
    return Fraction(v)


def _fractions(v) -> tuple[Fraction, ...]:
    return tuple(map(_fraction, v))


def _integers(v) -> tuple[int, ...]:
    return tuple(map(operator.index, v))


# Each family, and for one that takes a parameter its config key and the
# conversion of its value; operator.index and _fraction refuse a float instead
# of truncating it or taking its binary value.
FAMILIES = {
    "Naturals": None,
    "Primes": None,
    "PolynomialFloor": ("coefficients", _fractions),
    "FractionalPowerFloor": ("exponent", _fraction),
    "ThueMorseReturnTimes": None,
    "Lacunary": ("base", operator.index),
    "Explicit": ("terms", _integers),
}


@dataclass(frozen=True)
class SequenceSpec:
    """A named, parameterized, lazily generated stream of positive integers.

    ``param`` is the value of the family's config key, None for a family that
    takes none, converted and checked here: ``SequenceSpec("Primes")`` or
    ``SequenceSpec("PolynomialFloor", ["1/7", "1/3", "1/2"])``.  Specs are hashable.
    """

    family: str
    param: object = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown sequence family {self.family!r}")
        if FAMILIES[self.family] is None:
            if self.param is not None:
                raise ConfigError(f"{self.family} takes no parameter")
            return
        key, convert = FAMILIES[self.family]
        try:
            object.__setattr__(self, "param", convert(self.param))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"{self.family} {key}: {exc}") from None
        p = self.param
        if self.family == "PolynomialFloor":
            if len(p) < 2:
                raise ConfigError("PolynomialFloor needs degree >= 1")
            if p[-1] <= 0:
                raise ConfigError("PolynomialFloor leading coefficient must be > 0")
        elif self.family == "FractionalPowerFloor":
            if p <= 0:
                raise ConfigError("FractionalPowerFloor exponent must be > 0")
            if p.denominator == 1:
                raise ConfigError("FractionalPowerFloor exponent must be non-integer")
        elif self.family == "Lacunary":
            if p < 2:
                raise ConfigError("Lacunary base must be >= 2")
        else:
            if not p:
                raise ConfigError("Explicit sequence must be non-empty")
            if any(x < 1 for x in p):
                raise ConfigError("Explicit terms must be positive integers")
            if any(x > MAX_TERM for x in p):
                raise SequenceOverflowError(max(i for i, x in enumerate(p) if x > MAX_TERM) + 1)

    def describe(self) -> str:
        p = self.param
        if self.family == "Explicit":
            p = f"{len(p)} terms"
        elif type(p) is tuple:
            p = ",".join(map(str, p))
        return self.family if p is None else f"{self.family}[{p}]"

    def to_json_dict(self) -> dict:
        """The family and its parameter, keyed as in an experiment config
        (the JSON writer shows a Fraction as its "p/q" string)."""
        if self.param is None:
            return {"family": self.family}
        return {"family": self.family, FAMILIES[self.family][0]: self.param}


# ---------------------------------------------------------------------------
# generators
#
# Every family yields blocks of at most _FLOOR_BLOCK terms.  Naturals come
# in blocks of _FLOOR_BLOCK integers; Thue-Morse blocks of _TM_WIDTH
# numbers and prime sieve segments of _SIEVE_SEGMENT numbers, the last cut
# at a bound on the wanted prime, are sliced.
# A floor family's candidates come in int64 blocks of _FLOOR_BLOCK while no
# value they form can pass _INT64_SAFE, so nothing wraps; after that in
# object blocks of Python ints, doubling up to _EXACT_BLOCK candidates, on
# which the same array code runs exactly.  An int64 block is worked in place:
# in its candidates, in one array of floors that every block reuses and, for
# a power, in one scratch array, so generation holds one block of temporaries.
_FLOOR_FAMILIES = ("PolynomialFloor", "FractionalPowerFloor")
_FLOOR_BLOCK = 1 << 16
_EXACT_BLOCK = 1 << 10
_SIEVE_SEGMENT = 1 << 21
_INT64_SAFE = 1 << 62
_TM_WIDTH = 1 << 16


def _sieve(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The primes in [lo, hi), given every prime up to sqrt(hi) in ``base``.

    The mask holds only the odd numbers of [lo, hi) (Bays and Hudson,
    BIT 17, 1977, keep odd candidates only); when lo <= 2 it starts at
    the number 1, whose slot stands for 2, the one even prime.  ``base``
    may hold composites too, as sieving by an odd composite strikes only
    composites; its even entries are skipped.  Each odd p strikes its
    odd multiples from max(p**2, lo) on, every p-th mask entry.
    """
    first = 1 if lo <= 2 else lo | 1  # the odd numbers first, first + 2, ... below hi
    mask = np.ones(max(0, (hi - first + 1) // 2), dtype=bool)
    two = first == 1 and hi > 2  # the slot of the number 1 stands for 2
    mask[: int(first == 1)] = two
    for p in base[base % 2 == 1].tolist():
        start = max(p * p, -(-lo // p) * p)
        if start % 2 == 0:
            start += p
        if start < hi:
            mask[(start - first) // 2 :: p] = False
    primes = np.flatnonzero(mask).astype(np.int64, copy=False)
    primes *= 2
    primes += first
    primes[: int(two)] = 2
    return primes


def _prime_bound(count: int) -> int:
    """An integer above the count-th prime: Rosser's p_n < n (ln n + ln ln n)
    for n >= 6, and 12, above p_5 = 11, for fewer."""
    if count < 6:
        return 12
    return int(count * (math.log(count) + math.log(math.log(count)))) + 2


def _prime_blocks(stop: int) -> Iterator[np.ndarray]:
    """The primes below ``stop`` in increasing order, one sieved segment of
    _SIEVE_SEGMENT numbers at a time."""
    root = math.isqrt(stop - 1)
    # sieving by every integer up to isqrt(root), prime or not, is exact
    base = _sieve(0, root + 1, np.arange(2, math.isqrt(root) + 1))
    for lo in range(0, stop, _SIEVE_SEGMENT):
        yield _sieve(lo, min(lo + _SIEVE_SEGMENT, stop), base)


def _natural_blocks() -> Iterator[np.ndarray]:
    """1, 2, ..., MAX_TERM in blocks of _FLOOR_BLOCK."""
    for k0 in range(1, MAX_TERM + 1, _FLOOR_BLOCK):
        yield np.arange(k0, min(k0 + _FLOOR_BLOCK, MAX_TERM + 1), dtype=np.int64)


def _thue_morse_blocks() -> Iterator[np.ndarray]:
    """The n < 2**63 of odd binary digit sum, one block of _TM_WIDTH numbers at a time.

    n = j * _TM_WIDTH + i has odd digit sum exactly when one of j and i
    has, so block j is the odd low halves i plus j * _TM_WIDTH when j is
    even, and the even ones when j is odd.  Of each pair 2m, 2m + 1 one
    is odd, so the even halves are the odd ones with bit 0 flipped, still
    increasing, and one xor forms a block.
    """
    odd = np.zeros(1, dtype=bool)
    while len(odd) < _TM_WIDTH:  # the Thue-Morse substitution: the parities, then their complements
        odd = np.concatenate((odd, ~odd))
    halves = np.flatnonzero(odd).astype(np.int64, copy=False)
    for j in range((MAX_TERM + 1) // _TM_WIDTH):
        yield halves ^ (j * _TM_WIDTH + (j.bit_count() & 1))


def _power_is_safe(base: int, exponent: int) -> bool:
    """base**exponent <= _INT64_SAFE for base >= 1, without forming huge powers."""
    return exponent * (base.bit_length() - 1) <= 62 and base**exponent <= _INT64_SAFE


def _power_le(b: np.ndarray, q: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``b**q <= x`` elementwise and exactly, for ``b >= 1``.

    An int64 ``b`` whose power could pass 2**62 is cast to Python ints
    (dtype object) first, so nothing wraps.  Given a boolean ``out``, the
    result goes there and an int64 ``b`` is raised in place.
    """
    if not _power_is_safe(int(b.max()), q):
        return np.less_equal(b.astype(object) ** q, x, out=out)
    return np.less_equal(b**q if out is None else np.power(b, q, out=b), x, out=out)


def _roots(x: np.ndarray, q: int, estimate: np.ndarray) -> np.ndarray:
    """floor(x**(1/q)) for an object array of integers x >= 1, from float estimates.

    From any r above the floor root, integer Newton steps decrease
    strictly down to it (AM-GM) and then stop.  Each start is the smaller
    of the estimate pushed up, which is above the root when the estimate
    is good to 2**-40, and 2**ceil(bits/q), which always is; a start not
    above the root is replaced by the latter.
    """
    cap = 1 << -(-np.frompyfunc(int.bit_length, 1, 1)(x) // q)
    pushed = np.frompyfunc(int, 1, 1)(np.minimum(estimate, 2.0**1000) * (1 + 2**-40)) + 1
    r = np.minimum(pushed, cap)
    r = np.where(r**q <= x, cap, r)
    while ((lower := ((q - 1) * r + x // r ** (q - 1)) // q) < r).any():
        r = np.minimum(r, lower)
    return r


def _power_floors(p: int, q: int, k: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """floor(k**(p/q)) for a block of candidates k, with every root at or
    past 2**63 sent to 2**63, into ``out`` when given.

    An int64 block has every k**p <= 2**62: its float64 root is within one
    of the floor (the root is below 2**31), and the two loops step it to
    the exact floor whatever it is.  It runs in place: k becomes k**p, and
    one scratch array holds the float roots and then each step's powers.
    An object block takes Newton steps (`_roots`) on k**p clipped at
    2**(63q), whose root is 2**63; a k with p * (bits(k) - 1) >= 63q is
    clipped without forming k**p.
    """
    if out is None:
        out = np.empty(len(k), dtype=k.dtype)
    if k.dtype == object:
        cap = 1 << 63 * q
        x = np.full(len(k), cap, dtype=object)
        small = np.frompyfunc(int.bit_length, 1, 1)(k) <= -(-63 * q // p)  # else k**p >= cap
        x[small] = np.minimum(k[small] ** p, cap)
        with np.errstate(over="ignore"):  # far past 2**63, the estimate is inf
            out[:] = _roots(x, q, k.astype(np.float64) ** (p / q))
        return out
    scratch, le = np.empty_like(k), np.empty(len(k), dtype=bool)
    root = scratch.view(np.float64)
    np.power(k, p / q, out=root)
    np.floor(root, out=root)
    np.copyto(out, np.maximum(root, 1, out=root), casting="unsafe")
    x = np.power(k, p, out=k)
    while True:  # down while r**q > x
        np.copyto(scratch, out)
        if _power_le(scratch, q, x, le).all():
            break
        out -= ~le
    while _power_le(np.add(out, 1, out=scratch), q, x, le).any():  # up while (r + 1)**q <= x
        out += le
    return out


def _candidates(fits) -> Iterator[tuple[range, type]]:
    """The candidates k = 1, 2, ... in consecutive ranges, each with the
    dtype of its block: _FLOOR_BLOCK int64 k while ``fits`` holds at a
    range's last k, then Python ints (dtype object) in ranges doubling
    from 1 to _EXACT_BLOCK candidates."""
    k0 = 1
    while fits(k0 + _FLOOR_BLOCK - 1):
        yield range(k0, k0 + _FLOOR_BLOCK), np.int64
        k0 += _FLOOR_BLOCK
    size = 1
    while True:
        yield range(k0, k0 + size), object
        k0, size = k0 + size, min(2 * size, _EXACT_BLOCK)


def _candidate_array(ks: range, dtype: type) -> np.ndarray:
    if dtype is np.int64:
        return np.arange(ks.start, ks.stop, dtype=np.int64)
    return np.array(ks, dtype=object)


def _floor_blocks(spec: SequenceSpec) -> Iterator[np.ndarray]:
    """The terms of a floor family, one block of candidates k at a time.

    Candidate k is floor(p(k)) or floor(k**r).  It is kept when it
    exceeds max(0, every earlier candidate), so the terms are positive
    and strictly increasing.  The first kept term above MAX_TERM raises
    SequenceOverflowError(k), after the terms of its block before it
    have been yielded.  Every int64 block's floors go to one array, which
    the block's running maxima overwrite and its kept terms are packed
    into; each yielded block is a view of it, valid until the next.
    """
    if spec.family == "PolynomialFloor":
        denom = math.lcm(*(c.denominator for c in spec.param))
        ints = [int(c * denom) for c in spec.param]

        def fits(k: int) -> bool:  # bounds every Horner partial at k
            return sum(abs(c) * k**i for i, c in enumerate(ints)) <= _INT64_SAFE

        def floors(k: np.ndarray, out: np.ndarray) -> None:
            out[:] = ints[-1]
            for c in reversed(ints[:-1]):
                out *= k
                out += c
            out //= denom
    else:
        p, q = spec.param.numerator, spec.param.denominator

        def fits(k: int) -> bool:
            return _power_is_safe(k, p)

        def floors(k: np.ndarray, out: np.ndarray) -> None:
            _power_floors(p, q, k, out)

    terms = np.empty(_FLOOR_BLOCK, dtype=np.int64)
    last = 0  # max(0, every candidate so far)
    for ks, dtype in _candidates(fits):
        t = terms[: len(ks)] if dtype is np.int64 else np.empty(len(ks), dtype=object)
        floors(_candidate_array(ks, dtype), t)  # the candidates die with the call
        np.maximum(t, last, out=t)
        np.maximum.accumulate(t, out=t)  # t[i] = max(0, every candidate up to i)
        keep = np.empty(len(t), dtype=bool)
        keep[0] = t[0] > last
        np.greater(t[1:], t[:-1], out=keep[1:])  # a new maximum is a kept candidate
        last = int(t[-1])
        if last > MAX_TERM:  # the first candidate above it is kept, and cuts the block
            cut = int(np.argmax(t > MAX_TERM))
            keep[cut:] = False
        n = np.count_nonzero(keep)
        if n < len(t):
            t[:n] = t[keep]
        yield t[:n].astype(np.int64, copy=False)
        if last > MAX_TERM:
            raise SequenceOverflowError(ks[cut])


def _slices(arrays) -> Iterator[np.ndarray]:
    """Each array in views of at most _FLOOR_BLOCK terms, dropped before the next is drawn."""
    for a in arrays:
        for lo in range(0, len(a), _FLOOR_BLOCK):
            yield a[lo : lo + _FLOOR_BLOCK]
        del a


def _blocks(spec: SequenceSpec, count: int) -> Iterator[np.ndarray]:
    """The sequence in blocks of at most _FLOOR_BLOCK consecutive int64 terms,
    at least its first ``count`` terms where it has them.

    The prime sieve stops at a bound on the count-th prime; every other
    family ignores ``count``.  The first term above MAX_TERM raises
    SequenceOverflowError with its index; Explicit simply ends.  A count
    that no stream can reach below 2**63 raises before any block is made:
    past MAX_TERM for an increasing family, past 2**62 for Thue-Morse, and
    for the primes where the sieve bound passes MAX_TERM + 1.  A floor
    family's blocks are views of one array that its generator reuses, so
    each is valid only until the next one is drawn.
    """
    reach = {"Explicit": math.inf, "ThueMorseReturnTimes": 2**62}.get(spec.family, MAX_TERM)
    if count > reach or spec.family == "Primes" and _prime_bound(count) > MAX_TERM + 1:
        message = f"{spec.describe()} cannot reach term #{count} below 2**63"
        raise SequenceOverflowError(count, message)
    # k**r with r < 1, whose floors climb by at most one, has the naturals as its terms
    if spec.family == "Naturals" or (spec.family == "FractionalPowerFloor" and spec.param < 1):
        yield from _natural_blocks()
        raise SequenceOverflowError(MAX_TERM + 1)
    if spec.family == "ThueMorseReturnTimes":
        yield from _slices(_thue_morse_blocks())
        raise SequenceOverflowError(2**62 + 1)  # half of 0..MAX_TERM has odd popcount
    if spec.family == "Primes":
        yield from _slices(_prime_blocks(_prime_bound(count)))
    elif spec.family in _FLOOR_FAMILIES:
        yield from _floor_blocks(spec)
    elif spec.family == "Lacunary":
        n = lacunary_max_terms(spec.param)
        yield from _slices([np.array([spec.param**k for k in range(1, n + 1)], dtype=np.int64)])
        raise SequenceOverflowError(n + 1)
    else:
        yield from _slices([np.array(spec.param, dtype=np.int64)])


def _prefix(spec: SequenceSpec, count: int) -> np.ndarray:
    """The first ``count`` terms as a new int64 array.  An Explicit list
    shorter than ``count`` is refused before anything is allocated; every
    other stream reaches ``count`` or raises."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    if spec.family == "Explicit" and count > len(spec.param):
        raise ConfigError(f"{spec.describe()} has only {len(spec.param)} terms, {count} requested")
    out = np.empty(count, dtype=np.int64)
    filled = 0
    for block in _blocks(spec, count):
        take = min(len(block), count - filled)
        out[filled : filled + take] = block[:take]
        del block  # a view of a sieve segment keeps it alive while the next is sieved
        filled += take
        if filled == count:
            return out


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(count: int) -> None:
    """Refuse an int64 array of ``count`` terms that physical memory cannot
    hold beside the prefixes the times cache holds."""
    budget = _physical_memory()
    if budget is None:
        return
    cached = sum(a.nbytes for a in _prefixes.values())
    if 8 * count + cached > budget:
        raise ConfigError(
            f"{count} terms need {8 * count} bytes, and the times cache holds {cached};"
            f" together more than the {budget} bytes of physical memory"
        )


# The times cache: the longest prefix of each spec read in the running
# experiment, and its lookup counts, which outlive every release.
_prefixes: dict[SequenceSpec, np.ndarray] = {}
_lookups = {"hits": 0, "misses": 0}
_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


def times_array(spec: SequenceSpec, count: int) -> np.ndarray:
    """First ``count`` terms as a read-only int64 array (cached until
    :func:`release_prefixes`).

    A call for at most as many terms as the cached prefix of ``spec``
    holds is a hit and returns a view of it; any other call is a miss and
    generates the prefix, which replaces the shorter one in the cache.
    ``times_array.cache_info()`` counts lookups as ``functools.lru_cache``
    does, and ``times_array.cache_clear()`` is :func:`release_prefixes`.
    """
    arr = _prefixes.get(spec)
    if arr is not None and 1 <= count <= len(arr):
        _lookups["hits"] += 1
        return arr[:count]
    _lookups["misses"] += 1
    _check_memory(count)
    arr = _prefix(spec, count)
    arr.setflags(write=False)
    _prefixes[spec] = arr
    return arr


def release_prefixes() -> None:
    """Empty the times cache, so that it holds no prefix past the experiment
    that read it; the hit and miss counts stay."""
    _prefixes.clear()


times_array.cache_info = lambda: _CacheInfo(_lookups["hits"], _lookups["misses"], None, len(_prefixes))
times_array.cache_clear = release_prefixes


# ---------------------------------------------------------------------------
# close-pair counting


@dataclass(frozen=True)
class ClosePairCheckpoint:
    N: int
    count: int
    density: float


@dataclass(frozen=True)
class ClosePairProfile:
    """Exact close-pair counts of a sequence prefix at a ladder of lengths."""

    sequence: str
    max_gap: int
    checkpoints: tuple[ClosePairCheckpoint, ...]

    CSV_HEADER = ["N", "count", "density"]

    def csv_rows(self) -> list[list]:
        return [[c.N, c.count, c.density] for c in self.checkpoints]


# Sorted int64 terms map to uint64 keys in the same order, so a key minus a
# gap up to 2**64 - 1 (clipped at 0) never wraps, whatever the signs.
_SIGN = np.uint64(1 << 63)
_LOOK_BACK = 8


def _pair_sums(window: np.ndarray, block: np.ndarray, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Running close-pair counts over a sorted ``block``, and the next window.

    ``window`` holds, sorted, every earlier term within ``gap`` of the
    block's terms, and none above them.  Term j of ``c = window + block``
    adds 2 * back[j] + 1 ordered pairs, back[j] being how many of c[:j]
    lie within ``gap`` of it.  As c is sorted, these are c[j - d] for
    d = 1 .. back[j], so back is counted by looking back one d at a time
    until no term has a d-th neighbour within the gap.  Past
    _LOOK_BACK steps the terms still within it take one binary search
    each, so runs of equal terms, or a gap that admits every pair, stay
    O(n log n).  The next window is the terms within ``gap`` of the
    newest one.
    """
    c = np.concatenate((window, block))
    keys = c.view(np.uint64) ^ _SIGN
    g = np.uint64(min(gap, 2**64 - 1))
    w, n = len(window), len(c)
    back = np.zeros(len(block), dtype=np.int64)
    for d in range(1, _LOOK_BACK + 1):
        lo = max(w, d)  # the first term with a d-th neighbour
        near = keys[lo:] - keys[lo - d : n - d] <= g
        if not near.any():
            break
        back[lo - w :] += near
    else:
        far = np.flatnonzero(back == _LOOK_BACK)
        j = far + w
        back[far] = j - np.searchsorted(keys, keys[j] - np.minimum(keys[j], g))
    return np.cumsum(2 * back + 1), c[n - 1 - back[-1] :].copy()


def _validate_checkpoints(checkpoints: Sequence[int]) -> list[int]:
    """The checkpoints as ints: non-empty, positive and strictly increasing."""
    cps = [int(n) for n in checkpoints]
    if not cps or any(n < 1 for n in cps):
        raise ConfigError("checkpoints must be non-empty and positive")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ConfigError("checkpoints must be strictly increasing")
    return cps


def close_pair_count(prefix: Sequence[int], max_gap: int) -> int:
    """#{(i, j) : |a_i - a_j| <= max_gap} over ordered index pairs.

    The terms must fit in int64; they are sorted first (the count is
    invariant under permutations) and counted by `_pair_sums`.
    """
    if len(prefix) == 0:
        raise ConfigError("prefix must be non-empty")
    if max_gap < 0:
        raise ConfigError("max_gap must be >= 0")
    a = np.sort(np.asarray(prefix, dtype=np.int64))
    return int(_pair_sums(a[:0], a, max_gap)[0][-1])


def close_pair_profile(
    spec: SequenceSpec, max_gap: int, checkpoints: Sequence[int]
) -> ClosePairProfile:
    """Exact close-pair counts and densities of a sequence prefix at each checkpoint.

    The terms are read once, in blocks of at most _FLOOR_BLOCK, in their
    increasing order, each adding its pairs with earlier terms
    (`_pair_sums`, O(1) per term with at most _LOOK_BACK of them within
    ``max_gap``).  They are generated as they are read, outside the times
    cache: only the terms within ``max_gap`` of the newest one are kept
    from block to block, so memory stays at one block's temporaries plus
    that window (and one prime sieve segment) whatever the largest
    checkpoint, and the prime sieve stops at a bound on the last
    checkpoint's prime.  Explicit sequences,
    finite and possibly unsorted, count each checkpoint's prefix sorted;
    a last checkpoint past the list's length is refused before any work.
    """
    cps = _validate_checkpoints(checkpoints)
    if max_gap < 0:
        raise ConfigError("max_gap must be >= 0")

    if spec.family == "Explicit":
        prefix = _prefix(spec, cps[-1])
        counts = [close_pair_count(prefix[:n], max_gap) for n in cps]
    else:
        counts = []
        total = n0 = 0
        window = np.empty(0, dtype=np.int64)
        for block in _blocks(spec, cps[-1]):
            block = block[: cps[-1] - n0]
            if len(block):
                sums, window = _pair_sums(window, block, max_gap)
                counts += [total + int(sums[n - n0 - 1]) for n in cps[len(counts) :]
                           if n <= n0 + len(block)]
                total, n0 = total + int(sums[-1]), n0 + len(block)
            if n0 == cps[-1]:
                break
    out = tuple(ClosePairCheckpoint(n, c, c / (n * n)) for n, c in zip(cps, counts))
    return ClosePairProfile(spec.describe(), max_gap, out)


def lacunary_max_terms(base: int) -> int:
    """How many terms base**k fit below the 2**63 - 1 cap (62 for base 2)."""
    if base < 2:
        raise ConfigError("base must be >= 2")
    k = 0
    while base ** (k + 1) <= MAX_TERM:
        k += 1
    return k
