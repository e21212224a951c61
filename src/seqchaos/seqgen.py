"""Integer sequence families and close-pair density profiles.

Provides the catalogue of sampling-time sequences used throughout the
package (naturals, primes, integer parts of rational-coefficient
polynomials and of fractional powers, return times of the Thue-Morse
word to the 1-cylinder, geometric/lacunary sequences, explicit lists)
together with exact counting of close index pairs

    #{(i, j) in [1, N]^2 : |a_i - a_j| <= L},

whose N**-2 density vanishing for every fixed L is the mildness
condition separating the catalogued families from lacunary ones.

Each family has one generator, a source of int64 blocks of at most 2**16
consecutive terms (`_blocks`); the primes come from an odd-only
segmented sieve.  Prefixes (`times_array`, `generate_prefix`) fill one
array from it, and `close_pair_profile` counts pairs one block at a time
with a binary search per term, keeping only the terms within the gap of
the newest one.

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
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, SequenceOverflowError

MAX_TERM = (1 << 63) - 1

FAMILIES = (
    "Naturals",
    "Primes",
    "PolynomialFloor",
    "FractionalPowerFloor",
    "ThueMorseReturnTimes",
    "Lacunary",
    "Explicit",
)


@dataclass(frozen=True)
class SequenceSpec:
    """A named, parameterized, lazily generated stream of positive integers.

    Use the classmethod constructors; they validate family-specific
    parameters.  Specs are immutable, hashable and cheap to copy around.
    """

    family: str
    coefficients: tuple[Fraction, ...] | None = None
    exponent: Fraction | None = None
    base: int | None = None
    explicit_terms: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown sequence family {self.family!r}")
        if self.family == "PolynomialFloor":
            c = self.coefficients
            if not c or len(c) < 2:
                raise ConfigError("PolynomialFloor needs degree >= 1")
            if c[-1] <= 0:
                raise ConfigError("PolynomialFloor leading coefficient must be > 0")
        elif self.family == "FractionalPowerFloor":
            r = self.exponent
            if r is None or r <= 0:
                raise ConfigError("FractionalPowerFloor exponent must be > 0")
            if r.denominator == 1:
                raise ConfigError("FractionalPowerFloor exponent must be non-integer")
        elif self.family == "Lacunary":
            if self.base is None or self.base < 2:
                raise ConfigError("Lacunary base must be >= 2")
        elif self.family == "Explicit":
            t = self.explicit_terms
            if not t:
                raise ConfigError("Explicit sequence must be non-empty")
            if any(x < 1 for x in t):
                raise ConfigError("Explicit terms must be positive integers")
            if any(x > MAX_TERM for x in t):
                raise SequenceOverflowError(max(i for i, x in enumerate(t) if x > MAX_TERM) + 1)

    @classmethod
    def naturals(cls) -> "SequenceSpec":
        return cls("Naturals")

    @classmethod
    def primes(cls) -> "SequenceSpec":
        return cls("Primes")

    @classmethod
    def polynomial_floor(cls, coefficients: Sequence[Fraction | int | str]) -> "SequenceSpec":
        """Integer parts of b_0 + b_1 k + ... + b_m k**m; b_m > 0, m >= 1."""
        return cls("PolynomialFloor", coefficients=tuple(Fraction(c) for c in coefficients))

    @classmethod
    def fractional_power_floor(cls, exponent: Fraction | int | str) -> "SequenceSpec":
        """Integer parts of k**r for a non-integer rational r > 0."""
        return cls("FractionalPowerFloor", exponent=Fraction(exponent))

    @classmethod
    def thue_morse_return_times(cls) -> "SequenceSpec":
        return cls("ThueMorseReturnTimes")

    @classmethod
    def lacunary(cls, base: int) -> "SequenceSpec":
        return cls("Lacunary", base=base)

    @classmethod
    def explicit(cls, terms: Sequence[int]) -> "SequenceSpec":
        return cls("Explicit", explicit_terms=tuple(int(x) for x in terms))

    def describe(self) -> str:
        if self.family == "PolynomialFloor":
            return f"PolynomialFloor[{','.join(str(c) for c in self.coefficients)}]"
        if self.family == "FractionalPowerFloor":
            return f"FractionalPowerFloor[{self.exponent}]"
        if self.family == "Lacunary":
            return f"Lacunary[{self.base}]"
        if self.family == "Explicit":
            return f"Explicit[{len(self.explicit_terms)} terms]"
        return self.family

    def to_json_dict(self) -> dict:
        """The family and its parameters, keyed as in an experiment config."""
        out: dict = {"family": self.family}
        if self.coefficients is not None:
            out["coefficients"] = [str(c) for c in self.coefficients]
        if self.exponent is not None:
            out["exponent"] = str(self.exponent)
        if self.base is not None:
            out["base"] = self.base
        if self.explicit_terms is not None:
            out["terms"] = list(self.explicit_terms)
        return out


# ---------------------------------------------------------------------------
# generators
#
# Every family yields blocks of at most _FLOOR_BLOCK terms.  Naturals and
# Thue-Morse come in blocks of _FLOOR_BLOCK integers; prime sieve segments
# double from 2 * _FLOOR_BLOCK numbers up to _SIEVE_SEGMENT and are sliced.
# A floor family's candidates come in int64 blocks of _FLOOR_BLOCK while no
# value they form can pass _INT64_SAFE, so nothing wraps; after that in
# object blocks of Python ints, doubling up to _EXACT_BLOCK candidates, on
# which the same array code runs exactly.
_FLOOR_FAMILIES = ("PolynomialFloor", "FractionalPowerFloor")
_FLOOR_BLOCK = 1 << 16
_EXACT_BLOCK = 1 << 10
_SIEVE_SEGMENT = 1 << 21
_INT64_SAFE = 1 << 62


def _sieve(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The primes in [lo, hi), given every prime up to sqrt(hi) in ``base``.

    The mask holds only the odd numbers of [lo, hi), and 2 is prepended
    when it lies in the range (Bays and Hudson, BIT 17, 1977, keep odd
    candidates only).  ``base`` may hold composites too, as sieving by
    an odd composite strikes only composites; its even entries are
    skipped.  Each odd p strikes its odd multiples from max(p**2, lo)
    on, every p-th mask entry.
    """
    first = lo | 1  # the odd numbers first, first + 2, ... below hi
    mask = np.ones(max(0, (hi - first + 1) // 2), dtype=bool)
    mask[: int(first == 1)] = False  # 1
    for p in base[base % 2 == 1].tolist():
        start = max(p * p, -(-lo // p) * p)
        if start % 2 == 0:
            start += p
        if start < hi:
            mask[(start - first) // 2 :: p] = False
    primes = np.flatnonzero(mask).astype(np.int64, copy=False)
    primes *= 2
    primes += first
    return np.concatenate(([2], primes)) if lo <= 2 < hi else primes


def _prime_bound(count: int | None) -> int | None:
    """An integer above the count-th prime (Rosser: p_n < n (ln n + ln ln n), n >= 6)."""
    if count is None or count < 6:
        return None
    return int(count * (math.log(count) + math.log(math.log(count)))) + 2


def _prime_blocks(stop: int | None = None) -> Iterator[np.ndarray]:
    """The primes in increasing order, one sieved segment at a time.

    With ``stop``, the segment that reaches it ends there and is the last.
    """
    lo, size = 0, 2 * _FLOOR_BLOCK
    while stop is None or lo < stop:
        hi = lo + min(size, _SIEVE_SEGMENT)
        if stop is not None:
            hi = min(hi, stop)
        root = math.isqrt(hi - 1)
        # sieving by every integer up to isqrt(root), prime or not, is exact
        yield _sieve(lo, hi, _sieve(0, root + 1, np.arange(2, math.isqrt(root) + 1)))
        lo, size = hi, 2 * size


def _natural_blocks() -> Iterator[np.ndarray]:
    """1, 2, ..., MAX_TERM in blocks of _FLOOR_BLOCK."""
    for k0 in range(1, MAX_TERM + 1, _FLOOR_BLOCK):
        yield np.arange(k0, min(k0 + _FLOOR_BLOCK, MAX_TERM + 1), dtype=np.int64)


def _odd_popcount(n: np.ndarray) -> np.ndarray:
    """Whether each n >= 0 has an odd binary digit sum, by xor-folding its bits."""
    x = n ^ (n >> 32)
    for shift in (16, 8, 4, 2, 1):
        x ^= x >> shift
    return (x & 1).astype(bool)


def _power_is_safe(base: int, exponent: int) -> bool:
    """base**exponent <= _INT64_SAFE for base >= 1, without forming huge powers."""
    return exponent * (base.bit_length() - 1) <= 62 and base**exponent <= _INT64_SAFE


def _power_le(b: np.ndarray, q: int, x: np.ndarray) -> np.ndarray:
    """``b**q <= x`` elementwise and exactly, for ``b >= 1``.

    An int64 ``b`` whose power could pass 2**62 is cast to Python ints
    (dtype object) first, so nothing wraps.
    """
    if not _power_is_safe(int(b.max()), q):
        b = b.astype(object)
    return b**q <= x


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


def _power_floors(p: int, q: int, k: np.ndarray) -> np.ndarray:
    """floor(k**(p/q)) for a block of candidates k, with every root at or
    past 2**63 sent to 2**63.

    An int64 block has every k**p <= 2**62: its float64 root is within one
    of the floor (the root is below 2**31), and the two loops step it to
    the exact floor whatever it is.  An object block takes Newton steps
    (`_roots`) on k**p clipped at 2**(63q), whose root is 2**63.
    """
    if k.dtype == object:
        with np.errstate(over="ignore"):  # far past 2**63, the estimate is inf
            return _roots(np.minimum(k**p, 1 << 63 * q), q, k.astype(np.float64) ** (p / q))
    x = k**p
    r = np.maximum(np.floor(np.power(k.astype(np.float64), p / q)), 1).astype(np.int64)
    while (high := ~_power_le(r, q, x)).any():
        r -= high
    while (low := _power_le(r + 1, q, x)).any():
        r += low
    return r


def _candidates(fits) -> Iterator[np.ndarray]:
    """The candidates k = 1, 2, ... in consecutive blocks: _FLOOR_BLOCK int64
    k while ``fits`` holds at a block's last k, then Python ints (dtype
    object) in blocks doubling from 1 to _EXACT_BLOCK candidates."""
    k0 = 1
    while fits(k0 + _FLOOR_BLOCK - 1):
        yield np.arange(k0, k0 + _FLOOR_BLOCK, dtype=np.int64)
        k0 += _FLOOR_BLOCK
    size = 1
    while True:
        yield np.array(range(k0, k0 + size), dtype=object)
        k0, size = k0 + size, min(2 * size, _EXACT_BLOCK)


def _floor_blocks(spec: SequenceSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(terms, k) of a floor family, one block of candidates k at a time.

    Candidate k is floor(p(k)) or floor(k**r).  It is kept when it
    exceeds max(0, every earlier candidate), so the terms are positive
    and strictly increasing; the others count as skipped.  The first kept
    term above MAX_TERM raises SequenceOverflowError(k), after the terms
    of its block before it have been yielded.
    """
    if spec.family == "PolynomialFloor":
        denom = math.lcm(*(c.denominator for c in spec.coefficients))
        ints = [int(c * denom) for c in spec.coefficients]

        def fits(k: int) -> bool:  # bounds every Horner partial at k
            return sum(abs(c) * k**i for i, c in enumerate(ints)) <= _INT64_SAFE

        def floors(k: np.ndarray) -> np.ndarray:
            acc = np.full(len(k), ints[-1], dtype=k.dtype)
            for c in reversed(ints[:-1]):
                acc *= k
                acc += c
            return acc // denom
    else:
        p, q = spec.exponent.numerator, spec.exponent.denominator

        def fits(k: int) -> bool:
            return _power_is_safe(k, p)

        def floors(k: np.ndarray) -> np.ndarray:
            return _power_floors(p, q, k)

    last = 0  # max(0, every candidate so far)
    for k in _candidates(fits):
        t = floors(k)
        running = np.maximum.accumulate(t)
        before = np.empty_like(t)
        before[0] = last
        np.maximum(running[:-1], last, out=before[1:])
        keep = t > before
        last = max(last, int(running[-1]))
        if last > MAX_TERM:  # the first candidate above it is kept, and cuts the block
            cut = int(np.argmax(t > MAX_TERM))
            keep[cut:] = False
        yield t[keep].astype(np.int64, copy=False), k[keep].astype(np.int64, copy=False)
        if last > MAX_TERM:
            raise SequenceOverflowError(int(k[cut]))


def _slices(arrays) -> Iterator[tuple[np.ndarray, None]]:
    """Each array in views of at most _FLOOR_BLOCK terms, as (terms, None) blocks."""
    for a in arrays:
        for lo in range(0, len(a), _FLOOR_BLOCK):
            yield a[lo : lo + _FLOOR_BLOCK], None


def _below_one(spec: SequenceSpec) -> bool:
    """k**r with r < 1, whose floors climb by at most one: its terms are the naturals."""
    return spec.family == "FractionalPowerFloor" and spec.exponent < 1


def _blocks(
    spec: SequenceSpec, count: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """The sequence as (terms, k) blocks of at most _FLOOR_BLOCK consecutive
    int64 terms.

    A caller that needs only the first ``count`` terms may say so: the
    prime sieve then stops at a bound on the count-th prime.

    ``k`` holds each term's candidate index for the floor families that
    enumerate candidates, and is None otherwise (powers below one skip
    candidates too; `_prefix` counts those in closed form).  The first
    term above MAX_TERM raises SequenceOverflowError with its index;
    Explicit simply ends.
    """
    if spec.family == "Naturals" or _below_one(spec):
        for block in _natural_blocks():
            yield block, None
        raise SequenceOverflowError(MAX_TERM + 1)
    if spec.family == "ThueMorseReturnTimes":
        for block in _natural_blocks():
            yield block[_odd_popcount(block)], None
        raise SequenceOverflowError(2**62 + 1)  # half of 0..MAX_TERM has odd popcount
    if spec.family == "Primes":
        yield from _slices(_prime_blocks(_prime_bound(count)))
    elif spec.family in _FLOOR_FAMILIES:
        yield from _floor_blocks(spec)
    elif spec.family == "Lacunary":
        n = lacunary_max_terms(spec.base)
        yield from _slices([np.array([spec.base**k for k in range(1, n + 1)], dtype=np.int64)])
        raise SequenceOverflowError(n + 1)
    else:
        yield from _slices([np.array(spec.explicit_terms, dtype=np.int64)])


def _prefix(spec: SequenceSpec, count: int) -> tuple[np.ndarray, int]:
    """The first ``count`` terms as a new int64 array, and the candidates skipped."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    out = np.empty(count, dtype=np.int64)
    filled = 0
    for block, ks in _blocks(spec, count):
        take = min(len(block), count - filled)
        out[filled : filled + take] = block[:take]
        filled += take
        if filled == count:
            break
    else:
        raise ConfigError(f"{spec.describe()} has only {filled} terms, {count} requested")
    if _below_one(spec):
        # term N first appears at k = ceil(N**(q/p)), the least k with k**p >= N**q;
        # the estimate is clipped below float overflow (any estimate is safe)
        p, q = spec.exponent.numerator, spec.exponent.denominator
        x = count**q
        estimate = np.array([2.0 ** min(math.log2(count) * q / p, 1000.0)])
        k = int(_roots(np.array([x], dtype=object), p, estimate)[0])
        return out, k + (k**p < x) - count
    return out, 0 if ks is None else int(ks[take - 1]) - count


def prefix_with_skips(spec: SequenceSpec, count: int) -> tuple[list[int], int]:
    """First ``count`` terms plus the number of candidates the generator skipped.

    Skips only happen for PolynomialFloor (non-positive or non-monotone
    early values) and FractionalPowerFloor with exponent < 1 (repeated
    floors); every other family reports 0.
    """
    terms, skipped = _prefix(spec, count)
    return terms.tolist(), skipped


def generate_prefix(spec: SequenceSpec, count: int) -> list[int]:
    """First ``count`` terms a_1..a_count; deterministic and exact."""
    return prefix_with_skips(spec, count)[0]


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(count: int) -> None:
    """Refuse an int64 array of ``count`` terms that physical memory cannot hold."""
    budget = _physical_memory()
    if budget is not None and 8 * count > budget:
        raise ConfigError(
            f"{count} terms need {8 * count} bytes, more than the {budget} bytes"
            " of physical memory"
        )


@lru_cache(maxsize=32)
def times_array(spec: SequenceSpec, count: int) -> np.ndarray:
    """First ``count`` terms as an int64 array (cached; do not mutate)."""
    _check_memory(count)
    arr = _prefix(spec, count)[0]
    arr.setflags(write=False)
    return arr


def thue_morse_return_times(count: int) -> list[int]:
    """Indices n >= 1 where the Thue-Morse word (parity of binary digit sum,
    starting from t_0 = 0) reads 1; the return times of the 1-cylinder."""
    return generate_prefix(SequenceSpec.thue_morse_return_times(), count)


# ---------------------------------------------------------------------------
# close-pair counting


@dataclass(frozen=True)
class ClosePairCheckpoint:
    n: int
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
        return [[c.n, c.count, c.density] for c in self.checkpoints]

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "max_gap": self.max_gap,
            "checkpoints": [
                {"N": c.n, "count": c.count, "density": c.density} for c in self.checkpoints
            ],
        }


# Sorted int64 terms map to uint64 keys in the same order, so a key minus a
# gap up to 2**64 - 1 (clipped at 0) never wraps, whatever the signs.
_SIGN = np.uint64(1 << 63)


def _pair_sums(window: np.ndarray, block: np.ndarray, gap: int) -> tuple[np.ndarray, np.ndarray]:
    """Running close-pair counts over a sorted ``block``, and the next window.

    ``window`` holds, sorted, every earlier term within ``gap`` of the
    block's terms, and none above them.  Term j of ``c = window + block``
    is within ``gap`` of the terms c[lo:j], lo = searchsorted(c, c[j] - gap),
    so it adds 2 * (j - lo) + 1 ordered pairs.  The next window is the
    terms within ``gap`` of the newest one.
    """
    c = np.concatenate((window, block))
    keys = c.view(np.uint64) ^ _SIGN
    new = keys[len(window) :]
    lo = np.searchsorted(keys, new - np.minimum(new, np.uint64(min(gap, 2**64 - 1))))
    steps = 2 * (np.arange(len(window), len(c)) - lo) + 1
    return np.cumsum(steps), c[lo[-1] :].copy()


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
    invariant under permutations) and counted with one binary search
    each.
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
    increasing order; only the terms within ``max_gap`` of the newest one
    are kept from block to block, so memory stays at one block's
    temporaries plus that window (and one prime sieve segment) whatever
    the largest checkpoint.  The prime sieve stops at a bound on the
    last checkpoint's prime.  Explicit sequences, finite and possibly
    unsorted, count each checkpoint's prefix sorted.
    """
    cps = _validate_checkpoints(checkpoints)
    if max_gap < 0:
        raise ConfigError("max_gap must be >= 0")

    if spec.family == "Explicit":
        prefix = _prefix(spec, cps[-1])[0]
        counts = [close_pair_count(prefix[:n], max_gap) for n in cps]
    else:
        counts = []
        total = n0 = 0
        window = np.empty(0, dtype=np.int64)
        for block, _ in _blocks(spec, cps[-1]):
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


def is_lacunary(prefix: Sequence[int], ratio: Fraction | float | int) -> bool:
    """True iff a_{k+1}/a_k >= ratio for every consecutive pair (exact compare)."""
    if len(prefix) == 0:
        raise ConfigError("prefix must be non-empty")
    if any(x <= 0 for x in prefix):
        raise ConfigError("prefix terms must be positive")
    r = Fraction(ratio)
    return all(
        prefix[k + 1] * r.denominator >= prefix[k] * r.numerator
        for k in range(len(prefix) - 1)
    )


def lacunary_max_terms(base: int) -> int:
    """How many terms base**k fit below the 2**63 - 1 cap (62 for base 2)."""
    if base < 2:
        raise ConfigError("base must be >= 2")
    k = 0
    term = 1
    while term * base <= MAX_TERM:
        term *= base
        k += 1
    return k
