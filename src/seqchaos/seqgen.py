"""Integer sequence families and close-pair density profiles.

Provides the catalogue of sampling-time sequences used throughout the
package (naturals, primes, integer parts of rational-coefficient
polynomials and of fractional powers, return times of the Thue-Morse
word to the 1-cylinder, geometric/lacunary sequences, explicit lists)
together with exact counting of close index pairs

    #{(i, j) in [1, N]^2 : |a_i - a_j| <= L},

whose N**-2 density vanishing for every fixed L is the mildness
condition separating the catalogued families from lacunary ones.

All arithmetic that feeds a floor function is exact: polynomial values
are evaluated over a common integer denominator and fractional powers
k**(p/q) go through integer q-th roots of k**p, so the emitted integer
parts are bit-exact on every platform.  Terms are capped at 2**63 - 1
(`MAX_TERM`); generation raises instead of wrapping.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from collections import deque
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


def _iroot(x: int, q: int) -> int:
    """Floor q-th root of a non-negative integer, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0 or q == 1:
        return x
    if q == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // q)  # upper seed: 2**ceil(bits/q) >= x**(1/q)
    while True:
        nxt = ((q - 1) * r + x // r ** (q - 1)) // q
        if nxt >= r:
            break
        r = nxt
    while r**q > x:
        r -= 1
    return r


def _primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit, via a boolean sieve (int64 array)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def _prime_stream() -> Iterator[int]:
    """Primes in increasing order, sieving in growing segments."""
    segment = 1 << 17
    lo = 0
    base: np.ndarray | None = None
    while True:
        hi = lo + segment
        if base is None or (base.size and base[-1] ** 2 < hi):
            base = _primes_upto(math.isqrt(hi) + 1)
        mask = np.ones(segment, dtype=bool)
        if lo == 0:
            mask[:2] = False
        for p in base.tolist():
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start < hi:
                mask[start - lo :: p] = False
        for q in np.nonzero(mask)[0]:
            yield lo + int(q)
        lo = hi
        segment = min(segment * 2, 1 << 22)


def _polynomial_stream(coefficients: tuple[Fraction, ...]) -> Iterator[tuple[int, int]]:
    """Yield (floor(p(k)), skipped_so_far) applying the positivity/monotonicity skip rule."""
    denom = math.lcm(*(c.denominator for c in coefficients))
    ints = [int(c * denom) for c in coefficients]
    skipped = 0
    last = 0
    k = 0
    while True:
        k += 1
        acc = 0
        for c in reversed(ints):
            acc = acc * k + c
        term = acc // denom
        if term <= 0 or term <= last:
            skipped += 1
            continue
        if term > MAX_TERM:
            raise SequenceOverflowError(k)
        last = term
        yield term, skipped


def _fractional_power_stream(exponent: Fraction) -> Iterator[tuple[int, int]]:
    p, q = exponent.numerator, exponent.denominator
    skipped = 0
    last = 0
    k = 0
    while True:
        k += 1
        term = _iroot(k**p, q)
        if term <= last:  # only possible for r < 1, where floors repeat
            skipped += 1
            continue
        if term > MAX_TERM:
            raise SequenceOverflowError(k)
        last = term
        yield term, skipped


def _thue_morse_stream() -> Iterator[int]:
    n = 0
    while True:
        n += 1
        if n.bit_count() & 1:
            yield n


def terms(spec: SequenceSpec) -> Iterator[int]:
    """The sequence a_1, a_2, ... as a lazy stream of checked positive ints."""
    if spec.family == "Naturals":
        k = 0
        while k < MAX_TERM:
            k += 1
            yield k
        raise SequenceOverflowError(k + 1)
    if spec.family == "Primes":
        yield from _prime_stream()
    elif spec.family == "PolynomialFloor":
        for term, _ in _polynomial_stream(spec.coefficients):
            yield term
    elif spec.family == "FractionalPowerFloor":
        for term, _ in _fractional_power_stream(spec.exponent):
            yield term
    elif spec.family == "ThueMorseReturnTimes":
        yield from _thue_morse_stream()
    elif spec.family == "Lacunary":
        term = 1
        k = 0
        while True:
            k += 1
            term *= spec.base
            if term > MAX_TERM:
                raise SequenceOverflowError(k)
            yield term
    elif spec.family == "Explicit":
        yield from spec.explicit_terms


def prefix_with_skips(spec: SequenceSpec, count: int) -> tuple[list[int], int]:
    """First ``count`` terms plus the number of candidates the generator skipped.

    Skips only happen for PolynomialFloor (non-positive or non-monotone
    early values) and FractionalPowerFloor with exponent < 1 (repeated
    floors); every other family reports 0.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    if spec.family == "PolynomialFloor":
        gen = _polynomial_stream(spec.coefficients)
    elif spec.family == "FractionalPowerFloor":
        gen = _fractional_power_stream(spec.exponent)
    else:
        out = []
        it = terms(spec)
        for _ in range(count):
            try:
                out.append(next(it))
            except StopIteration:
                raise ConfigError(
                    f"{spec.describe()} has only {len(out)} terms, {count} requested"
                ) from None
        return out, 0
    out = []
    skipped = 0
    for _ in range(count):
        term, skipped = next(gen)
        out.append(term)
    return out, skipped


def generate_prefix(spec: SequenceSpec, count: int) -> list[int]:
    """First ``count`` terms a_1..a_count; deterministic and exact."""
    return prefix_with_skips(spec, count)[0]


@lru_cache(maxsize=32)
def times_array(spec: SequenceSpec, count: int) -> np.ndarray:
    """First ``count`` terms as an int64 array (cached; do not mutate)."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    if spec.family == "Naturals":
        arr = np.arange(1, count + 1, dtype=np.int64)
    elif spec.family == "Primes":
        # Rosser-style upper bound for the count-th prime, then one sieve.
        if count < 6:
            bound = 15
        else:
            n = float(count)
            bound = int(n * (math.log(n) + math.log(math.log(n)))) + 10
        primes = _primes_upto(bound)
        while primes.size < count:
            bound *= 2
            primes = _primes_upto(bound)
        arr = primes[:count].copy()
    else:
        arr = np.array(generate_prefix(spec, count), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def thue_morse_return_times(count: int) -> list[int]:
    """Indices n >= 1 where the Thue-Morse word (parity of binary digit sum,
    starting from t_0 = 0) reads 1; the return times of the 1-cylinder."""
    return generate_prefix(SequenceSpec.thue_morse_return_times(), count)


def export_prefix(spec: SequenceSpec, count: int, path) -> None:
    """Write the prefix as newline-delimited decimal integers."""
    with open(path, "w", encoding="ascii") as fh:
        for t in generate_prefix(spec, count):
            fh.write(f"{t}\n")


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


def close_pair_count(prefix: Sequence[int], max_gap: int) -> int:
    """#{(i, j) : |a_i - a_j| <= max_gap} over ordered index pairs.

    O(N) two-pointer sweep on sorted input; unsorted prefixes are sorted
    first (the count is invariant under permutations).
    """
    if len(prefix) == 0:
        raise ConfigError("prefix must be non-empty")
    if max_gap < 0:
        raise ConfigError("max_gap must be >= 0")
    a = list(prefix)
    if any(a[i] > a[i + 1] for i in range(len(a) - 1)):
        a.sort()
    lo = 0
    off_diagonal = 0
    for j, aj in enumerate(a):
        while a[lo] < aj - max_gap:
            lo += 1
        off_diagonal += j - lo
    return len(a) + 2 * off_diagonal


def close_pair_profile(
    spec: SequenceSpec, max_gap: int, checkpoints: Sequence[int]
) -> ClosePairProfile:
    """Stream the sequence once, recording exact counts and densities.

    For monotone streams only the terms within ``max_gap`` of the newest
    one are retained, so memory stays proportional to the largest such
    window rather than to N.  Explicit (possibly unsorted) sequences fall
    back to an order-statistics buffer.
    """
    if not checkpoints:
        raise ConfigError("checkpoints must be non-empty")
    cps = [int(n) for n in checkpoints]
    if any(n < 1 for n in cps) or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ConfigError("checkpoints must be positive and strictly increasing")
    if max_gap < 0:
        raise ConfigError("max_gap must be >= 0")

    out: list[ClosePairCheckpoint] = []
    count = 0
    if spec.family == "Explicit":
        seen: list[int] = []
        it = iter(generate_prefix(spec, cps[-1]))
        for n in range(1, cps[-1] + 1):
            a = next(it)
            neighbors = bisect_right(seen, a + max_gap) - bisect_left(seen, a - max_gap)
            count += 2 * neighbors + 1
            insort(seen, a)
            if n == cps[len(out)]:
                out.append(ClosePairCheckpoint(n, count, count / (n * n)))
    else:
        window: deque[int] = deque()
        stream = terms(spec)
        for n in range(1, cps[-1] + 1):
            a = next(stream)
            while window and window[0] < a - max_gap:
                window.popleft()
            count += 2 * len(window) + 1
            window.append(a)
            if n == cps[len(out)]:
                out.append(ClosePairCheckpoint(n, count, count / (n * n)))
    return ClosePairProfile(spec.describe(), max_gap, tuple(out))


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
