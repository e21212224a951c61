import itertools
import math
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from seqchaos import seqgen
from seqchaos.errors import ConfigError, SequenceOverflowError
from seqchaos.seqgen import (
    MAX_TERM,
    SequenceSpec,
    close_pair_count,
    close_pair_profile,
    generate_prefix,
    is_lacunary,
    lacunary_max_terms,
    prefix_with_skips,
    thue_morse_return_times,
    times_array,
)


def sieve_oracle(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return [n for n, f in enumerate(flags) if f]


def thue_morse_oracle(count):
    """Positions of 1 in the fixed point of the substitution 0 -> 01, 1 -> 10."""
    word = [0]
    while len(word) < 4 * count:
        word = [b for a in word for b in (a, 1 - a)]
    return [n for n, t in enumerate(word) if t == 1][:count]


def brute_pair_count(prefix, max_gap):
    return sum(
        1 for a in prefix for b in prefix if abs(a - b) <= max_gap
    )


# ---------------------------------------------------------------------------
# family generators


def test_primes_against_sieve():
    assert generate_prefix(SequenceSpec.primes(), 5) == [2, 3, 5, 7, 11]
    oracle = sieve_oracle(200_000)
    assert generate_prefix(SequenceSpec.primes(), 10_000) == oracle[:10_000]
    assert times_array(SequenceSpec.primes(), 10_000).tolist() == oracle[:10_000]


@settings(deadline=None, max_examples=40)
@given(block=st.integers(1, 50), segment=st.integers(1, 50))
def test_primes_across_small_segments(block, segment):
    oracle = sieve_oracle(2000)
    with mock.patch.object(seqgen, "_FLOOR_BLOCK", block), \
            mock.patch.object(seqgen, "_SIEVE_SEGMENT", segment):
        assert generate_prefix(SequenceSpec.primes(), 300) == oracle[:300]


@pytest.mark.parametrize(
    "count, segment", [(10**4, 997), (10**5, 1 << 14), (10**6, 1 << 18)]
)
def test_prime_prefix_sieves_up_to_the_rosser_bound(count, segment):
    # a known count ends the last segment at n (ln n + ln ln n), above p_n;
    # the streaming blocks (no count) keep doubling and give the same primes
    streamed = np.array(block_terms(SequenceSpec.primes(), count), dtype=np.int64)
    ends = []
    sieve = seqgen._sieve

    def recording(lo, hi, base):
        ends.append(hi)
        return sieve(lo, hi, base)

    with mock.patch.object(seqgen, "_SIEVE_SEGMENT", segment), \
            mock.patch.object(seqgen, "_sieve", recording):
        got = seqgen._prefix(SequenceSpec.primes(), count)[0]
    assert np.array_equal(got, streamed)
    bound = count * (math.log(count) + math.log(math.log(count)))
    assert streamed[-1] < bound and max(ends) <= bound + 2


def test_prime_prefix_of_1e5_sieves_1_4m_numbers():
    ends = []
    sieve = seqgen._sieve

    def recording(lo, hi, base):
        ends.append(hi)
        return sieve(lo, hi, base)

    with mock.patch.object(seqgen, "_sieve", recording):
        seqgen._prefix(SequenceSpec.primes(), 10**5)
    # segments [0, 2**17), [2**17, 3 * 2**17), [3 * 2**17, 7 * 2**17) and the
    # last one cut at the bound; the doubling segments sieved 1,966,080 numbers
    assert max(ends) == seqgen._prime_bound(10**5) == 1_395_641


def test_prime_bound_starts_at_six():
    assert seqgen._prime_bound(5) is None
    assert seqgen._prime_bound(None) is None
    assert generate_prefix(SequenceSpec.primes(), 6) == [2, 3, 5, 7, 11, 13]
    assert seqgen._prime_bound(6) > 13


@settings(deadline=None, max_examples=40)
@given(block=st.integers(1, 50))
def test_thue_morse_across_small_blocks(block):
    with mock.patch.object(seqgen, "_FLOOR_BLOCK", block):
        assert thue_morse_return_times(500) == thue_morse_oracle(500)


def test_polynomial_squares():
    spec = SequenceSpec.polynomial_floor([0, 0, 1])
    assert generate_prefix(spec, 4) == [1, 4, 9, 16]


def test_polynomial_rational_coefficients():
    # p(k) = k/2 + 1/3: floors computed over the common denominator
    spec = SequenceSpec.polynomial_floor([Fraction(1, 3), Fraction(1, 2)])
    expected = [math.floor(Fraction(1, 3) + Fraction(k, 2)) for k in range(1, 30)]
    expected = [t for t in expected if t > 0]
    deduped = []
    for t in expected:
        if not deduped or t > deduped[-1]:
            deduped.append(t)
    assert generate_prefix(spec, len(deduped)) == deduped


def test_polynomial_skip_rule():
    # p(k) = k**2 - 3k is <= 0 for k <= 3, then strictly increasing
    spec = SequenceSpec.polynomial_floor([0, -3, 1])
    prefix, skipped = prefix_with_skips(spec, 5)
    assert prefix == [4, 10, 18, 28, 40]
    assert skipped == 3


def test_fractional_power_small():
    spec = SequenceSpec.fractional_power_floor(Fraction(3, 2))
    assert generate_prefix(spec, 4) == [1, 2, 5, 8]


def test_fractional_power_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    spec = SequenceSpec.fractional_power_floor(Fraction(3, 2))
    got = generate_prefix(spec, 2000)
    for k in (1, 2, 3, 717, 1024, 1999, 2000):
        assert got[k - 1] == int(mp.floor(mp.mpf(k) ** mp.mpf("1.5")))


def test_fractional_power_full_range_certified():
    # independent certificate m**2 <= k**3 < (m+1)**2, checked term by term
    spec = SequenceSpec.fractional_power_floor(Fraction(3, 2))
    terms = times_array(spec, 1_000_000).tolist()
    for k, m in zip(range(1, 1_000_001), terms):
        cube = k * k * k
        assert m * m <= cube < (m + 1) * (m + 1)


def test_fractional_power_below_one_dedupes():
    spec = SequenceSpec.fractional_power_floor(Fraction(1, 2))
    prefix, skipped = prefix_with_skips(spec, 10)
    assert prefix == list(range(1, 11))  # distinct values of floor(sqrt(k))
    assert skipped > 0
    assert all(b > a for a, b in zip(prefix, prefix[1:]))


def test_thue_morse_against_substitution():
    oracle = thue_morse_oracle(1000)
    assert thue_morse_return_times(1) == [1]
    assert thue_morse_return_times(4) == [1, 2, 4, 7]
    assert thue_morse_return_times(1000) == oracle[:1000]
    assert thue_morse_return_times(100) == thue_morse_return_times(100)


def test_lacunary_powers_of_two():
    assert generate_prefix(SequenceSpec.lacunary(2), 4) == [2, 4, 8, 16]
    assert lacunary_max_terms(2) == 62
    assert generate_prefix(SequenceSpec.lacunary(2), 62)[-1] == 2**62
    with pytest.raises(SequenceOverflowError):
        generate_prefix(SequenceSpec.lacunary(2), 63)


def test_explicit_sequences():
    spec = SequenceSpec.explicit([5, 3, 9])
    assert generate_prefix(spec, 3) == [5, 3, 9]
    with pytest.raises(ConfigError):
        generate_prefix(spec, 4)


def test_invalid_parameters():
    with pytest.raises(ConfigError):
        SequenceSpec.polynomial_floor([7])  # degree 0
    with pytest.raises(ConfigError):
        SequenceSpec.polynomial_floor([0, 1, -2])  # negative leading
    with pytest.raises(ConfigError):
        SequenceSpec.fractional_power_floor(2)  # integer exponent
    with pytest.raises(ConfigError):
        SequenceSpec.fractional_power_floor(Fraction(-3, 2))
    with pytest.raises(ConfigError):
        SequenceSpec.lacunary(1)
    with pytest.raises(ConfigError):
        SequenceSpec.explicit([])
    with pytest.raises(ConfigError):
        SequenceSpec.explicit([0, 2])


def test_generate_prefix_is_pure():
    for spec in (
        SequenceSpec.primes(),
        SequenceSpec.polynomial_floor([0, 0, 1]),
        SequenceSpec.fractional_power_floor(Fraction(3, 2)),
    ):
        assert generate_prefix(spec, 500) == generate_prefix(spec, 500)


# ---------------------------------------------------------------------------
# block floor kernel against the per-term generators it replaced


def oracle_iroot(x, q):
    """Floor q-th root of a non-negative integer, exactly."""
    if x == 0 or q == 1:
        return x
    if q == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // q)
    while True:
        nxt = ((q - 1) * r + x // r ** (q - 1)) // q
        if nxt >= r:
            break
        r = nxt
    while r**q > x:
        r -= 1
    return r


def oracle_polynomial_stream(coefficients):
    """Yield (floor(p(k)), skipped_so_far) under the positivity/monotonicity skip rule."""
    denom = math.lcm(*(c.denominator for c in coefficients))
    ints = [int(c * denom) for c in coefficients]
    skipped = last = k = 0
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


def oracle_fractional_power_stream(exponent):
    p, q = exponent.numerator, exponent.denominator
    skipped = last = k = 0
    while True:
        k += 1
        term = oracle_iroot(k**p, q)
        if term <= last:  # only possible for r < 1, where floors repeat
            skipped += 1
            continue
        if term > MAX_TERM:
            raise SequenceOverflowError(k)
        last = term
        yield term, skipped


def oracle_stream(spec):
    if spec.family == "PolynomialFloor":
        return oracle_polynomial_stream(spec.coefficients)
    return oracle_fractional_power_stream(spec.exponent)


def oracle_prefix(spec, count):
    """(terms, skipped) of the oracle stream, or the index its overflow names."""
    try:
        pairs = list(itertools.islice(oracle_stream(spec), count))
    except SequenceOverflowError as exc:
        return exc.index
    return [t for t, _ in pairs], pairs[-1][1]


def kernel_prefix(spec, count):
    """The same from the block kernel, through every public entry point."""
    try:
        got = prefix_with_skips(spec, count)
    except SequenceOverflowError as exc:
        with pytest.raises(SequenceOverflowError) as again:
            times_array(spec, count)
        assert again.value.index == exc.index
        return exc.index
    assert times_array(spec, count).tolist() == got[0]
    assert block_terms(spec, count) == got[0]
    return got


def block_terms(spec, count=None):
    """The first ``count`` terms read straight off the block source (all if None)."""
    got = []
    for block, _ in seqgen._blocks(spec):
        got += block.tolist()
        if count is not None and len(got) >= count:
            return got[:count]
    return got


# the kernel's own block size, or a small one so that counts cross many edges
BLOCKS = st.one_of(st.just(seqgen._FLOOR_BLOCK), st.integers(1, 50))


def exponents(max_candidates):
    """p/q with q in {2, 3, 5, 7}; r < 1 only where the oracle's candidates stay few."""
    return st.builds(
        Fraction, st.integers(1, 40), st.sampled_from([2, 3, 5, 7])
    ).filter(lambda r: r.denominator > 1 and 300 ** (1 / r) <= max_candidates)


@settings(deadline=None, max_examples=150)
@given(exponent=exponents(3000), count=st.integers(1, 300), block=BLOCKS)
def test_fractional_power_kernel_matches_oracle(exponent, count, block):
    spec = SequenceSpec.fractional_power_floor(exponent)
    times_array.cache_clear()
    with mock.patch.object(seqgen, "_FLOOR_BLOCK", block):
        assert kernel_prefix(spec, count) == oracle_prefix(spec, count)


@settings(deadline=None, max_examples=60)
@given(
    exponent=st.sampled_from(
        [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5), Fraction(3, 7), Fraction(5, 7)]
    ),
    count=st.integers(1, 40),
    block=BLOCKS,
)
def test_fractional_power_below_one_repeats_match_oracle(exponent, count, block):
    # floors repeat: every repeat is a skipped candidate
    spec = SequenceSpec.fractional_power_floor(exponent)
    times_array.cache_clear()
    with mock.patch.object(seqgen, "_FLOOR_BLOCK", block):
        got = kernel_prefix(spec, count)
    assert got == oracle_prefix(spec, count)
    assert got[0] == list(range(1, count + 1))


def test_fractional_power_below_one_is_the_naturals_at_scale():
    # floor(k**(1/3)) first reaches N at k = N**3: 2.7e16 candidates, none enumerated
    spec = SequenceSpec.fractional_power_floor(Fraction(1, 3))
    n = 300_000
    started = time.perf_counter()
    times_array.cache_clear()
    assert times_array(spec, n).tolist() == list(range(1, n + 1))
    assert prefix_with_skips(spec, n)[1] == n**3 - n
    assert time.perf_counter() - started < 5
    # floor(k**(2/3)) first reaches N at the least k with k**2 >= N**3
    for n in (1, 2, 1000, 12345):
        k = math.isqrt(n**3 - 1) + 1
        assert prefix_with_skips(SequenceSpec.fractional_power_floor(Fraction(2, 3)), n)[1] == k - n


coefficient = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 7))


@settings(deadline=None, max_examples=150)
@given(
    lower=st.lists(coefficient, min_size=1, max_size=4),
    leading=st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)),
    count=st.integers(1, 300),
    block=BLOCKS,
)
def test_polynomial_kernel_matches_oracle(lower, leading, count, block):
    # negative and zero coefficients: non-positive and non-monotone early values are skipped
    spec = SequenceSpec.polynomial_floor(lower + [leading])
    times_array.cache_clear()
    with mock.patch.object(seqgen, "_FLOOR_BLOCK", block):
        assert kernel_prefix(spec, count) == oracle_prefix(spec, count)


def check_overflow_edge(spec, block, extra=0):
    """The oracle overflows at some k; every entry point keeps the terms before it."""
    # one pass of the oracle stream, up to its overflow
    pairs = []
    with pytest.raises(SequenceOverflowError) as exc:
        pairs.extend(itertools.islice(oracle_stream(spec), 10**6))
    overflow, valid = exc.value.index, len(pairs)
    times_array.cache_clear()
    with mock.patch.object(seqgen, "_FLOOR_BLOCK", block):
        if valid:
            assert kernel_prefix(spec, valid) == ([t for t, _ in pairs], pairs[-1][1])
            assert max(times_array(spec, valid)) <= MAX_TERM
        assert kernel_prefix(spec, valid + 1 + extra) == overflow
        with pytest.raises(SequenceOverflowError) as exc:
            block_terms(spec)
        assert exc.value.index == overflow


@settings(deadline=None, max_examples=100)
@given(
    offset=st.integers(0, 200),
    slope=st.integers(1, 9),
    denom=st.integers(1, 5),
    extra=st.integers(0, 3),
    block=BLOCKS,
)
def test_polynomial_terms_at_max_term(offset, slope, denom, extra, block):
    # (denom * MAX_TERM + slope * (k - offset)) / denom climbs past MAX_TERM
    # near k = offset; its blocks pass the int64 bound and run in Python ints
    base = Fraction(denom * MAX_TERM - offset * slope, denom)
    check_overflow_edge(SequenceSpec.polynomial_floor([base, Fraction(slope, denom)]), block, extra)


def test_polynomial_overflow_after_int64_blocks():
    # 2**61 * k: k = 1, 2 run as int64 blocks of two, k = 3 in Python ints, k = 4 overflows
    check_overflow_edge(SequenceSpec.polynomial_floor([0, 2**61]), 2)
    assert generate_prefix(SequenceSpec.polynomial_floor([0, 2**61]), 3)[-1] == 3 * 2**61


@settings(deadline=None, max_examples=100)
@given(
    exponent=st.builds(Fraction, st.integers(12, 300), st.sampled_from([2, 3, 5, 7])).filter(
        lambda r: r.denominator > 1 and r >= 6
    ),
    block=BLOCKS,
)
def test_fractional_power_terms_at_max_term(exponent, block):
    # k**r passes MAX_TERM below k = 2**(63/6), and k**p passes 2**62 much earlier
    check_overflow_edge(SequenceSpec.fractional_power_floor(exponent), block)


def test_fractional_power_overflow_at_exactly_two_to_the_63():
    # 4**(63/2) == 2**63 is the first term past MAX_TERM; 3**(63/2) is not
    spec = SequenceSpec.fractional_power_floor(Fraction(63, 2))
    assert generate_prefix(spec, 3) == [1, oracle_iroot(2**63, 2), oracle_iroot(3**63, 2)]
    with pytest.raises(SequenceOverflowError) as exc:
        generate_prefix(spec, 4)
    assert exc.value.index == 4


def test_short_prefix_reads_one_exact_sub_block():
    # k**199 passes 2**62 from k = 2, so every candidate is a Python int;
    # object blocks of 1, 2, 4 and 8 candidates hold the first ten terms
    spec = SequenceSpec.fractional_power_floor(Fraction(199, 100))
    candidates = 0
    power_floors = seqgen._power_floors

    def counting(p, q, k):
        nonlocal candidates
        candidates += len(k)
        return power_floors(p, q, k)

    with mock.patch.object(seqgen, "_power_floors", counting):
        terms, skipped = seqgen._prefix(spec, 10)
    assert (terms.tolist(), skipped) == tuple(oracle_prefix(spec, 10))
    assert 10 <= candidates <= 1024


@settings(deadline=None, max_examples=60)
@given(
    exponent=st.builds(Fraction, st.integers(64, 300), st.sampled_from([2, 3, 5, 7])).filter(
        lambda r: r.denominator > 1
    ),
    count=st.integers(1, 60),
    block=BLOCKS,
    sub_block=st.integers(1, 9),
)
def test_exact_sub_blocks_match_oracle(exponent, count, block, sub_block):
    # p >= 64: every candidate past k = 1 goes through Python ints
    spec = SequenceSpec.fractional_power_floor(exponent)
    times_array.cache_clear()
    with mock.patch.object(seqgen, "_FLOOR_BLOCK", block), \
            mock.patch.object(seqgen, "_EXACT_BLOCK", sub_block):
        assert kernel_prefix(spec, count) == oracle_prefix(spec, count)


def test_power_le_does_not_wrap():
    b = np.array([1, 2, 3, 2**20, 2**31 - 1, 2**31, 2**31 + 1], dtype=np.int64)
    x = np.array([1, 8, 26, 2**60, 2**62, 2**62, 2**62], dtype=np.int64)
    for q in (2, 3, 7):
        expected = [int(bi) ** q <= int(xi) for bi, xi in zip(b, x)]
        assert seqgen._power_le(b, q, x).tolist() == expected
        assert seqgen._power_le(b.astype(object), q, x.astype(object)).tolist() == expected
        assert seqgen._power_le(b.astype(object), q, x).tolist() == expected


def roots(x, q, estimate):
    """`seqgen._roots` on a length-1 object array."""
    return int(seqgen._roots(np.array([x], dtype=object), q, np.array([estimate]))[0])


@settings(deadline=None, max_examples=300)
@given(
    k=st.integers(1, 1000),
    p=st.integers(1, 300),
    q=st.integers(1, 100),
    scale=st.one_of(st.just(1.0), st.floats(0, 2)),
)
def test_roots_match_oracle(k, p, q, scale):
    # the floor path asks for roots below 2**63 with the float k**(p/q) as
    # the estimate; any other estimate must only cost steps
    x = k**p
    assume(x.bit_length() <= 63 * q)
    estimate = float(k) ** (p / q)
    assert roots(x, q, estimate) == oracle_iroot(x, q)
    assert roots(x, q, estimate * scale) == oracle_iroot(x, q)


def test_roots_from_a_truncated_estimate():
    # 2**1.99 = 3.97 truncates to 3; one Newton step from below lands near 4.6e12
    assert roots(2**199, 100, 2.0**1.99) == 3
    assert roots(2**199, 100, 3.0) == 3


def test_object_block_roots_between_two_to_the_53_and_63():
    # 7/2 below k = 2**18: float64 roots lose their last bits, the exact ones do not
    p, q = 7, 2
    k = np.array(range(2**18 - 600, 2**18), dtype=object)
    got = seqgen._power_floors(p, q, k).tolist()
    assert 2**53 <= min(got) and max(got) < 2**63
    assert got == [oracle_iroot(int(kk) ** p, q) for kk in k]


def test_polynomial_with_a_large_denominator_matches_oracle_to_its_overflow():
    # the common denominator 1000003 puts the Horner bound past 2**62 at k = 3,
    # so with blocks of two, k = 1, 2 form one int64 block and the rest object blocks
    spec = SequenceSpec.polynomial_floor(["1/1000003", "0", "1099511627776"])
    for block in (2, seqgen._FLOOR_BLOCK):
        check_overflow_edge(spec, block)
    with pytest.raises(SequenceOverflowError) as exc:
        generate_prefix(spec, 3000)
    assert exc.value.index == 2897


def test_times_array_refuses_more_than_physical_memory(monkeypatch):
    # the check runs before anything is allocated
    with pytest.raises(ConfigError, match="physical memory"):
        times_array(SequenceSpec.naturals(), 2**62)
    monkeypatch.setattr(seqgen, "_physical_memory", lambda: 8 * 1000)
    spec = SequenceSpec.polynomial_floor([3, 1])
    with pytest.raises(ConfigError, match="physical memory"):
        times_array(spec, 1001)
    assert times_array(spec, 1000).tolist() == list(range(4, 1004))


def test_primes_sieve_peak_memory():
    # one segment at a time: the 8 MB output plus one mask and its primes
    tracemalloc.start()
    try:
        times_array.cache_clear()
        times_array(SequenceSpec.primes(), 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        times_array.cache_clear()
    assert peak < 16_000_000


@settings(deadline=None, max_examples=200)
@given(
    lo=st.integers(0, 3000),
    width=st.one_of(st.integers(0, 2), st.integers(0, 3000)),
    composites=st.booleans(),
)
def test_sieve_matches_the_oracle(lo, width, composites):
    # even and odd lo, lo <= 2 < hi, and ranges of 0, 1 or 2 numbers; the base
    # may hold every integer up to the root (composites and 2 included)
    hi = lo + width
    root = math.isqrt(max(hi - 1, 0))
    primes = sieve_oracle(max(root, 1))
    base = np.arange(2, root + 1) if composites else np.array(primes, dtype=np.int64)
    got = seqgen._sieve(lo, hi, base)
    assert got.dtype == np.int64
    assert got.tolist() == [p for p in sieve_oracle(max(hi, 2)) if lo <= p < hi]


@pytest.mark.parametrize("lo, hi", [(0, 0), (0, 3), (2, 3), (2, 4), (3, 4), (1, 2), (0, 2), (4, 5)])
def test_sieve_edges(lo, hi):
    base = np.arange(2, math.isqrt(max(hi - 1, 0)) + 1)
    assert seqgen._sieve(lo, hi, base).tolist() == [p for p in [2, 3] if lo <= p < hi]


FAMILY_SPECS = [
    SequenceSpec.naturals(),
    SequenceSpec.primes(),
    SequenceSpec.polynomial_floor([0, 0, 1]),
    SequenceSpec.fractional_power_floor(Fraction(3, 2)),
    SequenceSpec.fractional_power_floor(Fraction(1, 2)),
    SequenceSpec.thue_morse_return_times(),
    SequenceSpec.lacunary(3),
    SequenceSpec.explicit(range(1, 300)),
]


@pytest.mark.parametrize("spec", FAMILY_SPECS, ids=lambda spec: spec.describe())
@pytest.mark.parametrize("size", [7, 50])
def test_blocks_hold_at_most_floor_block_terms(spec, size):
    # small blocks and sieve segments; the terms are those of the real sizes
    count = lacunary_max_terms(spec.base) if spec.family == "Lacunary" else 250
    expected = generate_prefix(spec, count)
    terms, sizes = [], []
    with mock.patch.object(seqgen, "_FLOOR_BLOCK", size), \
            mock.patch.object(seqgen, "_SIEVE_SEGMENT", 400):
        for block, _ in seqgen._blocks(spec, count):
            sizes.append(len(block))
            terms += block.tolist()
            if len(terms) >= count:
                break
    assert max(sizes) <= size
    assert terms[:count] == expected


def test_prime_blocks_slice_every_sieve_segment():
    # a 2**21-number segment above 2**21 holds more than 2**16 primes
    sizes = [len(b) for b, _ in seqgen._blocks(SequenceSpec.primes(), 10**6)]
    assert max(sizes) == seqgen._FLOOR_BLOCK
    assert sum(sizes) >= 10**6


def test_close_pair_profile_peak_memory():
    # one sieve segment plus the temporaries of one 2**16-term block
    spec = SequenceSpec.primes()
    tracemalloc.start()
    try:
        close_pair_profile(spec, 10, [10**3, 10**4, 10**5, 10**6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


# ---------------------------------------------------------------------------
# close pairs


def test_close_pair_count_examples():
    assert close_pair_count([1, 2, 3, 4, 5], 1) == 13
    assert close_pair_count([2, 4, 8, 16], 1) == 4
    assert close_pair_count([10, 20, 30], 0) == 3  # diagonal only


def test_close_pair_count_unsorted_is_permutation_invariant():
    prefix = [9, 1, 5, 2, 14, 7]
    assert close_pair_count(prefix, 3) == close_pair_count(sorted(prefix), 3)
    assert close_pair_count(prefix, 3) == brute_pair_count(prefix, 3)


@settings(deadline=None, max_examples=150)
@given(
    gaps=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=120),
    start=st.integers(min_value=1, max_value=1000),
    max_gap=st.integers(min_value=0, max_value=60),
)
def test_close_pair_count_matches_bruteforce(gaps, start, max_gap):
    prefix = [start]
    for g in gaps:
        prefix.append(prefix[-1] + g)
    n = len(prefix)
    count = close_pair_count(prefix, max_gap)
    assert count == brute_pair_count(prefix, max_gap)
    assert count >= n
    assert count <= n * (2 * max_gap + 1)  # strictly increasing prefixes
    if max_gap >= prefix[-1] - prefix[0]:
        assert count == n * n
    assert close_pair_count(prefix, max_gap + 1) >= count


def test_close_pair_count_matches_bruteforce_at_length_500():
    rng = np.random.default_rng(99)
    for max_gap in (0, 3, 17, 60):
        prefix = np.concatenate(([5], rng.integers(1, 25, size=499))).cumsum()
        brute = int((np.abs(prefix[:, None] - prefix[None, :]) <= max_gap).sum())
        assert close_pair_count(prefix.tolist(), max_gap) == brute


def test_profile_naturals():
    profile = close_pair_profile(SequenceSpec.naturals(), 1, [100])
    cp = profile.checkpoints[0]
    assert (cp.n, cp.count, cp.density) == (100, 298, 0.0298)


def test_profile_lacunary():
    profile = close_pair_profile(SequenceSpec.lacunary(2), 1, [50])
    assert profile.checkpoints[0].count == 50
    assert profile.checkpoints[0].density == 1 / 50


def test_profile_primes_decreasing():
    profile = close_pair_profile(SequenceSpec.primes(), 2, [1000, 10_000, 100_000])
    densities = [c.density for c in profile.checkpoints]
    assert densities[0] > densities[1] > densities[2]


def test_profile_matches_prefix_count():
    spec = SequenceSpec.fractional_power_floor(Fraction(3, 2))
    profile = close_pair_profile(spec, 5, [50, 200, 800])
    prefix = generate_prefix(spec, 800)
    for cp in profile.checkpoints:
        assert cp.count == close_pair_count(prefix[: cp.n], 5)


def test_profile_explicit_unsorted_stream():
    spec = SequenceSpec.explicit([5, 1, 9, 2, 2, 30])
    profile = close_pair_profile(spec, 3, [2, 4, 6])
    prefix = [5, 1, 9, 2, 2, 30]
    for cp in profile.checkpoints:
        assert cp.count == brute_pair_count(prefix[: cp.n], 3)


def test_profile_validation():
    with pytest.raises(ConfigError):
        close_pair_profile(SequenceSpec.naturals(), 1, [])
    with pytest.raises(ConfigError):
        close_pair_profile(SequenceSpec.naturals(), 1, [10, 10])
    with pytest.raises(ConfigError):
        close_pair_count([], 1)


UNSORTED = np.random.default_rng(7).integers(1, 60, size=150).tolist()
PROFILE_SPECS = {
    SequenceSpec.naturals(): lambda n: list(range(1, n + 1)),
    SequenceSpec.primes(): lambda n: sieve_oracle(1000)[:n],
    SequenceSpec.thue_morse_return_times(): thue_morse_oracle,
    SequenceSpec.lacunary(2): lambda n: [2**k for k in range(1, n + 1)],
    SequenceSpec.explicit(UNSORTED): lambda n: UNSORTED[:n],
    SequenceSpec.polynomial_floor([Fraction(-7, 2), -1, Fraction(1, 3)]): None,
    SequenceSpec.fractional_power_floor(Fraction(3, 2)): None,
    SequenceSpec.fractional_power_floor(Fraction(2, 3)): None,
}


@settings(deadline=None, max_examples=150)
@given(
    spec=st.sampled_from(list(PROFILE_SPECS)),
    checkpoints=st.lists(st.integers(1, 150), min_size=1, max_size=5, unique=True),
    max_gap=st.integers(0, 40),
    block=st.integers(1, 50),
    segment=st.integers(1, 50),
)
def test_profile_across_block_edges_matches_bruteforce(spec, checkpoints, max_gap, block, segment):
    cps = sorted({min(n, 62) for n in checkpoints})  # Lacunary[2] has 62 terms
    oracle = PROFILE_SPECS[spec]
    prefix = oracle(cps[-1]) if oracle else oracle_prefix(spec, cps[-1])[0]
    with mock.patch.object(seqgen, "_FLOOR_BLOCK", block), \
            mock.patch.object(seqgen, "_SIEVE_SEGMENT", segment):
        profile = close_pair_profile(spec, max_gap, cps)
    assert [(c.n, c.count) for c in profile.checkpoints] == [
        (n, brute_pair_count(prefix[:n], max_gap)) for n in cps
    ]


@settings(deadline=None, max_examples=100)
@given(
    terms=st.lists(st.integers(1, 30), min_size=1, max_size=60),
    max_gap=st.integers(0, 10),
    data=st.data(),
)
def test_profile_explicit_unsorted_with_repeats(terms, max_gap, data):
    cps = sorted(data.draw(st.sets(st.integers(1, len(terms)), min_size=1)))
    profile = close_pair_profile(SequenceSpec.explicit(terms), max_gap, cps)
    assert [c.count for c in profile.checkpoints] == [
        brute_pair_count(terms[:n], max_gap) for n in cps
    ]


def test_close_pair_gaps_do_not_wrap():
    # differences of int64 terms reach 2**64 - 1; larger gaps admit every pair
    low = -MAX_TERM - 1
    prefix = [MAX_TERM, low, 0, low + 1, -1, MAX_TERM - 1, 1, low]
    for max_gap in (0, 1, 2, MAX_TERM - 1, MAX_TERM, MAX_TERM + 1, 2**64 - 2, 2**64 - 1, 2**70):
        expected = brute_pair_count(prefix, max_gap)
        assert close_pair_count(prefix, max_gap) == expected
        assert close_pair_count(np.array(prefix, dtype=np.int64), max_gap) == expected
    assert close_pair_count(prefix, 2**70) == len(prefix) ** 2
    for max_gap in (2**62 - 3, MAX_TERM, 2**70):
        profile = close_pair_profile(SequenceSpec.lacunary(2), max_gap, [3, 62])
        powers = [2**k for k in range(1, 63)]
        assert profile.max_gap == max_gap
        assert [c.count for c in profile.checkpoints] == [
            brute_pair_count(powers[:3], max_gap), brute_pair_count(powers, max_gap)
        ]
        explicit = SequenceSpec.explicit([MAX_TERM, 1, MAX_TERM, 2**62])
        counts = [c.count for c in close_pair_profile(explicit, max_gap, [4]).checkpoints]
        assert counts == [brute_pair_count(explicit.explicit_terms, max_gap)]


# ---------------------------------------------------------------------------
# lacunarity predicate


def test_is_lacunary_examples():
    assert is_lacunary([2, 4, 8, 16], 2) is True
    assert is_lacunary([2, 3, 5, 7, 11], 1.5) is False  # 7/5 < 3/2
    assert is_lacunary([17], 100.0) is True
    assert is_lacunary([2, 3], Fraction(3, 2)) is True  # boundary ratio counts


def test_times_array_matches_generate_prefix():
    for spec, count in (
        (SequenceSpec.naturals(), 200),
        (SequenceSpec.primes(), 200),
        (SequenceSpec.thue_morse_return_times(), 200),
        (SequenceSpec.lacunary(3), 39),
    ):
        assert times_array(spec, count).tolist() == generate_prefix(spec, count)
    assert times_array(SequenceSpec.naturals(), 10).dtype == np.int64
