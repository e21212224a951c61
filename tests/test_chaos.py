import dataclasses
import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqchaos.averaging as averaging
import seqchaos.chaos as chaos
import seqchaos.systems as sy
from seqchaos.chaos import (
    TupleCheckpoint,
    build_scrambled_family,
    distance_series,
    random_tuple_scan,
    tuple_distance_averages,
    verify_scrambled,
)
from seqchaos.errors import ConfigError, DomainError
from seqchaos.prf import child_seed
from seqchaos.reporting import json_dumps
from seqchaos.seqgen import MAX_TERM, SequenceSpec

from oracles import ShiftedPoint, generate_prefix, iterate, oracle_series

FAIR = sy.FullShift.uniform(2)
NATURALS = SequenceSpec("Naturals")
PRIMES = SequenceSpec("Primes")
SQUARES = SequenceSpec("PolynomialFloor", [0, 0, 1])


def zeros(s=2):
    return sy.PeriodicPoint((0,), s)


def ones(s=2):
    return sy.PeriodicPoint((1,), s)


# ---------------------------------------------------------------------------
# distance series


def test_interval_path_matches_scalar_metric():
    x = sy.BlockScheduledPoint((10, 25, 60), (0, 1, 0, 1), alphabet_size=2)
    y = sy.BlockScheduledPoint((15, 40), (1, 0, 1), alphabet_size=2)
    times = np.arange(1, 101, dtype=np.int64)
    fast = distance_series(FAIR, [x], [y], times)[0]
    assert fast.tolist() == oracle_series(FAIR, x, y, times)


# change points: coordinate 0, a few near 2**40, and the rest close together
INTERVAL_STARTS = st.one_of(st.integers(1, 120), st.integers(2**40 - 60, 2**40 + 60))


@st.composite
def piecewise_points(draw, alphabet=3):
    starts = sorted(draw(st.sets(INTERVAL_STARTS, max_size=6)))
    symbols = draw(st.lists(st.integers(0, alphabet - 1), min_size=len(starts) + 1,
                            max_size=len(starts) + 1))
    if not starts:
        return sy.PeriodicPoint((symbols[0],), alphabet)
    return sy.BlockScheduledPoint(tuple(starts), tuple(symbols), alphabet)


@settings(deadline=None, max_examples=200)
@given(
    pairs=st.lists(st.tuples(piecewise_points(), piecewise_points()), min_size=1, max_size=3),
    window=st.integers(1, 53),
    times=st.lists(st.one_of(st.integers(0, 200), st.integers(2**40 - 120, 2**40 + 120)),
                   max_size=30),
)
def test_interval_path_matches_the_oracle(pairs, window, times):
    # unsorted and repeated times, windows up to 53, and toggles whose
    # window (p - w, p) holds no time at all
    system = sy.FullShift.uniform(3, window=window)
    ts = np.array(times, dtype=np.int64)
    xs, ys = zip(*pairs)
    got = distance_series(system, xs, ys, ts)
    assert got.shape == (len(pairs), len(ts))
    for row, (x, y) in zip(got.tolist(), pairs):
        assert [v.hex() for v in row] == [v.hex() for v in oracle_series(system, x, y, ts)]


@pytest.mark.parametrize("boundary", [2**63 - 10, 2**63 + 5, 2**70])
@pytest.mark.parametrize("window", [1, 25, 48, 53])
def test_interval_path_with_change_points_past_int64(boundary, window):
    # change points beyond every time are clamped before the searches: no
    # OverflowError, and each time keeps its side of every change point;
    # the third y is x shifted by 2**62
    system = sy.FullShift.uniform(2, window=window)
    x = sy.BlockScheduledPoint((boundary,), (0, 1), 2)
    ys = [zeros(), ones(), sy.BlockScheduledPoint((boundary - 2**62,), (0, 1), 2)]
    times = np.array([1, 2**63 - 60, 2**63 - 20, 2**63 - 1], dtype=np.int64)
    got = distance_series(system, [x] * 3, ys, times)
    for row, y in zip(got.tolist(), ys):
        assert row == oracle_series(system, x, y, times)
    if boundary == 2**63 + 5 and window == 48:
        assert got[0].tolist() == [0.0, 0.0, 2.0**-25 - 2.0**-48, 2.0**-6 - 2.0**-48]


def test_window_path_matches_scalar_metric():
    x = sy.sample_point(FAIR, 1)
    y = sy.sample_point(FAIR, 2)
    times = np.array([1, 2, 3, 50, 1000, 12345], dtype=np.int64)
    fast = distance_series(FAIR, [x], [y], times)[0]
    assert fast.tolist() == oracle_series(FAIR, x, y, times)


def test_mixed_point_kinds_use_window_path():
    x = sy.sample_point(FAIR, 3)
    y = zeros()
    times = np.arange(1, 64, dtype=np.int64)
    assert distance_series(FAIR, [x], [y], times)[0].tolist() == oracle_series(FAIR, x, y, times)


@pytest.mark.parametrize(
    "system, pairs",
    [
        (FAIR, [(zeros(), sy.BlockScheduledPoint((3, 40), (0, 1, 0), 2)), (zeros(), ones())]),
        (FAIR, [(zeros(), ones()), (sy.sample_point(FAIR, 1), sy.sample_point(FAIR, 2)),
                (sy.sample_point(FAIR, 2), zeros())]),
        (sy.ProductSystem((FAIR, sy.Rotation.golden())),
         [((zeros(), 1), (ones(), 2**127)), ((sy.sample_point(FAIR, 1), 5), (zeros(), 7))]),
    ],
    ids=["intervals", "mixed", "product"],
)
def test_pairs_as_rows_keep_each_pairs_series(system, pairs):
    # the pairs of one call share their points' reads, never their values
    times = np.array([3, 0, 41, 2**40, 3], dtype=np.int64)
    xs, ys = zip(*pairs)
    got = distance_series(system, xs, ys, times)
    assert got.tolist() == [oracle_series(system, x, y, times) for x, y in pairs]
    assert distance_series(system, [], [], times).shape == (0, len(times))
    assert distance_series(system, xs, ys, []).shape == (len(pairs), 0)
    with pytest.raises(DomainError):
        distance_series(system, xs, ys[:1], times)


@pytest.mark.parametrize(
    "x, y",
    [
        (zeros(), sy.BlockScheduledPoint((3,), (0, 1), alphabet_size=2)),  # interval path
        (sy.sample_point(FAIR, 1), sy.sample_point(FAIR, 2)),  # tape path
    ],
    ids=["intervals", "tape"],
)
def test_series_refuses_what_iterate_refuses(x, y):
    with pytest.raises(DomainError):
        distance_series(FAIR, [x], [y], np.array([-5, 3], dtype=np.int64))
    two_sided = sy.PeriodicPoint((0,), 2, side=sy.TWO_SIDED)
    for a, b in ((x, two_sided), (two_sided, y)):
        with pytest.raises(DomainError):
            distance_series(FAIR, [a], [b], np.array([0, 3], dtype=np.int64))
    prod = sy.ProductSystem((FAIR, sy.Rotation.golden()))
    for a, b in (((x,), (y, 0)), ((x, 0), (y, 0, 0))):
        with pytest.raises(DomainError):
            distance_series(prod, [a], [b], np.array([0, 3], dtype=np.int64))
    with pytest.raises(DomainError):
        distance_series(prod, [(x, 0)], [(y, 0)], np.array([-1], dtype=np.int64))


# ---------------------------------------------------------------------------
# difference tapes


def window_gather(x, y, times, window):
    # reference: every time's window read straight from both points
    idx = (np.asarray(times, dtype=np.int64)[:, None] + np.arange(window)).ravel()
    diff = (x.coordinates(idx) != y.coordinates(idx)).reshape(len(times), window)
    return diff.astype(np.float64) @ np.ldexp(1.0, -np.arange(1, window + 1))


class CountingPoint(sy.SymbolicPoint):
    """Counts the vectorized coordinate reads of the point it wraps."""

    def __init__(self, base):
        self.base = base
        self.alphabet_size = base.alphabet_size
        self.side = base.side
        self.reads = 0
        self.most = 0  # largest read

    def coordinate(self, i):
        return self.base.coordinate(i)

    def coordinates(self, indices):
        self.reads += 1
        self.most = max(self.most, len(indices))
        return self.base.coordinates(indices)


WEIGHTS = [
    (Fraction(1, 2),) * 2,
    (Fraction(1, 3),) * 3,
    (Fraction(1, 10), Fraction(9, 10)),
]


@st.composite
def tape_points(draw, weights):
    seeded = sy.SeededRandomPoint(draw(st.integers(0, 2**64 - 1)), weights)
    kind = draw(st.sampled_from(["seeded", "shifted", "blocks"]))
    if kind == "shifted":
        return ShiftedPoint(seeded, draw(st.integers(1, 1000)))
    if kind == "blocks":
        boundaries = sorted(draw(st.sets(st.integers(1, 200), min_size=1, max_size=4)))
        contents = draw(
            st.lists(
                st.one_of(st.integers(0, len(weights) - 1), st.just(seeded)),
                min_size=len(boundaries) + 1,
                max_size=len(boundaries) + 1,
            )
        )
        return sy.BlockScheduledPoint(tuple(boundaries), tuple(contents), len(weights))
    return seeded


# unsorted, duplicated, dense near 0 and sparse up to 2**62 (span >> N*w)
TIMES = st.lists(st.one_of(st.integers(0, 80), st.integers(0, 2**62)), max_size=40)


@settings(deadline=None, max_examples=150)
@given(data=st.data(), window=st.integers(1, 53), times=TIMES)
def test_tape_matches_window_gather_and_scalar_metric(data, window, times):
    weights = data.draw(st.sampled_from(WEIGHTS))
    x, y = data.draw(tape_points(weights)), data.draw(tape_points(weights))
    system = sy.FullShift(weights, window=window)
    ts = np.array(times, dtype=np.int64)
    got = distance_series(system, [x], [y], ts)
    assert got.dtype == np.float64 and got.shape == (1, len(ts))
    got = got[0]
    assert got.tobytes() == window_gather(x, y, ts, window).tobytes()
    assert got.tolist() == oracle_series(system, x, y, ts)


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    size=st.integers(3, 4),
    window=st.integers(1, 53),
    times=st.lists(st.one_of(st.integers(1, 80), st.integers(1, 2**62)), min_size=1, max_size=30),
)
def test_tuple_shares_one_tape_per_point(data, size, window, times):
    weights = data.draw(st.sampled_from(WEIGHTS))
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size))
    pts = [CountingPoint(sy.SeededRandomPoint(s, weights)) for s in seeds]
    system = sy.FullShift(weights, window=window)
    ts = np.array(times, dtype=np.int64)
    xs, ys = zip(*itertools.combinations(pts, 2))
    oracle = [window_gather(x, y, ts, window) for x, y in zip(xs, ys)]
    for p in pts:
        p.reads = 0

    # one call for every pair of the tuple: each point reads its tape once
    got = distance_series(system, xs, ys, ts)
    assert got.tobytes() == np.stack(oracle).tobytes()
    assert [p.reads for p in pts] == [1] * size
    rev = ts[::-1].copy()
    assert distance_series(system, xs[:1], ys[:1], rev)[0].tobytes() == oracle[0][::-1].tobytes()

    for p in pts:
        p.reads = 0
    cps = sorted({1, len(ts)})
    with mock.patch.object(chaos, "distance_series", wraps=chaos.distance_series) as calls:
        rep = tuple_distance_averages(system, pts, SequenceSpec("Explicit", times), cps)
    # one block of times up to each checkpoint, and one fsum pass for each
    # row (max, min) whose exact sum is 0 there; each call reads each tape once
    assert len(calls.call_args_list) <= 3 * len(cps)
    assert [p.reads for p in pts] == [len(calls.call_args_list)] * size
    dmax, dmin = np.maximum.reduce(oracle), np.minimum.reduce(oracle)
    assert rep.checkpoints == tuple(
        TupleCheckpoint(n, math.fsum(dmax[:n]) / n, math.fsum(dmin[:n]) / n) for n in cps
    )


def metric_terms(system):
    """(lo, span, cols, weights): d sums weights[k] over the cells cols[k] of
    the window [m + lo, m + lo + span) where the two tapes differ."""
    w = system.window
    if system.side == sy.TWO_SIDED:
        terms = [(j, 2.0 ** -(abs(j) + 2)) for j in range(1 - w, w)]
    else:
        terms = [(j, 2.0 ** -(j + 1)) for j in range(w)]
    lo = min(j for j, _ in terms)
    span = max(j for j, _ in terms) - lo + 1
    cols, weights = zip(*terms)
    return lo, span, np.array(cols) - lo, np.array(weights)


def summed_reference(system, x, y, times):
    # the summed metric term by term, read straight from both points
    lo, span, cols, weights = metric_terms(system)
    idx = (np.asarray(times, dtype=np.int64)[:, None] + np.arange(lo, lo + span)).ravel()
    diff = (x.coordinates(idx) != y.coordinates(idx)).reshape(len(times), span)
    return np.array([math.fsum(weights[row[cols]]) for row in diff], dtype=np.float64)


@settings(deadline=None, max_examples=60)
@given(
    data=st.data(),
    size=st.integers(2, 4),
    window=st.integers(1, 53),
    cells=st.integers(1, 120),
    times=st.lists(st.one_of(st.integers(1, 80), st.integers(1, 2**62)), min_size=1, max_size=40),
    side=st.sampled_from([sy.ONE_SIDED, sy.TWO_SIDED]),
)
def test_tape_chunks_bound_every_read(data, size, window, cells, times, side):
    # shrink the chunks so that the times straddle many chunk edges
    weights = data.draw(st.sampled_from(WEIGHTS))
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=size, max_size=size))
    pts = [CountingPoint(sy.SeededRandomPoint(s, weights, side=side)) for s in seeds]
    system = sy.FullShift(weights, side=side, window=window)
    ts = np.array(times, dtype=np.int64)
    xs, ys = zip(*itertools.combinations(pts, 2))
    oracle = [summed_reference(system, x, y, ts) for x, y in zip(xs, ys)]
    for p in pts:
        p.reads = p.most = 0

    with mock.patch.object(sy, "_TAPE_CELLS", cells):
        assert distance_series(system, xs, ys, ts).tobytes() == np.stack(oracle).tobytes()
        rep = tuple_distance_averages(system, pts, SequenceSpec("Explicit", times), [len(ts)])
    # a chunk ends at the window that starts before its last cell
    span = metric_terms(system)[1]
    assert max(p.most for p in pts) <= cells + span - 1
    dmax, dmin = np.maximum.reduce(oracle), np.minimum.reduce(oracle)
    n = len(ts)
    assert rep.checkpoints == (TupleCheckpoint(n, math.fsum(dmax) / n, math.fsum(dmin) / n),)


def test_sparse_tuple_reads_each_chunk_once():
    # squares: past the first 24 terms every gap exceeds the window, so the
    # tape is about N*w cells; no read may take more than one chunk, and
    # each point reads each chunk of each block once for all its pairs
    system = sy.FullShift.uniform(2, window=48)
    pts = [CountingPoint(sy.sample_point(system, s)) for s in (1, 2, 3)]
    with mock.patch.object(sy, "_TAPE_CELLS", 480), mock.patch.object(
        averaging, "_CELLS", 2 * 480
    ), mock.patch.object(chaos, "distance_series", wraps=chaos.distance_series) as calls:
        rep = tuple_distance_averages(system, pts, SQUARES, [1000])
        ts = np.array(generate_prefix(SQUARES, 1000), dtype=np.int64)
        chunks = sum(
            len(list(sy._tape_chunks(np.unique(ts[lo : lo + 480]), 0, 48)))
            for lo in range(0, 1000, 480)
        )
    assert chunks > 90
    # one call a block of times (2 rows of 480 times fill the cell budget),
    # with the three pairs as its rows
    assert [len(c.args[3]) for c in calls.call_args_list] == [480, 480, 40]
    assert [len(c.args[1]) for c in calls.call_args_list] == [3] * 3
    assert [p.reads for p in pts] == [chunks] * 3
    assert max(p.most for p in pts) <= 480 + 47
    oracle = [window_gather(x, y, ts, 48) for x, y in itertools.combinations(pts, 2)]
    assert rep.checkpoints[0].max_average == math.fsum(np.maximum.reduce(oracle)) / 1000
    assert rep.checkpoints[0].min_average == math.fsum(np.minimum.reduce(oracle)) / 1000


@pytest.mark.parametrize("window", [1, 48, 53])
def test_tape_times_at_the_term_cap(window):
    system = sy.FullShift.uniform(2, window=window)
    x, y = sy.sample_point(system, 1), sy.sample_point(system, 2)
    last = MAX_TERM - window
    ts = np.array([last, 0, last], dtype=np.int64)
    assert distance_series(system, [x], [y], ts)[0].tolist() == oracle_series(system, x, y, ts)
    with pytest.raises(DomainError):
        distance_series(system, [x], [y], np.array([0, last + 1], dtype=np.int64))


@pytest.mark.parametrize("window", [1, 48, 53])
def test_extension_times_at_both_ends_of_int64(window):
    # the window (-w, w) of a two-sided shift must fit int64 at every time
    first, last = -(2**63) + window - 1, MAX_TERM - window
    ts = np.array([last, first, 0, first], dtype=np.int64)
    system = sy.FullShift.uniform(2, side=sy.TWO_SIDED, window=window)
    x, y = sy.sample_point(system, 1), sy.sample_point(system, 2)
    got = distance_series(system, [x], [y], ts)[0].tolist()
    assert got == oracle_series(system, x, y, ts)
    # at w = 1 every int64 time fits, and first - 1 is no int64
    for bad in [last + 1] + ([first - 1] if window > 1 else []):
        with pytest.raises(DomainError):
            distance_series(system, [x], [y], np.array([0, bad], dtype=np.int64))


@pytest.mark.parametrize("window", [1, 48])
@pytest.mark.parametrize("side", [sy.ONE_SIDED, sy.TWO_SIDED])
def test_shifted_points_near_int64_raise_instead_of_wrapping(side, window):
    # T**10 x at time t reads coordinates up to t + w - 1 + 10
    system = sy.FullShift.uniform(2, side=side, window=window)
    x, y = (iterate(system, sy.sample_point(system, s), 10) for s in (1, 2))
    last = MAX_TERM - window - 9
    ts = np.array([last, 0], dtype=np.int64)
    assert distance_series(system, [x], [y], ts)[0].tolist() == oracle_series(system, x, y, ts)
    with pytest.raises(DomainError):
        distance_series(system, [x], [y], np.array([0, last + 1], dtype=np.int64))
    with pytest.raises(DomainError):
        sy.distance(system, iterate(system, x, last + 1), iterate(system, y, last + 1))


def test_rotation_series_generic_path():
    rot = sy.Rotation.from_fraction(Fraction(1, 4))
    times = np.arange(4, dtype=np.int64)
    got = distance_series(rot, [0, 1], [sy.FRACTION_MOD // 4, 1], times)
    assert got.tolist() == [[0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.0, 0.0]]


# ---------------------------------------------------------------------------
# tuple reports


def test_constant_distance_pair():
    rep = tuple_distance_averages(FAIR, [zeros(), ones()], NATURALS, [5, 50])
    full = 1 - 2.0**-FAIR.window
    for cp in rep.checkpoints:
        assert cp.max_average == full
        assert cp.min_average == full


def test_duplicated_point_pair_is_zero():
    rep = tuple_distance_averages(FAIR, [zeros(), zeros()], PRIMES, [10])
    assert rep.checkpoints[0].max_average == 0.0
    assert rep.checkpoints[0].min_average == 0.0


def test_triple_with_identical_pair():
    shift3 = sy.FullShift.uniform(3)
    rep = tuple_distance_averages(
        shift3, [zeros(3), ones(3), zeros(3)], NATURALS, [10]
    )
    assert rep.checkpoints[0].min_average == 0.0
    assert rep.checkpoints[0].max_average == 1 - 2.0**-shift3.window


def test_max_at_least_min_everywhere():
    pts = [sy.sample_point(FAIR, s) for s in (1, 2, 3)]
    rep = tuple_distance_averages(FAIR, pts, NATURALS, [10, 100, 1000])
    for cp in rep.checkpoints:
        assert cp.max_average >= cp.min_average >= 0.0
        assert cp.max_average <= 1.0


def test_permutation_invariance():
    pts = [sy.sample_point(FAIR, s) for s in (4, 5, 6)]
    base = tuple_distance_averages(FAIR, pts, PRIMES, [20, 200])
    for perm in itertools.permutations(pts):
        rep = tuple_distance_averages(FAIR, list(perm), PRIMES, [20, 200])
        assert rep.checkpoints == base.checkpoints


def test_checkpoint_refinement_monotone_proxies():
    pts = [sy.sample_point(FAIR, s) for s in (7, 8)]
    coarse = tuple_distance_averages(FAIR, pts, NATURALS, [10, 100, 1000])
    fine = tuple_distance_averages(FAIR, pts, NATURALS, [10, 30, 100, 300, 1000])
    assert fine.liminf_proxy <= coarse.liminf_proxy
    assert fine.limsup_proxy >= coarse.limsup_proxy


def test_needs_two_points():
    with pytest.raises(DomainError):
        tuple_distance_averages(FAIR, [zeros()], NATURALS, [10])


def test_identical_points_take_no_second_pass():
    # every distance is +0.0, so every sum is an exact zero; the pairs are
    # read once, block by block, and no prefix is read again
    x = sy.sample_point(FAIR, 11)
    reads = []
    summing = chaos.checkpoint_sums

    def counting(block, rows, ends):
        def counted(lo, hi):
            reads.append(hi - lo)
            return block(lo, hi)

        return summing(counted, rows, ends)

    cps = [10**k for k in range(1, 7)]
    with mock.patch.object(chaos, "checkpoint_sums", counting):
        report = tuple_distance_averages(FAIR, [x, x], NATURALS, cps)
    assert sum(reads) == cps[-1]
    expected = [(math.fsum([0.0] * n) / n).hex() for n in cps]
    assert [c.max_average.hex() for c in report.checkpoints] == expected
    assert [c.min_average.hex() for c in report.checkpoints] == expected


# ---------------------------------------------------------------------------
# scrambled families


def test_certificate_values_growth10():
    _, cert = build_scrambled_family(NATURALS, 2, growth=10, phase_pairs=2, window=48)
    assert cert.c_star == Fraction(45, 100)
    assert cert.coalescence_bounds[1] == Fraction(1, 10) + Fraction(1, 2**48)
    assert cert.checkpoint_indices == (10, 100, 1000, 10_000)


def test_certificate_c_star_growth2():
    _, cert = build_scrambled_family(NATURALS, 2, growth=2, phase_pairs=1, window=48)
    assert cert.c_star == Fraction(1, 4)


def test_certificate_schedule_invariant():
    _, cert = build_scrambled_family(PRIMES, 2, growth=4, phase_pairs=2, window=16)
    a = generate_prefix(PRIMES, cert.checkpoint_indices[-1])
    for n_t, m_t in zip(cert.checkpoint_indices, cert.coordinate_boundaries):
        assert m_t == a[n_t - 1] + cert.window + 1
        assert m_t > a[n_t - 1] + cert.window


def test_certificate_coalescence_bounds_non_increasing():
    for seq in (NATURALS, PRIMES):
        _, cert = build_scrambled_family(seq, 2, growth=5, phase_pairs=3, window=24)
        bs = cert.coalescence_bounds
        assert all(b2 <= b1 for b1, b2 in zip(bs, bs[1:]))


@pytest.mark.parametrize("seq", [NATURALS, PRIMES, SQUARES], ids=["naturals", "primes", "squares"])
@pytest.mark.parametrize("n", [2, 3])
def test_build_verify_roundtrip_small(seq, n):
    pts, cert = build_scrambled_family(seq, n, growth=4, phase_pairs=2, window=16)
    system = sy.FullShift.uniform(n, window=16)
    ver = verify_scrambled(pts, cert, system, seq)
    assert ver.schedule_valid
    assert ver.passed, [c for c in ver.checks if not c.passed]
    assert ver.report.limsup_proxy >= float(cert.c_star)
    assert ver.report.eta == float(cert.c_star)


def test_verify_measured_respects_bruteforce():
    # the vectorized pass must agree with plain per-term evaluation
    pts, cert = build_scrambled_family(NATURALS, 2, growth=3, phase_pairs=1, window=8)
    system = sy.FullShift.uniform(2, window=8)
    ver = verify_scrambled(pts, cert, system, NATURALS)
    times = np.arange(1, 10, dtype=np.int64)
    brute = oracle_series(system, pts[0], pts[1], times)
    assert distance_series(system, [pts[0]], [pts[1]], times)[0].tolist() == brute
    n1, n2 = cert.checkpoint_indices
    assert ver.report.checkpoints[0].max_average == math.fsum(brute[:n1]) / n1
    assert ver.report.checkpoints[1].min_average == math.fsum(brute[:n2]) / n2


def test_perturbed_boundary_detected_not_crashed():
    pts, cert = build_scrambled_family(NATURALS, 2, growth=4, phase_pairs=2, window=16)
    bad_bounds = list(cert.coordinate_boundaries)
    bad_bounds[2] -= 1  # now below a_{N_3} + window + 1
    bad = dataclasses.replace(cert, coordinate_boundaries=tuple(bad_bounds))
    ver = verify_scrambled(pts, bad, sy.FullShift.uniform(2, window=16), NATURALS)
    assert not ver.schedule_valid
    assert not ver.passed
    assert any(c.name.startswith("schedule/") for c in ver.checks)


def test_duplicated_points_fail_separation_bounds():
    pts, cert = build_scrambled_family(NATURALS, 2, growth=4, phase_pairs=2, window=16)
    ver = verify_scrambled([pts[0], pts[0]], cert, sy.FullShift.uniform(2, window=16), NATURALS)
    assert not ver.passed
    failed = [c.name for c in ver.checks if not c.passed]
    assert any(name.startswith("separation/") for name in failed)


def test_structural_mismatches_raise():
    pts, cert = build_scrambled_family(NATURALS, 2, growth=4, phase_pairs=1, window=16)
    with pytest.raises(ConfigError):
        verify_scrambled(pts[:1], cert, sy.FullShift.uniform(2, window=16), NATURALS)
    with pytest.raises(ConfigError):
        verify_scrambled(pts, cert, sy.FullShift.uniform(2, window=32), NATURALS)
    with pytest.raises(ConfigError):
        build_scrambled_family(NATURALS, 3, growth=4, phase_pairs=1, alphabet_size=2)
    with pytest.raises(ConfigError):
        build_scrambled_family(SequenceSpec("Explicit", [5, 2, 9]), 2, growth=2, phase_pairs=1)


def test_a_ladder_past_2_63_terms_is_refused_before_it_is_built():
    # growth**(2 * phase_pairs) terms exist in no sequence below 2**63; 10**6000
    # would pass Python's digit limit when a message formats it
    with mock.patch.object(chaos, "times_array", side_effect=ConfigError("reached")) as times:
        for growth, phase_pairs in ((2, 31), (3, 19)):  # 2**62, 3**38 <= MAX_TERM
            with pytest.raises(ConfigError, match="reached"):
                build_scrambled_family(NATURALS, 2, growth, phase_pairs)
        for growth, phase_pairs in ((2, 32), (3, 20), (10, 3000), (10, 20_000)):
            with pytest.raises(ConfigError, match="passes 2\\*\\*63 - 1"):
                build_scrambled_family(NATURALS, 2, growth, phase_pairs)
    assert [c.args for c in times.call_args_list] == [(NATURALS, 2**62), (NATURALS, 3**38)]


def test_certificate_json_uses_exact_rationals():
    _, cert = build_scrambled_family(NATURALS, 2, growth=10, phase_pairs=1, window=48)
    assert str(Fraction(1, 10) + Fraction(1, 2**48)) == "140737488355333/1407374883553280"
    assert json_dumps(cert) == (
        '{"tuple_size":2,"alphabet_size":2,"growth":10,"phase_pairs":1,"window":48,'
        '"sequence":"Naturals","checkpoint_indices":[10,100],"sequence_at_checkpoints":[10,100],'
        '"coordinate_boundaries":[59,149],'
        '"coalescence_bounds":["140737488355333/1407374883553280"],"separation_bounds":["21/100"],'
        '"in_zone_counts":[42],"c_star":"9/20"}'
    )


# ---------------------------------------------------------------------------
# random tuple scans


def test_scan_deterministic_per_seed():
    a = random_tuple_scan(FAIR, NATURALS, 2, 5, 200, seed=13)
    b = random_tuple_scan(FAIR, NATURALS, 2, 5, 200, seed=13)
    assert a == b
    c = random_tuple_scan(FAIR, NATURALS, 2, 5, 200, seed=14)
    assert a != c


def test_scan_identical_seed_points_have_zero_averages():
    p = sy.sample_point(FAIR, 3)
    rep = tuple_distance_averages(FAIR, [p, p], NATURALS, [100])
    assert rep.checkpoints[0].max_average == 0.0


def scan_points(seed, t, tuple_size):
    """Tuple t of a scan under ``seed``: point i from the seed ``tuple/{t}/point/{i}``."""
    seeds = [child_seed(seed, f"tuple/{t}/point/{i}") for i in range(tuple_size)]
    return [sy.sample_point(FAIR, s) for s in seeds]


def test_scan_matches_bruteforce_at_small_n():
    results = random_tuple_scan(FAIR, NATURALS, 2, 3, 100, seed=2)
    times = np.arange(1, 101, dtype=np.int64)
    for t, r in enumerate(results):
        (entry,) = r.checkpoints
        brute = oracle_series(FAIR, *scan_points(2, t, 2), times)
        assert entry.N == 100
        assert entry.max_average == math.fsum(brute) / 100
        assert entry.min_average == entry.max_average  # single pair


def test_scan_concentration_at_moderate_n():
    results = random_tuple_scan(FAIR, NATURALS, 2, 40, 2000, seed=21)
    target = 0.5 * (1 - 2.0**-FAIR.window)
    mins = [r.checkpoints[0].min_average for r in results]
    assert abs(np.mean(mins) - target) < 0.03
    assert min(mins) > 0.4


def test_scan_workers_neutral():
    # 7 tuples of 3 points: the chunks are uneven at every worker count above 1
    serial = random_tuple_scan(FAIR, NATURALS, 3, 7, 100, seed=5, workers=1)
    assert serial == [
        tuple_distance_averages(FAIR, scan_points(5, t, 3), NATURALS, [100]) for t in range(7)
    ]
    for workers in (2, 3, 8):
        assert random_tuple_scan(FAIR, NATURALS, 3, 7, 100, seed=5, workers=workers) == serial
