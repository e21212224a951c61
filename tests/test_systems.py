import math
import random
from bisect import bisect_right
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqchaos.systems as sy
from seqchaos.errors import ConfigError, DomainError, SequenceOverflowError

from oracles import oracle_coordinate, oracle_distance, oracle_series, oracle_tape

FAIR = sy.FullShift.uniform(2)
FAIR3 = sy.FullShift.uniform(3)


def zeros(s=2):
    return sy.PeriodicPoint((0,), s)


def ones(s=2):
    return sy.PeriodicPoint((1,), s)


# ---------------------------------------------------------------------------
# coordinates


def test_periodic_coordinates():
    p = sy.PeriodicPoint((0, 1), 2)
    assert p.coordinate(3) == 1
    assert p.coordinate(0) == 0
    assert p.coordinates(np.arange(6)).tolist() == [0, 1, 0, 1, 0, 1]
    with pytest.raises(DomainError):
        p.coordinate(-1)
    two_sided = sy.PeriodicPoint((0, 1), 2, side=sy.TWO_SIDED)
    assert two_sided.coordinate(-1) == 1


def test_seeded_point_deterministic_far_out():
    p = sy.SeededRandomPoint(42, FAIR.weights)
    assert p.coordinate(10**9) == p.coordinate(10**9)
    assert p.coordinate(10**9) in (0, 1)


def test_block_scheduled_boundary_semantics():
    p = sy.BlockScheduledPoint((100,), (0, 1), alphabet_size=2)
    assert p.coordinate(99) == 0
    assert p.coordinate(100) == 1
    got = p.coordinates(np.array([0, 99, 100, 5000]))
    assert got.tolist() == [0, 0, 1, 1]


def test_block_scheduled_copy_of_content():
    inner = sy.PeriodicPoint((0, 1), 2)
    p = sy.BlockScheduledPoint((4,), (1, inner), alphabet_size=2)
    assert [p.coordinate(i) for i in range(8)] == [1, 1, 1, 1, 0, 1, 0, 1]
    assert p.coordinates(np.arange(8)).tolist() == [1, 1, 1, 1, 0, 1, 0, 1]


def test_shift_collapse_and_composition():
    p = sy.SeededRandomPoint(5, FAIR.weights)
    a = sy.shift_point(sy.shift_point(p, 3), 10)
    b = sy.shift_point(p, 13)
    assert isinstance(a, sy.ShiftedPoint) and a.offset == 13
    assert [a.coordinate(i) for i in range(50)] == [b.coordinate(i) for i in range(50)]
    with pytest.raises(DomainError):
        sy.shift_point(p, -1)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**64 - 1), idx=st.lists(st.integers(0, 2**40), min_size=1, max_size=40))
def test_vectorized_coordinates_match_scalar(seed, idx):
    for point in (
        sy.SeededRandomPoint(seed, FAIR.weights),
        sy.PeriodicPoint((0, 1, 1), 2),
        sy.BlockScheduledPoint((10, 1000), (0, 1, 0), alphabet_size=2),
        sy.shift_point(sy.SeededRandomPoint(seed, FAIR3.weights), 7),
    ):
        arr = np.array(idx, dtype=np.int64)
        assert point.coordinates(arr).tolist() == [point.coordinate(i) for i in idx]


def test_two_symbol_coordinates_split_at_the_separator(monkeypatch):
    # one comparison replaces the separator search; a word equal to the
    # separator reads symbol 1, as bisect_right gives
    point = sy.SeededRandomPoint(3, (Fraction(1, 3), Fraction(2, 3)))
    sep = int(point._separators[0])
    words = np.array([0, sep - 1, sep, sep + 1, 2**64 - 1], dtype=np.uint64)
    monkeypatch.setattr(sy, "prf64_np", lambda seed, counters: words)
    got = point.coordinates(np.arange(5)).tolist()
    assert got == [0, 0, 1, 1, 1]
    assert got == [bisect_right(point._separators.tolist(), int(w)) for w in words]


# ---------------------------------------------------------------------------
# iteration


def test_rotation_iterate_exact():
    quarter = sy.Rotation.from_fraction(Fraction(1, 4))
    assert sy.iterate(quarter, 0, 3) == (3 * sy.FRACTION_MOD) // 4


def test_shift_iterate():
    p = sy.PeriodicPoint((0, 1), 2)
    assert sy.iterate(FAIR, p, 1).coordinate(0) == 1


def test_golden_rotation_against_bigint_oracle():
    golden = sy.Rotation.golden()
    x0 = 12345
    m = 10**6
    oracle = (x0 + m * golden.alpha_num) % (1 << 128)
    assert sy.iterate(golden, x0, m) == oracle


def test_rotation_incremental_vs_direct():
    golden = sy.Rotation.golden()
    cur = 999
    for m in range(1, 100_001):
        cur = (cur + golden.alpha_num) % sy.FRACTION_MOD
        if m % 9973 == 0 or m <= 100:
            assert cur == sy.iterate(golden, 999, m)
    rng = random.Random(0)
    for _ in range(500):
        m = rng.randrange(1, 10**7)
        assert sy.iterate(golden, 1, m) == (1 + m * golden.alpha_num) % (1 << 128)


@settings(deadline=None, max_examples=100)
@given(m=st.integers(0, 2**50), n=st.integers(0, 2**50), alpha_num=st.integers(0, (1 << 128) - 1))
def test_rotation_monoid_action(m, n, alpha_num):
    rot = sy.Rotation(alpha_num)
    x = 777
    assert sy.iterate(rot, sy.iterate(rot, x, m), n) == sy.iterate(rot, x, m + n)


def bigint_orbit_fractions(alpha_num, x0, times):
    # reference path: one Python bigint per orbit point, top 53 bits kept
    vals = [(x0 + m * alpha_num) % sy.FRACTION_MOD for m in times]
    return np.array([v >> 75 for v in vals], dtype=np.float64) * 2.0**-53


INT64 = st.integers(-(2**63), 2**63 - 1)


@settings(deadline=None, max_examples=200)
@given(
    alpha_num=st.integers(0, (1 << 128) - 1),
    x0=st.integers(0, (1 << 128) - 1),
    times=st.lists(st.one_of(INT64, st.integers(-3, 3)), max_size=40),
)
def test_rotation_orbit_fractions_match_bigint_oracle(alpha_num, x0, times):
    got = sy.rotation_orbit_fractions(sy.Rotation(alpha_num), x0, np.array(times, dtype=np.int64))
    assert got.dtype == np.float64
    assert np.array_equal(got, bigint_orbit_fractions(alpha_num, x0, times))
    assert np.all((got >= 0.0) & (got < 1.0))


@settings(deadline=None, max_examples=100)
@given(
    picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2**64 - 1)), max_size=8),
    indices=st.lists(st.integers(0, 2**40), max_size=20),
)
def test_coordinates_of_rows_match_each_point(picks, indices):
    # seeded points share the fair weights tuple, an equal copy or other weights
    copy = tuple(list(FAIR.weights))

    def point(kind, seed):
        if kind == 0:
            return sy.SeededRandomPoint(seed, FAIR.weights)
        if kind == 1:
            return sy.SeededRandomPoint(seed, copy)
        if kind == 2:
            return sy.SeededRandomPoint(seed, FAIR3.weights)
        if kind == 3:
            return sy.PeriodicPoint((seed % 2, 1), 2)
        if kind == 4:
            return sy.shift_point(sy.SeededRandomPoint(seed, FAIR.weights), seed % 1000)
        tail = sy.SeededRandomPoint(seed, FAIR.weights)
        return sy.BlockScheduledPoint((seed % 50 + 1,), (1, tail), 2)

    points = [point(kind, seed) for kind, seed in picks]
    idx = np.array(indices, dtype=np.int64)
    rows = sy.coordinates_of(points, idx)
    assert rows.dtype == np.int64 and rows.shape == (len(points), len(indices))
    for p, row in zip(points, rows):
        assert row.tolist() == [oracle_coordinate(p, i) for i in indices]


NEAR_TOP = st.integers((1 << 128) - (1 << 70), (1 << 128) - 1)  # the low-word add carries


@settings(deadline=None, max_examples=200)
@given(
    alpha_num=st.one_of(st.integers(0, (1 << 128) - 1), st.just(sy.GOLDEN_CONJUGATE)),
    h=st.integers(-10**9, 10**9).filter(lambda h: abs(h) != 1),
    starts=st.lists(st.one_of(st.integers(0, (1 << 128) - 1), NEAR_TOP), max_size=6),
    times=st.lists(st.one_of(INT64, st.integers(-3, 3)), max_size=30),
)
def test_rotation_rows_match_per_start_calls(alpha_num, h, starts, times):
    ts = np.array(times, dtype=np.int64)
    for alpha in (alpha_num, (h * alpha_num) % sy.FRACTION_MOD):
        rows = sy.rotation_orbit_fractions(sy.Rotation(alpha), starts, ts)
        assert rows.shape == (len(starts), len(times))
        for x0, row in zip(starts, rows):
            assert np.array_equal(row, sy.rotation_orbit_fractions(sy.Rotation(alpha), x0, ts))
            assert np.array_equal(row, bigint_orbit_fractions(alpha, x0, times))


def test_rotation_rows_across_blocks_carry_into_the_high_word():
    # 3 rows share each block of _GRID_BLOCK grid points; x0 = 2**128 - 1 makes
    # almost every low-word add carry
    rng = np.random.default_rng(4)
    times = rng.integers(-(2**63), 2**63 - 1, size=sy._GRID_BLOCK + 7, dtype=np.int64)
    starts = [(1 << 128) - 1, (1 << 128) - (1 << 64), 12345]
    rows = sy.rotation_orbit_fractions(sy.Rotation.golden(), starts, times)
    for x0, row in zip(starts, rows):
        assert np.array_equal(row, bigint_orbit_fractions(sy.GOLDEN_CONJUGATE, x0, times.tolist()))


def test_rotation_orbit_fractions_across_blocks():
    rng = np.random.default_rng(3)
    times = rng.integers(-(2**63), 2**63 - 1, size=3 * sy._GRID_BLOCK + 5, dtype=np.int64)
    x0 = sy.sample_point(sy.Rotation.golden(), 1)
    for alpha_num in (sy.GOLDEN_CONJUGATE, 0, (1 << 128) - 1):
        got = sy.rotation_orbit_fractions(sy.Rotation(alpha_num), x0, times)
        assert np.array_equal(got, bigint_orbit_fractions(alpha_num, x0, times.tolist()))


def test_rotation_orbit_fractions_int64_extremes():
    # |m| of -2**63 does not fit int64; the kernel must still match the oracle
    golden = sy.Rotation.golden()
    x0 = 2**128 - 1
    extremes = [-(2**63), 2**63 - 1, -1, 0]
    got = sy.rotation_orbit_fractions(golden, x0, np.array(extremes, dtype=np.int64))
    assert np.array_equal(got, bigint_orbit_fractions(golden.alpha_num, x0, extremes))


def test_rotation_orbit_fractions_empty_times():
    got = sy.rotation_orbit_fractions(sy.Rotation.golden(), 5, np.array([], dtype=np.int64))
    assert got.dtype == np.float64 and got.shape == (0,)


@pytest.mark.parametrize("outside", [2**63, -(2**63) - 1])
def test_rotation_orbit_fractions_time_outside_int64_raises(outside):
    with pytest.raises(SequenceOverflowError) as info:
        sy.rotation_orbit_fractions(sy.Rotation.golden(), 5, [1, 2, outside])
    assert info.value.index == 2


@settings(deadline=None, max_examples=50)
@given(m=st.integers(0, 1000), n=st.integers(0, 1000), seed=st.integers(0, 2**64 - 1))
def test_shift_monoid_action(m, n, seed):
    p = sy.SeededRandomPoint(seed, FAIR.weights)
    a = sy.iterate(FAIR, sy.iterate(FAIR, p, m), n)
    b = sy.iterate(FAIR, p, m + n)
    idx = np.arange(64)
    assert a.coordinates(idx).tolist() == b.coordinates(idx).tolist()


def test_product_iterate_componentwise():
    prod = sy.ProductSystem((FAIR, sy.Rotation.from_fraction(Fraction(1, 8))))
    x = (zeros(), 0)
    tx = sy.iterate(prod, x, 5)
    assert tx[1] == (5 * sy.FRACTION_MOD) // 8
    assert tx[0].offset == 5


# ---------------------------------------------------------------------------
# metrics


def test_distance_examples():
    w30 = sy.FullShift.uniform(2, window=30)
    assert sy.distance(w30, zeros(), ones()) == 1 - 2**-30
    assert sy.distance(w30, zeros(), zeros()) == 0.0
    one_then_zeros = sy.BlockScheduledPoint((1,), (1, 0), alphabet_size=2)
    assert sy.distance(w30, zeros(), one_then_zeros) == 0.5


def test_two_sided_distance_normalized():
    shift = sy.FullShift.uniform(2, side=sy.TWO_SIDED, window=30)
    x = sy.PeriodicPoint((0,), 2, side=sy.TWO_SIDED)
    y = sy.PeriodicPoint((1,), 2, side=sy.TWO_SIDED)
    d = sy.distance(shift, x, y)
    assert d <= 1.0
    assert d == (0.5 + 2 * (0.5 - 2.0**-30)) / 2


def test_summed_rows_are_exact():
    # packed words against the float64 matrix product they replaced and fsum,
    # at every width, on contiguous rows and on the strided and reversed
    # views of _two_sided; the first row sets every bit
    rng = np.random.default_rng(7)
    for width in range(sy.MAX_WINDOW + 1):
        tape = rng.random((40, 2 * width + 1)) < 0.5
        tape[0] = True
        powers = np.ldexp(1.0, -np.arange(1, width + 1))
        for rows in (tape[:, :width], tape[:, 1 : 2 * width + 1 : 2], tape[:, width:0:-1],
                     np.ascontiguousarray(tape[:, :width]), tape[:0, :width]):
            got = sy._summed(rows)
            assert got.dtype == np.float64 and got.shape == (len(rows),)
            assert got.tolist() == (rows.astype(np.float64) @ powers).tolist()
            assert got.tolist() == [math.fsum(row) for row in (rows * powers).tolist()]


def test_first_difference_metric_option():
    shift = sy.FullShift.uniform(2, window=30, metric=sy.METRIC_FIRST_DIFFERENCE)
    y = sy.BlockScheduledPoint((3,), (0, 1), alphabet_size=2)
    assert sy.distance(shift, zeros(), y) == 2.0**-3
    assert sy.distance(shift, zeros(), zeros()) == 0.0


def test_rotation_circle_distance():
    rot = sy.Rotation.golden()
    quarter = sy.FRACTION_MOD // 4
    assert sy.distance(rot, 0, quarter) == 0.25
    assert sy.distance(rot, 0, 3 * quarter) == 0.25  # wraps around
    assert sy.distance(rot, quarter, quarter) == 0.0


def test_mismatched_spaces_raise():
    with pytest.raises(DomainError):
        sy.distance(FAIR, zeros(), sy.PeriodicPoint((0,), 2, side=sy.TWO_SIDED))
    prod = sy.ProductSystem((FAIR, sy.Rotation.golden()))
    with pytest.raises(DomainError):
        sy.distance(prod, (zeros(),), (zeros(), 0))


def _random_point(system, rng):
    return sy.sample_point(system, rng.getrandbits(63))


@pytest.mark.parametrize(
    "system",
    [
        FAIR,
        sy.FullShift.bernoulli([Fraction(1, 4), Fraction(3, 4)]),
        sy.Rotation.golden(),
        sy.ProductSystem((FAIR, sy.Rotation.golden())),
        sy.NaturalExtension(FAIR),
    ],
    ids=["fair", "biased", "rotation", "product", "natext"],
)
def test_metric_axioms_on_sampled_triples(system):
    rng = random.Random(1234)
    err = sy.metric_error_bound(system)
    for _ in range(1000):
        x, y, z = (_random_point(system, rng) for _ in range(3))
        dxy = sy.distance(system, x, y)
        assert dxy == sy.distance(system, y, x)
        assert sy.distance(system, x, x) == 0.0
        assert dxy >= 0.0
        assert dxy <= sy.distance(system, x, z) + sy.distance(system, z, y) + 2 * err


# ---------------------------------------------------------------------------
# sampling


def test_sample_determinism():
    assert sy.sample_point(FAIR, 9).seed == sy.sample_point(FAIR, 9).seed
    assert sy.sample_point(sy.Rotation.golden(), 9) == sy.sample_point(sy.Rotation.golden(), 9)


def test_sample_symbol_frequency():
    hits = sum(sy.sample_point(FAIR, s).coordinate(0) == 0 for s in range(10_000))
    assert abs(hits / 10_000 - 0.5) < 0.02


def test_sample_biased_frequency():
    shift = sy.FullShift.bernoulli([Fraction(1, 4), Fraction(3, 4)])
    p = sy.sample_point(shift, 77)
    freq = np.mean(p.coordinates(np.arange(40_000)) == 0)
    assert abs(freq - 0.25) < 0.02


def test_product_components_independent():
    prod = sy.ProductSystem((FAIR, sy.Rotation.golden()))
    symbols, fracs = [], []
    for s in range(10_000):
        omega, theta = sy.sample_point(prod, s)
        symbols.append(float(omega.coordinate(0)))
        fracs.append(sy.rotation_orbit_fractions(sy.Rotation.golden(), theta, [0])[0])
    rho = np.corrcoef(symbols, fracs)[0, 1]
    assert abs(rho) < 0.05


def test_rotation_sample_uniform():
    golden = sy.Rotation.golden()
    vals = [sy.rotation_orbit_fractions(golden, sy.sample_point(golden, s), [0])[0] for s in range(10_000)]
    assert abs(np.mean(vals) - 0.5) < 0.02


def test_expected_distance_of_independent_fair_points():
    # mean distance of two independent fair tapes is 0.5 * (1 - 2**-w)
    rng = random.Random(5)
    target = 0.5 * (1 - 2.0**-FAIR.window)
    ds = []
    for _ in range(1000):
        x = _random_point(FAIR, rng)
        y = _random_point(FAIR, rng)
        ds.append(sy.distance(FAIR, x, y))
    assert abs(np.mean(ds) - target) < 0.02


# ---------------------------------------------------------------------------
# natural extension


def test_lift_construction():
    ext = sy.natural_extension_lift(FAIR, zeros(), past=ones())
    assert ext.coordinates([-1, 0]).tolist() == [1, 0]


def test_lift_projection_commutes_with_shift():
    ne = sy.NaturalExtension(FAIR)
    ext = sy.sample_point(ne, 31337)
    lifted_then_shifted = sy.project(sy.iterate(ne, ext, 1))
    shifted = sy.project(ext)
    for i in range(101):
        assert lifted_then_shifted.coordinate(i) == shifted.coordinate(i + 1)


def test_backward_orbit_compatibility():
    ne = sy.NaturalExtension(FAIR)
    ext = sy.sample_point(ne, 99)
    for depth in range(1, 6):
        deeper = ext.component(depth + 1)
        shallower = ext.component(depth)
        for i in range(40):
            assert deeper.coordinate(i + 1) == shallower.coordinate(i)


def test_natural_extension_metric_geometric_series():
    # all-coordinate disagreement: every backward component is at the
    # truncated diameter, so the sum telescopes to (1 - 2**-w)**2
    ne = sy.NaturalExtension(FAIR)
    x = sy.natural_extension_lift(FAIR, zeros(), past=zeros())
    y = sy.natural_extension_lift(FAIR, ones(), past=ones())
    w = ne.window
    inner = 1 - 2.0**-w
    expected = math.fsum(2.0**-i * inner for i in range(1, w + 1))
    assert sy.distance(ne, x, y) == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx((1 - 2.0**-w) * inner, abs=1e-15)


def test_natural_extension_negative_time():
    ne = sy.NaturalExtension(FAIR)
    ext = sy.sample_point(ne, 4)
    back = sy.iterate(ne, ext, -3)
    assert sy.iterate(ne, back, 3) == ext


def test_weight_validation():
    with pytest.raises(ConfigError):
        sy.FullShift.bernoulli([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ConfigError):
        sy.FullShift.bernoulli([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ConfigError):
        sy.Rotation.from_fraction(Fraction(5, 4))
    with pytest.raises(ConfigError):
        sy.NaturalExtension(sy.FullShift.uniform(2, side=sy.TWO_SIDED))


# ---------------------------------------------------------------------------
# scalar reads and distances against the per-class scalar code they replaced


WEIGHTS3 = st.sampled_from([(Fraction(1, 3),) * 3, (Fraction(1, 10), Fraction(3, 10), Fraction(3, 5))])


def leaf_points(side):
    seeded = st.builds(
        lambda seed, weights: sy.SeededRandomPoint(seed, weights, side=side),
        st.integers(0, 2**64 - 1), WEIGHTS3,
    )
    periodic = st.lists(st.integers(0, 2), min_size=1, max_size=6).map(
        lambda word: sy.PeriodicPoint(tuple(word), 3, side=side)
    )
    return st.one_of(seeded, periodic)


def scheduled_points(side):
    lowest = 1 if side == sy.ONE_SIDED else -100
    return st.lists(st.integers(lowest, 200), max_size=4, unique=True).flatmap(
        lambda bounds: st.lists(
            st.one_of(st.integers(0, 2), leaf_points(side)),
            min_size=len(bounds) + 1, max_size=len(bounds) + 1,
        ).map(lambda cs: sy.BlockScheduledPoint(tuple(sorted(bounds)), tuple(cs), 3, side=side))
    )


def symbolic_points(side):
    base = st.one_of(leaf_points(side), scheduled_points(side))
    lowest = 0 if side == sy.ONE_SIDED else -(10**6)
    return st.one_of(base, st.builds(sy.shift_point, base, st.integers(lowest, 10**6)))


# depth-1..3 views of extended points whose shift count may be negative
TAPE_VIEWS = st.builds(
    lambda base, past, offset, depth: sy.ExtendedPoint(base, past, offset).component(depth),
    symbolic_points(sy.ONE_SIDED), symbolic_points(sy.ONE_SIDED),
    st.integers(-300, 300), st.integers(1, 3),
)
ONE_SIDED_POINTS = st.one_of(symbolic_points(sy.ONE_SIDED), TAPE_VIEWS)
NEAR = st.integers(0, 400)
FAR = st.integers(0, 2**40)


@settings(deadline=None, max_examples=300)
@given(
    case=st.one_of(
        st.tuples(ONE_SIDED_POINTS, st.lists(st.one_of(NEAR, FAR), min_size=1, max_size=30)),
        st.tuples(
            symbolic_points(sy.TWO_SIDED),
            st.lists(st.one_of(NEAR, FAR, NEAR.map(lambda i: -i), FAR.map(lambda i: -i)),
                     min_size=1, max_size=30),
        ),
    )
)
def test_every_point_kind_matches_the_scalar_oracle(case):
    point, idx = case
    expected = [oracle_coordinate(point, i) for i in idx]
    assert point.coordinates(np.array(idx, dtype=np.int64)).tolist() == expected
    got = [point.coordinate(i) for i in idx]
    assert got == expected and all(type(s) is int for s in got)


@settings(deadline=None, max_examples=100)
@given(point=ONE_SIDED_POINTS, i=st.one_of(st.just(-1), st.integers(-(2**40), -1)))
def test_negative_coordinate_of_a_one_sided_point_raises(point, i):
    with pytest.raises(DomainError):
        point.coordinate(i)


@settings(deadline=None, max_examples=60)
@given(
    base=symbolic_points(sy.ONE_SIDED), past=symbolic_points(sy.ONE_SIDED),
    offset=st.integers(-300, 300), idx=st.lists(st.integers(-400, 400), min_size=1, max_size=30),
)
def test_tape_coordinates_match_the_scalar_tape(base, past, offset, idx):
    ext = sy.ExtendedPoint(base, past, offset)
    got = ext.coordinates(np.array(idx, dtype=np.int64)).tolist()
    assert got == [oracle_tape(ext, j) for j in idx]


FAIR_TWO_SIDED = sy.FullShift.uniform(2, side=sy.TWO_SIDED)
EXTREMES = [sy.PeriodicPoint((0,), 2), sy.PeriodicPoint((1,), 2)]


def metric_cases():
    """(system, x, y): the four kinds of distance that read symbol windows."""
    windows = st.integers(1, sy.MAX_WINDOW)
    sides = st.sampled_from([sy.ONE_SIDED, sy.TWO_SIDED])
    metrics = st.sampled_from([sy.METRIC_SUMMED, sy.METRIC_FIRST_DIFFERENCE])
    seeds = st.integers(0, 2**63 - 1)
    shifts = st.builds(
        lambda w, side, metric: sy.FullShift.uniform(2, side=side, window=w, metric=metric),
        windows, sides, metrics,
    )
    products = st.builds(
        lambda shift: sy.ProductSystem((shift, sy.Rotation.golden())),
        shifts.filter(lambda s: s.side == sy.ONE_SIDED),
    )
    extensions = st.builds(
        lambda w, metric: sy.NaturalExtension(sy.FullShift.uniform(2, window=w, metric=metric)),
        windows, metrics,
    )
    sampled = st.builds(
        lambda system, a, b: (system, sy.sample_point(system, a), sy.sample_point(system, b)),
        st.one_of(shifts, products, extensions), seeds, seeds,
    )
    # tapes that differ at every coordinate make the truncation error largest
    extreme = st.builds(
        lambda w, metric, r: (
            sy.ProductSystem((sy.FullShift.uniform(2, window=w, metric=metric), sy.Rotation.golden())),
            (EXTREMES[0], r[0]), (EXTREMES[1], r[1]),
        ),
        windows, metrics, st.tuples(st.integers(0, sy.FRACTION_MOD - 1), st.integers(0, sy.FRACTION_MOD - 1)),
    )
    return st.one_of(sampled, extreme)


def fraction_distance(system, x, y, span=200):
    """The metric in exact rationals, over ``span`` coordinates in place of the window."""
    if isinstance(system, sy.Rotation):
        delta = abs(x - y)
        return Fraction(min(delta, sy.FRACTION_MOD - delta), sy.FRACTION_MOD)
    if isinstance(system, sy.ProductSystem):
        return sum(
            Fraction(1, 2 ** (j + 1)) * fraction_distance(c, xc, yc, span)
            for j, (c, xc, yc) in enumerate(zip(system.components, x, y))
        )
    if isinstance(system, sy.FullShift):
        lo = 1 - span if system.side == sy.TWO_SIDED else 0
        idx = np.arange(lo, span)
        differ = (np.flatnonzero(x.coordinates(idx) != y.coordinates(idx)) + lo).tolist()
        if system.metric == sy.METRIC_FIRST_DIFFERENCE:
            first = [j for j in differ if j >= 0]
            return Fraction(1, 2 ** first[0]) if first else Fraction(0)
        if system.side == sy.TWO_SIDED:
            return sum((Fraction(1, 2 ** (abs(j) + 2)) for j in differ), Fraction(0))
        return sum((Fraction(1, 2 ** (j + 1)) for j in differ), Fraction(0))
    base = system.base
    return sum(
        Fraction(1, 2**i) * fraction_distance(base, x.component(i), y.component(i), span)
        for i in range(1, span + 1)
    )


@settings(deadline=None, max_examples=120)
@given(case=metric_cases())
def test_distance_within_its_bound_of_a_fraction_oracle(case):
    system, x, y = case
    got = sy.distance(system, x, y)
    exact = fraction_distance(system, x, y)
    assert abs(Fraction(got) - exact) <= Fraction(sy.metric_error_bound(system))


@settings(deadline=None, max_examples=120)
@given(case=metric_cases())
def test_distance_keeps_the_bits_of_the_scalar_code(case):
    system, x, y = case
    assert sy.distance(system, x, y).hex() == oracle_distance(system, x, y).hex()


def piecewise_points(side):
    """Periodic points of short words and constant-block points, shifted or
    not: mostly the points whose one-sided summed series is computed from
    their change points."""
    lowest = 0 if side == sy.ONE_SIDED else -100
    periodic = st.lists(st.integers(0, 2), min_size=1, max_size=3).map(
        lambda word: sy.PeriodicPoint(tuple(word), 3, side=side)
    )
    blocks = st.lists(st.integers(lowest, 200), min_size=1, max_size=4, unique=True).flatmap(
        lambda bounds: st.lists(
            st.integers(0, 2), min_size=len(bounds) + 1, max_size=len(bounds) + 1
        ).map(lambda cs: sy.BlockScheduledPoint(tuple(sorted(bounds)), tuple(cs), 3, side=side))
    )
    # shifts below the last boundary keep a change point past coordinate 0
    shifted = blocks.flatmap(
        lambda p: st.integers(0 if side == sy.ONE_SIDED else -150, max(p.boundaries)).map(
            lambda k: sy.shift_point(p, k)
        )
    )
    return st.one_of(periodic, blocks, shifted)


def piecewise_cases():
    """(system, x, y): two points of ``piecewise_points``, mostly on a
    one-sided summed shift over three symbols."""
    shifts = st.one_of(
        st.integers(1, sy.MAX_WINDOW).map(lambda w: sy.FullShift.uniform(3, window=w)),
        st.builds(
            lambda w, side, metric: sy.FullShift.uniform(3, side=side, window=w, metric=metric),
            st.integers(1, sy.MAX_WINDOW), st.sampled_from([sy.ONE_SIDED, sy.TWO_SIDED]),
            st.sampled_from([sy.METRIC_SUMMED, sy.METRIC_FIRST_DIFFERENCE]),
        ),
    )
    return shifts.flatmap(
        lambda s: st.tuples(st.just(s), piecewise_points(s.side), piecewise_points(s.side))
    )


@settings(deadline=None, max_examples=200)
@given(case=st.one_of(metric_cases(), piecewise_cases()), data=st.data())
def test_distance_series_keeps_the_bits_of_the_scalar_code(case, data):
    system, x, y = case
    times = st.lists(st.one_of(NEAR, FAR), max_size=6)
    if isinstance(system, sy.NaturalExtension):
        times = st.lists(st.one_of(NEAR, FAR, NEAR.map(lambda m: -m), FAR.map(lambda m: -m)),
                         max_size=6)
    if isinstance(system, sy.FullShift):
        # a shift's scalar oracle is cheap: more times, many of them up to
        # the last change point of a piecewise-constant point
        times = st.lists(st.one_of(NEAR, FAR, st.integers(0, 200)), min_size=10, max_size=30)
    ts = data.draw(times)
    got = sy.distance_series(system, [x], [y], np.array(ts, dtype=np.int64))
    assert got.dtype == np.float64 and got.shape == (1, len(ts))
    got = got[0]
    expected = oracle_series(system, x, y, ts)
    assert [d.hex() for d in got.tolist()] == [d.hex() for d in expected]


SERIES_CASES = [
    (FAIR, zeros(), ones()),
    (FAIR, sy.sample_point(FAIR, 1), sy.sample_point(FAIR, 2)),
    (FAIR_TWO_SIDED, sy.sample_point(FAIR_TWO_SIDED, 1), sy.sample_point(FAIR_TWO_SIDED, 2)),
    (sy.FullShift.uniform(2, metric=sy.METRIC_FIRST_DIFFERENCE), zeros(), ones()),
    (sy.Rotation.golden(), 1, 2**127),
    (sy.ProductSystem((FAIR, sy.Rotation.golden())), (zeros(), 1), (ones(), 2**127)),
    (sy.NaturalExtension(FAIR), sy.sample_point(sy.NaturalExtension(FAIR), 1),
     sy.sample_point(sy.NaturalExtension(FAIR), 2)),
]


@pytest.mark.parametrize("system, x, y", SERIES_CASES)
def test_distance_series_never_iterates(system, x, y):
    ts = np.array([0, 5, 2**40, 5], dtype=np.int64)
    expected = oracle_series(system, x, y, ts)
    with mock.patch.object(sy, "iterate", side_effect=AssertionError("iterate called")):
        assert sy.distance_series(system, [x], [y], ts)[0].tolist() == expected
        assert sy.distance(system, x, y) == expected[0]
