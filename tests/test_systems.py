import math
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqchaos.systems as sy
from seqchaos.errors import ConfigError, DomainError, SequenceOverflowError

from oracles import (
    ExtendedPoint,
    ShiftedPoint,
    component,
    iterate,
    oracle_coordinate,
    oracle_distance,
    oracle_series,
    oracle_tape,
    shift_point,
)

FAIR = sy.FullShift.uniform(2)
FAIR3 = sy.FullShift.uniform(3)
# the natural extension of FAIR
FAIR_TWO_SIDED = sy.FullShift.uniform(2, side=sy.TWO_SIDED)


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
    a = shift_point(shift_point(p, 3), 10)
    b = shift_point(p, 13)
    assert isinstance(a, ShiftedPoint) and a.offset == 13
    assert [a.coordinate(i) for i in range(50)] == [b.coordinate(i) for i in range(50)]
    with pytest.raises(DomainError):
        shift_point(p, -1)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**64 - 1), idx=st.lists(st.integers(0, 2**40), min_size=1, max_size=40))
def test_vectorized_coordinates_match_scalar(seed, idx):
    for point in (
        sy.SeededRandomPoint(seed, FAIR.weights),
        sy.PeriodicPoint((0, 1, 1), 2),
        sy.BlockScheduledPoint((10, 1000), (0, 1, 0), alphabet_size=2),
        shift_point(sy.SeededRandomPoint(seed, FAIR3.weights), 7),
    ):
        arr = np.array(idx, dtype=np.int64)
        assert point.coordinates(arr).tolist() == [point.coordinate(i) for i in idx]


def test_two_symbol_coordinates_split_at_the_separator(monkeypatch):
    # one comparison replaces the separator search; a word equal to the
    # separator reads symbol 1, as bisect_right gives
    point = sy.SeededRandomPoint(3, (Fraction(1, 3), Fraction(2, 3)))
    sep = int(point._separators[0])
    words = np.array([0, sep - 1, sep, sep + 1, 2**64 - 1], dtype=np.uint64)
    monkeypatch.setattr(sy, "prf64_np", lambda seed, counters: words.copy())  # fresh, as prf64_np
    got = point.coordinates(np.arange(5)).tolist()
    assert got == [0, 0, 1, 1, 1]
    assert got == [bisect_right(point._separators.tolist(), int(w)) for w in words]


# ---------------------------------------------------------------------------
# iteration


def test_rotation_iterate_exact():
    quarter = sy.Rotation.from_fraction(Fraction(1, 4))
    assert iterate(quarter, 0, 3) == (3 * sy.FRACTION_MOD) // 4


def test_shift_iterate():
    p = sy.PeriodicPoint((0, 1), 2)
    assert iterate(FAIR, p, 1).coordinate(0) == 1


def test_golden_rotation_against_bigint_oracle():
    golden = sy.Rotation.golden()
    x0 = 12345
    m = 10**6
    oracle = (x0 + m * golden.alpha_num) % (1 << 128)
    assert iterate(golden, x0, m) == oracle


def test_rotation_incremental_vs_direct():
    golden = sy.Rotation.golden()
    cur = 999
    for m in range(1, 100_001):
        cur = (cur + golden.alpha_num) % sy.FRACTION_MOD
        if m % 9973 == 0 or m <= 100:
            assert cur == iterate(golden, 999, m)
    rng = random.Random(0)
    for _ in range(500):
        m = rng.randrange(1, 10**7)
        assert iterate(golden, 1, m) == (1 + m * golden.alpha_num) % (1 << 128)


@settings(deadline=None, max_examples=100)
@given(m=st.integers(0, 2**50), n=st.integers(0, 2**50), alpha_num=st.integers(0, (1 << 128) - 1))
def test_rotation_monoid_action(m, n, alpha_num):
    rot = sy.Rotation(alpha_num)
    x = 777
    assert iterate(rot, iterate(rot, x, m), n) == iterate(rot, x, m + n)


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
            return shift_point(sy.SeededRandomPoint(seed, FAIR.weights), seed % 1000)
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
    a = iterate(FAIR, iterate(FAIR, p, m), n)
    b = iterate(FAIR, p, m + n)
    idx = np.arange(64)
    assert a.coordinates(idx).tolist() == b.coordinates(idx).tolist()


def test_product_iterate_componentwise():
    prod = sy.ProductSystem((FAIR, sy.Rotation.from_fraction(Fraction(1, 8))))
    x = (zeros(), 0)
    tx = iterate(prod, x, 5)
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
    # every window read as one word of the packed tape, against the float64
    # matrix product and fsum: at every width, from every start of tapes
    # whose lengths are and are not whole bytes, so every bit offset 0..7
    # and the last word, which runs past the tape, are read; on the tape
    # and on its reversed view, as two-sided distances read it; the first
    # tape sets every bit
    rng = np.random.default_rng(7)
    for width in range(sy.MAX_WINDOW + 1):
        powers = np.ldexp(1.0, -np.arange(1, width + 1))
        for cells in (width + 15, width + 16, width + 70):
            tape = rng.random(cells) < 0.5
            if cells == width + 15:
                tape[:] = True
            starts = np.arange(cells - width + 1)
            assert set((starts & 7).tolist()) == set(range(8))
            for bits in (tape, tape[::-1]):
                rows = np.array([bits[s : s + width] for s in starts]).reshape(len(starts), width)
                got = sy._window_sums(bits, starts, width)
                assert got.dtype == np.float64 and got.shape == (len(starts),)
                assert got.tolist() == (rows.astype(np.float64) @ powers).tolist()
                assert got.tolist() == [math.fsum(row) for row in (rows * powers).tolist()]
                last = starts[-8:]
                assert sy._window_sums(bits, last, width).tolist() == got[-8:].tolist()


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


@pytest.mark.parametrize("side", [sy.ONE_SIDED, sy.TWO_SIDED])
@pytest.mark.parametrize("window", [1, 48, sy.MAX_WINDOW])
def test_points_over_one_rotation_point_keep_the_shift_distances(side, window):
    # points of FullShift x Rotation that share their rotation coordinate
    # theta lie in one fibre over the rotation factor: each rotation row is
    # 0, so the product's max metric gives the shift's distances exactly
    shift = sy.FullShift.uniform(2, side=side, window=window)
    product = sy.ProductSystem((shift, sy.Rotation.golden()))
    omegas = [sy.sample_point(shift, s) for s in range(4)] + [sy.PeriodicPoint((0,), 2, side=side)]
    xs, ys = zip(*[(a, b) for i, a in enumerate(omegas) for b in omegas[i + 1 :]])
    times = [0, 1, 2, 3, 5, 8, 1000, 2**40, 3]
    if side == sy.TWO_SIDED:
        times += [-1, -7, -(2**40)]
    times = np.array(times, dtype=np.int64)
    expected = sy.distance_series(shift, xs, ys, times)
    theta = sy.sample_point(sy.Rotation.golden(), 3)
    got = sy.distance_series(product, [(x, theta) for x in xs], [(y, theta) for y in ys], times)
    assert got.tobytes() == expected.tobytes()
    # half a turn away from theta, the last point leaves the fibre: its
    # pairs are at least 1/2 apart, and the others keep their rows
    moved = (omegas[-1], (theta + sy.FRACTION_MOD // 2) % sy.FRACTION_MOD)
    ys_moved = [moved if y is omegas[-1] else (y, theta) for y in ys]
    got = sy.distance_series(product, [(x, theta) for x in xs], ys_moved, times)
    leaves = np.array([y is omegas[-1] for y in ys])
    assert got[~leaves].tobytes() == expected[~leaves].tobytes()
    assert (got[leaves] == np.maximum(expected[leaves], 0.5)).all()
    assert (got[leaves] != expected[leaves]).any(axis=1).all()


def _random_point(system, rng):
    return sy.sample_point(system, rng.getrandbits(63))


@pytest.mark.parametrize(
    "system",
    [
        FAIR,
        sy.FullShift([Fraction(1, 4), Fraction(3, 4)]),
        sy.Rotation.golden(),
        sy.ProductSystem((FAIR, sy.Rotation.golden())),
        FAIR_TWO_SIDED,
    ],
    ids=["fair", "biased", "rotation", "product", "two_sided"],
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
    shift = sy.FullShift([Fraction(1, 4), Fraction(3, 4)])
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
# natural extension: the two-sided shift on the same weights


def test_lift_construction():
    ext = ExtendedPoint(zeros(), ones())
    assert ext.coordinates([-1, 0]).tolist() == [1, 0]
    assert sy.distance(FAIR_TWO_SIDED, ext, ext) == 0.0


def test_lift_projection_commutes_with_shift():
    ne = FAIR_TWO_SIDED
    ext = sy.sample_point(ne, 31337)
    lifted_then_shifted = component(iterate(ne, ext, 1), 1)
    shifted = component(ext, 1)
    for i in range(101):
        assert lifted_then_shifted.coordinate(i) == shifted.coordinate(i + 1)


def test_backward_orbit_compatibility():
    ext = sy.sample_point(FAIR_TWO_SIDED, 99)
    for depth in range(1, 6):
        deeper = component(ext, depth + 1)
        shallower = component(ext, depth)
        for i in range(40):
            assert deeper.coordinate(i + 1) == shallower.coordinate(i)


def test_natural_extension_negative_time():
    ne = FAIR_TWO_SIDED
    ext = sy.sample_point(ne, 4)
    back = iterate(ne, ext, -3)
    assert iterate(ne, back, 3) == ext


def test_two_sided_seeded_points_are_natural_extension_points():
    # a tape joined from two one-sided points is a point like any other
    ne = FAIR_TWO_SIDED
    x, y = (sy.SeededRandomPoint(s, FAIR.weights, side=sy.TWO_SIDED) for s in (1, 2))
    ext = ExtendedPoint(sy.sample_point(FAIR, 3), sy.sample_point(FAIR, 4))
    for a, b in ((x, y), (x, ext), (ext, y)):
        assert sy.distance(ne, a, b).hex() == oracle_distance(ne, a, b).hex()
    assert sy.distance(ne, x, y) > 0
    with pytest.raises(DomainError):
        sy.distance(ne, x, zeros())


def test_weight_validation():
    with pytest.raises(ConfigError):
        sy.FullShift([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ConfigError):
        sy.FullShift([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ConfigError):
        sy.Rotation.from_fraction(Fraction(5, 4))


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
    return st.one_of(base, st.builds(shift_point, base, st.integers(lowest, 10**6)))


# depth-1..3 views of extended points whose shift count may be negative
TAPE_VIEWS = st.builds(
    lambda base, past, offset, depth: component(
        shift_point(ExtendedPoint(base, past), offset), depth
    ),
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


@settings(deadline=None, max_examples=100)
@given(
    point=ONE_SIDED_POINTS, idx=st.lists(st.one_of(NEAR, FAR), max_size=10),
    i=st.integers(-(2**40), -1), at=st.integers(0, 10),
)
def test_a_read_below_zero_on_a_one_sided_point_raises(point, idx, i, at):
    # the vectorized reads refuse what the scalar read refuses
    idx = np.array(idx[:at] + [i] + idx[at:], dtype=np.int64)
    with pytest.raises(DomainError):
        point.coordinates(idx)
    with pytest.raises(DomainError):
        sy.coordinates_of([point, point], idx)


def test_one_table_read_below_zero_raises_on_one_sided_points():
    one_sided = [sy.SeededRandomPoint(s, FAIR.weights) for s in (1, 2)]
    with pytest.raises(DomainError):
        sy.coordinates_of(one_sided, [-1, 0])
    with pytest.raises(DomainError):
        sy.PeriodicPoint((0, 1), 2).coordinates([-1])
    two_sided = [sy.SeededRandomPoint(s, FAIR.weights, side=sy.TWO_SIDED) for s in (1, 2)]
    rows = sy.coordinates_of(two_sided, [-1, 0])
    assert rows.tolist() == [[oracle_coordinate(p, i) for i in (-1, 0)] for p in two_sided]


OUTSIDE_INT64 = st.sampled_from([2**63, 2**64, 2**70, -(2**63) - 1, -(2**70)])


@settings(deadline=None, max_examples=100)
@given(
    point=st.one_of(ONE_SIDED_POINTS, symbolic_points(sy.TWO_SIDED)),
    i=OUTSIDE_INT64, at=st.integers(0, 2),
)
def test_an_index_outside_int64_raises_domain_error(point, i, at):
    # numpy's bare OverflowError never escapes a read
    idx = [0, 1][:at] + [i] + [0, 1][at:]
    with pytest.raises(DomainError):
        point.coordinate(i)
    with pytest.raises(DomainError):
        point.coordinates(idx)
    with pytest.raises(DomainError):
        sy.coordinates_of([point, point], idx)


@pytest.mark.parametrize("i", [2**63, -(2**63) - 1])
def test_one_table_and_tape_reads_outside_int64_raise_domain_error(i):
    with pytest.raises(DomainError):
        sy.PeriodicPoint((0, 1), 2).coordinate(i)
    for side in (sy.ONE_SIDED, sy.TWO_SIDED):
        one_table = [sy.SeededRandomPoint(s, FAIR.weights, side=side) for s in (1, 2)]
        with pytest.raises(DomainError):
            sy.coordinates_of(one_table, [0, i])
    ext = ExtendedPoint(zeros(), ones())
    with pytest.raises(DomainError):
        ext.coordinates([0, i])


@settings(deadline=None, max_examples=60)
@given(
    base=symbolic_points(sy.ONE_SIDED), past=symbolic_points(sy.ONE_SIDED),
    idx=st.lists(st.integers(-400, 400), min_size=1, max_size=30),
)
def test_tape_coordinates_match_the_scalar_tape(base, past, idx):
    # an extended point reads through the one checked read like any other point
    ext = ExtendedPoint(base, past)
    expected = [oracle_tape(ext, j) for j in idx]
    assert ext.coordinates(np.array(idx, dtype=np.int64)).tolist() == expected
    assert [ext.coordinate(j) for j in idx] == expected
    assert sy.coordinates_of([ext, ext], idx).tolist() == [expected] * 2


def metric_cases():
    """(system, x, y): the two kinds of distance that read symbol windows."""
    windows = st.integers(1, sy.MAX_WINDOW)
    sides = st.sampled_from([sy.ONE_SIDED, sy.TWO_SIDED])
    seeds = st.integers(0, 2**63 - 1)
    shifts = st.builds(
        lambda w, side: sy.FullShift.uniform(2, side=side, window=w), windows, sides
    )
    products = st.builds(lambda shift: sy.ProductSystem((shift, sy.Rotation.golden())), shifts)
    sampled = st.builds(
        lambda system, a, b: (system, sy.sample_point(system, a), sy.sample_point(system, b)),
        st.one_of(shifts, products), seeds, seeds,
    )
    # tapes that differ at every coordinate make the truncation error largest
    extreme = st.builds(
        lambda w, side, r: (
            sy.ProductSystem((sy.FullShift.uniform(2, side=side, window=w), sy.Rotation.golden())),
            (sy.PeriodicPoint((0,), 2, side=side), r[0]), (sy.PeriodicPoint((1,), 2, side=side), r[1]),
        ),
        windows, sides, st.tuples(st.integers(0, sy.FRACTION_MOD - 1), st.integers(0, sy.FRACTION_MOD - 1)),
    )
    return st.one_of(sampled, extreme)


def fraction_distance(system, x, y, span=200):
    """The metric in exact rationals, over ``span`` coordinates in place of the window."""
    if isinstance(system, sy.Rotation):
        delta = abs(x - y)
        return Fraction(min(delta, sy.FRACTION_MOD - delta), sy.FRACTION_MOD)
    if isinstance(system, sy.ProductSystem):
        return max(fraction_distance(c, xc, yc, span) for c, xc, yc in zip(system.components, x, y))
    lo = 1 - span if system.side == sy.TWO_SIDED else 0
    idx = np.arange(lo, span)
    differ = (np.flatnonzero(x.coordinates(idx) != y.coordinates(idx)) + lo).tolist()
    if system.side == sy.TWO_SIDED:
        return sum((Fraction(1, 2 ** (abs(j) + 2)) for j in differ), Fraction(0))
    return sum((Fraction(1, 2 ** (j + 1)) for j in differ), Fraction(0))


# At w = 53 the one add of a two-sided distance rounds by up to 2**-54
# after halving, on top of a tail of up to 2**-w: a sampled pair, and a
# constructed one whose window sum lies halfway between two floats.
WIDEST_TWO_SIDED = sy.FullShift.uniform(2, side=sy.TWO_SIDED, window=sy.MAX_WINDOW)


@settings(deadline=None, max_examples=120)
@given(case=metric_cases())
@example(case=(WIDEST_TWO_SIDED, *(sy.sample_point(WIDEST_TWO_SIDED, s) for s in (53, 1000))))
@example(case=(
    WIDEST_TWO_SIDED, sy.PeriodicPoint((0,), 2, side=sy.TWO_SIDED),
    sy.BlockScheduledPoint((-52, -51), (1, 0, 1), 2, side=sy.TWO_SIDED),
))
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
    not: mostly the points whose one-sided series is computed from
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
            lambda k: shift_point(p, k)
        )
    )
    return st.one_of(periodic, blocks, shifted)


def piecewise_cases():
    """(system, x, y): two points of ``piecewise_points``, mostly on a
    one-sided shift over three symbols."""
    shifts = st.one_of(
        st.integers(1, sy.MAX_WINDOW).map(lambda w: sy.FullShift.uniform(3, window=w)),
        st.builds(
            lambda w, side: sy.FullShift.uniform(3, side=side, window=w),
            st.integers(1, sy.MAX_WINDOW), st.sampled_from([sy.ONE_SIDED, sy.TWO_SIDED]),
        ),
    )
    return shifts.flatmap(
        lambda s: st.tuples(st.just(s), piecewise_points(s.side), piecewise_points(s.side))
    )


@settings(deadline=None, max_examples=200)
@given(case=st.one_of(metric_cases(), piecewise_cases()), data=st.data())
def test_distance_series_keeps_the_bits_of_the_scalar_code(case, data):
    system, x, y = case
    moves, sizes = [NEAR, FAR], {"max_size": 6}
    if isinstance(system, sy.FullShift):
        # a shift's scalar oracle is cheap: more times, many of them up to
        # the last change point of a piecewise-constant point
        moves, sizes = [NEAR, FAR, st.integers(0, 200)], {"min_size": 10, "max_size": 30}
    # an invertible system (a product's shift is its first component) runs backwards too
    shift = system.components[0] if isinstance(system, sy.ProductSystem) else system
    if shift.side == sy.TWO_SIDED:
        moves += [m.map(lambda t: -t) for m in moves]
    ts = data.draw(st.lists(st.one_of(*moves), **sizes))
    got = sy.distance_series(system, [x], [y], np.array(ts, dtype=np.int64))
    assert got.dtype == np.float64 and got.shape == (1, len(ts))
    got = got[0]
    expected = oracle_series(system, x, y, ts)
    assert [d.hex() for d in got.tolist()] == [d.hex() for d in expected]



@pytest.mark.parametrize("side", [sy.ONE_SIDED, sy.TWO_SIDED])
def test_dense_windows_at_every_width_keep_the_bits_of_the_scalar_code(side):
    # consecutive times lay their windows out as one tape of n + span - 1
    # cells; tapes of whole bytes and not, at every width, so that a
    # two-sided window 1 also reads its empty past at the tape's end
    for w in range(1, sy.MAX_WINDOW + 1):
        system = sy.FullShift.uniform(2, side=side, window=w)
        x, y = sy.sample_point(system, w), sy.sample_point(system, -w)
        for n in (1, 7, 8, 9, 16):
            ts = np.arange(n) - (3 if side == sy.TWO_SIDED else 0)
            got = sy.distance_series(system, [x], [y], ts)[0]
            assert [d.hex() for d in got.tolist()] == [
                d.hex() for d in oracle_series(system, x, y, ts)
            ]
