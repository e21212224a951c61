import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seqchaos.prf import MASK64, child_seed, fnv1a64, prf64, prf64_np, splitmix64


def test_splitmix_reference():
    # first output of the reference SplitMix64 stream seeded with 0
    assert splitmix64(0) == 0xE220A8397B1DCDAF


def test_prf_frozen_anchors():
    # regression anchors; changing these breaks every stored result
    assert prf64(0, 0) == 0xB57A554F8C372F91
    assert prf64(42, 10**9) == 0xD9BBB8E645F0044E
    assert prf64(2**64 - 1, -5) == 0x35AF5E664D80E132
    assert child_seed(7, "tuple/3/point/1") == 0x399536F9A2E020B9


def test_prf_outputs_in_range_and_pure():
    vals = [prf64(9, n) for n in range(100)]
    assert vals == [prf64(9, n) for n in range(100)]
    assert all(0 <= v <= MASK64 for v in vals)
    assert len(set(vals)) == 100


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(min_value=0, max_value=MASK64),
    counters=st.lists(
        st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=50
    ),
)
def test_vectorized_matches_scalar(seed, counters):
    arr = np.array(counters, dtype=np.int64)
    vec = prf64_np(seed, arr)
    assert vec.dtype == np.uint64
    assert [int(v) for v in vec] == [prf64(seed, n) for n in counters]


def test_child_seed_label_sensitivity():
    seeds = {child_seed(0, f"task/{i}") for i in range(1000)}
    assert len(seeds) == 1000
    assert child_seed(0, "a") != child_seed(1, "a")


def test_fnv1a64_known_vector():
    # standard FNV-1a 64-bit test vector
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C


@settings(deadline=None, max_examples=200)
@given(
    seeds=st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=MASK64),
            st.integers(min_value=2**63, max_value=MASK64),
            st.integers(min_value=-(2**64), max_value=2**65),
        ),
        min_size=1,
        max_size=8,
    ),
    counters=st.lists(
        st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=0, max_size=30
    ),
)
def test_seed_rows_match_stacked_scalar_seed_calls(seeds, counters):
    # one row per seed; a seed outside [0, 2**64) is reduced like the scalar path
    arr = np.array(counters, dtype=np.int64)
    rows = prf64_np(seeds, arr)
    assert rows.dtype == np.uint64 and rows.shape == (len(seeds), len(counters))
    for seed, row in zip(seeds, rows):
        assert np.array_equal(row, prf64_np(seed, arr))
        assert row.tolist() == [prf64(seed, n) for n in counters]
    uint64_seeds = np.array([s & MASK64 for s in seeds], dtype=np.uint64)
    assert np.array_equal(prf64_np(uint64_seeds, arr), rows)


def test_seed_rows_of_no_seeds():
    assert prf64_np([], np.arange(5)).shape == (0, 5)
