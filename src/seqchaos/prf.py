"""Deterministic counter-based randomness.

Every random-looking quantity in this package is a pure function of a
64-bit seed and a counter.  No generator state is ever stored, so any
coordinate of any sampled point can be recomputed in O(1) from its
(seed, index) pair, identically across runs, processes and platforms.

The fixed algorithm (changing it is a breaking change):

    mix(z)           = SplitMix64 finalizer of z mod 2**64
    prf64(seed, n)   = mix(mix(seed) XOR mix(n XOR PHI64))
    child_seed(s, l) = mix(mix(s) XOR fnv1a64(l as UTF-8))

with PHI64 = 0x9E3779B97F4A7C15.  Negative counters are reduced mod
2**64 (two's complement), which lets two-sided coordinates share the
same keystream.  Labels are free-form strings, so adding a task with a
new label never perturbs the seeds handed to existing tasks.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
PHI64 = 0x9E3779B97F4A7C15

_SM_MULT1 = 0xBF58476D1CE4E5B9
_SM_MULT2 = 0x94D049BB133111EB


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mixer with full avalanche."""
    z = (z + PHI64) & MASK64
    z = ((z ^ (z >> 30)) * _SM_MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _SM_MULT2) & MASK64
    return z ^ (z >> 31)


def prf64(seed: int, n: int) -> int:
    """Keyed 64-bit value for counter ``n``; pure in (seed, n)."""
    return splitmix64(splitmix64(seed & MASK64) ^ splitmix64((n ^ PHI64) & MASK64))


def _splitmix64_np(z: np.ndarray) -> np.ndarray:
    """:func:`splitmix64` of every entry of the uint64 array ``z``, in place;
    one scratch array holds each of the three shifts."""
    shifted = np.empty_like(z)
    z += np.uint64(PHI64)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= np.uint64(_SM_MULT1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_SM_MULT2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def prf64_np(seed, counters: np.ndarray) -> np.ndarray:
    """Vectorized :func:`prf64`; bit-identical to the scalar version.

    ``counters`` may be any integer dtype; int64 values are reinterpreted
    mod 2**64 exactly like the scalar path.  ``seed`` is one seed, giving
    one value per counter, or a 1-D sequence of seeds, giving one row per
    seed; the counter half of the mix is computed once for every row.
    """
    n = np.ascontiguousarray(counters, dtype=np.int64).view(np.uint64)
    with np.errstate(over="ignore"):
        if isinstance(seed, (int, np.integer)):
            keys = np.uint64(splitmix64(int(seed) & MASK64))
        else:
            try:
                keys = np.array(seed, dtype=np.uint64)
            except OverflowError:  # a seed outside [0, 2**64) is reduced mod 2**64
                keys = np.array([int(s) & MASK64 for s in seed], dtype=np.uint64)
            keys = _splitmix64_np(keys).reshape((len(keys),) + (1,) * n.ndim)
        return _splitmix64_np(keys ^ _splitmix64_np(n ^ np.uint64(PHI64)))


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & MASK64
    return h


def child_seed(master: int, label: str) -> int:
    """Derive an independent task seed from a master seed and a label."""
    return splitmix64(splitmix64(master & MASK64) ^ fnv1a64(label.encode("utf-8")))
