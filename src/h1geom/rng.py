"""Counter-based uniform random numbers for shard-independent Monte Carlo.

Stateful generators tie the i-th draw to everything drawn before it, so
splitting work across threads or blocks changes the numbers.  Here each
value is a pure hash of (seed, sample index, stream), using the 64-bit
finalizer from splitmix64: any partition of the index range reproduces
exactly the same samples, which is what makes the estimators in this
package bit-identical across thread counts.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / float(1 << 53)
_CHUNK = 1 << 13

__all__ = ["uniforms"]


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on a python int."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def uniforms(seed: int, start: int, count: int, streams: int) -> np.ndarray:
    """Uniform variates in [0, 1), shape (streams, count), for sample
    indices start .. start+count-1.

    Entry (k, i) depends only on (seed, start + i, k); the sample index is
    the counter, so ``uniforms(s, 0, n, m)`` equals the concatenation of
    ``uniforms(s, lo, hi - lo, m)`` over any block partition of [0, n).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if streams < 1:
        raise ValueError("streams must be positive")
    # scramble the seed before the counter is added; a merely affine key
    # would make (seed, i) and (seed + 1, i - 1) collide exactly
    key = _mix_int((int(seed) & _MASK) * _GAMMA + 0x85EBCA6B)
    offsets = [np.uint64(((k + 1) * _GAMMA) & _MASK) for k in range(streams)]
    out = np.empty((streams, count), dtype=np.float64)
    # hashed a chunk of indices at a time, so the uint64 temporaries stay
    # small whatever the count
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        idx = np.arange(int(start) + lo, int(start) + hi, dtype=np.uint64)
        with np.errstate(over="ignore"):
            base = _mix(np.uint64(key) + idx * np.uint64(_GAMMA))
            for k, offset in enumerate(offsets):
                bits = _mix(base + offset)
                out[k, lo:hi] = (bits >> np.uint64(11)).astype(np.float64) * _INV53
    return out
