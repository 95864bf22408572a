"""Counter-based uniform random numbers for shard-independent Monte Carlo.

Stateful generators tie the i-th draw to everything drawn before it, so
splitting work across threads or blocks changes the numbers.  Here each
value is a pure hash of (seed, sample index, stream), using the 64-bit
finalizer from splitmix64: any partition of the index range reproduces
exactly the same samples, which is what makes the estimators in this
package bit-identical across thread counts.

A draw is hashed in chunks of 8192 indices, all streams of a chunk at
once, in place in two scratch arrays of 64-bit words: the values do not
depend on the chunking, only the temporaries do.
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


def _mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer, in place on a uint64 array, with ``tmp`` (of
    the same shape) as scratch."""
    for shift, mult in ((30, _M1), (27, _M2)):
        z ^= np.right_shift(z, np.uint64(shift), out=tmp)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=tmp)


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
    offsets = np.array([[((k + 1) * _GAMMA) & _MASK] for k in range(streams)], dtype=np.uint64)
    out = np.empty((streams, count), dtype=np.float64)
    # hashed a chunk of indices at a time, every stream at once, in two
    # scratch arrays of (streams, chunk) words, so the temporaries stay
    # small whatever the count; uint64 arithmetic wraps modulo 2^64
    width = min(count, _CHUNK)
    z = np.empty((streams, width), dtype=np.uint64)
    tmp = np.empty_like(z)
    for lo in range(0, count, _CHUNK):
        hi = min(lo + _CHUNK, count)
        zc, tc = z[:, : hi - lo], tmp[:, : hi - lo]
        base = np.arange(int(start) + lo, int(start) + hi, dtype=np.uint64)
        base *= np.uint64(_GAMMA)
        base += np.uint64(key)
        _mix(base, tc[0])
        np.add(base, offsets, out=zc)
        _mix(zc, tc)
        zc >>= np.uint64(11)
        # below 2^53, so the int64 view is the same number, and it
        # converts to float64 exactly and faster than uint64 does
        np.multiply(zc.view(np.int64), _INV53, out=out[:, lo:hi])
    return out
