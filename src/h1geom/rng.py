"""Counter-addressed uniform random numbers for shard-independent Monte Carlo.

Splitting work across threads or blocks must not change the numbers, so
a draw is addressed by (seed, sample index, stream) rather than by what
was drawn before it.  Stream k is numpy's PCG64 seeded with the k-th
child of ``SeedSequence(seed mod 2^64)``; PCG64 is a 128-bit LCG
underneath, so it jumps ahead to any sample index in O(log n) steps
(O'Neill 2014).  Any partition of the index range therefore reproduces
exactly the same samples, which is what makes the estimators in this
package bit-identical across thread counts and block splits.
"""

from __future__ import annotations

import numpy as np

__all__ = ["uniforms"]


def uniforms(seed: int, start: int, count: int, streams: int) -> np.ndarray:
    """Uniform variates in [0, 1), shape (streams, count), for sample
    indices start .. start+count-1.

    Entry (k, i) is draw start + i of PCG64 seeded with
    ``SeedSequence(seed mod 2^64, spawn_key=(k,))``, (next_uint64 >> 11)
    times 2^-53.  It depends only on (seed, start + i, k), so
    ``uniforms(s, 0, n, m)`` equals the concatenation of
    ``uniforms(s, lo, hi - lo, m)`` over any block partition of [0, n).
    The spawn key, unlike a second entropy word, keeps (seed, k) from
    colliding with (seed + k 2^32, 0).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if streams < 1:
        raise ValueError("streams must be positive")
    seed = int(seed) % (1 << 64)
    out = np.empty((streams, count), dtype=np.float64)
    for k in range(streams):
        bits = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,)))
        bits.advance(int(start))
        np.random.Generator(bits).random(out=out[k])
    return out
