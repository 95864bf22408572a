"""Counter-addressed RNG: shape, range, determinism, and block splitting."""

import warnings

import numpy as np
import pytest

from h1geom.rng import uniforms

_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _lcg_jump(state, inc, delta):
    """The 128-bit LCG state after ``delta`` steps x -> MULT x + inc, in
    O(log delta) squarings (Brown 1994, as in PCG's advance)."""
    mult, plus, acc_mult, acc_plus = _MULT, inc, 1, 0
    while delta:
        if delta & 1:
            acc_mult = acc_mult * mult & _M128
            acc_plus = (acc_plus * mult + plus) & _M128
        plus = (mult + 1) * plus & _M128
        mult = mult * mult & _M128
        delta >>= 1
    return (acc_mult * state + acc_plus) & _M128


def reference_uniforms(seed, start, count, streams):
    """PCG64 in Python integers.  Stream k is seeded by numpy's rule from
    ``SeedSequence(seed mod 2^64, spawn_key=(k,)).generate_state(4,
    uint64)`` = (s1, s0, i1, i0): increment 2 (i1 i0) + 1, state stepped
    from 0, plus (s1 s0), stepped again.  It jumps ``start`` steps ahead,
    and each draw steps the LCG and takes the XSL-RR output of the new
    state, whose top 53 bits over 2^53 are the uniform."""
    out = np.empty((streams, count))
    for k in range(streams):
        words = np.random.SeedSequence(seed % 2**64, spawn_key=(k,)).generate_state(4, np.uint64)
        s1, s0, i1, i0 = (int(w) for w in words)
        inc = ((i1 << 64 | i0) << 1 | 1) & _M128
        state = ((inc + (s1 << 64 | s0)) * _MULT + inc) & _M128
        state = _lcg_jump(state, inc, start)
        for i in range(count):
            state = (state * _MULT + inc) & _M128
            hi, lo = state >> 64, state & _M64
            x, rot = hi ^ lo, hi >> 58
            x = (x >> rot | x << (64 - rot)) & _M64
            out[k, i] = (x >> 11) * 2.0**-53
    return out


def test_shape_dtype_range():
    u = uniforms(seed=1, start=0, count=1000, streams=3)
    assert u.shape == (3, 1000)
    assert u.dtype == np.float64
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_zero_count():
    u = uniforms(seed=1, start=5, count=0, streams=2)
    assert u.shape == (2, 0)


@pytest.mark.parametrize(
    "seed, start, count",
    [
        (-7, 0, 300),
        (2**70 + 3, 123_456_789, 300),
        # starts near 2^64 take a long jump
        (11, 2**64 - 2**14, 300),
        (-7, 2**64 - 2**14, 8200),
    ],
)
@pytest.mark.parametrize("streams", [1, 4])
def test_values_are_the_integer_splitmix64_reference(seed, start, count, streams):
    with warnings.catch_warnings():
        # seeding, jumping and filling must not warn
        warnings.simplefilter("error")
        got = uniforms(seed, start, count, streams)
    want = reference_uniforms(seed, start, count, streams)
    assert got.dtype == np.float64 and got.shape == (streams, count)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_deterministic():
    a = uniforms(seed=42, start=17, count=256, streams=4)
    b = uniforms(seed=42, start=17, count=256, streams=4)
    assert np.array_equal(a, b)


def test_counter_splits_into_blocks():
    whole = uniforms(seed=9, start=0, count=300, streams=2)
    parts = [
        uniforms(seed=9, start=lo, count=100, streams=2)
        for lo in (0, 100, 200)
    ]
    assert np.array_equal(whole, np.concatenate(parts, axis=1))


def test_long_draws_match_single_samples():
    # a sample must not depend on how far into which call it falls
    whole = uniforms(seed=9, start=5, count=20_000, streams=3)
    for i in (0, 8191, 8192, 8193, 16383, 16384, 19_999):
        one = uniforms(seed=9, start=5 + i, count=1, streams=3)
        assert np.array_equal(whole[:, i], one[:, 0])


def test_streams_are_prefix_stable():
    wide = uniforms(seed=7, start=10, count=64, streams=5)
    narrow = uniforms(seed=7, start=10, count=64, streams=3)
    assert np.array_equal(wide[:3], narrow)


def test_seed_changes_values():
    a = uniforms(seed=1, start=0, count=128, streams=1)
    b = uniforms(seed=2, start=0, count=128, streams=1)
    assert not np.array_equal(a, b)


def test_adjacent_seeds_are_not_shifted_copies():
    # a merely affine seed key made (seed, i) equal (seed + 1, i - 1),
    # collapsing the spread of estimates across nearby seeds
    a = uniforms(seed=1000, start=0, count=4096, streams=1)
    b = uniforms(seed=1001, start=0, count=4096, streams=1)
    assert not np.array_equal(a[0, 1:], b[0, :-1])
    assert np.count_nonzero(a == b) == 0


def test_streams_of_seeds_2_to_the_32_apart_differ():
    # with (seed, k) as two entropy words, SeedSequence would read seed
    # s + 2^32 as (s, 1) and pad (s, 1) with a zero stream: stream 0 of
    # one seed would be stream 1 of the other
    a = uniforms(seed=5 + 2**32, start=0, count=64, streams=1)
    b = uniforms(seed=5, start=0, count=64, streams=2)
    assert np.count_nonzero(a[0] == b[1]) == 0


def test_streams_differ():
    u = uniforms(seed=3, start=0, count=128, streams=2)
    assert not np.array_equal(u[0], u[1])


def test_marginals_look_uniform():
    n = 100_000
    u = uniforms(seed=123, start=0, count=n, streams=2)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002
    counts, _ = np.histogram(u[0], bins=10, range=(0.0, 1.0))
    # 10 equal bins of 1e5 draws: 5 sigma is about 480
    assert np.all(np.abs(counts - n / 10) < 500)
    # successive samples decorrelated
    corr = np.corrcoef(u[0][:-1], u[0][1:])[0, 1]
    assert abs(corr) < 0.02


def test_invalid_args():
    with pytest.raises(ValueError):
        uniforms(seed=1, start=0, count=-1, streams=1)
    with pytest.raises(ValueError):
        uniforms(seed=1, start=0, count=10, streams=0)
