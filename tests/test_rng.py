"""Counter-based RNG: shape, range, determinism, and block splitting."""

import warnings

import numpy as np
import pytest

from h1geom.rng import _GAMMA, _MASK, _mix_int, uniforms


def reference_uniforms(seed, start, count, streams):
    """splitmix64 in Python integers: entry (k, i) is the top 53 bits of
    mix(mix(key + (start + i) gamma) + (k + 1) gamma) over 2^53, with
    key = mix(seed gamma + 0x85EBCA6B), every sum modulo 2^64."""
    key = _mix_int((seed & _MASK) * _GAMMA + 0x85EBCA6B)
    out = np.empty((streams, count))
    for i in range(count):
        base = _mix_int(key + (start + i) * _GAMMA)
        for k in range(streams):
            out[k, i] = (_mix_int(base + (k + 1) * _GAMMA) >> 11) * 2.0**-53
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
        # idx gamma and base + offset wrap modulo 2^64 near the top
        (11, 2**64 - 2**14, 300),
        # one draw across the boundary of the 8192-index hashing chunks
        (-7, 2**64 - 2**14, 8200),
    ],
)
@pytest.mark.parametrize("streams", [1, 4])
def test_values_are_the_integer_splitmix64_reference(seed, start, count, streams):
    with warnings.catch_warnings():
        # the wrapping uint64 arithmetic must not warn
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
    # long draws are hashed in internal chunks; a sample must not depend
    # on which chunk of which call it falls in
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
