import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opasim import rng
from opasim.rng import angle_cos_sin, raw_uint64, standard_normal_pairs, uniforms


def _odd_draws(seed, count):
    """The odd draws 2i+1 of rows i = 0..count-1, whose angles the pairs take."""
    rows = np.arange(count, dtype=np.uint64)
    return raw_uint64(seed, rows * np.uint64(2) + np.uint64(1))


def test_raw_outputs_are_frozen():
    # pinned values: the counter-based stream must never drift
    assert int(raw_uint64(0, 0)) == 16294208416658607535
    assert int(raw_uint64(0, 1)) == 7960286522194355700
    assert int(raw_uint64(42, 0)) == 13679457532755275413


def test_raw_vectorized_matches_scalar():
    idx = np.arange(100, dtype=np.uint64)
    vec = raw_uint64(123, idx)
    for i in range(100):
        assert vec[i] == raw_uint64(123, i)


def test_seed_range_checked():
    with pytest.raises(ValueError):
        raw_uint64(-1, 0)
    with pytest.raises(ValueError):
        raw_uint64(2**64, 0)
    raw_uint64(2**64 - 1, 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 10_000), st.integers(0, 500))
def test_chunking_never_changes_draws(seed, start, count):
    whole = standard_normal_pairs(seed, start, count)
    cut = count // 3
    parts = np.vstack(
        [
            standard_normal_pairs(seed, start, cut),
            standard_normal_pairs(seed, start + cut, count - cut),
        ]
    )
    assert np.array_equal(whole, parts)


def test_blocked_draws_equal_single_row_draws():
    # the range straddles two sampling block boundaries and ends ragged
    start, count = 4095, 2 * 4096 + 3
    whole = standard_normal_pairs(99, start, count)
    rows = np.concatenate(
        [standard_normal_pairs(99, start + i, 1) for i in range(count)]
    )
    assert np.array_equal(whole.view(np.uint64), rows.view(np.uint64))


def test_negative_rows_are_rejected():
    for draw in (standard_normal_pairs, uniforms):
        with pytest.raises(ValueError, match="start"):
            draw(1, -3, 5)
        with pytest.raises(ValueError, match="count"):
            draw(1, 0, -1)


def test_empty_draw_keeps_the_pair_shape():
    assert standard_normal_pairs(5, 123, 0).shape == (0, 2)


def test_pairs_depend_only_on_row_index():
    a = standard_normal_pairs(7, 5, 1)
    b = standard_normal_pairs(7, 0, 10)[5:6]
    assert np.array_equal(a, b)


def test_moments_of_large_sample():
    z = standard_normal_pairs(2024, 0, 200_000)
    n = z.shape[0]
    bound = 4.0 / np.sqrt(n)
    assert np.all(np.abs(z.mean(axis=0)) < bound)
    assert np.all(np.abs(z.var(axis=0, ddof=1) - 1.0) < 4.0 * np.sqrt(2.0 / n))
    assert abs(np.corrcoef(z.T)[0, 1]) < bound


def test_values_are_finite_and_bounded():
    # Box-Muller on open-interval uniforms cannot produce inf or nan
    z = standard_normal_pairs(1, 0, 50_000)
    assert np.all(np.isfinite(z))
    assert np.max(np.abs(z)) < 9.0


def test_pairs_are_the_radius_times_the_angle():
    # rows straddle a sampling block boundary
    start, count = 4000, 200
    rows = np.arange(start, start + count, dtype=np.uint64)
    even = raw_uint64(3, rows * np.uint64(2))
    odd = raw_uint64(3, rows * np.uint64(2) + np.uint64(1))
    u1 = ((even >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u1))
    cos, sin = angle_cos_sin(odd)
    z = standard_normal_pairs(3, start, count)
    assert np.array_equal(z[:, 0], radius * cos)
    assert np.array_equal(z[:, 1], radius * sin)


def test_uniforms_are_the_samplers_radius_u():
    # the even draws of rows straddling a sampling block boundary
    start, count = 4000, 200
    u = uniforms(3, 2 * start, 2 * count)[::2]
    even = raw_uint64(3, np.arange(2 * start, 2 * (start + count), 2, dtype=np.uint64))
    want = ((even >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(u.view(np.uint64), want.view(np.uint64))
    cos, _ = angle_cos_sin(_odd_draws(3, start + count)[start:])
    z = standard_normal_pairs(3, start, count)
    assert np.array_equal(z[:, 0], np.sqrt(-2.0 * np.log(u)) * cos)


def test_uniforms_lie_in_the_half_open_unit_interval():
    u = uniforms(9, 0, 100_000)
    assert np.all((u > 0.0) & (u <= 1.0))
    # the smallest and largest top 53 bits: k + 1/2 rounds to even above
    # 2**52, so the largest k gives exactly 1
    edges = np.array([0, 2**11 - 1, 2**64 - 2**11, 2**64 - 1], dtype=np.uint64)
    got = rng._unit(edges, np.empty(4), np.empty_like(edges))
    assert got.tolist() == [2.0**-54, 2.0**-54, 1.0, 1.0]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 10_000), st.integers(0, 500))
def test_uniform_slices_never_change_values(seed, start, count):
    whole = uniforms(seed, start, count)
    cut = count // 3
    parts = np.concatenate(
        [uniforms(seed, start, cut), uniforms(seed, start + cut, count - cut)]
    )
    assert np.array_equal(whole, parts)
    singles = [uniforms(seed, start + i, 1)[0] for i in range(min(count, 5))]
    assert whole[:5].tolist() == singles


def test_uniforms_are_frozen():
    # pinned values, as the raw outputs are: check inputs are drawn from them
    assert uniforms(0, 0, 3).tolist() == [
        0.8833108082136427, 0.43152799704851, 0.0264337715925978,
    ]
    assert uniforms(42, 0, 3).tolist() == [
        0.7415648787718234, 0.15991039287692016, 0.2786011302551387,
    ]


# SHA-256 of angle_cos_sin of the first 10 000 odd draws of stream 11
ANGLE_SHA256 = "857dc31503de74990b6c7fe736275f63159a05100ffa7427cfbef8d14b8728c2"


def test_angle_bits_are_frozen():
    # integer operations, a table and IEEE multiplies and adds only: these
    # bits hold on every host, whatever numpy's SIMD level or the libm
    digest = hashlib.sha256(angle_cos_sin(_odd_draws(11, 10_000)).tobytes()).hexdigest()
    assert digest == ANGLE_SHA256


def test_angle_of_single_draws_equals_the_blocked_angle():
    draws = _odd_draws(8, 2 * 4096 + 5)
    whole = angle_cos_sin(draws)
    singles = np.hstack([angle_cos_sin(draws[i : i + 1]) for i in range(draws.size)])
    assert np.array_equal(whole, singles)


def test_turn_table_is_correctly_rounded():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 200
    cos, sin = rng._TURNS
    for j in range(256):
        turn = 2 * mpmath.pi * j / 256
        for got, exact in ((cos[j], mpmath.cos(turn)), (sin[j], mpmath.sin(turn))):
            if abs(exact) < 1e-50:
                assert got == 0.0
            else:
                assert abs(got - exact) <= math.ulp(float(exact)), (j, got)


def test_angle_is_accurate_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 120
    draws = _odd_draws(20260811, 2000)
    # the table's edges: j = 0 and 255 with the smallest and largest offsets
    edges = [0, 2**11 - 1, 2**56 - 1, 2**63, 2**64 - 2**56, 2**64 - 1]
    draws = np.concatenate([draws, np.array(edges, dtype=np.uint64)])
    cos, sin = angle_cos_sin(draws)
    worst = 0.0
    for i, draw in enumerate(draws):
        k = int(draw) >> 11
        theta = 2 * mpmath.pi * (k + mpmath.mpf(0.5)) / 2**53
        worst = max(
            worst,
            float(abs(cos[i] - mpmath.cos(theta))),
            float(abs(sin[i] - mpmath.sin(theta))),
        )
    assert worst <= 1e-15


def test_pair_angles_fill_the_turn_sectors_uniformly():
    n = 1_000_000
    z = standard_normal_pairs(17, 0, n)
    turns = np.arctan2(z[:, 1], z[:, 0]) % (2.0 * np.pi) / (2.0 * np.pi)
    counts = np.bincount(np.minimum((turns * 256).astype(np.int64), 255), minlength=256)
    p = 1.0 / 256
    sigma = math.sqrt(n * p * (1.0 - p))
    assert np.max(np.abs(counts - n * p)) <= 4.0 * sigma


def test_threads_drawing_at_once_get_the_same_pairs():
    # each thread fills its own block buffers; three threads start each
    # 20-block draw together and switch often, so shared buffers would
    # mix their blocks
    count = 20 * 4096 + 7
    want = standard_normal_pairs(6, 100, count)
    barrier = threading.Barrier(3)

    def draw():
        barrier.wait(timeout=60)
        return standard_normal_pairs(6, 100, count)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:
            for _ in range(3):
                futures = [pool.submit(draw) for _ in range(3)]
                for future in futures:
                    assert np.array_equal(future.result(timeout=120), want)
    finally:
        sys.setswitchinterval(interval)
