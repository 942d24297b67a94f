import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opasim.rng import raw_uint64, standard_normal_pairs


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
