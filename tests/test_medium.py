import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opasim.fields import HarmonicComponent, TimeGrid, TimeSeries, synthesize
from opasim.medium import (
    SusceptibilityProfile,
    alias_free_samples,
    channel_samples,
    polarization_values,
    polynomial_degree,
    require_alias_free,
    transfer_taylor,
    transfer_values,
)
from opasim.spectral import lockin_extract

GRID = TimeGrid(64, 4)


def test_zero_field_zero_polarization():
    medium = SusceptibilityProfile(chi1=1.0, chi2=0.7, chi3=0.1)
    out = polarization_values(np.zeros(GRID.n_samples), medium)
    assert np.all(out == 0.0)


def test_linear_medium_is_identity():
    medium = SusceptibilityProfile(chi1=1.0)
    series = synthesize([HarmonicComponent(1, 0.5, -0.25)], GRID)
    assert np.array_equal(polarization_values(series.values, medium), series.values)


def test_constant_field_quadratic_response():
    medium = SusceptibilityProfile(chi1=1.0, chi2=1.0)
    assert np.all(polarization_values(np.ones(GRID.n_samples), medium) == 2.0)


def test_normalization_undoes_linear_gain():
    medium = SusceptibilityProfile(chi1=2.0, eps0=1.5)
    series = synthesize([HarmonicComponent(2, 1.0, 0.3)], GRID)
    out = transfer_values(series.values, medium)
    np.testing.assert_allclose(out, series.values, atol=1e-14)


def test_normalize_constant():
    # a polarization of 2 in a chi1 = 2 medium is one field unit
    medium = SusceptibilityProfile(chi1=2.0)
    out = transfer_values(np.ones(GRID.n_samples), medium)
    assert np.all(out == 1.0)


def test_normalize_rejects_degenerate_medium():
    with pytest.raises(ValueError, match="chi1 > 0"):
        transfer_values(np.ones(GRID.n_samples), SusceptibilityProfile(chi1=0.0))


def test_profile_validation():
    with pytest.raises(ValueError):
        SusceptibilityProfile(chi1=1.0, eps0=0.0)
    with pytest.raises(ValueError):
        SusceptibilityProfile(chi1=-0.5)
    # chi1 = 0 is allowed so single polarization orders can be isolated
    SusceptibilityProfile(chi1=0.0, chi2=1.0)


def test_profile_needs_a_normal_eps0_and_divisor():
    tiny = sys.float_info.min
    SusceptibilityProfile(chi1=1.0, eps0=tiny)
    SusceptibilityProfile(chi1=0.0, eps0=tiny)  # no divisor without chi1
    with pytest.raises(ValueError, match="eps0 must be at least"):
        SusceptibilityProfile(chi1=0.0, eps0=tiny / 2)
    for eps0, chi1 in ((1e-160, 1e-162), (1e-200, 1e-200), (1e200, 1e200)):
        with pytest.raises(ValueError, match=r"eps0\*chi1 must be at least .* and finite"):
            SusceptibilityProfile(chi1=chi1, eps0=eps0)


def test_quadratic_term_leaves_fundamental_of_pure_cosine():
    # chi2 * cos^2 only produces DC and the second harmonic, so after
    # normalization the fundamental coefficient is untouched
    medium = SusceptibilityProfile(chi1=1.0, chi2=0.5)
    series = synthesize([HarmonicComponent(1, 1.0, 0.0)], GRID)
    out = TimeSeries(GRID, transfer_values(series.values, medium))
    fundamental = lockin_extract(out, 1)
    assert fundamental.c == pytest.approx(1.0, abs=1e-12)
    assert fundamental.s == pytest.approx(0.0, abs=1e-12)
    assert lockin_extract(out, 0).c == pytest.approx(0.25, abs=1e-12)
    assert lockin_extract(out, 2).c == pytest.approx(0.25, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.1, 3),
    st.floats(-1, 1),
    st.floats(-0.2, 0.2),
    st.permutations(list(range(32))),
)
def test_polarize_is_pointwise(chi1, chi2, chi3, perm):
    medium = SusceptibilityProfile(chi1=chi1, chi2=chi2, chi3=chi3)
    rng = np.random.default_rng(42)
    values = rng.uniform(-2, 2, size=32)
    perm = np.array(perm)
    direct = polarization_values(values, medium)
    permuted = polarization_values(values[perm], medium)
    unpermuted = np.empty_like(permuted)
    unpermuted[perm] = permuted
    assert np.array_equal(direct, unpermuted)


@pytest.mark.parametrize(
    "chi2, chi3, limit",
    [(0.0, 0.0, 4), (0.5, 0.0, 8), (0.0, 0.1, 12), (0.5, 0.1, 12)],
)
def test_alias_guard_needs_twice_the_highest_output_order(chi2, chi3, limit):
    medium = SusceptibilityProfile(chi1=1.0, chi2=chi2, chi3=chi3)
    assert alias_free_samples(medium) == 4 * polynomial_degree(medium) + 1 == limit + 1
    require_alias_free(TimeGrid(limit + 1, 4), medium)
    with pytest.raises(ValueError) as excinfo:
        require_alias_free(TimeGrid(limit, 4), medium)
    message = str(excinfo.value)
    assert f"samples_per_period = {limit} " in message
    assert f"greater than {limit}" in message


@pytest.mark.parametrize(
    "chi2, chi3, samples", [(0.0, 0.0, 5), (0.5, 0.0, 6), (0.0, 0.1, 8), (0.5, 0.1, 8)]
)
def test_channel_period_is_2d_plus_2_and_holds_the_pump(chi2, chi3, samples):
    medium = SusceptibilityProfile(chi1=1.0, chi2=chi2, chi3=chi3)
    degree = polynomial_degree(medium)
    assert channel_samples(medium) == max(2 * degree + 2, 5) == samples
    assert channel_samples(medium) <= alias_free_samples(medium)
    TimeGrid(samples, 1).require_harmonic(2)


@pytest.mark.parametrize(
    "chi2, chi3, degree", [(0.0, 0.0, 1), (0.5, 0.0, 2), (0.0, 0.1, 3), (-0.3, 0.1, 3)]
)
def test_polynomial_degree(chi2, chi3, degree):
    assert polynomial_degree(SusceptibilityProfile(chi2=chi2, chi3=chi3)) == degree


@pytest.mark.parametrize(
    "chi2_zero, chi3_zero", [(False, False), (True, False), (False, True), (True, True)]
)
def test_taylor_coefficients_expand_the_transfer(chi2_zero, chi3_zero):
    # f(E0 + delta) - f(E0) = sum_k a_k(E0) delta^k, with chi1 and eps0 away from 1
    rng = np.random.default_rng(11)
    for _ in range(50):
        chi1, eps0 = rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)
        chi2 = 0.0 if chi2_zero else rng.uniform(-1.0, 1.0)
        chi3 = 0.0 if chi3_zero else rng.uniform(-0.3, 0.3)
        medium = SusceptibilityProfile(chi1=chi1, chi2=chi2, chi3=chi3, eps0=eps0)
        e0, delta = rng.uniform(-5.0, 5.0, size=(2, 64))
        coefficients = transfer_taylor(e0, medium)
        assert len(coefficients) == polynomial_degree(medium)
        got = sum(a * delta ** (k + 1) for k, a in enumerate(coefficients))
        after, before = transfer_values(e0 + delta, medium), transfer_values(e0, medium)
        bound = 1e-13 * np.maximum(1.0, np.abs(after) + np.abs(before))
        assert np.all(np.abs(got - (after - before)) <= bound)


def test_taylor_coefficients_reject_degenerate_medium():
    with pytest.raises(ValueError, match="chi1 > 0"):
        transfer_taylor(np.ones(3), SusceptibilityProfile(chi1=0.0, chi2=1.0))
