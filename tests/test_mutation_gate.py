"""validate as a mutation gate: small pipeline faults, patched in process, must fail it.

Each mutant replaces one function under every opasim module attribute
that holds it, so a caller that imported the name sees the fault just
like one that looks it up on its own module. ``validate`` must then exit
1 on each configuration. The mutants that no check catches yet are
marked ``xfail(strict=True)``, so this test flips when a check that
kills them lands.
"""

import math
import sys

import pytest

from opasim import ensemble, medium, rng, spectral
from opasim.cli import main

CONFIGS = [
    (),
    ("--chi3", "0.05", "--samples-per-period", "64"),
    ("--pump-phase-deg", "37"),
    # the checks' rounding floors grow with the traces: no mutant may hide in them
    ("--var-zp", "1e10"),
]


def _period_2d_plus_1(original):
    # the period of the fundamental's harmonics alone, without the pump:
    # order 2d of the pumped output folds onto k = 1
    return lambda profile: max(2 * medium.polynomial_degree(profile) + 1, 5)


def _pump_sign(original):
    return lambda pump_b, pump_phase, grid: -original(pump_b, pump_phase, grid)


def _pump_phase_sign(original):
    return lambda pump_b, pump_phase, grid: original(pump_b, -pump_phase, grid)


def _drop_cubic(original):
    def polynomial_values(values, chi1, chi2, chi3, eps0, out=None, scratch=None):
        return original(values, chi1, chi2, 0.0, eps0, out, scratch)

    return polynomial_values


def _n_divisor(original):
    # the sample covariance over n, not n - 1
    def sums_scan(sums, n, center, thetas):
        s1, s2, s11, s12, s22 = sums
        c12 = (s12 - s1 * s2 / n) / n
        cov = ((s11 - s1 * s1 / n) / n, c12), (c12, (s22 - s2 * s2 / n) / n)
        return ensemble._project((s1 / n + center[0], s2 / n + center[1]), cov, thetas)

    return sums_scan


def _lockin_one_over_n(original):
    # the lock-in's 2/N written as 1/N
    def lockin_rows(block, cos1, sin1, n_samples, out=None, scratch=None):
        return original(block, cos1, sin1, 2 * n_samples, out, scratch)

    return lockin_rows


def _radius_scale(original):
    # the Box-Muller radius sqrt(-log u) for sqrt(-2 log u): each draw / sqrt(2)
    return lambda seed, start, count: original(seed, start, count) * math.sqrt(0.5)


def _spans_out_of_order(original):
    # channel_sums adds the spans' sums last span first
    return lambda function, results: original(function, list(results)[::-1])


def _survivor(item):
    # raises=AssertionError: the mutant runs, and validate passes it
    return pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=f"survives validate (ROADMAP item 7); item {item}'s check should kill it",
    )


MUTANTS = [
    pytest.param(medium, "channel_samples", _period_2d_plus_1, id="period-2d+1"),
    pytest.param(ensemble, "pump_trace", _pump_sign, id="pump-sign"),
    pytest.param(
        medium, "polynomial_values", _drop_cubic, id="drop-cubic", marks=_survivor(3)
    ),
    pytest.param(
        ensemble, "pump_trace", _pump_phase_sign, id="pump-phase-sign", marks=_survivor(3)
    ),
    pytest.param(ensemble, "sums_scan", _n_divisor, id="n-divisor", marks=_survivor(4)),
    pytest.param(spectral, "lockin_rows", _lockin_one_over_n, id="lockin-1/N"),
    pytest.param(rng, "standard_normal_pairs", _radius_scale, id="radius-scale"),
    pytest.param(
        ensemble, "reduce", _spans_out_of_order, id="spans-out-of-order", marks=_survivor(7)
    ),
]

# every caller looks these up on their module, so no other alias holds them
MODULE_LOOKUPS = {(rng, "standard_normal_pairs"), (ensemble, "reduce")}


def patch_everywhere(monkeypatch, module, name, make):
    """Replace module.name under every opasim module attribute that holds it."""
    original = getattr(module, name)
    mutant = make(original)
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname == "opasim" or modname.startswith("opasim."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, mutant)
                    patched.append(f"{modname}.{key}")
    return patched


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: " ".join(c) or "defaults")
def test_validate_passes_unmutated(config, capsys):
    assert main(["validate", *config]) == 0, capsys.readouterr().out


@pytest.mark.parametrize(
    "module, name, make", [m.values for m in MUTANTS], ids=[m.id for m in MUTANTS]
)
def test_a_mutant_reaches_the_callers_aliases(module, name, make, monkeypatch):
    # the function itself and at least one caller's imported name
    patched = patch_everywhere(monkeypatch, module, name, make)
    assert len(patched) >= (1 if (module, name) in MODULE_LOOKUPS else 2)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: " ".join(c) or "defaults")
@pytest.mark.parametrize("module, name, make", MUTANTS)
def test_validate_fails_on_a_mutant(module, name, make, config, monkeypatch, capsys):
    patch_everywhere(monkeypatch, module, name, make)
    assert main(["validate", *config]) == 1, capsys.readouterr().out
