import json
import math

import pytest

from opasim.config import ConfigError, RunConfig, from_json, with_overrides


def test_defaults_round_trip_through_json():
    cfg = RunConfig()
    again = from_json(cfg.to_json())
    assert again == cfg


def test_document_keys_mirror_run_fields():
    doc = json.loads(RunConfig().to_json())
    assert set(doc) == {
        "medium",
        "A",
        "phi_deg",
        "B",
        "pump_phase_deg",
        "grid",
        "ensemble",
        "thetas",
        "mode",
        "band_sigma",
    }
    assert set(doc["medium"]) == {"chi1", "chi2", "chi3", "eps0"}
    assert set(doc["grid"]) == {"samples_per_period", "n_periods"}
    assert set(doc["ensemble"]) == {"n_realizations", "seed", "var_zp"}


def test_partial_document_fills_defaults():
    cfg = from_json('{"A": 2.5, "medium": {"chi2": 0.25}}')
    assert cfg.A == 2.5
    assert cfg.medium.chi2 == 0.25
    assert cfg.medium.chi1 == 1.0
    assert cfg.B == RunConfig().B


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError, match="unknown key"):
        from_json('{"amplitude": 1}')
    with pytest.raises(ConfigError, match="unknown key"):
        from_json('{"medium": {"chi4": 1}}')
    with pytest.raises(ConfigError, match="unknown key"):
        from_json('{"ensemble": {"workers": 2}}')


def test_malformed_json_rejected():
    with pytest.raises(ConfigError, match="invalid JSON"):
        from_json("{")
    with pytest.raises(ConfigError):
        from_json("[1, 2]")
    with pytest.raises(ConfigError, match="grid"):
        from_json('{"grid": 3}')


def test_range_validation_propagates():
    with pytest.raises(ConfigError):
        from_json('{"mode": "exact"}')
    with pytest.raises(ConfigError):
        from_json('{"grid": {"samples_per_period": 0}}')
    with pytest.raises(ConfigError):
        from_json('{"ensemble": {"n_realizations": 1}}')
    with pytest.raises(ConfigError):
        from_json('{"medium": {"eps0": -1}}')


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: from_json('{"A": true}'), "A"),
        (lambda: from_json('{"thetas": 2.7}'), "thetas"),
        (lambda: from_json('{"ensemble": {"seed": true}}'), "seed"),
        (lambda: from_json('{"medium": {"chi2": "0.5"}}'), "chi2"),
        (lambda: from_json('{"medium": {"eps0": "1"}}'), "eps0"),
        (lambda: from_json('{"B": NaN}'), "B"),
        (lambda: from_json('{"A": 1e999}'), "A"),
        (lambda: from_json('{"grid": {"samples_per_period": "64"}}'), "samples_per_period"),
        (lambda: from_json('{"ensemble": {"n_realizations": 1e5}}'), "n_realizations"),
        (lambda: from_json('{"A": null}'), "A"),
        (lambda: with_overrides(RunConfig(), B=math.inf), "B"),
        (lambda: RunConfig(n_periods=4.0), "n_periods"),
    ],
    ids=[
        "bool-float",
        "float-int",
        "bool-int",
        "string-medium",
        "string-eps0",
        "nan",
        "inf",
        "string-int",
        "exponent-int",
        "null-float",
        "override-inf",
        "direct-float-int",
    ],
)
def test_strict_types_name_the_field(build, name):
    with pytest.raises(ConfigError, match=rf"^{name} must be"):
        build()


def test_numbers_echo_with_their_field_type():
    doc = json.loads(from_json('{"A": 2, "medium": {"chi2": 1}}').to_json())
    assert doc["A"] == 2.0 and isinstance(doc["A"], float)
    assert doc["medium"]["chi2"] == 1.0 and isinstance(doc["medium"]["chi2"], float)
    assert isinstance(doc["grid"]["n_periods"], int)


def test_overrides():
    cfg = with_overrides(RunConfig(), A=3.0, chi2=0.1, seed=9)
    assert cfg.A == 3.0
    assert cfg.medium.chi2 == 0.1
    assert cfg.seed == 9
    # None means keep
    cfg2 = with_overrides(cfg, A=None, B=0.0)
    assert cfg2.A == 3.0 and cfg2.B == 0.0
    with pytest.raises(ConfigError):
        with_overrides(cfg, gain=1.0)


def test_pump_ratio():
    cfg = with_overrides(RunConfig(), chi1=2.0, chi2=0.5, B=2.0)
    assert cfg.pump_ratio == pytest.approx(0.5)


def test_python_built_config_checks_its_grid():
    # the default chi2 medium radiates up to k = 4, which 6 samples alias
    with pytest.raises(ValueError, match="samples_per_period = 6 aliases"):
        RunConfig(samples_per_period=6)
    assert RunConfig(samples_per_period=6, chi2=0.0).medium.chi2 == 0.0


def test_medium_is_built_from_the_run_fields():
    cfg = RunConfig(chi1=1.5, chi2=0.25, chi3=0.125, eps0=2.0, samples_per_period=13)
    medium = cfg.medium
    assert (medium.chi1, medium.chi2, medium.chi3, medium.eps0) == (1.5, 0.25, 0.125, 2.0)


def test_derived_objects():
    cfg = RunConfig()
    assert cfg.grid().n_samples == 64 * 4
    assert cfg.ensemble().seed == cfg.seed
    assert cfg.convention().var_zp == cfg.var_zp
