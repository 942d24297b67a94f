"""Run configuration: one JSON document describes a complete experiment.

The fields of :class:`RunConfig` (with the medium constants of
:class:`SusceptibilityProfile`) are the only list of run values; the JSON
document, :func:`with_overrides` and the CLI flags are derived from them
through :data:`RUN_FIELDS`. Unknown keys are rejected at every level so
that a typo cannot silently fall back to a default, and every value is
type-checked strictly. All state flows through the config (plus explicit
CLI overrides) - there are no environment variables.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, get_type_hints

from .ensemble import EnsembleConfig, VacuumConvention, default_thetas
from .fields import TimeGrid
from .medium import SusceptibilityProfile
from .oracle import MODES


class ConfigError(ValueError):
    """Malformed or out-of-range run configuration."""


def _run_field(default, help=None, *, section=None, choices=None):
    """A RunConfig field with its JSON section, CLI help and choices."""
    return field(
        default=default, metadata={"section": section, "help": help, "choices": choices}
    )


@dataclass(frozen=True)
class RunConfig:
    medium: SusceptibilityProfile = SusceptibilityProfile(chi1=1.0, chi2=0.5)
    A: float = _run_field(0.0, "fundamental amplitude")
    phi_deg: float = _run_field(0.0, "fundamental phase (degrees)")
    B: float = _run_field(1.0, "pump amplitude")
    pump_phase_deg: float = _run_field(0.0, "pump phase (degrees)")
    samples_per_period: int = _run_field(64, section="grid")
    n_periods: int = _run_field(4, section="grid")
    n_realizations: int = _run_field(100_000, section="ensemble")
    seed: int = _run_field(20260811, section="ensemble")
    var_zp: float = _run_field(1.0, "vacuum quadrature variance", section="ensemble")
    thetas: int = _run_field(181, "quadrature phases per scan table")
    mode: str = _run_field("raw", choices=MODES)
    band_sigma: float = _run_field(1.0, "envelope width in stds")

    def __post_init__(self):
        for f in RUN_FIELDS:
            f.check(f.get(self))
        default_thetas(self.thetas)  # holds the bound on the phase count
        if not self.band_sigma > 0.0:
            raise ValueError("band_sigma must be positive")
        # constructing the owned objects runs their validators
        self.grid()
        self.convention()
        self.ensemble()

    # fmod is exact: whole turns are phase 0, and |degrees| < 360 keeps its bits
    @property
    def phi(self) -> float:
        return math.radians(math.fmod(self.phi_deg, 360.0))

    @property
    def pump_phase(self) -> float:
        return math.radians(math.fmod(self.pump_phase_deg, 360.0))

    @property
    def pump_ratio(self) -> float:
        """Normalized pump strength r = chi2 * B / chi1."""
        if self.medium.chi1 <= 0.0:
            raise ValueError("pump ratio requires chi1 > 0")
        return self.medium.chi2 * self.B / self.medium.chi1

    def grid(self) -> TimeGrid:
        return TimeGrid(self.samples_per_period, self.n_periods)

    def convention(self) -> VacuumConvention:
        return VacuumConvention(self.var_zp)

    def ensemble(self) -> EnsembleConfig:
        return EnsembleConfig(self.n_realizations, self.seed)

    def to_json(self) -> str:
        doc = {}
        for f in RUN_FIELDS:
            section = doc if f.section is None else doc.setdefault(f.section, {})
            section[f.name] = f.type(f.get(self))
        return json.dumps(doc, indent=2) + "\n"


class RunField(NamedTuple):
    """One settable run value: a leaf of the JSON document and a CLI flag.

    Leaves of the "medium" section are held by ``RunConfig.medium``.
    """

    name: str
    type: type  # int, float or str
    section: str | None  # enclosing JSON object; None for the top level
    help: str | None
    choices: tuple[str, ...] | None  # required for str fields

    def get(self, cfg: RunConfig):
        return getattr(cfg.medium if self.section == "medium" else cfg, self.name)

    def check(self, value) -> None:
        """Raise ConfigError unless value has exactly this field's type.

        bool is an int subclass, so it is excluded explicitly: int fields
        take only int, float fields take int or float and must be finite.
        """
        if self.type is str:
            if not isinstance(value, str) or value not in self.choices:
                raise ConfigError(
                    f"{self.name} must be one of {self.choices}, got {value!r}"
                )
        elif isinstance(value, bool) or not isinstance(
            value, int if self.type is int else (int, float)
        ):
            kind = "an integer" if self.type is int else "a number"
            raise ConfigError(f"{self.name} must be {kind}, got {value!r}")
        elif self.type is float and not abs(value) <= sys.float_info.max:
            # also rejects ints too large to convert to float
            raise ConfigError(f"{self.name} must be finite, got {value!r}")


def _run_fields():
    """RunConfig's fields in order, the medium expanded into its constants."""
    hints = {**get_type_hints(RunConfig), **get_type_hints(SusceptibilityProfile)}
    for f in fields(RunConfig):
        if f.name == "medium":
            for m in fields(SusceptibilityProfile):
                help_text = m.metadata["help"]
                yield RunField(m.name, hints[m.name], "medium", help_text, None)
        else:
            meta = f.metadata
            yield RunField(
                f.name, hints[f.name], meta["section"], meta["help"], meta["choices"]
            )


RUN_FIELDS = tuple(_run_fields())


def _replace(cfg: RunConfig, values: dict) -> RunConfig:
    """cfg with the run fields named in values replaced, validated."""
    top, medium = {}, {}
    for f in RUN_FIELDS:
        if f.name in values:
            f.check(values[f.name])  # before the medium's range checks see it
            (medium if f.section == "medium" else top)[f.name] = values[f.name]
    try:
        return replace(cfg, medium=replace(cfg.medium, **medium), **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _section(doc, known: list[str], where: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a dict")
    unknown = set(doc) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    return doc


def from_document(doc: dict) -> RunConfig:
    """Build a validated RunConfig from a parsed JSON document."""
    layout: dict[str | None, list[str]] = {None: []}
    for f in RUN_FIELDS:
        layout.setdefault(f.section, []).append(f.name)
    sections = [section for section in layout if section is not None]
    top = _section(doc, layout[None] + sections, "config")
    values = {key: value for key, value in top.items() if key not in sections}
    for section in sections:
        if top.get(section) is not None:  # a missing or null section keeps defaults
            values.update(_section(top[section], layout[section], section))
    return _replace(RunConfig(), values)


def from_json(text: str) -> RunConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return from_document(doc)


def with_overrides(cfg: RunConfig, **overrides) -> RunConfig:
    """Rebuild a config with selected fields replaced (None means keep).

    Fields are named as in RUN_FIELDS, so medium constants are addressed
    as chi1/chi2/chi3/eps0.
    """
    unknown = set(overrides) - {f.name for f in RUN_FIELDS}
    if unknown:
        raise ConfigError(f"unknown override: {', '.join(sorted(unknown))}")
    changes = {key: value for key, value in overrides.items() if value is not None}
    return _replace(cfg, changes)
