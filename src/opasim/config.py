"""Run configuration: one JSON document describes a complete experiment.

The fields of :class:`RunConfig`, the medium constants among them, are
the only list of run values; the JSON document, :func:`with_overrides`
and the CLI flags are derived from them through :data:`RUN_FIELDS`.
Unknown keys are rejected at every level so that a typo cannot silently
fall back to a default. A RunConfig checks itself when it is built,
however it is built: every value's type first, then every bound,
the grid's alias bound for the medium last. All state flows through the
config (plus explicit CLI overrides) - there are no environment variables.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, get_type_hints

from .ensemble import EnsembleConfig, VacuumConvention, default_thetas
from .fields import TimeGrid
from .medium import SusceptibilityProfile, require_alias_free
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
    chi1: float = _run_field(1.0, "linear susceptibility", section="medium")
    chi2: float = _run_field(0.5, "quadratic susceptibility", section="medium")
    chi3: float = _run_field(0.0, "cubic susceptibility", section="medium")
    eps0: float = _run_field(1.0, "permittivity scale", section="medium")
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
            f.check(getattr(self, f.name))
        # constructing the owned objects runs their validators
        medium = self.medium
        default_thetas(self.thetas)  # holds the bound on the phase count
        if not self.band_sigma > 0.0:
            raise ValueError("band_sigma must be positive")
        grid = self.grid()
        self.convention()
        self.ensemble()
        # one bound for every subcommand, whether or not it traces the medium
        require_alias_free(grid, medium)

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
        if self.chi1 <= 0.0:
            raise ValueError("pump ratio requires chi1 > 0")
        return self.chi2 * self.B / self.chi1

    @property
    def medium(self) -> SusceptibilityProfile:
        """The medium constants as one profile, built anew like :meth:`grid`."""
        return SusceptibilityProfile(self.chi1, self.chi2, self.chi3, self.eps0)

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
            section[f.name] = f.type(getattr(self, f.name))
        return json.dumps(doc, indent=2) + "\n"


class RunField(NamedTuple):
    """One settable run value: a leaf of the JSON document and a CLI flag."""

    name: str
    type: type  # int, float or str
    section: str | None  # enclosing JSON object; None for the top level
    help: str | None
    choices: tuple[str, ...] | None  # required for str fields

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


_HINTS = get_type_hints(RunConfig)
RUN_FIELDS = tuple(
    RunField(f.name, _HINTS[f.name], **f.metadata) for f in fields(RunConfig)
)


def _replace(cfg: RunConfig, values: dict) -> RunConfig:
    """cfg with the run fields named in values replaced, validated."""
    try:
        return replace(cfg, **values)
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
    """Rebuild a config with selected fields replaced (None means keep)."""
    unknown = set(overrides) - {f.name for f in RUN_FIELDS}
    if unknown:
        raise ConfigError(f"unknown override: {', '.join(sorted(unknown))}")
    changes = {key: value for key, value in overrides.items() if value is not None}
    return _replace(cfg, changes)
