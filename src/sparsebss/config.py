"""Scenario descriptions: a serializable recipe for one synthetic dataset.

A scenario is stored as a flat JSON object with typed keys, one set per
kind, listed in file order by :data:`SCENARIO_KEYS`: ``gaussian`` (truncated
pulses, ``sources`` a list of ``{amplitude, center_s, width_s}`` objects)
and ``shifted_uniform``.  ``mixing`` is a list of rows.  A key outside its
kind's set is an error.

Floats survive the JSON round trip exactly (shortest-repr encoding), so a
config regenerates its dataset bit-identically.  Bundled presets:
``example1`` (two truncated-Gaussian pulses at 250 Hz) and ``section2iii``
(shifted uniform bursts with 10 overlapping samples).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .simulate import (
    GaussianPulseSpec,
    generate_gaussian_sources,
    generate_shifted_uniform_sources,
    mix,
)

PRESET_NAMES = ("example1", "section2iii")

#: Each scenario kind's keys, in the order its JSON files list them.
SCENARIO_KEYS = {
    "gaussian": ("kind", "sources", "sample_rate_hz", "duration_s", "mixing", "noise_sd", "seed"),
    "shifted_uniform": ("kind", "length", "shift", "sample_rate_hz", "mixing", "noise_sd", "seed"),
}

_PULSE_KEYS = tuple(f.name for f in fields(GaussianPulseSpec))


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    mixing: tuple[tuple[float, ...], ...]
    noise_sd: float = 0.0
    seed: int = 0
    sample_rate_hz: float = 1.0
    # gaussian kind
    sources: tuple[GaussianPulseSpec, ...] = field(default=())
    duration_s: float = 0.0
    # shifted_uniform kind
    length: int = 0
    shift: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIO_KEYS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if not (math.isfinite(self.noise_sd) and self.noise_sd >= 0.0):
            raise ValueError(f"noise_sd must be finite and nonnegative, got {self.noise_sd}")
        if self.kind == "gaussian" and not self.sources:
            raise ValueError("gaussian scenario needs at least one source spec")
        if self.kind == "shifted_uniform" and self.length < 1:
            raise ValueError("shifted_uniform scenario needs length >= 1")

    @property
    def mixing_matrix(self) -> np.ndarray:
        return np.array(self.mixing, dtype=float)

    def generate_sources(self) -> np.ndarray:
        """Clean sources as an (n_sources, L) matrix."""
        if self.kind == "gaussian":
            return generate_gaussian_sources(
                list(self.sources), self.sample_rate_hz, self.duration_s
            )
        return generate_shifted_uniform_sources(self.length, self.shift, self.seed)

    def generate(self) -> tuple[np.ndarray, np.ndarray]:
        """(sources, clean mixtures) for this scenario."""
        sources = self.generate_sources()
        return sources, mix(sources, self.mixing_matrix)

    def to_dict(self) -> dict:
        plain = dict(vars(self), sources=[asdict(s) for s in self.sources],
                     mixing=[list(row) for row in self.mixing])
        return {key: plain[key] for key in SCENARIO_KEYS[self.kind]}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        try:
            kind = str(data["kind"])
            if kind not in SCENARIO_KEYS:
                raise ValueError(f"unknown scenario kind {kind!r}")
            _reject_unknown(data, SCENARIO_KEYS[kind], f"{kind} scenario")
            mixing = tuple(tuple(float(x) for x in row) for row in data["mixing"])
            common = dict(
                kind=kind,
                mixing=mixing,
                noise_sd=float(data.get("noise_sd", 0.0)),
                seed=int(data.get("seed", 0)),
                sample_rate_hz=float(data.get("sample_rate_hz", 1.0)),
            )
            if kind == "gaussian":
                sources = tuple(_pulse(spec) for spec in data["sources"])
                return cls(sources=sources, duration_s=float(data["duration_s"]), **common)
            return cls(length=int(data["length"]), shift=int(data["shift"]), **common)
        except KeyError as missing:
            raise ValueError(f"scenario config is missing key {missing}") from missing

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))


def _pulse(spec: dict) -> GaussianPulseSpec:
    """One ``sources`` entry of a gaussian scenario as a pulse spec."""
    _reject_unknown(spec, _PULSE_KEYS, "pulse spec")
    return GaussianPulseSpec(**{key: float(spec[key]) for key in _PULSE_KEYS})


def _reject_unknown(data: dict, known: tuple[str, ...], what: str) -> None:
    """Raise ``ValueError`` naming every key of ``data`` that is not ``known``."""
    unknown = [key for key in data if key not in known]
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}; known keys: {', '.join(known)}")


def load_preset(name: str) -> ScenarioConfig:
    """Load one of the bundled scenario presets by name."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    text = resources.files("sparsebss.presets").joinpath(f"{name}.json").read_text()
    return ScenarioConfig.from_json(text)


def load_config(path_or_preset: str) -> ScenarioConfig:
    """Read a scenario from a JSON file, or fall back to a bundled preset name."""
    path = Path(path_or_preset)
    if path.exists():
        try:
            return ScenarioConfig.from_json(path.read_text())
        except (json.JSONDecodeError, ValueError) as err:
            raise ValueError(f"{path}: {err}") from err
    if path_or_preset in PRESET_NAMES:
        return load_preset(path_or_preset)
    raise FileNotFoundError(
        f"no config file {path_or_preset!r} and no preset of that name"
    )
