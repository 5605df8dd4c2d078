"""Scenario descriptions: a serializable recipe for one synthetic dataset.

A scenario is stored as a flat JSON object with typed keys.  Two kinds are
supported:

``gaussian``
    keys: ``kind``, ``sources`` (list of ``{amplitude, center_s, width_s}``
    objects), ``sample_rate_hz``, ``duration_s``, ``mixing`` (list of rows),
    ``noise_sd``, ``seed``.
``shifted_uniform``
    keys: ``kind``, ``length``, ``shift``, ``sample_rate_hz``, ``mixing``,
    ``noise_sd``, ``seed``.

Floats survive the JSON round trip exactly (shortest-repr encoding), so a
config regenerates its dataset bit-identically.  Bundled presets:
``example1`` (two truncated-Gaussian pulses at 250 Hz) and ``section2iii``
(shifted uniform bursts with 10 overlapping samples).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
        if self.kind not in ("gaussian", "shifted_uniform"):
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
        out: dict = {"kind": self.kind}
        if self.kind == "gaussian":
            out["sources"] = [
                {"amplitude": s.amplitude, "center_s": s.center_s, "width_s": s.width_s}
                for s in self.sources
            ]
            out["sample_rate_hz"] = self.sample_rate_hz
            out["duration_s"] = self.duration_s
        else:
            out["length"] = self.length
            out["shift"] = self.shift
            out["sample_rate_hz"] = self.sample_rate_hz
        out["mixing"] = [list(row) for row in self.mixing]
        out["noise_sd"] = self.noise_sd
        out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        try:
            kind = data["kind"]
            mixing = tuple(tuple(float(x) for x in row) for row in data["mixing"])
            common = dict(
                kind=kind,
                mixing=mixing,
                noise_sd=float(data.get("noise_sd", 0.0)),
                seed=int(data.get("seed", 0)),
                sample_rate_hz=float(data.get("sample_rate_hz", 1.0)),
            )
            if kind == "gaussian":
                sources = tuple(
                    GaussianPulseSpec(
                        amplitude=float(s["amplitude"]),
                        center_s=float(s["center_s"]),
                        width_s=float(s["width_s"]),
                    )
                    for s in data["sources"]
                )
                return cls(sources=sources, duration_s=float(data["duration_s"]), **common)
            return cls(length=int(data["length"]), shift=int(data["shift"]), **common)
        except KeyError as missing:
            raise ValueError(f"scenario config is missing key {missing}") from missing

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))


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
