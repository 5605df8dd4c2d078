"""Scenario descriptions: a serializable recipe for one synthetic dataset.

A scenario is stored as a flat JSON object with typed keys, one set per
kind, listed in file order by :data:`SCENARIO_KEYS`: ``gaussian`` (truncated
pulses, ``sources`` a list of ``{amplitude, center_s, width_s}`` objects)
and ``shifted_uniform``.  ``mixing`` is a list of rows.  A key outside its
kind's set is an error, and so is a value that cannot make a dataset: a
string or boolean where a number is read, a non-finite number, a rate,
duration or width that is not positive, a ``seed``, ``length`` or
``shift`` that is not an integer, and a ``mixing`` without rows or with
rows empty or of unequal length.  Each is rejected by name when the config
is built.

Floats survive the JSON round trip exactly (shortest-repr encoding), so a
config regenerates its dataset bit-identically.  Bundled presets:
``example1`` (two truncated-Gaussian pulses at 250 Hz) and ``section2iii``
(shifted uniform bursts with 10 overlapping samples).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .simulate import (
    GaussianPulseSpec,
    check_positive,
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
        for key in ("seed", "length", "shift"):
            if type(getattr(self, key)) is not int:  # neither a bool nor a float int() truncates
                raise ValueError(f"{key} must be an integer, got {getattr(self, key)!r}")
        if not all(math.isfinite(x) for row in self.mixing for x in row):
            raise ValueError(f"mixing must hold finite numbers, got {self.mixing}")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must be finite and nonnegative, got {self.noise_sd}")
        check_positive("sample_rate_hz", self.sample_rate_hz)
        if self.kind == "gaussian":
            if not self.sources:
                raise ValueError("gaussian scenario needs at least one source spec")
            check_positive("duration_s", self.duration_s)
        elif self.length < 1:
            raise ValueError("shifted_uniform scenario needs length >= 1")
        elif not 0 <= self.shift <= self.length:
            raise ValueError(f"shift must lie in [0, length], got {self.shift}")
        if len({len(row) for row in self.mixing}) != 1 or not self.mixing[0]:
            raise ValueError(
                f"mixing must be one or more rows of one nonzero length, got {self.mixing}"
            )

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
        if not isinstance(data, dict):
            raise ValueError(f"scenario config must be a JSON object, got {type(data).__name__}")
        try:
            kind = str(data["kind"])
            if kind not in SCENARIO_KEYS:
                raise ValueError(f"unknown scenario kind {kind!r}")
            _reject_unknown(data, SCENARIO_KEYS[kind], f"{kind} scenario")
            mixing = tuple(tuple(_number(x, "mixing") for x in row) for row in data["mixing"])
            common = dict(
                kind=kind,
                mixing=mixing,
                noise_sd=_number(data.get("noise_sd", 0.0), "noise_sd"),
                seed=data.get("seed", 0),
                sample_rate_hz=_number(data.get("sample_rate_hz", 1.0), "sample_rate_hz"),
            )
            if kind == "gaussian":
                sources = tuple(_pulse(spec) for spec in data["sources"])
                duration_s = _number(data["duration_s"], "duration_s")
                return cls(sources=sources, duration_s=duration_s, **common)
            return cls(length=data["length"], shift=data["shift"], **common)
        except KeyError as missing:
            raise ValueError(f"scenario config is missing key {missing}") from missing
        except TypeError as err:
            raise ValueError(f"scenario config has a value of the wrong type: {err}") from err

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))


def _pulse(spec: dict) -> GaussianPulseSpec:
    """One ``sources`` entry of a gaussian scenario as a pulse spec."""
    _reject_unknown(spec, _PULSE_KEYS, "pulse spec")
    return GaussianPulseSpec(**{key: _number(spec[key], key) for key in _PULSE_KEYS})


def _number(value, key: str) -> float:
    """``value`` read as a float for ``key``.

    A string or a boolean, which ``float()`` would read as a number, and an
    integer beyond float64's range are refused by name.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key} must be within float64 range, got an integer too large") from None


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
        except (OSError, ValueError) as err:
            raise ValueError(f"{path}: {err}") from err
    if path_or_preset in PRESET_NAMES:
        return load_preset(path_or_preset)
    raise FileNotFoundError(
        f"no config file {path_or_preset!r} and no preset of that name"
    )
