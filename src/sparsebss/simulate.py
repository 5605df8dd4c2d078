"""Synthetic scenarios: truncated-Gaussian pulses, shifted uniform noise
bursts, linear mixing, and calibrated additive noise.

All generators are deterministic functions of their arguments (and seed),
so a scenario regenerates bit-identically anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import DimensionMismatchError


@dataclass(frozen=True)
class GaussianPulseSpec:
    """One truncated-Gaussian source: amplitude, center (s), and width (s).

    The pulse is exactly zero beyond four widths from its center.
    """

    amplitude: float
    center_s: float
    width_s: float

    def __post_init__(self):
        if self.width_s <= 0.0:
            raise ValueError(f"width_s must be positive, got {self.width_s}")


def generate_gaussian_sources(
    specs: list[GaussianPulseSpec], sample_rate_hz: float, duration_s: float
) -> np.ndarray:
    """Sample truncated-Gaussian pulses on the grid t = n / sample_rate.

    Returns an (n_sources, L) matrix with L = ceil(duration * rate)
    samples; entries beyond four widths from a pulse center are exactly 0.
    """
    if sample_rate_hz <= 0.0:
        raise ValueError("sample_rate_hz must be positive")
    n_samples = int(np.ceil(duration_s * sample_rate_hz))
    t = np.arange(n_samples) / sample_rate_hz
    rows = []
    for spec in specs:
        offset = t - spec.center_s
        row = spec.amplitude * np.exp(-np.square(offset) / (2.0 * spec.width_s**2))
        row[np.abs(offset) > 4.0 * spec.width_s] = 0.0
        rows.append(row)
    return np.array(rows)


def generate_shifted_uniform_sources(length: int, shift: int, seed: int) -> np.ndarray:
    """Two sparse uniform-noise sources with supports offset by ``shift``.

    Source 0 holds ``length`` uniform samples on [0, 1) followed by
    ``shift`` zeros; source 1 holds ``shift`` zeros followed by ``length``
    uniform samples.  ``shift == length`` gives fully disjoint supports,
    ``shift == 0`` full overlap.
    """
    if not 0 <= shift <= length:
        raise ValueError(f"need 0 <= shift <= length, got shift={shift} length={length}")
    draws = rng.uniform_values(seed, 2 * length)
    total = length + shift
    sources = np.zeros((2, total))
    sources[0, :length] = draws[:length]
    sources[1, shift:] = draws[length:]
    return sources


def mix(sources, mixing_matrix) -> np.ndarray:
    """Linear mixtures ``A @ s``."""
    s = np.atleast_2d(np.asarray(sources, dtype=float))
    a = np.atleast_2d(np.asarray(mixing_matrix, dtype=float))
    if a.shape[1] != s.shape[0]:
        raise DimensionMismatchError(
            f"mixing matrix has {a.shape[1]} columns, {s.shape[0]} sources given"
        )
    return a @ s


def min_peak_contribution(sources, mixing_matrix) -> float:
    """Smallest peak contribution of any source to any mixture channel.

    Noise levels are quoted against this statistic: the contribution of
    source j to channel i is ``A[i, j] * s[j]``, its peak is the max
    absolute sample, and the minimum of those peaks over all (i, j) is
    returned.

    This measures the *sampled* peaks.  The paper's figure is the
    continuous one, ``|A[i, j]| * amplitude_j``; the two agree only when
    each pulse centre falls on the sample grid (example1's 0.026 s pulse
    does not at 250 Hz, so its sampled value is about 0.190, not 0.2).
    Passing the amplitudes as one-sample sources, an (n_sources, 1)
    matrix, gives the nominal figure.
    """
    s = np.atleast_2d(np.asarray(sources, dtype=float))
    a = np.atleast_2d(np.asarray(mixing_matrix, dtype=float))
    if a.shape[1] != s.shape[0]:
        raise DimensionMismatchError(
            f"mixing matrix has {a.shape[1]} columns, {s.shape[0]} sources given"
        )
    peaks = np.max(np.abs(s), axis=1)  # per-source peak
    return float(np.min(np.abs(a) * peaks[None, :]))


def add_noise(mixtures, sd: float, seed: int) -> np.ndarray:
    """Add iid zero-mean Gaussian noise of standard deviation ``sd``.

    Returns a new array and leaves ``mixtures`` unchanged: the one record of
    ``noisy_stack(z, sd, [seed])``.  Raises ``ValueError`` unless ``sd`` is
    finite and nonnegative.
    """
    z = np.atleast_2d(np.asarray(mixtures, dtype=float))
    if not (math.isfinite(sd) and sd >= 0.0):
        raise ValueError(f"sd must be finite and nonnegative, got {sd}")
    return noisy_stack(z, sd, [seed])[0]


def noisy_stack(clean: np.ndarray, sd: float, seeds) -> np.ndarray:
    """``clean + sd * rng.normal_matrix(seeds[q], clean.shape)`` for each seed, stacked.

    Each record draws only its own stream (:func:`~sparsebss.rng.normal_grid`);
    at ``sd == 0`` it is a copy of ``clean``.  ``sd`` is checked by the callers.
    """
    if sd == 0.0:
        return np.repeat(clean[None], len(seeds), axis=0)
    noisy = rng.normal_grid(seeds, clean.shape)
    noisy *= sd
    noisy += clean
    return noisy
