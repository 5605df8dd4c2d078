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
from .errors import DimensionMismatchError, NonFiniteError
from .signals import in_scale_range


@dataclass(frozen=True)
class GaussianPulseSpec:
    """One truncated-Gaussian source: amplitude, center (s), and width (s).

    The pulse is exactly zero beyond four widths from its center.  Every
    field must be finite, and the width's square a normal float64: the width
    is in the package's scale range (:func:`~sparsebss.signals.in_scale_range`)
    and its square is finite.
    """

    amplitude: float
    center_s: float
    width_s: float

    def __post_init__(self):
        for key in ("amplitude", "center_s"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if not (in_scale_range(self.width_s) and math.isfinite(self.width_s * self.width_s)):
            raise ValueError(
                f"width_s must be at least 2**-511 with a finite square, got {self.width_s}"
            )


def check_positive(key: str, value: float) -> None:
    """Raise ``ValueError`` naming ``key`` unless ``value`` is positive and finite."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{key} must be positive and finite, got {value}")


def check_nonnegative(key: str, value: float) -> None:
    """Raise ``ValueError`` naming ``key`` unless ``value`` is nonnegative and finite."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{key} must be finite and nonnegative, got {value}")


def check_sample_count(sample_rate_hz: float, duration_s: float) -> None:
    """Raise ``ValueError`` unless the rate and the duration are positive and
    finite (:func:`check_positive`) and their product, the sample count, is finite."""
    check_positive("sample_rate_hz", sample_rate_hz)
    check_positive("duration_s", duration_s)
    if not math.isfinite(duration_s * sample_rate_hz):
        raise ValueError(
            f"duration_s must give a finite sample count at {sample_rate_hz} Hz, got {duration_s}"
        )


def check_shift(length: int, shift: int) -> None:
    """Raise ``ValueError`` unless a burst ``length`` is at least 1 and ``shift`` lies in [0, length]."""
    if length < 1:
        raise ValueError("shifted_uniform scenario needs length >= 1")
    if not 0 <= shift <= length:
        raise ValueError(f"shift must lie in [0, length], got {shift}")


def generate_gaussian_sources(
    specs: list[GaussianPulseSpec], sample_rate_hz: float, duration_s: float
) -> np.ndarray:
    """Sample truncated-Gaussian pulses on the grid t = n / sample_rate.

    Returns an (n_sources, L) matrix with L = ceil(duration * rate)
    samples; entries beyond four widths from a pulse center are exactly 0.
    The rate and the duration must be positive and finite, and so must
    their product, as a ``ScenarioConfig`` checks them
    (:func:`check_sample_count`).
    """
    check_sample_count(sample_rate_hz, duration_s)
    n_samples = int(np.ceil(duration_s * sample_rate_hz))
    t = np.arange(n_samples) / sample_rate_hz
    rows = []
    for spec in specs:
        offset = t - spec.center_s
        # A far sample's exponent may overflow to -inf: exp gives 0, as the cut does.
        with np.errstate(over="ignore"):
            row = spec.amplitude * np.exp(-np.square(offset) / (2.0 * spec.width_s**2))
        row[np.abs(offset) > 4.0 * spec.width_s] = 0.0
        rows.append(row)
    return np.array(rows)


def generate_shifted_uniform_sources(length: int, shift: int, seed: int) -> np.ndarray:
    """Two sparse uniform-noise sources with supports offset by ``shift``.

    Source 0 holds ``length`` uniform samples on [0, 1) followed by
    ``shift`` zeros; source 1 holds ``shift`` zeros followed by ``length``
    uniform samples.  ``shift == length`` gives fully disjoint supports,
    ``shift == 0`` full overlap.  ``length`` must be at least 1 and ``shift``
    lie in [0, length], as a ``ScenarioConfig`` checks them
    (:func:`check_shift`).
    """
    check_shift(length, shift)
    draws = rng.uniform_values(seed, 2 * length)
    total = length + shift
    sources = np.zeros((2, total))
    sources[0, :length] = draws[:length]
    sources[1, shift:] = draws[length:]
    return sources


def _sources_and_mixing(sources, mixing_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Both as 2-D float arrays, with one mixing column per source."""
    s = np.atleast_2d(np.asarray(sources, dtype=float))
    a = np.atleast_2d(np.asarray(mixing_matrix, dtype=float))
    if a.shape[1] != s.shape[0]:
        raise DimensionMismatchError(
            f"mixing matrix has {a.shape[1]} columns, {s.shape[0]} sources given"
        )
    return s, a


def mix(sources, mixing_matrix) -> np.ndarray:
    """Linear mixtures ``A @ s``."""
    s, a = _sources_and_mixing(sources, mixing_matrix)
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
    s, a = _sources_and_mixing(sources, mixing_matrix)
    peaks = np.max(np.abs(s), axis=1)  # per-source peak
    return float(np.min(np.abs(a) * peaks[None, :]))


def add_noise(mixtures, sd: float, seed: int) -> np.ndarray:
    """Add iid zero-mean Gaussian noise of standard deviation ``sd``.

    Returns a new array and leaves ``mixtures`` unchanged: the one record of
    ``noisy_stack(z, sd, [seed])``, which checks ``sd`` and ``seed``.  Raises
    :class:`NonFiniteError` when a noisy sample is not finite, as when noise
    of an ``sd`` near the largest double overflows.
    """
    z = np.atleast_2d(np.asarray(mixtures, dtype=float))
    with np.errstate(over="ignore"):
        noisy = noisy_stack(z, sd, [seed])[0]
    # min and max take no temporary the size of the record; a NaN reaches both
    if noisy.size and not (np.isfinite(noisy.min()) and np.isfinite(noisy.max())):
        raise NonFiniteError(f"noise of sd {sd!r} gives NaN or infinite samples")
    return noisy


def noisy_stack(clean: np.ndarray, sd: float, seeds) -> np.ndarray:
    """``clean + sd * rng.normal_matrix(seeds[q], clean.shape)`` for each seed, stacked.

    Each record draws only its own stream (:func:`~sparsebss.rng.normal_grid`);
    at ``sd == 0`` it is a copy of ``clean``.  ``sd`` must be finite and
    nonnegative (:func:`check_nonnegative`), and the seeds are read by
    :func:`~sparsebss.rng.seed_words` at every ``sd``, so a seed that is not
    an integer raises ``TypeError`` even where no noise is drawn.
    """
    check_nonnegative("sd", sd)
    seeds = rng.seed_words(seeds)
    if sd == 0.0:
        return np.repeat(clean[None], len(seeds), axis=0)
    noisy = rng.normal_grid(seeds, clean.shape)
    noisy *= sd
    noisy += clean
    return noisy
