"""Signal-matrix conventions and per-channel normalization.

A signal matrix is a plain 2-D ``float64`` ndarray of shape
``(n_channels, n_samples)``: one row per channel, one column per time
sample.  Every function in this package that takes or returns multichannel
data uses this layout.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, SparseBssError, TooShortError, ZeroChannelError


#: The smallest rms or norm whose square, the mean square or sum of squares
#: that whitening and normalization divide by, is a normal float64:
#: ``sqrt(np.finfo(float).tiny)``, exactly.  Below it the squares lose bits.
_SCALE_FLOOR = 2.0**-511


def as_signal_matrix(data) -> np.ndarray:
    """Coerce ``data`` to a validated (n_channels, n_samples) float array.

    Raises
    ------
    SparseBssError
        If the data are complex: the imaginary part would be dropped.
    NonFiniteError
        If any entry is NaN or infinite.
    TooShortError
        If there are fewer than 2 samples per channel.
    """
    x = np.atleast_2d(_real_finite(data))
    if x.ndim != 2 or x.shape[0] < 1:
        raise TooShortError(f"expected a 2-D channels x samples array, got shape {x.shape}")
    if x.shape[1] < 2:
        raise TooShortError(f"need at least 2 samples per channel, got {x.shape[1]}")
    return x


def _real_finite(data) -> np.ndarray:
    """``data`` as a float array of any shape; complex or non-finite data raise."""
    x = np.asarray(data)
    if np.iscomplexobj(x):
        raise SparseBssError(f"complex input (dtype {x.dtype}) is not supported; signals are real")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NonFiniteError("signal contains NaN or infinite entries")
    return x


def rms(signal: np.ndarray) -> np.ndarray:
    """Per-channel root mean square, sqrt(mean(x**2)) with divisor L."""
    signal = np.atleast_2d(np.asarray(signal, dtype=float))
    return np.sqrt(np.mean(np.square(signal), axis=1))


def normalize_rms(signal) -> np.ndarray:
    """Rescale each channel to unit rms.

    Parameters
    ----------
    signal : array_like, shape (n_channels, n_samples)

    Returns
    -------
    ndarray of the same shape where every row satisfies
    ``sqrt(mean(row**2)) == 1``.

    Raises
    ------
    ZeroChannelError
        If any channel is identically zero.
    SparseBssError
        If a channel's rms overflows or underflows float64.
    """
    return _rescale(signal, rms, "rms")


def normalize_unit_norm(signal) -> np.ndarray:
    """Rescale each channel to unit Euclidean norm (sum of squares = 1).

    This is the normalization used by the evaluation metrics; see
    :mod:`sparsebss.evaluation`.  Raises as :func:`normalize_rms` does.
    """
    return _rescale(signal, lambda x: np.linalg.norm(x, axis=1), "norm")


def in_scale_range(scale) -> np.ndarray:
    """Whether each rms or norm in ``scale`` may divide: ``_SCALE_FLOOR <= s < inf``, not NaN."""
    return (_SCALE_FLOOR <= scale) & (scale < np.inf)


def _rescale(signal, measure, name: str) -> np.ndarray:
    """Each channel of ``signal`` divided by its ``measure``, which must be in range."""
    x = as_signal_matrix(signal)
    with np.errstate(over="ignore"):
        scale = measure(x)
    bad = np.flatnonzero(~in_scale_range(scale))
    if bad.size:
        raise _scale_error(x[bad[0]], int(bad[0]), name)
    return x / scale[:, None]


def _scale_error(channel: np.ndarray, index: int, name: str) -> SparseBssError:
    """The error for a finite channel whose ``name`` (an rms or norm) is out of range.

    Only a channel of zeros is a :class:`ZeroChannelError`.  Otherwise its
    squares overflowed float64 or fell below its normal range (:data:`_SCALE_FLOOR`):
    the error names the scale.
    """
    if not channel.any():
        return ZeroChannelError(f"channel {index} is identically zero")
    peak = float(np.max(np.abs(channel)))
    way = "underflows" if peak < 1.0 else "overflows"
    return SparseBssError(
        f"channel {index} peaks at {peak:.3g}, so its {name} {way} float64; rescale the record"
    )
