"""Phase-space velocities, normalized headings, and the acceptance threshold.

The velocity at index ``n`` (0-based, ``n = 0 .. L-2``) is the difference
between consecutive whitened sample vectors.  Headings are velocities
scaled to unit length; indices with zero velocity carry no direction and
are flagged rather than normalized.

A velocity is *accepted* when its largest component magnitude reaches
``v_th`` times the largest velocity vector length found anywhere in the
record.  The mixed norms (componentwise max on the left, Euclidean norm
on the right) are intentional and kept as defined.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooShortError
from .signals import as_signal_matrix


@dataclass(frozen=True)
class HeadingSet:
    """Velocities and headings of one record, with the acceptance mask.

    Attributes
    ----------
    velocities : ndarray, shape (L-1, N)
        Row ``n`` is ``e[:, n+1] - e[:, n]``.
    headings : ndarray, shape (L-1, N)
        Unit rows where ``nonzero``; zero rows elsewhere.
    speeds : ndarray, shape (L-1,)
        Euclidean norms of the velocity rows.
    nonzero : ndarray of bool
        True where the velocity has positive length.
    accepted : ndarray of bool
        Velocity-threshold mask; never true on zero velocities.
    v_max : float
        Largest speed in the record.
    """

    velocities: np.ndarray
    headings: np.ndarray
    speeds: np.ndarray
    nonzero: np.ndarray
    accepted: np.ndarray
    v_max: float


def compute_velocities(whitened) -> np.ndarray:
    """Consecutive sample differences of an (N, L) signal, as (L-1, N) rows."""
    e = as_signal_matrix(whitened)
    if e.shape[1] < 2:
        raise TooShortError("need at least 2 samples to form velocities")
    return np.diff(e, axis=1).T


def normalize_headings(velocities) -> tuple[np.ndarray, np.ndarray]:
    """Unit headings and the zero-velocity mask.

    Returns
    -------
    headings : ndarray, same shape as ``velocities``
        ``v / |v|`` where ``|v| > 0``; zero rows where ``|v| == 0``.
    zero_mask : ndarray of bool
        True at indices whose velocity is exactly zero.
    """
    v = np.atleast_2d(np.asarray(velocities, dtype=float))
    speeds = _speeds(v)
    return _unit_headings(v, speeds), speeds == 0.0


def apply_velocity_threshold(velocities, v_th: float) -> np.ndarray:
    """Acceptance mask: ``max_i |v_i[n]| >= v_th * max_m |v[m]|``.

    ``v_th`` must lie in (0, 1).  Zero velocities are never accepted.
    """
    v = np.atleast_2d(np.asarray(velocities, dtype=float))
    return _threshold(v, _speeds(v), v_th)[0]


def _speeds(v: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the velocity rows of a (..., M, N) array."""
    return np.linalg.norm(v, axis=-1)


def _unit_headings(v: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """``v / |v|`` row by row, with zero rows where the speed is zero."""
    live = speeds != 0.0
    return np.divide(v, speeds[..., None], out=np.zeros_like(v), where=live[..., None])


def _threshold(v: np.ndarray, speeds: np.ndarray, v_th: float) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance mask and largest speed of each (M, N) record in ``v``."""
    if not 0.0 < v_th < 1.0:
        raise ValueError(f"v_th must lie in (0, 1), got {v_th}")
    v_max = speeds.max(axis=-1, initial=0.0)
    component_max = np.max(np.abs(v), axis=-1)
    accepted = (speeds > 0.0) & (component_max >= v_th * v_max[..., None])
    return accepted, v_max


def compute_headings(whitened, v_th: float) -> HeadingSet:
    """Full velocity/heading/threshold pass over one (possibly deflated) record."""
    v = compute_velocities(whitened)
    speeds = _speeds(v)
    accepted, v_max = _threshold(v, speeds, v_th)
    return HeadingSet(
        velocities=v,
        headings=_unit_headings(v, speeds),
        speeds=speeds,
        nonzero=speeds != 0.0,
        accepted=accepted,
        v_max=float(v_max),
    )
