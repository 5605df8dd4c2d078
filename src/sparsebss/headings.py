"""Phase-space velocities, normalized headings, and the acceptance threshold.

The velocity at index ``n`` (0-based, ``n = 0 .. L-2``) is the difference
between consecutive whitened sample vectors.  Headings are velocities
scaled to unit length; indices with zero velocity carry no direction and
are flagged rather than normalized.

A velocity is *accepted* when its largest component magnitude reaches
``v_th`` times the largest velocity vector length found anywhere in the
record.  The mixed norms (componentwise max on the left, Euclidean norm
on the right) are intentional and kept as defined.

The deflation loop forms velocities channel-major, one row per channel, as
``np.diff`` along the sample axis makes them.  :func:`_accept` forms them
from the data in one pass, a block of :data:`~sparsebss.signals.BLOCK`
samples at a time in a block-sized scratch.  Each block's speeds live only
while the block is in cache: they feed the running largest speed and mark
the block's zero-speed velocities, whose component maxima become ``-inf``
so no threshold accepts them.  The component maxima are the only
record-length float array the pass keeps; the direction steps form again
the few velocities they read, and their lengths by the same rule.  The
public helpers here take and return the time-major (L-1, N) view of the
same values, in any layout, take each velocity's length by the package's
one rule, a sum of squares in channel order
(:func:`~sparsebss.signals.ordered_row_norms`), and mark the maxima the
same way; both apply one threshold rule, :func:`_threshold`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import BLOCK, as_signal_matrix, ordered_row_norms


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
    return np.diff(as_signal_matrix(whitened), axis=1).T


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
    _check_v_th(v_th)
    v = np.atleast_2d(np.asarray(velocities, dtype=float))
    return _threshold_rows(v, _speeds(v), v_th)[0]


def _speeds(v: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the (..., M, N) velocity rows ``v``, summed in channel order.

    :func:`~sparsebss.signals.ordered_row_norms` on the channel-rows view of
    ``v``, so the bits do not depend on the layout of ``v``.
    """
    return ordered_row_norms(v.swapaxes(-1, -2))


def _threshold_rows(
    v: np.ndarray, speeds: np.ndarray, v_th: float
) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance mask and largest speed of (..., M, N) velocity rows with their ``speeds``."""
    component_max = _mark_still(np.max(np.abs(v), axis=-1), speeds)
    v_max = speeds.max(axis=-1, initial=0.0)
    return _threshold(component_max, v_max, v_th), v_max


def _unit_headings(v: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """``v / |v|`` row by row, with zero rows where the speed is zero."""
    live = speeds != 0.0
    return np.divide(v, speeds[..., None], out=np.zeros_like(v), where=live[..., None])


def _accept(data: np.ndarray, v_th: float) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance mask and largest speed of the velocities of (..., N, L) records.

    The velocities are formed one block of :data:`BLOCK` at a time in a
    block-sized scratch, and each block's speeds and component magnitudes
    are taken while it is in cache.  The speeds go into a block-sized
    scratch too: they mark the block's zero-speed maxima and raise each
    record's running maximum, which starts from 0 as ``max(initial=0.0)``
    does and, a maximum being exact, keeps its bits.  So no float array
    outlives its block but the component maxima, and no velocity or speed
    does.  ``v_th`` is not checked here: the public helpers and
    ``MethodParams`` check it once.
    """
    *lead, n, length = data.shape
    m, width = length - 1, min(length - 1, BLOCK)
    component_max, v_max = np.empty((*lead, m)), np.zeros(lead)
    # The block-sized scratch is allocated before the velocity block: heap
    # blocks follow one another in the order they are allocated, so each
    # output row then sits just below its input modulo 4 KiB, and no store
    # delays the loads that follow it (4K aliasing).  The other order took
    # about 2 ms more a call on the 4 x 10**6 benchmark record (2-vCPU Xeon).
    speeds, scratch = np.empty((*lead, width)), np.empty((*lead, width))
    velocities = np.empty((*lead, n, width))
    for lo in range(0, m, BLOCK):
        hi = min(lo + BLOCK, m)
        block = np.subtract(
            data[..., lo + 1:hi + 1], data[..., lo:hi], out=velocities[..., : hi - lo]
        )
        row, speed = scratch[..., : hi - lo], speeds[..., : hi - lo]
        ordered_row_norms(block, row, out=speed)
        top = np.abs(block[..., 0, :], out=component_max[..., lo:hi])
        for i in range(1, n):
            np.maximum(top, np.abs(block[..., i, :], out=row), out=top)
        _mark_still(top, speed)
        np.maximum(v_max, speed.max(axis=-1), out=v_max)
    return _threshold(component_max, v_max, v_th), v_max


def _mark_still(component_max: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """``component_max`` with ``-inf`` where the speed is zero, in place.

    A velocity whose squares underflow has zero speed but a positive
    component maximum; marked, it fails every threshold, as a velocity
    without a direction must.
    """
    component_max[speeds == 0.0] = -np.inf
    return component_max


def _threshold(component_max: np.ndarray, v_max: np.ndarray, v_th: float) -> np.ndarray:
    """Acceptance mask of a (..., M) stack of component maxima against each record's ``v_max``.

    The maxima carry ``-inf`` at zero speeds (:func:`_mark_still`), so
    ``v_th * v_max >= 0`` rejects them without a test of the speeds.
    """
    return component_max >= v_th * v_max[..., None]


def _check_v_th(v_th: float) -> None:
    if not 0.0 < v_th < 1.0:
        raise ValueError(f"v_th must lie in (0, 1), got {v_th}")


def compute_headings(whitened, v_th: float) -> HeadingSet:
    """Full velocity/heading/threshold pass over one (possibly deflated) record."""
    _check_v_th(v_th)
    v = compute_velocities(whitened)
    speeds = _speeds(v)
    accepted, v_max = _threshold_rows(v, speeds, v_th)
    return HeadingSet(
        velocities=v,
        headings=_unit_headings(v, speeds),
        speeds=speeds,
        nonzero=speeds != 0.0,
        accepted=accepted,
        v_max=float(v_max),
    )
