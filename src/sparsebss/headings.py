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
samples at a time in a block-sized scratch, and keeps only each block's
speeds and component magnitudes, taken while it is in cache; the direction
steps form again the few velocities they read.  The public helpers here take
and return the time-major (L-1, N) view of the same values, in any layout,
and sum each velocity's squares in channel order as the loop does
(:func:`_speeds`); both apply one rule, :func:`_threshold`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import BLOCK, as_signal_matrix


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
    return _threshold(_speeds(v), np.max(np.abs(v), axis=-1), v_th)[0]


def _speeds(v: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the (..., M, N) velocity rows ``v``, summed in channel order.

    ``np.linalg.norm`` would sum a contiguous row pairwise but a strided one
    in order, so from 8 channels on its bits would depend on the layout of
    ``v``.  :func:`_row_speeds` adds one channel at a time, the loop's order.
    """
    channels = v.swapaxes(-1, -2)
    return _row_speeds(channels, np.empty(v.shape[:-1]), out=np.empty(v.shape[:-1]))


def _unit_headings(v: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """``v / |v|`` row by row, with zero rows where the speed is zero."""
    live = speeds != 0.0
    return np.divide(v, speeds[..., None], out=np.zeros_like(v), where=live[..., None])


def _accept(data: np.ndarray, v_th: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Speeds, acceptance mask and largest speed of the velocities of (..., N, L) records.

    The velocities are formed one block of :data:`BLOCK` at a time in a
    block-sized scratch, and each block's squares and magnitudes are taken
    while it is in cache, so no float temporary is larger than one block and
    no velocity outlives its block.  ``v_th`` is not checked here: the public
    helpers and ``MethodParams`` check it once.
    """
    *lead, n, length = data.shape
    m, width = length - 1, min(length - 1, BLOCK)
    speeds, component_max = np.empty((*lead, m)), np.empty((*lead, m))
    velocities, scratch = np.empty((*lead, n, width)), np.empty((*lead, width))
    for lo in range(0, m, BLOCK):
        hi = min(lo + BLOCK, m)
        block = np.subtract(
            data[..., lo + 1:hi + 1], data[..., lo:hi], out=velocities[..., : hi - lo]
        )
        row = scratch[..., : hi - lo]
        _row_speeds(block, row, out=speeds[..., lo:hi])
        top = np.abs(block[..., 0, :], out=component_max[..., lo:hi])
        for i in range(1, block.shape[-2]):
            np.maximum(top, np.abs(block[..., i, :], out=row), out=top)
    return (speeds, *_threshold(speeds, component_max, v_th))


def _threshold(
    speeds: np.ndarray, component_max: np.ndarray, v_th: float
) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance mask and largest speed of each record in a (..., M) stack."""
    v_max = speeds.max(axis=-1, initial=0.0)
    return (speeds > 0.0) & (component_max >= v_th * v_max[..., None]), v_max


def _row_speeds(rows: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the velocities held in (..., N, M) channel rows.

    Squares are summed one channel row at a time, in channel order, which
    is the order ``np.linalg.norm`` sums the components of a velocity whose
    components lie one row apart, so the lengths keep its bits.  ``scratch``
    takes each row's squares; ``out`` receives the lengths.
    """
    speeds = np.square(rows[..., 0, :], out=out)
    for i in range(1, rows.shape[-2]):
        speeds += np.square(rows[..., i, :], out=scratch)
    return np.sqrt(speeds, out=speeds)


def _check_v_th(v_th: float) -> None:
    if not 0.0 < v_th < 1.0:
        raise ValueError(f"v_th must lie in (0, 1), got {v_th}")


def compute_headings(whitened, v_th: float) -> HeadingSet:
    """Full velocity/heading/threshold pass over one (possibly deflated) record."""
    _check_v_th(v_th)
    v = compute_velocities(whitened)
    speeds = _speeds(v)
    accepted, v_max = _threshold(speeds, np.max(np.abs(v), axis=-1), v_th)
    return HeadingSet(
        velocities=v,
        headings=_unit_headings(v, speeds),
        speeds=speeds,
        nonzero=speeds != 0.0,
        accepted=accepted,
        v_max=float(v_max),
    )
