"""Phase-space velocities, normalized headings, and the acceptance threshold.

The velocity at index ``n`` (0-based, ``n = 0 .. L-2``) is the difference
between consecutive whitened sample vectors.  Headings are velocities
scaled to unit length; indices with zero velocity carry no direction and
are flagged rather than normalized.

A velocity is *accepted* when its largest component magnitude reaches
``v_th`` times the largest velocity vector length found anywhere in the
record.  The mixed norms (componentwise max on the left, Euclidean norm
on the right) are intentional and kept as defined.

This module is the one place where a velocity or a heading is formed
from samples.  Velocities are held as (..., N, M) channel rows, one row per
channel, as ``np.diff`` along the sample axis makes them.  One kernel,
:func:`_maxima`, takes their lengths by the package's one rule, a sum of
squares in channel order (:func:`~sparsebss.signals.ordered_row_norms`),
and their component maxima, which become ``-inf`` at zero speed so no
threshold accepts them; one rule, :func:`_threshold`, compares them.

The deflation loop's threshold pass, :func:`accept_stack`, forms the
velocities of a record stack one block of :data:`~sparsebss.signals.BLOCK`
samples at a time in a block-sized scratch and runs the kernel on each
block while it is in cache, so the component maxima are the only
record-length float array it keeps.  The loop's direction steps form again
the few velocities they read, from the samples on either side, through
:func:`velocity_rows`, or as unit headings through :func:`heading_rows`,
divided by lengths taken by the same rule.  The public helpers take and
return the time-major (L-1, N) view of the same values, in any layout, and
run the kernel on its channel-rows view, so they agree with the loop bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SparseBssError
from .signals import BLOCK, as_real_finite, as_signal_matrix, ordered_row_norms


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

    A NaN or infinite velocity raises ``NonFiniteError``, one whose length
    overflows float64 ``SparseBssError`` (:func:`check_speeds`).
    """
    v = np.atleast_2d(as_real_finite(velocities, "velocities"))
    with np.errstate(over="ignore"):
        speeds = ordered_row_norms(v.swapaxes(-1, -2))
    check_speeds(speeds)
    return _unit_headings(v, speeds), speeds == 0.0


def apply_velocity_threshold(velocities, v_th: float) -> np.ndarray:
    """Acceptance mask: ``max_i |v_i[n]| >= v_th * max_m |v[m]|``.

    ``v_th`` must lie in (0, 1).  Zero velocities are never accepted, a
    NaN or infinite velocity raises ``NonFiniteError``, and one whose length
    overflows float64 ``SparseBssError`` (:func:`check_speeds`).
    """
    check_v_th(v_th)
    v = np.atleast_2d(as_real_finite(velocities, "velocities"))
    with np.errstate(over="ignore"):
        speeds, maxima = _maxima(v.swapaxes(-1, -2))
    check_speeds(speeds)
    return _threshold(maxima, speeds.max(axis=-1, initial=0.0), v_th)


def compute_headings(whitened, v_th: float) -> HeadingSet:
    """Full velocity/heading/threshold pass over one (possibly deflated) record.

    A velocity whose length overflows float64 raises ``SparseBssError``
    (:func:`check_speeds`).
    """
    check_v_th(v_th)
    v = compute_velocities(whitened)
    with np.errstate(over="ignore"):
        speeds, maxima = _maxima(v.T)
    check_speeds(speeds)
    v_max = speeds.max(initial=0.0)
    return HeadingSet(
        velocities=v,
        headings=_unit_headings(v, speeds),
        speeds=speeds,
        nonzero=speeds != 0.0,
        accepted=_threshold(maxima, v_max, v_th),
        v_max=float(v_max),
    )


def accept_stack(data: np.ndarray, v_th: float) -> np.ndarray:
    """Acceptance mask of the velocities of (..., N, L) records.

    The velocities are formed one block of :data:`BLOCK` at a time in a
    block-sized scratch, and :func:`_maxima` takes each block's speeds and
    component maxima while it is in cache.  The speeds go into a
    block-sized scratch too: they raise each record's running maximum,
    which starts from 0 as ``max(initial=0.0)`` does and, a maximum being
    exact, keeps its bits.  So no float array outlives its block but the
    component maxima, and no velocity or speed does.  ``v_th`` is not
    checked here: the public helpers and ``MethodParams`` check it once,
    with :func:`check_v_th`.
    """
    *lead, n, length = data.shape
    m, width = length - 1, min(length - 1, BLOCK)
    maxima, v_max = np.empty((*lead, m)), np.zeros(lead)
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
        _maxima(block, row, speed, maxima[..., lo:hi])
        np.maximum(v_max, speed.max(axis=-1), out=v_max)
    return _threshold(maxima, v_max, v_th)


def velocity_rows(data: np.ndarray, record: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Velocities ``index`` of records ``record`` of a (Q, N, L) stack, as (N, K) channel rows.

    Velocity j is sample j + 1 minus sample j; j is at most L - 2.  Both
    samples are read by flat ``np.take``: sample j of channel i of record r
    sits at ``(r * N + i) * L + j``.  The deflation loop's direction steps
    form every velocity they read here.
    """
    _, n, length = data.shape
    take = (record * (n * length) + index) + (np.arange(n) * length)[:, None]
    flat = data.reshape(-1)
    rows = np.take(flat, take + 1)
    rows -= np.take(flat, take)
    return rows


def heading_rows(data: np.ndarray, record: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Unit headings ``index`` of records ``record`` of a (Q, N, L) stack, as (N, K) channel rows.

    :func:`velocity_rows` divided in place by the lengths of its rows,
    taken by :func:`~sparsebss.signals.ordered_row_norms`: elementwise the
    speeds :func:`accept_stack` computed, with their bits.
    """
    rows = velocity_rows(data, record, index)
    rows /= ordered_row_norms(rows)
    return rows


def _maxima(rows: np.ndarray, scratch=None, speeds=None, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Speeds and component maxima of (..., N, M) velocity channel rows.

    The speeds are :func:`~sparsebss.signals.ordered_row_norms` of
    ``rows``; each velocity's largest component magnitude is a running
    maximum over the channels.  A maximum is ``-inf`` where the speed is
    zero: a velocity whose squares underflow has zero speed but a positive
    component maximum, and marked, it fails every threshold, as a velocity
    without a direction must.  ``scratch`` takes each channel's squares and
    magnitudes, ``speeds`` and ``out`` receive the results; numpy allocates
    what is not given.  Returns ``(speeds, maxima)``.
    """
    speeds = ordered_row_norms(rows, scratch, out=speeds)
    maxima = np.abs(rows[..., 0, :], out=out)
    for i in range(1, rows.shape[-2]):
        np.maximum(maxima, np.abs(rows[..., i, :], out=scratch), out=maxima)
    maxima[speeds == 0.0] = -np.inf
    return speeds, maxima


def _unit_headings(v: np.ndarray, speeds: np.ndarray) -> np.ndarray:
    """``v / |v|`` row by row, with zero rows where the speed is zero."""
    live = speeds != 0.0
    return np.divide(v, speeds[..., None], out=np.zeros_like(v), where=live[..., None])


def _threshold(maxima: np.ndarray, v_max: np.ndarray, v_th: float) -> np.ndarray:
    """Acceptance mask of a (..., M) stack of component maxima against each record's ``v_max``.

    The maxima carry ``-inf`` at zero speeds (:func:`_maxima`), so
    ``v_th * v_max >= 0`` rejects them without a test of the speeds.
    """
    return maxima >= v_th * v_max[..., None]


def check_speeds(speeds: np.ndarray) -> None:
    """Raise ``SparseBssError`` naming the first velocity whose length overflows float64.

    Its squares overflowed, so it has no unit heading and would fail every
    threshold.  The deflation loop needs no such check: it runs on whitened
    records, whose velocities are far from float64's range.
    """
    if np.any(speeds == np.inf):
        i = int(np.argmax(speeds))
        raise SparseBssError(f"the length of velocity {i} overflows float64; rescale the record")


def check_v_th(v_th: float) -> None:
    """Raise ``ValueError`` unless the velocity threshold ``v_th`` lies in (0, 1)."""
    if not 0.0 < v_th < 1.0:
        raise ValueError(f"v_th must lie in (0, 1), got {v_th}")
