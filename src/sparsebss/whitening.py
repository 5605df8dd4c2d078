"""Gram-Schmidt whitening of mixture channels.

Channels are orthogonalized in row order against the sample inner product
``<a, b> = mean(a * b)`` and each residual is rescaled to unit rms.  No
mean is subtracted at any point: centering would introduce correlations
between otherwise uncorrelated sparse sources, so the decomposition runs
on the raw channels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import RankDeficientError
from .signals import (
    BLOCK,
    as_signal_matrix,
    in_scale_range,
    in_workers,
    rms,
    scale_error,
    sum_of_products,
    worker_groups,
)

#: Residuals below this fraction of the channel rms are treated as rank loss.
RANK_TOLERANCE = 1e-12

#: Why whitening fails a channel, in the order it tests: its rms is out of
#: range, its residual shows rank loss, or its residual's rms is out of
#: range.  A scale's entry is the name its error message gives it.
CAUSES = ("rms", "rank", "residual rms")


@dataclass(frozen=True)
class WhitenedData:
    """Result of whitening: components = transform @ mixtures.

    Attributes
    ----------
    components : ndarray, shape (n, L)
        Orthonormal channels: ``mean(components[i] * components[j]) == delta_ij``.
    transform : ndarray, shape (n, n)
        Lower-triangular map from the input mixtures to the components.
    """

    components: np.ndarray
    transform: np.ndarray


def gram_schmidt_whiten(mixtures) -> WhitenedData:
    """Orthogonalize and unit-rms-normalize mixture channels in row order.

    Channel 0 seeds the basis; each later channel is projected against all
    previous components before normalization.  A failure is raised from
    :func:`whiten_stack`'s record of its channel and cause: nothing is
    measured twice.

    Raises
    ------
    ZeroChannelError
        If a channel is identically zero.
    SparseBssError
        If the mean square of a channel, or of its residual after projection,
        overflows float64 or is below its normal range.
    RankDeficientError
        If a channel's residual after projection has rms below
        ``RANK_TOLERANCE`` times the channel rms.
    """
    z = as_signal_matrix(mixtures)
    components, transform, failed, cause = whiten_stack(z[None])
    i, name = int(failed[0]), CAUSES[cause[0]]
    if i >= 0 and name == "rank":
        raise RankDeficientError(f"channel {i} is linearly dependent on channels 0..{i - 1}")
    if i >= 0:
        raise scale_error(z[i], i, name)
    return WhitenedData(components=components[0], transform=transform[0])


def whiten_stack(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gram-Schmidt whitening of a (Q, n, L) stack of records, one per run.

    Every reduction runs along the sample axis, so each record whitens
    exactly as it would alone.  Returns ``(components, transform, failed,
    cause)``: ``failed[q]`` is the first channel at which record ``q``
    fails a test, or -1, and ``cause[q]`` indexes :data:`CAUSES` with the
    first test it fails there.  The tests, in that order, are: the
    channel's rms in range (:func:`~sparsebss.signals.in_scale_range`,
    which a zero or non-finite channel fails), its residual's rms at least
    ``RANK_TOLERANCE`` times the channel's (which a NaN residual fails),
    and the residual's rms in range.  Both rms are kept per channel and
    tested once, after the loop.  A failed record's other outputs are
    meaningless, and so is ``cause`` where ``failed`` is -1.

    A record longer than :data:`BLOCK` samples is whitened in place: each
    channel is copied into ``components``, each projection subtracted a block
    at a time and the residual divided where it lies, so no other array is
    larger than a block per worker group.  On a record of many blocks the
    subtraction's blocks, like the sums' parts
    (:func:`~sparsebss.signals.sum_of_products`), split into contiguous groups
    that run at once (:func:`~sparsebss.signals.in_workers`), each forming its
    products in a scratch block of its own; every sample is computed alone, so
    the bits do not depend on the groups.  A record of at most a block is
    whitened in a contiguous copy of the channel: over a stack of short
    records, in-place passes would run one short strided row per record.
    Either way the channel's rms is taken from its copy.
    """
    q, n, length = z.shape
    blocks = worker_groups(range(0, length, BLOCK))
    components = np.empty_like(z)
    transform = np.zeros((q, n, n))
    scales = np.empty((2, q, n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n):
            if length > BLOCK:
                residual = components[:, i]
                residual[...] = z[:, i]
            else:
                residual = z[:, i].copy()
            channel_rms = scales[0, :, i] = rms(residual)
            row = np.zeros((q, n))
            row[:, i] = 1.0
            for k in range(i):
                coeff = (sum_of_products(residual, components[:, k]) / length)[:, None]
                products = [np.empty((q, min(length, BLOCK))) for _ in blocks]
                in_workers(partial(_subtract, residual, coeff, components[:, k], products), blocks)
                del products
                row -= coeff * transform[:, k]
            # Channel 0 has nothing to project out: its residual is the channel.
            residual_rms = scales[1, :, i] = rms(residual) if i else channel_rms
            np.divide(residual, residual_rms[:, None], out=components[:, i])
            transform[:, i] = row / residual_rms[:, None]
        in_range = in_scale_range(scales)
        rank_kept = scales[1] >= RANK_TOLERANCE * scales[0]  # False for a NaN residual
    # Each record's tests in channel order, and at each channel in CAUSES
    # order, as one (Q, n * 3) row: its first false entry is the verdict.
    passed = np.stack([in_range[0], rank_kept, in_range[1]], axis=-1).reshape(q, 3 * n)
    first = np.argmin(passed, axis=1)
    failed = np.where(passed[np.arange(q), first], -1, first // 3)
    return components, transform, failed, first % 3


def _subtract(residual, coeff, component, products, slot, starts) -> None:
    """``residual -= coeff * component`` on the blocks of :data:`BLOCK` samples from ``starts``.

    Each product is formed in ``products[slot]``, its group's scratch.
    """
    for lo in starts:
        part = residual[:, lo:lo + BLOCK]
        product = products[slot][:, : part.shape[1]]
        part -= np.multiply(coeff, component[:, lo:lo + BLOCK], out=product)
