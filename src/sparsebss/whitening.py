"""Gram-Schmidt whitening of mixture channels.

Channels are orthogonalized in row order against the sample inner product
``<a, b> = mean(a * b)`` and each residual is rescaled to unit rms.  No
mean is subtracted at any point: centering would introduce correlations
between otherwise uncorrelated sparse sources, so the decomposition runs
on the raw channels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientError
from .signals import BLOCK, _scale_error, as_signal_matrix, in_scale_range, rms, sum_of_products

#: Residuals below this fraction of the channel rms are treated as rank loss.
RANK_TOLERANCE = 1e-12


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
    previous components before normalization.

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
    components, transform, failed = whiten_stack(z[None])
    i = int(failed[0])
    if i >= 0:
        with np.errstate(over="ignore"):
            channel_rms = rms(z[i])[0]
        if not in_scale_range(channel_rms):
            raise _scale_error(z[i], i, "rms")
        # The diagonal of the transform is one over each residual's rms.
        if 1.0 / transform[0, i, i] >= RANK_TOLERANCE * channel_rms:
            raise _scale_error(z[i], i, "residual rms")
        raise RankDeficientError(
            f"channel {i} is linearly dependent on channels 0..{i - 1}"
        )
    return WhitenedData(components=components[0], transform=transform[0])


def whiten_stack(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gram-Schmidt whitening of a (Q, n, L) stack of records, one per run.

    Every reduction runs along the sample axis, so each record whitens
    exactly as it would alone.  Returns ``(components, transform, failed)``:
    ``failed[q]`` is the first channel at which record ``q`` is zero, has an
    rms or residual rms out of range (:func:`~sparsebss.signals.in_scale_range`),
    or is rank deficient (its other outputs are then meaningless), or -1.

    A record longer than :data:`BLOCK` samples is whitened in place: each
    channel is copied into ``components``, each projection subtracted a
    block at a time and the residual divided where it lies, so no other
    array is larger than a block.  A record of at most a block is whitened
    in a contiguous copy of the channel: over a stack of short records,
    in-place passes would run one short strided row per record.  Either
    way the channel's rms is taken from its copy.
    """
    q, n, length = z.shape
    components = np.empty_like(z)
    transform = np.zeros((q, n, n))
    failed = np.full(q, -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(n):
            if length > BLOCK:
                residual = components[:, i]
                residual[...] = z[:, i]
            else:
                residual = z[:, i].copy()
            channel_rms = rms(residual)
            row = np.zeros((q, n))
            row[:, i] = 1.0
            for k in range(i):
                coeff = (sum_of_products(residual, components[:, k]) / length)[:, None]
                for lo in range(0, length, BLOCK):
                    residual[:, lo:lo + BLOCK] -= coeff * components[:, k, lo:lo + BLOCK]
                row -= coeff * transform[:, k]
            # Channel 0 has nothing to project out: its residual is the channel.
            residual_rms = (rms(residual) if i else channel_rms)[:, None]
            bad = ~(in_scale_range(channel_rms) & in_scale_range(residual_rms[:, 0]))
            bad |= residual_rms[:, 0] < RANK_TOLERANCE * channel_rms
            failed[bad & (failed < 0)] = i
            np.divide(residual, residual_rms, out=components[:, i])
            transform[:, i] = row / residual_rms
    return components, transform, failed
