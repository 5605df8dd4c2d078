"""Signal-matrix conventions and per-channel normalization.

A signal matrix is a plain 2-D ``float64`` ndarray of shape
``(n_channels, n_samples)``: one row per channel, one column per time
sample.  Every function in this package that takes or returns multichannel
data uses this layout.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteError, SparseBssError, TooShortError, ZeroChannelError


#: Samples per channel row that a blocked pass over a record reads at once:
#: :func:`sum_of_products`, the deflation loop's velocity-and-threshold pass,
#: whitening and deflation.  On the 4 x 10**6 benchmark record (2-vCPU Xeon)
#: the velocity-and-threshold pass takes 15.2 ms at widths of 2**14, 15.5 ms
#: at 2**15, 16.0 ms at 2**13, 17.1 ms at 2**16, 18.5 ms at 2**17 and 19.8 ms
#: in one block of whole rows (medians of 30 interleaved calls).
BLOCK = 1 << 15

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
    x = np.atleast_2d(as_real_finite(data))
    if x.ndim != 2 or x.shape[0] < 1:
        raise TooShortError(f"expected a 2-D channels x samples array, got shape {x.shape}")
    if x.shape[1] < 2:
        raise TooShortError(f"need at least 2 samples per channel, got {x.shape[1]}")
    return x


def as_real_finite(data, name: str = "signal") -> np.ndarray:
    """``data`` as a float array of any shape; complex or non-finite data raise.

    ``name`` says what ``data`` is in the :class:`NonFiniteError` message.
    """
    x = np.asarray(data)
    if np.iscomplexobj(x):
        raise SparseBssError(f"complex input (dtype {x.dtype}) is not supported; signals are real")
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NonFiniteError(f"NaN or infinite entries in the {name}")
    return x


def rms(signal: np.ndarray) -> np.ndarray:
    """Per-channel root mean square, sqrt(mean(x**2)) with divisor L."""
    signal = np.atleast_2d(np.asarray(signal, dtype=float))
    return np.sqrt(sum_of_products(signal) / signal.shape[-1])


def sum_of_products(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``np.sum(a * b, axis=-1)``, or ``np.sum(np.square(a), axis=-1)`` without ``b``, bit for bit.

    ``a`` and ``b`` have one shape.  numpy sums a contiguous row pairwise: it
    splits ``n`` values at ``n // 2`` rounded down to a multiple of 8 until
    a part is short enough to add in order.  This sum recurses on the same
    split down to parts of at most :data:`BLOCK` values, forms each part's
    products in one scratch block and hands it to ``np.add.reduce``, so no
    temporary is larger than a block.  A row of at most :data:`BLOCK`
    values is one part.  ``np.square`` forms a square as ``x * x`` does,
    and faster.
    """
    product, operands = (np.square, (a,)) if b is None else (np.multiply, (a, b))
    if a.shape[-1] <= BLOCK:
        return np.add.reduce(product(*operands), axis=-1)
    return _pairwise(product, operands, np.empty(a.shape[:-1] + (BLOCK,)))


def _pairwise(product, operands, scratch: np.ndarray):
    """:func:`sum_of_products` on numpy's pairwise split, one block of products at a time."""
    n = operands[0].shape[-1]
    if n <= BLOCK:
        return np.add.reduce(product(*operands, out=scratch[..., :n]), axis=-1)
    half = _pairwise_half(n)
    head = _pairwise(product, [x[..., :half] for x in operands], scratch)
    return head + _pairwise(product, [x[..., half:] for x in operands], scratch)


def _pairwise_half(n: int) -> int:
    """Where numpy's pairwise sum splits a contiguous row of ``n`` values: ``n // 2``, down to a multiple of 8."""
    half = n // 2
    return half - half % 8


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the vectors held in (..., N, M) channel rows.

    Component i of vector m is ``rows[..., i, m]``.  The lengths have the
    bits of ``np.linalg.norm(v, axis=-1)`` on the contiguous (..., M, N)
    layout ``v`` of the same vectors, without making it: numpy sums each
    vector's N squares pairwise, and here every step of that rule adds
    whole channel rows of squares (:func:`_add_rows`).
    """
    return np.sqrt(_add_rows(np.square(rows)))


def _add_rows(squares: np.ndarray) -> np.ndarray:
    """The sum over the N channel rows of (..., N, M) ``squares``, on numpy's pairwise rule.

    numpy sums a contiguous row of fewer than 8 values in order.  From 8
    to 128 values it keeps eight running sums, of values 0, 8, 16, ...,
    of values 1, 9, 17, ... and so on, combines them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and adds the
    last ``n % 8`` values in order.  A longer row is split at
    :func:`_pairwise_half` and its halves summed alone.  numpy starts each
    sum from 0, which adds nothing to a square.
    """
    n = squares.shape[-2]
    if n > 128:
        half = _pairwise_half(n)
        return _add_rows(squares[..., :half, :]) + _add_rows(squares[..., half:, :])
    if n < 8:
        total, rest = squares[..., 0, :].copy(), 1
    else:
        rest = n - n % 8
        sums = squares[..., :8, :].copy()
        for lo in range(8, rest, 8):
            sums += squares[..., lo:lo + 8, :]
        pairs = sums[..., 0::2, :] + sums[..., 1::2, :]
        total = pairs[..., 0, :] + pairs[..., 1, :]
        total += pairs[..., 2, :] + pairs[..., 3, :]
    for i in range(rest, n):
        total += squares[..., i, :]
    return total


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
