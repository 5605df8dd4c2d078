"""Signal-matrix conventions, per-channel normalization, and the length rule.

A signal matrix is a plain 2-D ``float64`` ndarray of shape
``(n_channels, n_samples)``: one row per channel, one column per time
sample.  Every function in this package that takes or returns multichannel
data uses this layout.

Velocities and headings are held the same way, as (..., N, M) channel
rows, and their lengths have one rule, :func:`ordered_row_norms`: each
vector's squares added in channel order.  So a length has the same bits
whatever the layout, and every step that divides by one agrees.  A norm
along the samples, a channel's or an estimate's, has one rule too, the
blocked sum :func:`sum_of_products`.
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

    The array is C-contiguous, each channel one contiguous row: a
    C-contiguous float input is returned as it is, any other layout is
    copied.  Every pass along the samples then runs on one layout, so a
    result has the same bits whatever the caller's layout.

    Raises
    ------
    SparseBssError
        If the data are complex: the imaginary part would be dropped.
    NonFiniteError
        If any entry is NaN or infinite.
    TooShortError
        If there are fewer than 2 samples per channel.
    """
    x = np.ascontiguousarray(np.atleast_2d(as_real_finite(data)))
    if x.ndim != 2 or x.shape[0] < 1:
        raise TooShortError(f"expected a 2-D channels x samples array, got shape {x.shape}")
    if x.shape[1] < 2:
        raise TooShortError(f"need at least 2 samples per channel, got {x.shape[1]}")
    return x


def as_real_finite(data, name: str = "signal") -> np.ndarray:
    """``data`` as a float array of any shape; complex or non-finite data raise.

    ``name`` says what ``data`` is in the :class:`NonFiniteError` message.
    The array keeps the layout of ``data``: views of channel rows, such as
    the (K, N) velocities of a cluster, are not copied.
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
    values is one part, and its scratch is the row's width.  ``np.square``
    forms a square as ``x * x`` does, and faster.
    """
    product, operands = (np.square, (a,)) if b is None else (np.multiply, (a, b))
    scratch = np.empty(a.shape[:-1] + (min(a.shape[-1], BLOCK),))
    return _pairwise(product, operands, scratch)


def _pairwise(product, operands, scratch: np.ndarray):
    """:func:`sum_of_products` on numpy's pairwise split, one block of products at a time."""
    n = operands[0].shape[-1]
    if n <= BLOCK:
        return np.add.reduce(product(*operands, out=scratch[..., :n]), axis=-1)
    half = n // 2 - n // 2 % 8
    head = _pairwise(product, [x[..., :half] for x in operands], scratch)
    return head + _pairwise(product, [x[..., half:] for x in operands], scratch)


def ordered_row_norms(rows: np.ndarray, scratch=None, out=None) -> np.ndarray:
    """Euclidean lengths of the vectors held in (..., N, M) channel rows, summed in channel order.

    Component i of vector m is ``rows[..., i, m]``.  Squares are added one
    channel row at a time, in channel order, the order ``np.linalg.norm``
    sums a velocity whose components lie one row apart: the lengths have its
    bits on the strided (..., M, N) view of channel rows, whatever the
    layout of ``rows``.  This is the package's one length rule for a
    velocity or a heading, from the deflation loop's velocity-and-threshold
    pass to the clustering, the cluster averages and MHC's changes.  Below 8
    channels it also gives the bits of ``np.linalg.norm`` on contiguous
    (..., M, N) rows, which numpy sums in order up to 8 values and pairwise
    from there.  ``scratch`` takes each row's squares and ``out`` receives
    the lengths; numpy allocates what is not given.
    """
    lengths = np.square(rows[..., 0, :], out=out)
    for i in range(1, rows.shape[-2]):
        lengths += np.square(rows[..., i, :], out=scratch)
    return np.sqrt(lengths, out=lengths)


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
    :mod:`sparsebss.evaluation`.  The norm is the square root of
    :func:`sum_of_products`, which on contiguous rows has the bits of
    ``np.linalg.norm(x, axis=1)`` and keeps no record-sized temporary.
    Raises as :func:`normalize_rms` does.
    """
    return _rescale(signal, lambda x: np.sqrt(sum_of_products(x)), "norm")


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
        raise scale_error(x[bad[0]], int(bad[0]), name)
    return x / scale[:, None]


def scale_error(channel: np.ndarray, index: int, name: str) -> SparseBssError:
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
