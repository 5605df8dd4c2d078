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

A blocked pass over a long record splits its blocks into contiguous
groups, at most :data:`WORKERS`, and runs them at once through
:func:`in_workers`: the first group in the caller, the others on
persistent daemon threads, while numpy, which releases the GIL inside its
loops, does the work.  The passes are
:func:`sum_of_products`, the deflation loop's threshold pass, its
projection and deflation, whitening's subtraction, and the clustering's
argsorts of rows longer than a block.  Each computes every value exactly as
in one thread: a group writes only its own blocks and its own scratch,
which the caller allocates, and a value that gathers several blocks (a sum,
a maximum) is combined in the caller in a fixed order, so the bits do not
depend on the number of groups.  A pass too short to split, the Monte Carlo
engine's short records among them, runs inline and starts no thread.
"""

from __future__ import annotations

import contextvars
import os
import threading

import numpy as np

from .errors import NonFiniteError, SparseBssError, TooShortError, ZeroChannelError


#: Samples per channel row that a blocked pass over a record reads at once:
#: :func:`sum_of_products`, the deflation loop's velocity-and-threshold pass,
#: whitening and deflation.  On the 4 x 10**6 benchmark record (2-vCPU Xeon)
#: the velocity-and-threshold pass takes 15.2 ms at widths of 2**14, 15.5 ms
#: at 2**15, 16.0 ms at 2**13, 17.1 ms at 2**16, 18.5 ms at 2**17 and 19.8 ms
#: in one block of whole rows (medians of 30 interleaved calls).
BLOCK = 1 << 15

#: The most groups a blocked pass splits into: the CPUs this process may run
#: on, but no more than 2.  The passes' block widths, their scratch and the
#: memory bounds were measured with 2 groups (2-vCPU Xeon VM); the threshold
#: pass's blocks narrow as the groups grow, and more were not measured.
WORKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

#: Fewest blocks of a sum, a subtraction or a deflation that one worker
#: group takes.  Such a block takes 30-40 us, and handing a group to a
#: parked thread about 0.1 ms (2-vCPU Xeon VM), so a group of fewer blocks
#: gains little or loses: a 2 x 99,000 record's passes ran slower in two.
GROUP_BLOCKS = 8

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
    a part is short enough to add in order.  This sum splits the row the
    same way down to parts of at most :data:`BLOCK` values, forms each
    part's products in a scratch block and hands it to ``np.add.reduce``, so
    no temporary is larger than a block.  The parts are summed in contiguous
    groups (:func:`in_workers`), each in its own scratch, and their sums are
    then added up the same tree, head plus tail, whichever group took them.
    A row of at most :data:`BLOCK` values is one part, summed straight
    from its products.  ``np.square`` forms a square as ``x * x`` does, and
    faster.
    """
    product, operands = (np.square, (a,)) if b is None else (np.multiply, (a, b))
    if a.shape[-1] <= BLOCK:
        return np.add.reduce(product(*operands), axis=-1)
    tree = _pairwise_tree(0, a.shape[-1])
    parts = _leaves(tree)
    groups = worker_groups(range(len(parts)))
    scratch = [np.empty((*a.shape[:-1], BLOCK)) for _ in groups]
    sums = {}

    def add(slot, group):
        for j in group:
            lo, hi = parts[j]
            block = product(*(x[..., lo:hi] for x in operands), out=scratch[slot][..., : hi - lo])
            sums[parts[j]] = np.add.reduce(block, axis=-1)

    in_workers(add, groups)
    return _fold(tree, sums)


def _pairwise_tree(lo: int, n: int):
    """numpy's pairwise split of ``n`` values from ``lo``, down to parts of at most :data:`BLOCK`.

    A part is its (start, stop) tuple; a split is the [head, tail] list of
    its two subtrees.
    """
    if n <= BLOCK:
        return (lo, lo + n)
    half = n // 2 - n // 2 % 8
    return [_pairwise_tree(lo, half), _pairwise_tree(lo + half, n - half)]


def _leaves(tree) -> list[tuple[int, int]]:
    """The parts of a :func:`_pairwise_tree`, in order."""
    return [tree] if isinstance(tree, tuple) else _leaves(tree[0]) + _leaves(tree[1])


def _fold(tree, sums: dict):
    """The parts' ``sums``, keyed by part, added up the tree: head plus tail at every split."""
    if isinstance(tree, tuple):
        return sums[tree]
    head = _fold(tree[0], sums)
    return head + _fold(tree[1], sums)


def worker_groups(items, least: int | None = None) -> list:
    """``items``, a sequence such as a ``range``, cut into contiguous groups for :func:`in_workers`.

    There are :data:`WORKERS` groups, or fewer, so that each holds at least
    ``least`` items (:data:`GROUP_BLOCKS` if not given), and always one;
    their sizes differ by at most one.
    """
    count = min(WORKERS, len(items) // (least or GROUP_BLOCKS))
    if count < 2:
        return [items]
    return [items[g * len(items) // count : (g + 1) * len(items) // count] for g in range(count)]


def in_workers(fn, groups: list) -> None:
    """Call ``fn(slot, groups[slot])`` for every slot: the first in the caller, the others at once.

    The other groups run on persistent daemon threads, started at the first
    call that needs them, each under a copy of the caller's ``contextvars``
    context, where numpy keeps its error state.  The call returns when every
    group is done, and then raises the exception of the first group that
    raised one.  One group, or a call made while the threads are taken (from
    inside a group, or from another thread), runs every group in the caller,
    in order.  ``slot`` lets each group use its own scratch, which the
    caller allocates.
    """
    if len(groups) == 1 or not _pool.acquire(blocking=False):
        for slot, group in enumerate(groups):
            fn(slot, group)
        return
    try:
        while len(_workers) < len(groups) - 1:
            _workers.append(_Worker(len(_workers) + 1))
        workers = _workers[: len(groups) - 1]
        for worker, slot in zip(workers, range(1, len(groups))):
            worker.start(contextvars.copy_context(), fn, slot, groups[slot])
        try:
            fn(0, groups[0])
        finally:
            try:
                errors = [worker.wait() for worker in workers]
            except BaseException:  # an interrupted wait: start afresh, without these threads
                _workers.clear()
                raise
    finally:
        _pool.release()
    for error in errors:
        if error is not None:
            raise error


class _Worker:
    """A persistent daemon thread that runs one group at a time for :func:`in_workers`.

    Two locks hand the work over: ``_ready`` is released when a group is
    set, ``_done`` when it has run.
    """

    def __init__(self, number: int):
        self._ready, self._done = threading.Lock(), threading.Lock()
        self._ready.acquire()
        self._done.acquire()
        self._task = self._error = None
        threading.Thread(target=self._serve, name=f"sparsebss-worker-{number}", daemon=True).start()

    def start(self, context, fn, slot, group) -> None:
        self._task = (context, fn, slot, group)
        self._ready.release()

    def wait(self) -> BaseException | None:
        """Wait for the group to finish; its exception, or None."""
        self._done.acquire()
        error, self._error = self._error, None
        return error

    def _serve(self) -> None:
        while True:
            self._ready.acquire()
            context, fn, slot, group = self._task
            self._task = None
            try:
                context.run(fn, slot, group)
            except BaseException as error:  # raised again in the caller
                self._error = error
            del context, fn, group  # a parked thread holds none of the caller's arrays
            self._done.release()


#: Held by the :func:`in_workers` call whose groups the workers run.  A
#: child forked while another thread held it runs every group inline.
_pool = threading.Lock()
_workers: list[_Worker] = []

# A forked child has none of the workers' threads: it starts its own.  The
# list's own method is registered, not a function of this module, so a
# re-imported module is not kept alive by it.  A system without fork has no
# hook to register.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_workers.clear)


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
