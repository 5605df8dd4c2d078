"""Heading clustering by component-wise sorting and gap thresholding.

One dominant source traces a fixed line in phase space, so the headings it
produces share component magnitudes.  Sorting each component magnitude
ascending turns that agreement into flat segments; marking adjacent sorted
values closer than a gap threshold, remapping the longest marked run back
to time order, and AND-ing the per-component membership isolates the
heading indices belonging to a single source.

The rule is written once, in :func:`cluster_tables`, for a stack of
records; :func:`find_cluster` runs it on one, and the step helpers spell it
out one component at a time.  All indices here are 0-based positions into
the heading list handed to :func:`find_cluster`.  The tables are indexed
(M, N), heading by component, but :func:`cluster_tables` holds them as
(N, M) channel rows, so each component that is sorted, scanned or
scattered is one contiguous row.  The heading lengths are taken on the
same rows by the package's one length rule,
:func:`~sparsebss.signals.ordered_row_norms`, so the velocities are never
copied into (M, N) rows and the magnitudes do not depend on their layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyClusterError,
    NoRunFoundError,
    SparseBssError,
    TooFewHeadingsError,
)
from .headings import check_speeds
from .signals import BLOCK, as_real_finite, in_workers, ordered_row_norms, worker_groups


@dataclass(frozen=True)
class SortedComponent:
    """One heading component sorted ascending by magnitude.

    ``values[m]`` is the m-th smallest magnitude; ``index_map[m]`` is the
    heading index it came from.  Ties keep ascending heading order.
    """

    values: np.ndarray
    index_map: np.ndarray


@dataclass(frozen=True)
class ClusterTables:
    """Intermediate boolean tables of one clustering pass.

    Attributes
    ----------
    adjacency : ndarray of bool, shape (M, N)
        Column i marks sorted positions whose value is within epsilon of
        its predecessor (position 0 is always false).
    membership : ndarray of bool, shape (M, N)
        Time-ordered per-component cluster membership.
    survivors : ndarray of bool, shape (M,)
        Row-wise AND of ``membership``.
    """

    adjacency: np.ndarray
    membership: np.ndarray
    survivors: np.ndarray


@dataclass(frozen=True)
class Cluster:
    """Heading indices attributed to one source, with their velocities."""

    member_indices: np.ndarray
    member_velocities: np.ndarray

    def __len__(self) -> int:
        return len(self.member_indices)


def gap_threshold(alpha: float, n_headings: int) -> float:
    """Sorted-gap threshold epsilon = ``alpha / n_headings``, from two headings on.

    For uncorrelated headings the sorted component magnitudes rise roughly
    linearly, so adjacent gaps are about ``1/n_headings``; values bunch far
    tighter than that only where one source dominates.  The global direction
    step of :mod:`sparsebss.separation` takes its epsilon, and its minimum of
    two accepted headings, from :func:`gap_thresholds`, the same division for
    a stack of records.
    """
    check_alpha(alpha)
    if n_headings < 2:
        raise TooFewHeadingsError(f"need at least 2 headings, got {n_headings}")
    return alpha / n_headings


def gap_thresholds(alpha: float, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gap_threshold` for records of ``count`` headings each: ``(epsilon, enough)``.

    ``epsilon`` is ``alpha / count`` by the same division, and ``enough``
    marks the records of at least two headings.  A record under two gets
    ``alpha / 2``, at most 1/2, instead of an error, and is not to be
    clustered.  ``alpha`` is not checked here: ``MethodParams`` checks it
    once, with :func:`check_alpha`.
    """
    return alpha / np.maximum(count, 2), count >= 2


def check_alpha(alpha: float) -> None:
    """Raise ``ValueError`` unless the gap scale ``alpha`` lies in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


def check_epsilon(epsilon: float) -> None:
    """Raise ``ValueError`` unless the gap threshold ``epsilon`` is positive."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


def sort_component(magnitudes: np.ndarray, component: int) -> SortedComponent:
    """Sort one column of the (M, N) heading-magnitude matrix ascending.

    Ties are broken by ascending heading index (one stable sort), which
    keeps the result deterministic.  A matrix that is not 2-D, or a
    component outside ``0 .. N-1``, raises ``DimensionMismatchError``, one
    of fewer than two rows ``TooFewHeadingsError``.
    """
    if np.ndim(magnitudes) != 2:
        raise DimensionMismatchError(f"expected (M, N) magnitudes, got shape {np.shape(magnitudes)}")
    if not 0 <= component < magnitudes.shape[1]:
        raise DimensionMismatchError(
            f"component {component} is out of range for {magnitudes.shape[1]} components"
        )
    if magnitudes.shape[0] < 2:
        raise TooFewHeadingsError("need at least 2 headings to sort")
    column = magnitudes[:, component]
    order = np.argsort(column, kind="stable")
    return SortedComponent(values=column[order], index_map=order)


def build_adjacency(sorted_component: SortedComponent, epsilon: float) -> np.ndarray:
    """Boolean column marking sorted positions within epsilon of their predecessor."""
    check_epsilon(epsilon)
    values = sorted_component.values
    column = np.zeros(len(values), dtype=bool)
    column[1:] = np.diff(values) < epsilon
    return column


def find_largest_run(adjacency: np.ndarray) -> tuple[int, int, int]:
    """Locate the longest contiguous run of true entries over all columns.

    Returns ``(component, lo, hi)`` with the run spanning sorted positions
    ``lo..hi`` inclusive.  Ties go to the lowest component index, then the
    lowest start position.

    Raises
    ------
    DimensionMismatchError
        If the table is not 2-D.
    NoRunFoundError
        If the table contains no true entry.
    """
    if np.ndim(adjacency) != 2:
        raise DimensionMismatchError(f"expected an (M, N) table, got shape {np.shape(adjacency)}")
    component, lo, length = longest_runs(np.asarray(adjacency, dtype=bool)[None])
    if length[0] == 0:
        raise NoRunFoundError("adjacency table contains no true entries")
    return int(component[0]), int(lo[0]), int(lo[0] + length[0] - 1)


def longest_runs(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`find_largest_run` for a (..., M, N) stack of tables at once.

    Returns ``(component, lo, length)`` arrays over the leading axes; a
    table without a true entry gets ``(0, 0, 0)``.  Every column of every
    table is laid end to end with one false entry after it, so no run
    crosses a column, and each run's length is written at its start in a
    dense (tables, N * (M + 1)) table.  ``argmax`` takes the first maximum
    of each row: the longest run in the lowest component, and among those
    the one with the lowest start.
    """
    *lead, m, n = adjacency.shape
    columns = np.zeros((*lead, n, m + 1), dtype=bool)
    columns[..., :m] = np.swapaxes(adjacency, -1, -2)
    edges = np.flatnonzero(np.diff(columns.reshape(-1), prepend=False))
    lengths = np.zeros(columns.size, dtype=np.intp)
    lengths[edges[::2]] = edges[1::2] - edges[::2]
    lengths = lengths.reshape(-1, n * (m + 1))
    best = np.argmax(lengths, axis=1)
    length = lengths[np.arange(len(lengths)), best]
    component, lo = np.divmod(best, m + 1)
    return component.reshape(lead), lo.reshape(lead), length.reshape(lead)


def expand_and_remap(
    run: tuple[int, int, int], sorted_components: list[SortedComponent]
) -> np.ndarray:
    """Heading indices of the run, including its left anchor.

    Position ``lo`` marks the difference ``values[lo] - values[lo - 1]``,
    so the value at ``lo - 1`` belongs to the same bunch and is included
    before mapping sorted positions back to heading indices.  A run whose
    component has no sorted component, or whose positions ``lo .. hi`` do
    not lie in order within it, raises ``DimensionMismatchError``.
    """
    component, lo, hi = run
    if not 0 <= component < len(sorted_components):
        raise DimensionMismatchError(
            f"run component {component} is out of range for {len(sorted_components)} components"
        )
    index_map = sorted_components[component].index_map
    if not 0 <= lo <= hi < len(index_map):
        raise DimensionMismatchError(
            f"run {lo}..{hi} does not lie within the {len(index_map)} sorted positions"
            f" of component {component}"
        )
    positions = np.arange(max(lo - 1, 0), hi + 1)
    return np.sort(index_map[positions])


def cross_check_components(
    seed_indices: np.ndarray,
    seed_component: int,
    adjacency: np.ndarray,
    sorted_components: list[SortedComponent],
) -> ClusterTables:
    """Fill the time-ordered membership table from one component's seed.

    For every other component, a seed heading belongs to that component's
    clustering when its sorted position sits inside an epsilon run: either
    the position itself is marked, or the position immediately after it is
    (the heading is then the run's left anchor).  Each component's marks are
    scattered from sorted to time order and masked by the seed, one
    contiguous channel row of the (N, M) table at a time.
    """
    n_rows, n_cols = adjacency.shape
    seed = np.zeros(n_rows, dtype=bool)
    seed[seed_indices] = True
    rows = np.empty((n_cols, n_rows), dtype=bool)
    for component, row in enumerate(rows):
        if component == seed_component:
            row[:] = seed
            continue
        in_run = adjacency[:, component].copy()
        in_run[:-1] |= adjacency[1:, component]
        row[sorted_components[component].index_map] = in_run
        row &= seed
    survivors = np.logical_and.reduce(rows, axis=0)
    return ClusterTables(adjacency=adjacency, membership=rows.T, survivors=survivors)


def extract_cluster(tables: ClusterTables, velocities: np.ndarray) -> Cluster:
    """Headings surviving the AND across components, with their velocities."""
    if len(tables.survivors) != len(velocities):
        raise DimensionMismatchError(
            f"{len(tables.survivors)} table rows vs {len(velocities)} velocities"
        )
    members = np.flatnonzero(tables.survivors)
    if members.size == 0:
        raise EmptyClusterError("no heading survived the component-wise AND")
    return Cluster(member_indices=members, member_velocities=velocities[members])


def cluster_tables(
    magnitudes: np.ndarray, count: np.ndarray, epsilon: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The cluster rule for Q records at once: membership and adjacency tables.

    ``magnitudes`` are (N, K) channel rows of heading component magnitudes,
    listed record by record, ``count[r]`` of them for record r; ``epsilon[r]``
    is record r's gap threshold, at most 1 if the record leaves slots empty.
    Each heading fills its slot, its position within its record, in
    (N, Q, width) tables as wide as the largest record: the magnitudes
    themselves when every record fills its row (always at Q = 1), else a
    table whose empty slot j reads 2 + j, a whole unit from any other.
    Returns, as such tables, each component's time-ordered membership masked
    by its record's seed (:func:`cross_check_components`) and the adjacency
    of its sorted magnitudes (:func:`build_adjacency`).  The step helpers
    are the reference, one record and one component at a time.

    When a row holds more than :data:`~sparsebss.signals.BLOCK` headings, the
    component rows are argsorted in contiguous groups that run at once
    (:func:`~sparsebss.signals.in_workers`); a row's order is the same wherever
    it is sorted.  numpy's default ``argsort`` orders tied magnitudes
    arbitrarily, and the tables do not depend on it: ties have the same sorted
    values, share their in-run flags (their gap, 0, is below epsilon), and no
    maximal run lo - 1 .. hi splits them, since a tie across lo - 2 and lo - 1
    would mark lo - 1, and one across hi and hi + 1 would mark hi + 1.

    If, in every record, every component's magnitudes span less than epsilon
    (strict, as the adjacency test), nothing is sorted and the tables are
    read-only views: no sorted gap exceeds the span, so the longest run,
    positions 1 .. count-1 of component 0, takes in every heading of a
    record of two or more.  This is so at a deflation's last iteration, and
    in a stack with no heading at all: an empty stack gives (N, 0, 0) tables,
    and one whose every record holds under two headings tables of no member.
    """
    n, listed = magnitudes.shape
    q, width = count.size, int(count.max(initial=0))
    position = np.arange(width)
    start = np.cumsum(count) - count
    edges = start[count > 0]
    spread = np.maximum.reduceat(magnitudes, edges, 1) - np.minimum.reduceat(magnitudes, edges, 1)
    if np.all(spread < epsilon[count > 0]):
        member = position < np.where(count < 2, 0, count)[:, None]
        adjacency = member & (position > 0)
        return np.broadcast_to(member, (n, q, width)), np.broadcast_to(adjacency, (n, q, width))
    if listed == q * width:
        table = magnitudes.reshape(n, q, width)
    else:
        table = np.empty((n, q, width))
        table[...] = 2.0 + position
        # Listed heading k of record r sits in slot k - start[r] of row r.
        slot = np.arange(listed) + np.repeat(np.arange(q) * width - start, count)
        np.put(table, slot + (np.arange(n) * (q * width))[:, None], magnitudes)
    del magnitudes
    # Sorted positions, as flat indices into the (N, Q, width) tables.
    if width > BLOCK:
        order = np.empty(table.shape, dtype=np.intp)
        rows = partial(_argsort_rows, table.reshape(-1, width), order.reshape(-1, width))
        in_workers(rows, worker_groups(range(n * q), 1))
    else:
        order = np.argsort(table, axis=-1)
    order += (np.arange(n * q) * width).reshape(n, q, 1)
    values = np.take(table, order)
    del table
    adjacency = np.zeros(values.shape, dtype=bool)
    for c in range(n):  # one channel's gaps at a time
        np.less(values[c, :, 1:] - values[c, :, :-1], epsilon[:, None], out=adjacency[c, :, 1:])
    del values

    # A heading is in a component's clustering when its sorted position or
    # the next one is marked.  In the seed's component it is in the seed:
    # sorted positions lo - 1 .. hi, since lo marks the gap after lo - 1
    # (:func:`expand_and_remap`).  No run, no seed.
    component, lo, run_length = longest_runs(adjacency.transpose(1, 2, 0))
    in_run = adjacency.copy()
    in_run[..., :-1] |= adjacency[..., 1:]
    seed = (position >= lo[:, None] - 1) & (position < (lo + run_length)[:, None])
    in_run[component, np.arange(q)] = seed
    membership = np.empty_like(in_run)
    membership.reshape(-1)[order] = in_run
    membership &= membership[component, np.arange(q)]
    return membership, adjacency


def _argsort_rows(table: np.ndarray, order: np.ndarray, slot: int, rows: range) -> None:
    """``order[r] = np.argsort(table[r])`` for each row ``r`` in ``rows`` of two (rows, width) arrays."""
    for r in rows:
        order[r] = np.argsort(table[r])


def find_cluster(velocities, epsilon: float) -> tuple[Cluster, ClusterTables]:
    """Run the whole clustering pass on (M, N) velocity vectors of positive length.

    ``epsilon`` is the sorted-gap threshold, usually :func:`gap_threshold`,
    and must be positive.  Returns the cluster, whose member indices are
    positions into ``velocities``, and transposed views of the tables of
    :func:`cluster_tables`, run on the magnitudes' channel rows as one record.
    The headings are the velocities divided by their lengths, taken by the
    package's one length rule, :func:`~sparsebss.signals.ordered_row_norms`
    on a contiguous copy of the channel rows: the magnitudes, and so the
    cluster, do not depend on the layout of ``velocities``.
    A NaN or infinite entry raises ``NonFiniteError``, a zero or overflowing
    length ``SparseBssError``, no sorted gap below epsilon
    ``NoRunFoundError``, and no heading left by the AND ``EmptyClusterError``.
    """
    v = np.atleast_2d(as_real_finite(velocities, "velocities"))
    if v.shape[0] < 2:
        raise TooFewHeadingsError(f"need at least 2 headings, got {v.shape[0]}")
    rows = np.ascontiguousarray(v.T)
    with np.errstate(over="ignore"):
        speeds = ordered_row_norms(rows)
    if np.any(speeds == 0.0):
        raise SparseBssError("zero-velocity rows must be filtered out before clustering")
    check_speeds(speeds)
    check_epsilon(epsilon)
    membership, adjacency = cluster_tables(
        np.abs(rows / speeds), np.array([len(v)]), np.array([epsilon])
    )
    if not adjacency.any():
        raise NoRunFoundError("adjacency table contains no true entries")
    # Transposed views: column i of each (M, N) table is channel row i.
    membership = membership[:, 0]
    tables = ClusterTables(adjacency[:, 0].T, membership.T, membership.all(axis=0))
    return extract_cluster(tables, v), tables
