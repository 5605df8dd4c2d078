"""Heading clustering by component-wise sorting and gap thresholding.

One dominant source traces a fixed line in phase space, so the headings it
produces share component magnitudes.  Sorting each component magnitude
ascending turns that agreement into flat segments; marking adjacent sorted
values closer than a gap threshold, remapping the longest marked run back
to time order, and AND-ing the per-component membership isolates the
heading indices belonging to a single source.

All indices here are 0-based positions into the heading list handed to the
caller-facing :func:`find_cluster`.  The tables are indexed (M, N), heading
by component, but :func:`find_cluster` stores magnitudes, adjacency and
membership as (N, M) channel rows and passes their transposed views, so
each component that is sorted, scanned or scattered is one contiguous row.
It takes the heading lengths on the same rows, with
:func:`~sparsebss.signals.row_norms`, so the velocities are never copied
into (M, N) rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyClusterError,
    NoRunFoundError,
    SparseBssError,
    TooFewHeadingsError,
)
from .signals import as_real_finite, row_norms


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
    two accepted headings, from here for one record; its stacked form applies
    the same ``alpha / n_headings`` and minimum to each record inline.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if n_headings < 2:
        raise TooFewHeadingsError(f"need at least 2 headings, got {n_headings}")
    return alpha / n_headings


def sort_component(magnitudes: np.ndarray, component: int) -> SortedComponent:
    """Sort one column of the (M, N) heading-magnitude matrix ascending.

    Ties are broken by ascending heading index (stable sort), which keeps
    the result deterministic.  numpy's default sort runs first: when its
    sorted values rise strictly, no two values tie and its order is the
    only ascending one, hence the stable one.  Otherwise (a tie, or a NaN)
    the column is sorted again with ``kind="stable"``.
    """
    if magnitudes.shape[0] < 2:
        raise TooFewHeadingsError("need at least 2 headings to sort")
    column = magnitudes[:, component]
    order = np.argsort(column)
    values = column[order]
    if not np.all(values[1:] > values[:-1]):
        order = np.argsort(column, kind="stable")
        values = column[order]
    return SortedComponent(values=values, index_map=order)


def build_adjacency(sorted_component: SortedComponent, epsilon: float) -> np.ndarray:
    """Boolean column marking sorted positions within epsilon of their predecessor."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
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
    NoRunFoundError
        If the table contains no true entry.
    """
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
    before mapping sorted positions back to heading indices.
    """
    component, lo, hi = run
    positions = np.arange(max(lo - 1, 0), hi + 1)
    return np.sort(sorted_components[component].index_map[positions])


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


def find_cluster(velocities, epsilon: float) -> tuple[Cluster, ClusterTables]:
    """Run the whole clustering pass on a list of nonzero velocity vectors.

    Parameters
    ----------
    velocities : array_like, shape (M, N)
        Velocity vectors of the headings entering the sort; all rows must
        have positive length.  A NaN or infinite entry raises
        ``NonFiniteError``, and a length that overflows float64
        ``SparseBssError``.
    epsilon : float
        Sorted-gap threshold, usually :func:`gap_threshold`.

    Returns
    -------
    (Cluster, ClusterTables)
        Member indices are positions into ``velocities``.
    """
    v = np.atleast_2d(as_real_finite(velocities, "velocities"))
    if v.shape[0] < 2:
        raise TooFewHeadingsError(f"need at least 2 headings, got {v.shape[0]}")
    rows = np.ascontiguousarray(v.T)
    with np.errstate(over="ignore"):
        speeds = row_norms(rows)
    if np.any(speeds == 0.0):
        raise ValueError("zero-velocity rows must be filtered out before clustering")
    if np.any(speeds == np.inf):
        i = int(np.argmax(speeds))
        raise SparseBssError(f"the length of velocity {i} overflows float64; rescale the record")
    magnitudes = np.divide(rows, speeds)
    np.abs(magnitudes, out=magnitudes)
    # Transposed views: column i of each (M, N) table is channel row i.
    sorted_components = [sort_component(magnitudes.T, i) for i in range(len(rows))]
    adjacency = np.stack([build_adjacency(sc, epsilon) for sc in sorted_components]).T
    run = find_largest_run(adjacency)
    seed = expand_and_remap(run, sorted_components)
    tables = cross_check_components(seed, run[0], adjacency, sorted_components)
    return extract_cluster(tables, v), tables
