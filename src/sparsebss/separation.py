"""Deflationary source extraction from whitened mixtures.

Each iteration estimates one source direction in phase space (from a
heading cluster, or from the single minimum-change heading), projects the
current data onto it to obtain the source estimate, and subtracts that
rank-one contribution.  Velocities, speeds and the acceptance mask are
re-derived from the deflated data each time, against its own maximum
velocity; unit headings are formed only where a method reads them.

The loop is written once, in :func:`deflation_steps`, for a stack of
whitened records deflated in place: :func:`separate` runs it on one record
and reports diagnostics or a typed error, and the Monte Carlo engine
(:func:`sparsebss.evaluation.run_chunk`) runs it on a chunk of noisy
records.  Each iteration projects straight into the caller's (Q, N, L)
estimates, so the loop holds no record-sized array besides the data and the
estimates.  No velocity buffer is kept either: the velocity-and-threshold
pass forms the velocities one block of :data:`~sparsebss.signals.BLOCK`
samples at a time and keeps only their speeds and the mask, and each
direction step forms again, from the samples on either side, only the
velocities it reads, as (N, K) channel rows.  Every heading length is taken
on those rows with :func:`~sparsebss.signals.row_norms`, which keeps the
bits of ``np.linalg.norm`` on (..., K, N) velocity rows without making
them.  The other full passes also run a block at a time, with no temporary
larger than a block per record: the deflation in place, and the residual
energy through :func:`~sparsebss.signals.sum_of_products`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import Cluster, find_cluster, gap_threshold, longest_runs
from .errors import (
    ClusterFormationFailedError,
    DegenerateClusterError,
    DimensionMismatchError,
    NoConsecutivePairError,
    SparseBssError,
)
from .headings import HeadingSet, _accept
from .signals import BLOCK, as_real_finite, row_norms, sum_of_products
from .whitening import gram_schmidt_whiten


#: The extraction methods, each a direction step of :func:`deflation_steps`.
METHODS = ("global", "mhc")


@dataclass(frozen=True)
class MethodParams:
    """Extraction method and its two tuning knobs.

    ``v_th`` (0 < v_th < 1) sets the velocity acceptance threshold;
    ``alpha`` (0 < alpha <= 1) scales the sorted-gap threshold used by the
    global method.
    """

    method: str = "global"
    v_th: float = 0.4
    alpha: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 < self.v_th < 1.0:
            raise ValueError(f"v_th must lie in (0, 1), got {self.v_th}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class EstimatedDirection:
    """A unit direction in whitened phase space and its evidence count."""

    unit_vector: np.ndarray
    support_size: int


@dataclass(frozen=True)
class IterationDiagnostics:
    """Bookkeeping for one deflation iteration."""

    accepted_count: int
    cluster_size: int
    epsilon: float | None
    member_indices: np.ndarray
    residual_energy: float


@dataclass(frozen=True)
class SeparationResult:
    """All extracted sources, in extraction order.

    ``estimates`` has one row per extracted source; ``directions`` holds
    the corresponding unit vectors in whitened space; ``transform`` is the
    whitening matrix applied to the input mixtures.
    """

    estimates: np.ndarray
    directions: list[EstimatedDirection]
    iterations: list[IterationDiagnostics] = field(repr=False)
    transform: np.ndarray | None = None


def weighted_average_heading(cluster: Cluster) -> EstimatedDirection:
    """Average a cluster's velocities, weighting magnitudes, into a unit direction.

    Member signs are first reconciled against the largest-magnitude member
    (the sorting step discards sign, so one source traversed in both
    directions contributes antiparallel velocities).  The average weights
    each member by its Euclidean length, putting more trust in velocities
    that stand further above the noise.  After that reconciliation the
    members cannot cancel: see :func:`average_directions`.

    Raises
    ------
    NonFiniteError
        If a member velocity has a NaN or infinite entry.
    DegenerateClusterError
        If every member has zero velocity.
    SparseBssError
        If the members' squared lengths overflow float64.
    """
    members = np.atleast_2d(as_real_finite(cluster.member_velocities, "velocities"))
    unit, length, moving = average_directions(members[None])
    if not moving[0]:
        raise DegenerateClusterError("all cluster members have zero velocity")
    if not 0.0 < length[0] < np.inf:
        raise SparseBssError("cluster velocities' squares overflow float64; rescale the record")
    return EstimatedDirection(unit_vector=unit[0], support_size=len(members))


def average_directions(
    members: np.ndarray, size: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`weighted_average_heading` for a (B, K, N) stack of clusters.

    Cluster ``b`` holds ``size[b]`` members (all K if ``size`` is None),
    followed by zero rows; ``size`` must not decrease.  Returns ``(unit,
    length, moving)``: the unit directions (B, N), the lengths of the
    averages before scaling, and whether any member moves.  Every aligned
    member has a nonnegative projection on the strongest one, which itself
    contributes m_max**2 / sum(m**2) >= 1/k to the average's projection on
    its direction, so a moving cluster's length is at least 1/k.

    Each cluster averages exactly as it would alone.  Only three steps
    depend on the member count k: the sign test against the strongest
    member and the weighted sum, which are ``matmul`` products, and the sum
    of squared magnitudes, which numpy adds pairwise over k.  They run once
    per size, on the basic slice ``[lo:hi, :k]`` of the clusters of that
    size, written straight into their outputs: a stacked ``matmul`` hands
    each (k, N) item of that slice to BLAS as it would a lone cluster.  The
    rest runs once on the padded stack, where the zero rows come after the
    members and change nothing: the magnitudes, the strongest member (the
    first maximum), whether any moves, the signs, the length and the
    division.  A member against the strongest one enters the weighted sum
    with its magnitude negated rather than its velocity, which gives the
    same products.  Members whose squares overflow leave a length that is
    NaN or zero, without a warning.
    """
    count, width, n = members.shape
    groups = [(width, 0, count)]
    if size is not None:
        edges = (np.flatnonzero(np.diff(size)) + 1).tolist()
        groups = list(zip(size[[0, *edges]].tolist(), [0, *edges], [*edges, count]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        magnitudes = row_norms(members.swapaxes(-1, -2))
        moving = np.any(magnitudes > 0.0, axis=-1)
        strongest = np.arange(count) * width + np.argmax(magnitudes, axis=-1)
        reference = members.reshape(-1, n)[strongest, :, None]
        squares = np.square(magnitudes)
        dots = np.zeros((count, width, 1))
        weights = np.empty((count, 1))
        for k, lo, hi in groups:
            np.matmul(members[lo:hi, :k], reference[lo:hi], out=dots[lo:hi, :k])
            np.add.reduce(squares[lo:hi, :k], axis=-1, out=weights[lo:hi, 0])
        weighted = np.where(dots[..., 0] < 0.0, -magnitudes, magnitudes)[:, None, :]
        average = np.empty((count, 1, n))
        for k, lo, hi in groups:
            np.matmul(weighted[lo:hi, :, :k], members[lo:hi, :k], out=average[lo:hi])
        average = average[:, 0]
        average /= weights
        length = np.sqrt((average[:, None, :] @ average[:, :, None])[:, 0, 0])
        return average / length[:, None], length, moving


def mhc_find_direction(heading_set: HeadingSet) -> EstimatedDirection:
    """Pick the heading where consecutive accepted headings change least.

    The change between headings ``n-1`` and ``n`` is measured up to sign,
    ``min(|r[n] - r[n-1]|, |r[n] + r[n-1]|)``, since a source line may be
    traversed in alternating directions.  The most recent heading of the
    winning pair is returned; ties go to the smallest index.  Headings are
    formed from the set's velocities and speeds.

    Raises
    ------
    NoConsecutivePairError
        If no two consecutive headings are both accepted.
    """
    v, speeds = heading_set.velocities, heading_set.speeds
    best, found = mhc_pick(
        lambda _, later: (v[later].T, v[later - 1].T), speeds[None], heading_set.accepted[None]
    )
    if not found[0]:
        raise NoConsecutivePairError("no consecutive pair of accepted headings")
    return EstimatedDirection(unit_vector=v[best[0]] / speeds[best[0]], support_size=1)


def mhc_pick(
    pair_velocities, speeds: np.ndarray, accepted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mhc_find_direction`'s winning index for each of Q records.

    ``speeds`` and ``accepted`` are (Q, M).  The headings ``v / |v|`` are
    formed and compared only at consecutive accepted pairs, whose speeds are
    positive.  ``pair_velocities(records, later)`` returns the velocities of
    each pair as two (N, pairs) channel rows: record ``records[p]``'s at
    ``later[p]`` and at ``later[p] - 1``.  The lengths of the headings'
    differences and sums are taken by :func:`~sparsebss.signals.row_norms`,
    with the bits ``np.linalg.norm`` gives (pairs, N) rows.  Each change is
    written at the pair's later index in a (Q, M) table of +inf.  Returns
    the first ``argmin`` of each record, its smallest change at the lowest
    index, and whether that change is finite (index 0 if it is not).
    """
    q, m = accepted.shape
    pair = np.zeros((q, m), dtype=bool)
    np.logical_and(accepted[:, 1:], accepted[:, :-1], out=pair[:, 1:])
    later = np.flatnonzero(pair)
    here, before = pair_velocities(*np.divmod(later, m))
    here = here / np.take(speeds, later)
    before = before / np.take(speeds, later - 1)
    change = np.full((q, m), np.inf)
    np.put(change, later, np.minimum(row_norms(here - before), row_norms(here + before)))
    best = np.argmin(change, axis=1)
    return best, change[np.arange(len(best)), best] < np.inf


def project_source(data, direction: EstimatedDirection) -> np.ndarray:
    """Dot the direction with every sample vector: the source estimate row."""
    e = np.asarray(data, dtype=float)
    r = direction.unit_vector
    if e.shape[0] != r.shape[0]:
        raise DimensionMismatchError(
            f"direction has {r.shape[0]} components, data has {e.shape[0]} channels"
        )
    return r @ e


def deflate(data, direction: EstimatedDirection, source_row) -> np.ndarray:
    """Remove a source's rank-one contribution along its direction."""
    e = np.asarray(data, dtype=float)
    s = np.asarray(source_row, dtype=float)
    r = direction.unit_vector
    if e.shape[0] != r.shape[0] or e.shape[1] != s.shape[0]:
        raise DimensionMismatchError(
            f"cannot deflate shape {e.shape} with direction {r.shape} and source {s.shape}"
        )
    return e - np.outer(r, s)


def _global_direction(
    data: np.ndarray, accepted: np.ndarray, alpha: float, iteration: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, float] | ClusterFormationFailedError]:
    """The global direction step for a (1, N, L) record, via :func:`find_cluster`.

    Only the accepted velocities are formed, from the samples on either side
    of each, as contiguous (N, K) channel rows handed over as their (K, N)
    view.  Returns the (1, N) unit direction (zero on failure), whether it
    was found, and the cluster's ``(member indices, epsilon)`` or the error.
    """
    accepted_idx = np.flatnonzero(accepted[0])
    try:
        epsilon = gap_threshold(alpha, accepted_idx.size)
        rows = np.take(data[0], accepted_idx + 1, axis=1)
        rows -= np.take(data[0], accepted_idx, axis=1)
        cluster, _ = find_cluster(rows.T, epsilon)
        direction = weighted_average_heading(cluster)
    except SparseBssError as cause:
        failed = ClusterFormationFailedError(iteration, cause)
        return np.zeros((1, data.shape[1])), np.zeros(1, dtype=bool), failed
    members = accepted_idx[cluster.member_indices]
    return direction.unit_vector[None], np.ones(1, dtype=bool), (members, epsilon)


def _global_directions(
    data: np.ndarray, accepted: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The global method's direction step for a (Q, N, L) record stack.

    The stacked form of :func:`_global_direction`, with :func:`gap_threshold`'s
    epsilon and minimum applied per record.  ``np.flatnonzero`` lists the
    accepted velocities record by record, in index order, and each is
    formed from the samples on either side of it by flat ``np.take``, into
    one (N, K) channel rows array for all records.  :func:`_clustered_slots`
    marks each record's cluster among them.

    Every found record's cluster is averaged in one :func:`average_directions`
    call.  The records are ordered by cluster size, and the members, record
    by record, fill the leading rows of each record's zero-padded block, so
    the three steps whose shape depends on the size run once per size, on a
    basic slice, and keep each record's one-cluster bits.  Returns the unit
    directions and which records formed a cluster.
    """
    q, n, length = data.shape
    directions = np.zeros((q, n))
    record, index = np.divmod(np.flatnonzero(accepted), length - 1)
    count = np.bincount(record, minlength=q)
    found = count >= 2
    if not found.any():
        return directions, found
    velocities = _velocity_rows(data, record, index)
    member = _clustered_slots(velocities, record, count, alpha)
    size = member.sum(axis=-1)
    found &= size > 0
    runs = np.flatnonzero(found)
    if runs.size == 0:
        return directions, found
    runs = runs[np.argsort(size[runs], kind="stable")]
    size = size[runs]
    # Slot j of record r holds velocity column (cumsum(count) - count)[r] + j.
    slots = (np.cumsum(count) - count)[runs, None] + np.arange(member.shape[1])
    members = np.zeros((runs.size, size[-1], n))
    rows = np.flatnonzero(np.arange(size[-1]) < size[:, None])
    members.reshape(-1, n)[rows] = np.take(velocities, slots[member[runs]], axis=1).T
    directions[runs], _, found[runs] = average_directions(members, size)
    return directions, found


def _sample_index(data: np.ndarray, record: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Flat indices of samples ``index`` of records ``record`` of a (Q, N, L) stack, as (N, K) rows.

    Sample j of channel i of record r sits at ``(r * N + i) * L + j``.
    """
    _, n, length = data.shape
    return (record * (n * length) + index) + (np.arange(n) * length)[:, None]


def _velocity_rows(data: np.ndarray, record: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Velocities ``index`` of records ``record`` of a (Q, N, L) stack, as (N, K) channel rows.

    Velocity j is sample j + 1 minus sample j; j is at most L - 2.
    """
    take = _sample_index(data, record, index)
    flat = data.reshape(-1)
    rows = np.take(flat, take + 1)
    rows -= np.take(flat, take)
    return rows


def _clustered_slots(
    velocities: np.ndarray, record: np.ndarray, count: np.ndarray, alpha: float
) -> np.ndarray:
    """Which of each record's ``count`` listed velocities form its global cluster.

    ``velocities`` are (N, K) channel rows listed record by record
    (``record``).  Each heading's magnitudes fill its slot, its position
    within its record, in an (N, Q, width) table as wide as the record with
    the most; empty slot ``j`` reads magnitude ``2 + j``, a whole unit from
    any other, so no gap reaches it.  The table is sorted and scanned as
    contiguous channel rows, as in :func:`find_cluster`, and its channels
    lead so that their membership is ANDed across whole blocks.  Returns a
    (Q, width) mask of the slots in each record's cluster.

    The sort is numpy's default ``argsort``, whose order among tied
    magnitudes is arbitrary; the mask does not depend on it.  Any tie order
    gives the same sorted values, hence the same adjacency.  Tied values
    are adjacent, their gap 0 below epsilon, so they share their in-run
    flags.  A maximal run covering sorted positions lo - 1 .. hi never
    splits a tie group either: a tie across lo - 2 and lo - 1 would mark
    lo - 1, and a tie across hi and hi + 1 would mark hi + 1.  So every
    tied heading gets the same flag, whichever slot it sorts into.

    If every record's magnitudes span less than its epsilon in every
    component, no table is built: each record of two headings or more
    clusters all of them, by :func:`find_cluster`'s proof.
    """
    n = velocities.shape[0]
    q, width = count.size, int(count.max())
    position = np.arange(width)
    # Epsilon is alpha / count, at most 1/2: a record under two headings is not found.
    epsilon = alpha / np.maximum(count, 2)
    start = np.cumsum(count) - count
    listed = np.abs(velocities / row_norms(velocities))
    edges = start[count > 0]
    spread = np.maximum.reduceat(listed, edges, axis=1) - np.minimum.reduceat(listed, edges, axis=1)
    if np.all(spread < epsilon[count > 0]):
        return position < np.where(count < 2, 0, count)[:, None]
    magnitudes = np.empty((n, q, width))
    magnitudes[...] = 2.0 + position
    # Listed velocity k sits in slot k - start[record[k]] of its record.
    first = np.arange(q) * width - start
    slot = (np.arange(record.size) + first[record]) + (np.arange(n) * (q * width))[:, None]
    np.put(magnitudes, slot, listed)
    del listed
    # Sorted positions, as flat indices into the (N, Q, width) tables.
    order = np.argsort(magnitudes, axis=-1)
    order += (np.arange(n * q) * width).reshape(n, q, 1)
    values = np.take(magnitudes, order)
    adjacency = np.zeros(values.shape, dtype=bool)
    np.less(values[..., 1:] - values[..., :-1], epsilon[:, None], out=adjacency[..., 1:])

    # A heading is in a component's clustering when its sorted position or
    # the next one is marked (``cross_check_components``).  In the seed's
    # component it is in the seed: sorted positions lo - 1 .. hi, since lo
    # marks the gap after lo - 1 (``expand_and_remap``).  No run, no seed.
    component, lo, run_length = longest_runs(adjacency.transpose(1, 2, 0))
    seed = (position >= lo[:, None] - 1) & (position < (lo + run_length)[:, None])
    in_run = adjacency.copy()
    in_run[..., :-1] |= adjacency[..., 1:]
    in_run[component, np.arange(q)] = seed
    member = np.empty_like(in_run)
    member.reshape(-1)[order] = in_run
    return member.all(axis=0)


def deflation_steps(data: np.ndarray, params: MethodParams, estimates: np.ndarray):
    """The deflation loop over a (Q, N, L) stack of whitened records, in place.

    Iteration ``i`` projects the records onto their directions straight into
    ``estimates[:, i]``, a (Q, N, L) array the caller owns, and yields the
    (Q, N) directions, which records found one (the others get a zero
    direction), the (Q, L-1) acceptance masks, and, for the global method on
    one record, :func:`_global_direction`'s cluster or error (else None).
    One record clusters through :func:`find_cluster`, many through the stacked
    :func:`_global_directions`, with the same bits: the benchmark's span test
    requires one :func:`find_cluster` call per global iteration of :func:`separate`.

    No velocity outlives the pass that reads it.  The velocity-and-threshold
    pass forms them one block of :data:`~sparsebss.signals.BLOCK` samples at
    a time, and each direction step forms again, from the samples on either
    side, only the velocities it reads: the accepted ones, or MHC's
    consecutive accepted pairs, each pair from its three samples by flat
    ``np.take``.  The deflation subtracts in place, over all channels at
    once, ``BLOCK // N`` samples a step.  ``params`` was validated when it
    was built.
    """
    q, n, length = data.shape
    records = np.arange(q)
    step = max(1, BLOCK // n)

    def pair_velocities(record, later):
        take = _sample_index(data, record, later)
        flat = data.reshape(-1)
        now = np.take(flat, take)
        here = np.take(flat, take + 1)
        here -= now
        return here, np.subtract(now, np.take(flat, take - 1), out=now)

    for iteration in range(n):
        speeds, accepted, _ = _accept(data, params.v_th)
        cluster = None
        if params.method == "mhc":
            best, found = mhc_pick(pair_velocities, speeds, accepted)
            speed = np.where(found, speeds[records, best], np.inf)
            del speeds
            directions = (data[records, :, best + 1] - data[records, :, best]) / speed[:, None]
        else:
            # The global steps never read the speeds: free them before they gather.
            del speeds
            if q > 1:
                directions, found = _global_directions(data, accepted, params.alpha)
            else:
                directions, found, cluster = _global_direction(
                    data, accepted, params.alpha, iteration
                )
        row = estimates[:, iteration:iteration + 1]
        np.matmul(directions[:, None, :], data, out=row)
        for lo in range(0, length, step):
            data[..., lo:lo + step] -= directions[..., None] * row[..., lo:lo + step]
        yield directions, found, accepted, cluster


def separate(mixtures, params: MethodParams) -> SeparationResult:
    """Extract as many sources as there are mixture channels.

    The mixtures are validated and whitened once; each iteration then
    re-derives velocities, speeds, and the acceptance mask from the current
    (deflated) data, estimates one direction by the configured method,
    projects out the source, and deflates the whitened components in place.
    The caller's array is never written.

    Raises
    ------
    ClusterFormationFailedError
        Global method: no cluster could be formed at some iteration.
    NoConsecutivePairError
        MHC: no consecutive accepted heading pair at some iteration.
    NonFiniteError, TooShortError, RankDeficientError, ZeroChannelError
        Propagated from whitening.
    """
    whitened = gram_schmidt_whiten(mixtures)
    data = whitened.components[None]
    estimates = np.empty(data.shape)
    directions: list[EstimatedDirection] = []
    iterations: list[IterationDiagnostics] = []
    steps = deflation_steps(data, params, estimates)
    for iteration, (units, found, accepted, cluster) in enumerate(steps):
        if isinstance(cluster, ClusterFormationFailedError):
            raise cluster from cluster.cause
        if not found[0]:
            raise NoConsecutivePairError(
                f"no consecutive pair of accepted headings at iteration {iteration}",
                iteration=iteration,
            )
        members, epsilon = cluster or (np.array([], dtype=int), None)
        support = len(members) if params.method == "global" else 1
        directions.append(EstimatedDirection(unit_vector=units[0], support_size=support))
        iterations.append(
            IterationDiagnostics(
                accepted_count=int(accepted.sum()),
                cluster_size=support,
                epsilon=epsilon,
                member_indices=members,
                residual_energy=float(sum_of_products(data.reshape(-1))),
            )
        )
    return SeparationResult(
        estimates=estimates[0],
        directions=directions,
        iterations=iterations,
        transform=whitened.transform,
    )
