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
records.  Inside the loop velocities are channel-major, a (Q, N, L-1) stack
with one contiguous row per channel, as the data are: speeds, the threshold
and the deflation run over those rows, and the direction steps gather the
(N,) columns they read.
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
    DegenerateClusterError
        If every member has zero velocity.
    SparseBssError
        If the members' squared lengths overflow float64.
    """
    members = np.atleast_2d(np.asarray(cluster.member_velocities, dtype=float))
    unit, length, moving = average_directions(members[None])
    if not moving[0]:
        raise DegenerateClusterError("all cluster members have zero velocity")
    if not 0.0 < length[0] < np.inf:
        raise SparseBssError("cluster velocities' squares overflow float64; rescale the record")
    return EstimatedDirection(unit_vector=unit[0], support_size=len(members))


def average_directions(members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`weighted_average_heading` for a (B, k, N) stack of k-member clusters.

    Returns ``(unit, length, moving)``: the unit directions (B, N), the
    lengths of the averages before scaling, and whether any member moves.
    Every aligned member has a nonnegative projection on the strongest one,
    which itself contributes m_max**2 / sum(m**2) >= 1/k to the average's
    projection on its direction, so a moving cluster's length is at least 1/k.
    Each product is a batched ``matmul`` whose items have the one-cluster
    shapes, so every cluster averages exactly as it would alone.  Members
    whose squares overflow leave a length that is NaN or zero, without a warning.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        magnitudes = np.linalg.norm(members, axis=-1)
        moving = np.any(magnitudes > 0.0, axis=-1)
        strongest = np.argmax(magnitudes, axis=-1)[:, None, None]
        reference = np.take_along_axis(members, strongest, axis=-2)
        flips = np.where((members @ reference.swapaxes(-1, -2))[..., 0] < 0.0, -1.0, 1.0)
        aligned = members * flips[..., None]
        weights = np.sum(np.square(magnitudes), axis=-1)[:, None]
        average = (magnitudes[:, None, :] @ aligned)[:, 0] / weights
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
    best, found = mhc_pick(v.T[None], speeds[None], heading_set.accepted[None])
    if not found[0]:
        raise NoConsecutivePairError("no consecutive pair of accepted headings")
    return EstimatedDirection(unit_vector=v[best[0]] / speeds[best[0]], support_size=1)


def mhc_pick(
    velocities: np.ndarray, speeds: np.ndarray, accepted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mhc_find_direction`'s winning index for each of Q records.

    ``velocities`` is (Q, N, M), channel-major, ``speeds`` and ``accepted``
    (Q, M).  The headings ``v / |v|`` are formed and compared only at
    consecutive accepted pairs, whose speeds are positive.  Returns the
    winning heading index of each record and whether it has any such pair.
    """
    run, n = np.nonzero(accepted[:, 1:] & accepted[:, :-1])
    n += 1
    here = velocities[run, :, n] / speeds[run, n][:, None]
    before = velocities[run, :, n - 1] / speeds[run, n - 1][:, None]
    change = np.minimum(
        np.linalg.norm(here - before, axis=-1), np.linalg.norm(here + before, axis=-1)
    )
    # Within a record the pairs come in index order, and lexsort is stable,
    # so the first entry per record is its smallest change at the lowest index.
    order = np.lexsort((change, run))
    first = order[np.diff(run[order], prepend=-1) != 0]
    best = np.zeros(len(accepted), dtype=int)
    best[run[first]] = n[first]
    found = np.zeros(len(accepted), dtype=bool)
    found[run[first]] = True
    return best, found


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
    velocities: np.ndarray, accepted: np.ndarray, alpha: float, iteration: int
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, float] | ClusterFormationFailedError]:
    """The global direction step for a (1, N, M) velocity stack, via :func:`find_cluster`.

    The accepted velocities are gathered as contiguous (N, K) channel rows
    and handed over as their (K, N) view.  Returns the (1, N) unit direction
    (zero on failure), whether it was found, and the cluster's
    ``(member indices, epsilon)`` or the error.
    """
    accepted_idx = np.flatnonzero(accepted[0])
    try:
        epsilon = gap_threshold(alpha, accepted_idx.size)
        cluster, _ = find_cluster(np.take(velocities[0], accepted_idx, axis=1).T, epsilon)
        direction = weighted_average_heading(cluster)
    except SparseBssError as cause:
        failed = ClusterFormationFailedError(iteration, cause)
        return np.zeros((1, velocities.shape[1])), np.zeros(1, dtype=bool), failed
    members = accepted_idx[cluster.member_indices]
    return direction.unit_vector[None], np.ones(1, dtype=bool), (members, epsilon)


def _global_directions(
    v: np.ndarray, accepted: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The global method's direction step for a (Q, M, N) velocity stack.

    The stacked form of :func:`_global_direction`.  Each record's accepted
    velocities move to the front, in index order, of a width set by the
    record with the most; the empty slots sort as +inf and are never
    adjacent to anything.  Returns the unit directions and which records
    formed a cluster.
    """
    q, _, n = v.shape
    count = accepted.sum(axis=-1)
    width = int(count.max())
    directions = np.zeros((q, n))
    found = count >= 2
    if width < 2:
        return directions, found
    slots = np.argsort(~accepted, axis=-1, kind="stable")[:, :width]
    velocities = np.ascontiguousarray(np.take_along_axis(v, slots[..., None], axis=1))
    speeds = np.linalg.norm(velocities, axis=-1)
    valid = np.arange(width) < count[:, None]
    # Only empty slots may divide by a zero speed or count, and the NaN of
    # inf - inf between two of them marks no gap: none of it reaches a result.
    with np.errstate(divide="ignore", invalid="ignore"):
        magnitudes = np.where(valid[..., None], np.abs(velocities / speeds[..., None]), np.inf)
        order = np.argsort(magnitudes, axis=1, kind="stable")
        values = np.take_along_axis(magnitudes, order, axis=1)
        adjacency = np.zeros(values.shape, dtype=bool)
        adjacency[:, 1:] = np.diff(values, axis=1) < (alpha / count)[:, None, None]

    component, lo, run_length = longest_runs(adjacency)
    found &= run_length > 0
    # The seed spans sorted positions lo - 1 .. hi: lo marks the gap after
    # lo - 1, so that value belongs to the bunch (``expand_and_remap``).
    position = np.arange(width)
    in_seed = (position >= lo[:, None] - 1) & (position < (lo + run_length)[:, None])
    seed = np.zeros((q, width), dtype=bool)
    seed_order = np.take_along_axis(order, component[:, None, None], axis=2)[..., 0]
    np.put_along_axis(seed, seed_order, in_seed, axis=1)

    # A heading is in a component's clustering when its sorted position or
    # the next one is marked (``cross_check_components``).
    in_run = adjacency.copy()
    in_run[:, :-1] |= adjacency[:, 1:]
    member = np.empty_like(in_run)
    np.put_along_axis(member, order, in_run, axis=1)
    member |= np.arange(n) == component[:, None, None]
    survivors = seed & member.all(axis=-1)

    size = survivors.sum(axis=-1)
    found &= size > 0
    # One stacked average per cluster size keeps every item in its one-record shape.
    for k in np.flatnonzero(np.bincount(size[found])):
        runs = np.flatnonzero(found & (size == k))
        members = np.nonzero(survivors[runs])[1].reshape(len(runs), k)
        directions[runs], _, found[runs] = average_directions(velocities[runs[:, None], members])
    return directions, found


def deflation_steps(data: np.ndarray, params: MethodParams):
    """The deflation loop over a (Q, N, L) stack of whitened records, in place.

    Each iteration yields the (Q, L) sources, the (Q, N) directions, which
    records found one (the others get a zero direction), the (Q, L-1)
    acceptance masks, and, for the global method on one record,
    :func:`_global_direction`'s cluster or error (else None).  One long
    record clusters faster through :func:`find_cluster`, many short ones
    through the stacked :func:`_global_directions`; both give the same bits.

    Velocities stay channel-major, (Q, N, L-1) like the data, in one buffer
    reused by every iteration; speeds, the threshold and the deflation work
    one contiguous channel row at a time.  ``params`` was validated when it
    was built.
    """
    q, n, length = data.shape
    records = np.arange(q)
    v = np.empty((q, n, length - 1))
    for iteration in range(n):
        np.subtract(data[..., 1:], data[..., :-1], out=v)
        speeds, accepted, _ = _accept(v, params.v_th)
        cluster = None
        if params.method == "mhc":
            best, found = mhc_pick(v, speeds, accepted)
            speed = np.where(found, speeds[records, best], np.inf)
            directions = v[records, :, best] / speed[:, None]
        elif q > 1:
            directions, found = _global_directions(v.swapaxes(-1, -2), accepted, params.alpha)
        else:
            directions, found, cluster = _global_direction(v, accepted, params.alpha, iteration)
        # Speeds are done with; free them before the caller squares the data.
        del speeds
        sources = (directions[:, None, :] @ data)[:, 0]
        for i in range(n):
            data[:, i] -= directions[:, i, None] * sources
        yield sources, directions, found, accepted, cluster


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
    estimates = []
    directions: list[EstimatedDirection] = []
    iterations: list[IterationDiagnostics] = []
    steps = deflation_steps(data, params)
    for iteration, (sources, units, found, accepted, cluster) in enumerate(steps):
        if isinstance(cluster, ClusterFormationFailedError):
            raise cluster from cluster.cause
        if not found[0]:
            raise NoConsecutivePairError(
                f"no consecutive pair of accepted headings at iteration {iteration}",
                iteration=iteration,
            )
        members, epsilon = cluster or (np.array([], dtype=int), None)
        support = len(members) if params.method == "global" else 1
        estimates.append(sources[0])
        directions.append(EstimatedDirection(unit_vector=units[0], support_size=support))
        iterations.append(
            IterationDiagnostics(
                accepted_count=int(accepted.sum()),
                cluster_size=support,
                epsilon=epsilon,
                member_indices=members,
                residual_energy=float(np.sum(np.square(data))),
            )
        )
    return SeparationResult(
        estimates=np.array(estimates),
        directions=directions,
        iterations=iterations,
        transform=whitened.transform,
    )
