"""Deflationary source extraction from whitened mixtures.

Each iteration estimates one source direction in phase space (from a
heading cluster, or from the single minimum-change heading), projects the
current data onto it to obtain the source estimate, and subtracts that
rank-one contribution before the next iteration.  The input is validated
and whitened once.  Each iteration re-derives the velocities, their speeds
and the acceptance mask from the deflated data, against that data's own
maximum velocity; unit headings are formed only where a method reads them
(the global method clusters the accepted velocities, MHC divides only at
consecutive accepted pairs), and the deflation updates the whitened
components in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clustering import Cluster, find_cluster, gap_threshold
from .errors import (
    ClusterFormationFailedError,
    DegenerateClusterError,
    DimensionMismatchError,
    NoConsecutivePairError,
    SparseBssError,
    TooFewHeadingsError,
)
from .headings import HeadingSet, _speeds, _threshold
from .whitening import gram_schmidt_whiten

#: Averaged cluster directions shorter than this are considered cancelled.
DEGENERATE_TOLERANCE = 1e-12


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
        if self.method not in ("global", "mhc"):
            raise ValueError(f"method must be 'global' or 'mhc', got {self.method!r}")
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
    that stand further above the noise.

    Raises
    ------
    DegenerateClusterError
        If the weighted members cancel to (near) zero length.
    """
    members = np.atleast_2d(np.asarray(cluster.member_velocities, dtype=float))
    unit, length, moving = average_directions(members[None])
    if not moving[0]:
        raise DegenerateClusterError("all cluster members have zero velocity")
    if length[0] < DEGENERATE_TOLERANCE:
        raise DegenerateClusterError("cluster members cancel; no average direction")
    return EstimatedDirection(unit_vector=unit[0], support_size=len(members))


def average_directions(members: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`weighted_average_heading` for a (B, k, N) stack of k-member clusters.

    Returns ``(unit, length, moving)``: the unit directions (B, N), the
    lengths of the averages before scaling, and whether any member moves.
    Each product is a batched ``matmul`` whose items have the one-cluster
    shapes, so every cluster averages exactly as it would alone.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
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
    return _mhc_direction(heading_set.velocities, heading_set.speeds, heading_set.accepted)


def mhc_pick(
    velocities: np.ndarray, speeds: np.ndarray, accepted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`mhc_find_direction`'s winning index for each of Q records.

    ``velocities`` is (Q, M, N), ``speeds`` and ``accepted`` (Q, M).  The
    headings ``v / |v|`` are formed and compared only at consecutive
    accepted pairs, whose speeds are positive.  Returns the winning heading
    index of each record and whether it has any such pair.
    """
    run, n = np.nonzero(accepted[:, 1:] & accepted[:, :-1])
    n += 1
    here = velocities[run, n] / speeds[run, n][:, None]
    before = velocities[run, n - 1] / speeds[run, n - 1][:, None]
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
) -> tuple[EstimatedDirection, np.ndarray, float]:
    """Cluster the accepted velocities and average them into a direction."""
    accepted_idx = np.flatnonzero(accepted)
    if accepted_idx.size < 2:
        raise ClusterFormationFailedError(
            iteration,
            TooFewHeadingsError(f"only {accepted_idx.size} accepted headings"),
        )
    epsilon = gap_threshold(alpha, accepted_idx.size)
    try:
        cluster, _ = find_cluster(velocities[accepted_idx], epsilon)
        direction = weighted_average_heading(cluster)
    except SparseBssError as cause:
        raise ClusterFormationFailedError(iteration, cause) from cause
    return direction, accepted_idx[cluster.member_indices], epsilon


def _mhc_direction(
    velocities: np.ndarray,
    speeds: np.ndarray,
    accepted: np.ndarray,
    iteration: int | None = None,
) -> EstimatedDirection:
    """:func:`mhc_find_direction` on one record's velocities and speeds."""
    best, found = mhc_pick(velocities[None], speeds[None], accepted[None])
    if not found[0]:
        where = "" if iteration is None else f" at iteration {iteration}"
        raise NoConsecutivePairError(
            f"no consecutive pair of accepted headings{where}", iteration=iteration
        )
    return EstimatedDirection(
        unit_vector=velocities[best[0]] / speeds[best[0]], support_size=1
    )


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
    data = whitened.components
    estimates = []
    directions: list[EstimatedDirection] = []
    iterations: list[IterationDiagnostics] = []
    for iteration in range(data.shape[0]):
        v = np.diff(data, axis=1).T
        speeds = _speeds(v)
        accepted, _ = _threshold(v, speeds, params.v_th)
        if params.method == "global":
            direction, member_indices, epsilon = _global_direction(
                v, accepted, params.alpha, iteration
            )
        else:
            direction = _mhc_direction(v, speeds, accepted, iteration)
            member_indices = np.array([], dtype=int)
            epsilon = None
        source = project_source(data, direction)
        data -= direction.unit_vector[:, None] * source
        estimates.append(source)
        directions.append(direction)
        iterations.append(
            IterationDiagnostics(
                accepted_count=int(accepted.sum()),
                cluster_size=direction.support_size,
                epsilon=epsilon,
                member_indices=member_indices,
                residual_energy=float(np.sum(np.square(data))),
            )
        )
    return SeparationResult(
        estimates=np.array(estimates),
        directions=directions,
        iterations=iterations,
        transform=whitened.transform,
    )
