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
records, from which a record leaves as soon as its direction step fails.
Each method's direction step is written once too, for any number of
records: the global method gathers, clusters and averages the accepted
velocities of every record in one :func:`_global_directions` call.
Each iteration projects straight into the caller's (Q, N, L) estimates, so
the loop holds no record-sized array besides the data and the estimates.
No velocity buffer is kept either: the threshold pass,
:func:`~sparsebss.headings.accept_stack`, forms the velocities one block of
:data:`~sparsebss.signals.BLOCK` samples at a time and keeps only their
component maxima and the mask, and each direction step forms again, from
the samples on either side, only the velocities it reads, as (N, K) channel
rows, through :func:`~sparsebss.headings.velocity_rows`.  MHC's step reads
them as unit headings (:func:`~sparsebss.headings.heading_rows`) and
returns the heading it scored, so no velocity is formed twice.  Every
velocity and heading is formed in :mod:`sparsebss.headings`; this module
builds no sample index.  Every array the loop yields has one row per record
still in it.  Every velocity, heading and change length is taken on channel
rows by one rule, :func:`~sparsebss.signals.ordered_row_norms`, a sum of
squares in channel order.  The other full passes also run a block at a
time, with no temporary larger than a block per record: the projection and
the deflation in place, and the residual energy through
:func:`~sparsebss.signals.sum_of_products`.

On a record of many blocks the threshold pass, the projection and
deflation, the residual energy, whitening and the clustering's argsorts
split their blocks (or component rows) over worker threads
(:func:`~sparsebss.signals.in_workers`), and keep their bits: each block
is computed alone.  The projection is one ``matmul`` per block, a multiple
of 8 samples wide.  Such a call gives the bits of the whole-record call in
one OpenBLAS thread, and OpenBLAS runs it in one thread.  A whole-record
call could run in several, whose columns split where their count fell, and
whose idle threads then kept the second core busy for the passes after it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .clustering import Cluster, check_alpha, cluster_tables, find_cluster, gap_thresholds
from .errors import (
    ClusterFormationFailedError,
    DegenerateClusterError,
    DimensionMismatchError,
    EmptyClusterError,
    NoConsecutivePairError,
    SparseBssError,
)
from .headings import HeadingSet, accept_stack, check_v_th, heading_rows, velocity_rows
from .signals import (
    BLOCK,
    as_real_finite,
    in_workers,
    ordered_row_norms,
    sum_of_products,
    worker_groups,
)
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
        check_v_th(self.v_th)
        check_alpha(self.alpha)


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
    members cannot cancel: see :func:`average_directions`, which the
    deflation loop calls on all its clusters at once.

    Raises
    ------
    NonFiniteError
        If a member velocity has a NaN or infinite entry.
    EmptyClusterError
        If the cluster has no member.
    DegenerateClusterError
        If every member has zero velocity.
    SparseBssError
        If the members' squared lengths overflow float64.
    """
    members = np.atleast_2d(as_real_finite(cluster.member_velocities, "velocities"))
    if members.size == 0:
        raise EmptyClusterError("the cluster has no member")
    unit, length, moving = average_directions(members[None], np.array([len(members)]))
    if not moving[0]:
        raise DegenerateClusterError("all cluster members have zero velocity")
    if not 0.0 < length[0] < np.inf:
        raise SparseBssError("cluster velocities' squares overflow float64; rescale the record")
    return EstimatedDirection(unit_vector=unit[0], support_size=len(members))


def average_directions(
    members: np.ndarray, size: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`weighted_average_heading` for a (B, K, N) stack of clusters.

    Cluster ``b`` holds ``size[b]`` members followed by zero rows; ``size``
    must not decrease.  Returns ``(unit, length, moving)``: the unit
    directions (B, N), the lengths of the averages before scaling, and
    whether any member moves.  Every aligned member has a nonnegative
    projection on the strongest one, which itself contributes m_max**2 /
    sum(m**2) >= 1/k to the average's projection on its direction, so a
    moving cluster's length is at least 1/k.

    Each cluster averages exactly as it would alone.  The member
    magnitudes are velocity lengths, taken by the package's one rule,
    :func:`~sparsebss.signals.ordered_row_norms`, which sums each member's
    squares in channel order and so does not depend on k.  Only three steps
    depend on the member count k: the sign test against the strongest
    member and the weighted sum, which are ``matmul`` products, and the sum
    of squared magnitudes, which numpy adds pairwise over k.  They run once
    per size, on the basic slice ``[lo:hi, :k]`` of the clusters of that
    size, written straight into their outputs: a stacked ``matmul`` hands
    each (k, N) item of that slice to BLAS as it would a lone cluster.  The
    rest runs once on the padded stack, where the zero rows come after the
    members and change nothing: the magnitudes, the strongest member (the
    first maximum), whether any moves, the signs, the length of the average
    (a ``matmul`` dot product) and the division.  A member against the
    strongest one enters the weighted sum with its magnitude negated rather
    than its velocity, which gives the same products.  Members whose squares
    overflow leave a length that is NaN or zero, without a warning.
    """
    count, width, n = members.shape
    edges = (np.flatnonzero(np.diff(size)) + 1).tolist()
    groups = list(zip(size[[0, *edges]].tolist(), [0, *edges], [*edges, count]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        magnitudes = ordered_row_norms(members.swapaxes(-1, -2))
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
    winning pair is returned, as :func:`mhc_pick` scored it; ties go to the
    smallest index.  :func:`mhc_pick` reads the headings of its pairs
    alone, from the set's unit headings.

    Raises
    ------
    NoConsecutivePairError
        If no two consecutive headings are both accepted.
    """
    rows = heading_set.headings
    _, found, headings = mhc_pick(lambda _, i: rows[i].T, heading_set.accepted[None])
    if not found[0]:
        raise NoConsecutivePairError("no consecutive pair of accepted headings")
    return EstimatedDirection(unit_vector=headings[0], support_size=1)


def mhc_pick(heading_rows, accepted: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`mhc_find_direction`'s winner for each of Q records.

    ``accepted`` is (Q, M).  Headings are formed and compared only at
    consecutive accepted pairs, whose speeds are positive.
    ``heading_rows(records, index)`` returns record ``records[p]``'s unit
    heading ``index[p]`` for each p, as a new (N, pairs) channel rows array.
    It is called once at each pair's later index and once at the index
    before.  The lengths of the headings' differences and sums are taken by
    the package's one length rule,
    :func:`~sparsebss.signals.ordered_row_norms`, a sum of squares in
    channel order, as are the speeds the headings were divided by.

    The changes go into a (Q, P) table of +inf, where P is the largest pair
    count of any record, and at least 1.  Slot j of record r holds its j-th
    pair in index order, so the first ``argmin`` of a row is its smallest
    change at the lowest index, and a record without a pair has no finite
    change.  Returns ``(best, found, headings)``: the later index of each
    record's winning pair (0 if no change is finite); whether that change is
    finite; and the (Q, N) heading that won, the later one of its pair as it
    was scored, or zeros where none was found.
    """
    q, m = accepted.shape
    # flatnonzero lists the pairs record by record, in index order; a 2-D
    # nonzero took four times as long on the 4 x 10**6 benchmark record.
    record, index = np.divmod(np.flatnonzero(accepted[:, 1:] & accepted[:, :-1]), m - 1)
    index += 1
    count = np.bincount(record, minlength=q)
    first = np.cumsum(count) - count
    here = heading_rows(record, index)
    before = heading_rows(record, index - 1)
    change = np.full((q, max(1, count.max(initial=0))), np.inf)
    change[record, np.arange(record.size) - first[record]] = np.minimum(
        ordered_row_norms(here - before), ordered_row_norms(here + before)
    )
    pick = np.argmin(change, axis=1)
    found = change[np.arange(q), pick] < np.inf
    winner = first[found] + pick[found]
    best = np.zeros(q, dtype=np.intp)
    best[found] = index[winner]
    headings = np.zeros((q, here.shape[0]))
    headings[found] = here[:, winner].T
    return best, found, headings


def project_source(data, direction: EstimatedDirection) -> np.ndarray:
    """Dot the direction with every sample vector: the source estimate row.

    A NaN or infinite entry in ``data`` or the direction raises ``NonFiniteError``.
    """
    e = as_real_finite(data)
    r = as_real_finite(direction.unit_vector, "direction")
    if e.shape[0] != r.shape[0]:
        raise DimensionMismatchError(
            f"direction has {r.shape[0]} components, data has {e.shape[0]} channels"
        )
    return r @ e


def deflate(data, direction: EstimatedDirection, source_row) -> np.ndarray:
    """Remove a source's rank-one contribution along its direction.

    A NaN or infinite entry in any operand raises ``NonFiniteError``.
    """
    e = as_real_finite(data)
    s = as_real_finite(source_row, "source row")
    r = as_real_finite(direction.unit_vector, "direction")
    if e.shape[0] != r.shape[0] or e.shape[1] != s.shape[0]:
        raise DimensionMismatchError(
            f"cannot deflate shape {e.shape} with direction {r.shape} and source {s.shape}"
        )
    return e - np.outer(r, s)


def _global_directions(
    data: np.ndarray, accepted: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, float] | SparseBssError | None]:
    """The global method's direction step for a (Q, N, L) record stack.

    Each record's epsilon and two-heading minimum are taken by
    :func:`~sparsebss.clustering.gap_thresholds`.  ``np.flatnonzero`` lists
    the accepted velocities record by record, in index order, and each is
    formed from the samples on either side of it by
    :func:`~sparsebss.headings.velocity_rows`, into one (N, K) channel rows
    array for all records.

    Only the source of each record's cluster membership among its slots
    depends on Q.  In a stack, a record that forms no cluster just leaves
    the loop, so the AND of the stack's
    :func:`~sparsebss.clustering.cluster_tables` membership is all it needs.
    Any stack takes that one path, an empty one or one whose every record
    holds under two accepted headings too: its tables hold no member, and
    it finds nothing.
    One record is :func:`separate`'s, which must say why no cluster formed,
    so it takes its membership from :func:`~sparsebss.clustering.find_cluster`:
    the same rule on the same magnitudes, with the same bits, that raises the
    typed cause (too few headings, no run, an empty AND).  The benchmark's
    span test also counts that call, one per global iteration of
    :func:`separate`.  Either way the membership is one (Q, width) mask,
    from which the members are packed and, for one record, the member
    indices are read, so both report exactly the members averaged.

    Every found record's cluster is averaged in one :func:`average_directions`
    call.  The records are ordered by cluster size, and the members, record
    by record, fill the leading rows of each record's zero-padded block, so
    the three steps whose shape depends on the size run once per size, on a
    basic slice, and keep each record's one-cluster bits.  The data is
    whitened, so an accepted velocity moves and its squares do not
    overflow: a cluster that formed always averages.  Returns the unit
    directions (zero where none was found), which records found one, and,
    for one record, its cluster's ``(member indices, epsilon)`` or the
    ``SparseBssError`` that stopped it (None for a stack).
    """
    q, n, length = data.shape
    directions = np.zeros((q, n))
    record, index = np.divmod(np.flatnonzero(accepted), length - 1)
    count = np.bincount(record, minlength=q)
    epsilon, found = gap_thresholds(alpha, count)
    velocities = velocity_rows(data, record, index)
    if q == 1:
        try:
            member = find_cluster(velocities.T, float(epsilon[0]))[1].survivors[None]
        except SparseBssError as cause:
            return directions, np.zeros(1, dtype=bool), cause
    else:
        magnitudes = np.abs(velocities / ordered_row_norms(velocities))
        member = cluster_tables(magnitudes, count, epsilon)[0].all(0)
    size = member.sum(axis=-1)
    found &= size > 0
    runs = np.flatnonzero(found)
    if runs.size == 0:
        return directions, found, None
    runs = runs[np.argsort(size[runs], kind="stable")]
    size = size[runs]
    # Slot j of record r holds velocity column (cumsum(count) - count)[r] + j.
    slots = (np.cumsum(count) - count)[runs, None] + np.arange(member.shape[1])
    members = np.zeros((runs.size, size[-1], n))
    rows = np.flatnonzero(np.arange(size[-1]) < size[:, None])
    members.reshape(-1, n)[rows] = np.take(velocities, slots[member[runs]], axis=1).T
    directions[runs], _, found[runs] = average_directions(members, size)
    return directions, found, (index[member[0]], float(epsilon[0])) if q == 1 else None


def deflation_steps(data: np.ndarray, params: MethodParams, estimates: np.ndarray):
    """The deflation loop over a (Q, N, L) stack of whitened records, in place.

    Iteration ``i`` projects the k records still in the loop onto their
    directions into ``estimates[:k, i]``, where ``estimates`` is a (Q, N, L)
    array the caller owns, and yields the (k, N) directions, the caller's
    rows of those k records in order, their (k, L - 1) acceptance masks,
    and, for the global method on one record, :func:`_global_directions`'
    cluster or the error that stopped it (else None).  Each method has one
    direction step for every stack size: :func:`mhc_pick` and
    :func:`_global_directions`.

    A record whose direction step finds nothing leaves the loop at once:
    before the projection, the data, the directions and the acceptance
    masks are compacted to the records still in it, and their earlier
    estimates are copied into the leading rows of ``estimates``.  So row j
    of every array the loop holds or yields belongs to the j-th survivor,
    no later pass reads a record that left, and the loop ends when none is
    left, with an empty yield; an empty stack yields that one empty step.
    From then on ``data`` is no longer the caller's array.  Every pass works
    record by record, so a record keeps the bits it has alone.

    No velocity or speed outlives the pass that reads it.  The threshold
    pass, :func:`~sparsebss.headings.accept_stack`, forms them one block of
    :data:`~sparsebss.signals.BLOCK` samples at a time and keeps only the
    component maxima, and each direction step forms again only the
    velocities it reads, through :func:`~sparsebss.headings.velocity_rows`:
    the accepted ones, or, for MHC, the two unit headings of each consecutive
    accepted pair, gathered by :func:`mhc_pick` through
    :func:`~sparsebss.headings.heading_rows`, which also returns the winning
    headings.  So beyond the data and the estimates the MHC iteration holds
    only the maxima and pair-sized arrays.  The projection and the deflation
    run together, over all channels at once, ``BLOCK // N`` samples a step
    rounded down to a multiple of 8: each block is projected by one
    ``matmul`` into the estimates and deflated in place, and the blocks are
    split into contiguous groups that run at once
    (:func:`~sparsebss.signals.in_workers`), each forming its products in a
    scratch block of its own.  ``params`` was validated when it was built.
    """
    q, n, length = data.shape
    # Row j of every array the loop holds or yields belongs to the caller's record survivors[j].
    survivors = np.arange(q)
    step = max(8, BLOCK // n // 8 * 8)
    blocks = worker_groups(range(0, length, step))
    for iteration in range(n):
        accepted = accept_stack(data, params.v_th)
        cluster = None
        if params.method == "mhc":
            _, found, directions = mhc_pick(partial(heading_rows, data), accepted)
        else:
            directions, found, cluster = _global_directions(data, accepted, params.alpha)
        if not found.all():
            kept = np.flatnonzero(found)
            survivors, data = survivors[kept], data[kept]
            directions, accepted = directions[kept], accepted[kept]
            estimates[: kept.size, :iteration] = estimates[kept, :iteration]
        row = estimates[: survivors.size, iteration:iteration + 1]
        products = [np.empty((*data.shape[:-1], min(step, length))) for _ in blocks]
        deflate_blocks = partial(_project_and_deflate, data, directions, row, products, step)
        in_workers(deflate_blocks, blocks)
        del products, deflate_blocks
        yield directions, survivors, accepted, cluster
        if not survivors.size:
            return


def _project_and_deflate(data, directions, row, products, step, slot, starts) -> None:
    """Project ``data`` onto ``directions`` into ``row`` and deflate it, on the blocks ``starts``.

    Each block is ``step`` samples wide, a multiple of 8, so that its
    ``matmul`` gives the columns the bits of a whole-record call in one
    OpenBLAS thread.  The product ``directions * row`` is formed in
    ``products[slot]``, its group's scratch.
    """
    for lo in starts:
        block = data[..., lo:lo + step]
        estimate = row[..., lo:lo + step]
        np.matmul(directions[:, None, :], block, out=estimate)
        product = products[slot][..., : block.shape[-1]]
        block -= np.multiply(directions[..., None], estimate, out=product)


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
    for iteration, (units, survivors, accepted, cluster) in enumerate(steps):
        if isinstance(cluster, SparseBssError):
            raise ClusterFormationFailedError(iteration, cluster) from cluster
        if not survivors.size:
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
