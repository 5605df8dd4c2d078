import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsebss import (
    Cluster,
    ClusterFormationFailedError,
    DegenerateClusterError,
    DimensionMismatchError,
    EmptyClusterError,
    EstimatedDirection,
    IterationDiagnostics,
    MethodParams,
    NoConsecutivePairError,
    NonFiniteError,
    RankDeficientError,
    SparseBssError,
    TooFewHeadingsError,
    TooShortError,
    ZeroChannelError,
    add_noise,
    associate,
    deflate,
    find_cluster,
    gap_threshold,
    gram_schmidt_whiten,
    mhc_find_direction,
    normalize_unit_norm,
    project_source,
    separate,
    source_errors,
    weighted_average_heading,
)
from sparsebss import clustering, separation
from sparsebss.clustering import cluster_tables
from sparsebss.headings import HeadingSet
from sparsebss.separation import (
    _global_directions,
    average_directions,
    deflation_steps,
)
from sparsebss.signals import BLOCK
from sparsebss.whitening import whiten_stack


def make_cluster(velocities):
    v = np.asarray(velocities, dtype=float)
    return Cluster(member_indices=np.arange(len(v)), member_velocities=v)


def make_heading_set(headings, accepted):
    h = np.asarray(headings, dtype=float)
    speeds = np.linalg.norm(h, axis=1)
    return HeadingSet(
        velocities=h,
        headings=h,
        speeds=speeds,
        nonzero=speeds > 0,
        accepted=np.asarray(accepted, dtype=bool),
        v_max=float(speeds.max()),
    )


class TestWeightedAverageHeading:
    def test_identical_unit_members_reduce_to_straight_average(self):
        direction = weighted_average_heading(make_cluster([[0.6, 0.8]] * 4))
        np.testing.assert_allclose(direction.unit_vector, [0.6, 0.8], atol=1e-15)
        assert direction.support_size == 4

    def test_collinear_members(self):
        # magnitudes 5 and 10; weighted sum = ((15+60)/125, (20+80)/125)
        direction = weighted_average_heading(make_cluster([[3.0, 4.0], [6.0, 8.0]]))
        np.testing.assert_allclose(direction.unit_vector, [0.6, 0.8], atol=1e-15)

    def test_antiparallel_members_are_sign_reconciled(self):
        direction = weighted_average_heading(make_cluster([[1.0, 0.0], [-1.0, 0.0]]))
        np.testing.assert_allclose(np.abs(direction.unit_vector), [1.0, 0.0], atol=1e-15)

    def test_unit_length_output(self):
        rng = np.random.default_rng(41)
        direction = weighted_average_heading(make_cluster(rng.normal(size=(7, 3))))
        assert np.linalg.norm(direction.unit_vector) == pytest.approx(1.0, abs=1e-12)

    def test_sign_reconciliation_prevents_cancellation(self):
        # after flipping against the largest member the weighted sum keeps
        # a strictly positive dot with it, so antiparallel pairs of any
        # magnitude cannot cancel
        cluster = make_cluster([[1e-20, 0.0], [-1e-20, 0.0]])
        direction = weighted_average_heading(cluster)
        np.testing.assert_allclose(np.abs(direction.unit_vector), [1.0, 0.0])

    @pytest.mark.parametrize("members", [np.empty((0, 2)), np.empty(0)], ids=["no-rows", "no-entries"])
    def test_empty_cluster_is_named(self, members):
        # numpy's "attempt to get argmax of an empty sequence" escaped before.
        with pytest.raises(EmptyClusterError, match="no member"):
            weighted_average_heading(Cluster(np.arange(len(members)), members))

    def test_degenerate_cluster_of_zero_velocities(self):
        with pytest.raises(DegenerateClusterError):
            weighted_average_heading(make_cluster([[0.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1e155, 1e160])
    def test_overflowing_squares_are_named(self, scale):
        # The members' squared lengths overflow: an error, not a NaN direction.
        with pytest.raises(SparseBssError, match="squares overflow float64; rescale"):
            weighted_average_heading(make_cluster(np.array([[3.0, 4.0], [6.0, 8.0]]) * scale))

    @pytest.mark.parametrize(
        "members", [[[np.nan, 0.0], [np.nan, 0.0]], [[np.nan, 1.0], [1.0, 1.0]], [[np.inf, 1.0], [1.0, 1.0]]]
    )
    def test_non_finite_members_are_named(self, members):
        # These used to read as zero velocities or as overflowing squares.
        with pytest.raises(NonFiniteError, match="NaN or infinite entries in the velocities"):
            weighted_average_heading(make_cluster(members))

    def test_large_members_keep_the_unscaled_direction(self):
        cluster = make_cluster(np.array([[3.0, 4.0], [6.0, 8.0]]) * 1e150)
        np.testing.assert_allclose(
            weighted_average_heading(cluster).unit_vector, [0.6, 0.8], rtol=0, atol=1e-15
        )

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        k=st.integers(1, 12),
        n=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
        exponents=st.lists(st.integers(-150, 150), min_size=2, max_size=2).map(sorted),
    )
    def test_members_never_cancel(self, k, n, seed, exponents):
        # Reconciled against the strongest member, the average keeps a
        # projection of at least 1/k on it, whatever the members' signs and scales.
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(exponents[0], exponents[1], (k, 1), endpoint=True)
        members = rng.standard_normal((k, n)) * scales
        members[rng.random(k) < 0.25] = 0.0
        members[rng.random(k) < 0.25] *= -1.0
        if k > 1:
            members[1] = -members[0] * rng.uniform(0.5, 1.0)
        _, length, moving = average_directions(members[None], np.array([k]))
        if moving[0]:
            assert length[0] * k >= 1.0 - 1e-12


class TestMhcDirection:
    def test_zero_change_pair_wins(self):
        hs = make_heading_set([[0.6, 0.8], [0.6, 0.8], [1.0, 0.0]], [1, 1, 1])
        direction = mhc_find_direction(hs)
        np.testing.assert_allclose(direction.unit_vector, [0.6, 0.8], atol=1e-15)

    def test_sign_fold_treats_antiparallel_as_equal(self):
        hs = make_heading_set([[1.0, 0.0], [-1.0, 0.0]], [1, 1])
        direction = mhc_find_direction(hs)
        # the most recent heading of the winning pair is returned
        np.testing.assert_allclose(direction.unit_vector, [-1.0, 0.0], atol=1e-15)

    def test_single_accepted_heading_raises(self):
        hs = make_heading_set([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], [0, 1, 0])
        with pytest.raises(NoConsecutivePairError):
            mhc_find_direction(hs)

    def test_ties_take_smallest_index(self):
        hs = make_heading_set([[1.0, 0.0]] * 4, [1, 1, 1, 1])
        assert mhc_find_direction(hs).support_size == 1


class TestProjectAndDeflate:
    def test_basis_projection_returns_channel(self):
        data = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        d = EstimatedDirection(unit_vector=np.array([1.0, 0.0]), support_size=1)
        np.testing.assert_array_equal(project_source(data, d), data[0])

    def test_dot_product_projection(self):
        data = np.array([[1.0], [1.0]])
        d = EstimatedDirection(unit_vector=np.array([0.6, 0.8]), support_size=1)
        assert project_source(data, d)[0] == pytest.approx(1.4)

    def test_dimension_mismatch(self):
        d = EstimatedDirection(unit_vector=np.array([1.0, 0.0, 0.0]), support_size=1)
        with pytest.raises(DimensionMismatchError):
            project_source(np.ones((2, 5)), d)

    def test_deflate_dimension_mismatch(self):
        d = EstimatedDirection(unit_vector=np.array([1.0, 0.0]), support_size=1)
        with pytest.raises(DimensionMismatchError):
            deflate(np.ones((2, 5)), d, np.ones(4))

    def test_deflate_removes_direction(self):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(3, 40))
        d = EstimatedDirection(unit_vector=np.array([0.6, 0.8, 0.0]), support_size=1)
        source = project_source(data, d)
        residual = deflate(data, d, source)
        np.testing.assert_allclose(d.unit_vector @ residual, 0.0, atol=1e-10)

    def test_deflate_coordinate_case(self):
        data = np.array([[3.0, -1.0], [5.0, 7.0]])
        d = EstimatedDirection(unit_vector=np.array([1.0, 0.0]), support_size=1)
        residual = deflate(data, d, project_source(data, d))
        np.testing.assert_array_equal(residual, [[0.0, 0.0], [5.0, 7.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_operands_are_named(self, bad):
        # Both returned NaN estimates without a word.
        data = np.array([[1.0, 2.0, 3.0], [4.0, bad, 6.0]])
        d = EstimatedDirection(unit_vector=np.array([0.6, 0.8]), support_size=1)
        with pytest.raises(NonFiniteError, match="signal"):
            project_source(data, d)
        with pytest.raises(NonFiniteError, match="signal"):
            deflate(data, d, np.ones(3))
        with pytest.raises(NonFiniteError, match="source row"):
            deflate(np.ones((2, 3)), d, [1.0, bad, 1.0])
        nan_direction = EstimatedDirection(unit_vector=np.array([bad, 0.8]), support_size=1)
        with pytest.raises(NonFiniteError, match="direction"):
            project_source(np.ones((2, 3)), nan_direction)
        with pytest.raises(NonFiniteError, match="direction"):
            deflate(np.ones((2, 3)), nan_direction, np.ones(3))

    def test_deflate_idempotent(self):
        rng = np.random.default_rng(43)
        data = rng.normal(size=(2, 30))
        d = EstimatedDirection(unit_vector=np.array([0.8, -0.6]), support_size=1)
        once = deflate(data, d, project_source(data, d))
        twice = deflate(once, d, project_source(once, d))
        np.testing.assert_allclose(twice, once, atol=1e-12)


def aligned_correlations(sources, estimates):
    assoc = associate(normalize_unit_norm(sources), normalize_unit_norm(estimates))
    return np.abs(assoc.correlations)


@pytest.mark.parametrize("method,vth", [("global", 0.4), ("mhc", 0.8)])
def test_clean_two_pulse_recovery(example1, method, vth):
    _, sources, mixtures = example1
    result = separate(mixtures, MethodParams(method=method, v_th=vth, alpha=1.0))
    assert result.estimates.shape == mixtures.shape
    assert np.all(aligned_correlations(sources, result.estimates) >= 0.999)


@pytest.mark.parametrize("v_th", [0.3, 0.4])
def test_global_estimates_are_symmetric_under_time_reversal(example1, v_th):
    # Reversing time reverses the velocities' order and negates them, which
    # leaves their magnitudes, the clusters and the sign-reconciled averages
    # as they were: each estimate comes out reversed, up to sign and
    # rounding.  MHC is not symmetric and is not tested here: its winning
    # pair returns its later heading, which reversal makes the earlier one.
    _, _, clean = example1
    params = MethodParams(method="global", v_th=v_th)
    worst = 0.0
    for seed in range(900, 960):
        x = add_noise(clean, 0.005, seed)
        forward = separate(x, params).estimates
        backward = separate(x[:, ::-1], params).estimates[:, ::-1]
        for f, b in zip(forward, backward):
            worst = max(worst, 1.0 - abs(np.corrcoef(f, b)[0, 1]))
    assert worst <= 1e-12


@pytest.mark.parametrize("method, v_th", [("global", 0.4), ("global", 0.3), ("mhc", 0.7)])
def test_scaling_one_mixture_channel_changes_nothing(example1, method, v_th):
    # Gram-Schmidt whitening divides each channel's residual by its own rms,
    # so a channel's scale leaves the whitened record as it was up to
    # rounding: the estimates agree to rounding, and a record that fails
    # fails the same way.  The power-of-two test covers sign flips.
    _, _, clean = example1
    params = MethodParams(method=method, v_th=v_th)
    worst, separated = 0.0, 0
    for seed in range(600, 640):
        x = add_noise(clean, 0.005, seed)
        base, base_error = outcome(separate, x, params)
        for channel in (0, 1):
            for factor in (3.7, 0.013, 123.456):
                scaled = x.copy()
                scaled[channel] *= factor
                result, error = outcome(separate, scaled, params)
                assert error == base_error
                if error is None:
                    separated += 1
                    for f, g in zip(base.estimates, result.estimates):
                        worst = max(worst, 1.0 - abs(np.corrcoef(f, g)[0, 1]))
    assert separated and worst <= 1e-12


def test_single_channel_single_source():
    t = np.linspace(0.0, 1.0, 100)
    source = np.exp(-((t - 0.5) ** 2) / 0.005)
    mixtures = 2.5 * source[None, :]
    result = separate(mixtures, MethodParams(method="global", v_th=0.3))
    corr = np.corrcoef(source, result.estimates[0])[0, 1]
    assert abs(corr) >= 1.0 - 1e-12
    assert result.iterations[-1].residual_energy < 1e-10 * np.sum(mixtures**2)


def test_cluster_formation_failure_carries_iteration():
    # two accepted headings far apart in every component: no adjacency run
    data = np.array(
        [[0.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0]]
    )
    with pytest.raises(ClusterFormationFailedError) as excinfo:
        separate(data, MethodParams(method="global", v_th=0.1, alpha=0.01))
    assert excinfo.value.iteration == 0


def test_stacked_global_step_without_two_accepted_headings():
    # No record has two accepted headings: nothing to sort, no record finds a direction.
    data = np.random.default_rng(3).normal(size=(3, 2, 7))
    accepted = np.zeros((3, 6), dtype=bool)
    accepted[0, 2] = accepted[2, 5] = True
    directions, found, _ = _global_directions(data, accepted, 1.0)
    assert directions.shape == (3, 2)
    assert not found.any()
    assert not directions.any()


def test_stacked_global_step_when_every_and_is_empty():
    # Three headings per record.  Component 0's magnitudes 0.5, 0.995 and
    # 0.999 hold the one sorted gap below epsilon = 0.03 / 3, but component
    # 1's, 0.866, 0.0999 and 0.0447, hold none, so the AND is empty in every
    # record with two headings and none is averaged.  Each record alone
    # fails the same way in the one-record step.
    component = np.array([0.5, 0.995, 0.999])
    headings = np.stack([component, np.sqrt(1.0 - component**2)])
    data = np.zeros((3, 2, 4))
    for r, scale in enumerate([1.0, 3.0, 0.25]):
        data[r, :, 1:] = np.cumsum(scale * headings, axis=1)
    accepted = np.ones((3, 3), dtype=bool)
    accepted[2, 1:] = False  # one heading: not clustered at all
    directions, found, _ = _global_directions(data, accepted, 0.03)
    assert directions.shape == (3, 2)
    assert not found.any()
    assert not directions.any()
    for r in range(3):
        _, found_alone, failed = _global_directions(data[r : r + 1], accepted[r : r + 1], 0.03)
        assert not found_alone[0]
        assert type(failed) is (EmptyClusterError if r < 2 else TooFewHeadingsError)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_one_stacked_average_equals_one_call_per_cluster(n):
    # Sizes 1 to 20 cross numpy's eight-value unroll of the weights' sum; the
    # padded stack must still give every cluster its one-call bits.
    rng = np.random.default_rng(n)
    clusters = [np.zeros((6, n))]
    for k in range(1, 21):
        for _ in range(2):
            members = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-3, 4, (k, 1))
            members[0] *= 1e4
            if k > 2:
                # A member perpendicular to the strongest one, up to rounding.
                members[2] -= (members[2] @ members[0]) / (members[0] @ members[0]) * members[0]
            members[rng.random(k) < 0.3] *= -1.0
            clusters.append(members)
    clusters.sort(key=len)
    size = np.array([len(members) for members in clusters])
    stack = np.zeros((len(clusters), size[-1], n))
    for b, members in enumerate(clusters):
        stack[b, : len(members)] = members
    unit, length, moving = average_directions(stack, size)
    assert moving.sum() == len(clusters) - 1
    for b, members in enumerate(clusters):
        alone = average_directions(members[None], np.array([len(members)]))
        assert unit[b].tobytes() == alone[0][0].tobytes()
        assert length[b].tobytes() == alone[1][0].tobytes()
        assert moving[b] == alone[2][0]


@pytest.mark.parametrize("seed", [5, 7])
def test_stacked_global_step_on_one_long_record_keeps_its_bits(seed):
    # At Q = 1 the global step takes its membership from find_cluster; in a
    # stack, from cluster_tables.  The record stacked twice must give the
    # same direction bits at every iteration.
    data = gram_schmidt_whiten(sparse_record(seed, 4, 200_000, 1e-3, burst=50)).components[None]
    before = data.copy()
    steps = deflation_steps(data, MethodParams("global", 0.4), np.empty_like(data))
    for directions, survivors, accepted, cluster in steps:
        assert survivors.tolist() == [0] and isinstance(cluster, tuple)
        twice = np.concatenate([before, before])
        stacked, stacked_found, _ = _global_directions(twice, np.concatenate([accepted] * 2), 1.0)
        assert stacked_found.all()
        assert stacked.tobytes() == np.concatenate([directions] * 2).tobytes()
        before = data.copy()


@pytest.mark.parametrize("alpha", [1.0, 0.1])
@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_stacked_global_step_on_tight_records_equals_find_cluster(n, alpha):
    # Each record holds one source, as at the last iteration of a deflation, so
    # every record's accepted headings are +-u: the stacked step must take
    # every one without building its tables, and give find_cluster's bits.
    rng = np.random.default_rng([n, int(10 * alpha)])
    q, length = 40, 30
    data = rng.standard_normal((q, n, 1)) * rng.standard_normal((q, 1, length))
    data += 1e-12 * rng.standard_normal(data.shape)
    accepted = rng.random((q, length - 1)) < rng.random((q, 1))
    accepted[0] = False
    accepted[1] = np.arange(length - 1) == 3

    def no_tables(*args):
        raise AssertionError("the stacked step built its run tables")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "longest_runs", no_tables)
        directions, found, _ = _global_directions(data, accepted, alpha)
    for r in range(q):
        index = np.flatnonzero(accepted[r])
        assert found[r] == (index.size >= 2)
        if not found[r]:
            assert not directions[r].any()
            continue
        rows = data[r][:, index + 1] - data[r][:, index]
        cluster, _ = find_cluster(rows.T, gap_threshold(alpha, index.size))
        assert len(cluster) == index.size
        expected = weighted_average_heading(cluster).unit_vector
        assert directions[r].tobytes() == expected.tobytes()


def channel_order_average(members):
    """One (k, N) cluster's unit average and its length, by average_directions' steps.

    Each member's magnitude is its squares added in channel order, written out here.
    """
    magnitudes = np.sqrt(sum(np.square(members[None, :, i]) for i in range(members.shape[1])))
    strongest = members[np.argmax(magnitudes[0])]
    weighted = np.where(members @ strongest < 0.0, -magnitudes, magnitudes)
    average = (weighted[:, None, :] @ members[None])[:, 0]
    average /= np.add.reduce(np.square(magnitudes), axis=-1)[:, None]
    length = np.sqrt((average[:, None, :] @ average[:, :, None])[:, 0, 0])
    return average[0] / length[0], length[0]


@pytest.mark.parametrize("seed", [11, 13])  # seeds where every record has such a member
def test_nine_channel_averages_sum_lengths_in_channel_order(seed):
    # From 8 channels on, np.linalg.norm sums a contiguous row pairwise, and
    # the one length rule sums in channel order.  Every record below has
    # members whose lengths differ between the two.  Their averages, alone,
    # in a padded stack and through the stacked global step, and the
    # magnitudes that step clusters, must have the channel-order bits.
    n, size = 9, np.array([2, 3, 5, 5, 8])
    q, width = size.size, size[-1]
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal(n) + 1e-3 * rng.standard_normal((q, width, n))
    steps *= rng.choice([-1.0, 1.0], (q, width, 1)) * rng.uniform(1.0, 2.0, (q, width, 1))
    data = np.concatenate([np.zeros((q, n, 1)), np.cumsum(steps, axis=1).swapaxes(1, 2)], axis=2)
    accepted = np.arange(width) < size[:, None]
    clusters = [np.diff(data[r], axis=1).T[:k] for r, k in enumerate(size)]
    velocities = np.concatenate(clusters).T
    lengths = np.sqrt(sum(np.square(velocities[i]) for i in range(n)))
    pairwise = np.linalg.norm(np.ascontiguousarray(velocities.T), axis=1)
    assert all((lengths != pairwise)[size[:r].sum():size[: r + 1].sum()].any() for r in range(q))
    expected = [channel_order_average(members) for members in clusters]

    stack = np.zeros((q, width, n))
    for r, members in enumerate(clusters):
        stack[r, : len(members)] = members
        unit, length, _ = average_directions(members[None], size[r:r + 1])
        assert (unit[0].tobytes(), length[0].tobytes()) == tuple(x.tobytes() for x in expected[r])
    unit, length, moving = average_directions(stack, size)
    assert moving.all()
    for r in range(q):
        assert (unit[r].tobytes(), length[r].tobytes()) == tuple(x.tobytes() for x in expected[r])

    clustered = []

    def spy(magnitudes, *args):
        clustered.append(magnitudes.copy())
        return cluster_tables(magnitudes, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(separation, "cluster_tables", spy)
        directions, found, _ = _global_directions(data, accepted, 1.0)
    assert clustered[0].tobytes() == np.abs(velocities / lengths).tobytes()
    assert found.all()
    for r in range(q):
        assert directions[r].tobytes() == expected[r][0].tobytes()


def test_stacked_global_step_is_quiet_under_any_errstate():
    # Records accept different numbers of headings, so the shorter ones are
    # padded with empty slots, some of zero speed.  Their arithmetic must not
    # warn wherever the loop runs, not only inside ``run_chunk``.
    z = np.random.default_rng(1).normal(size=(3, 2, 40))
    z[..., 1::2] = z[..., ::2]
    data, _, failed, _ = whiten_stack(z)
    assert (failed < 0).all()
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        steps = deflation_steps(data, MethodParams("global", 0.4), np.empty_like(data))
        survivors = [step[1] for step in steps]
    assert all(s.tolist() == [0, 1, 2] for s in survivors)


@pytest.mark.parametrize("length", [2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK + 13])
def test_projection_into_the_estimates_keeps_matmuls_bits(length):
    # The loop projects straight into row i of the caller's (Q, N, L)
    # estimates through matmul's ``out``.  A numpy or BLAS whose product into
    # that strided row differs from a fresh product fails here by name.
    rng = np.random.default_rng(length)
    for n in range(1, 10):
        for q in (1, 3):
            data = rng.standard_normal((q, n, length))
            estimates = np.empty_like(data)
            for i in range(n):
                directions = rng.standard_normal((q, n))
                directions /= np.linalg.norm(directions, axis=1, keepdims=True)
                np.matmul(directions[:, None, :], data, out=estimates[:, i:i + 1])
                fresh = (directions[:, None, :] @ data)[:, 0]
                assert estimates[:, i].tobytes() == fresh.tobytes()


def test_mhc_no_pair_propagates():
    # velocities alternate between zero and one spike; no consecutive
    # accepted pair exists at a high threshold
    data = np.array(
        [[0.0, 5.0, 5.0, 5.0, 0.0, 0.0], [0.0, 0.1, 0.3, 0.2, 0.25, 0.25]]
    )
    with pytest.raises(NoConsecutivePairError):
        separate(data, MethodParams(method="mhc", v_th=0.9))


def test_deflation_orthogonality_and_energy(example1):
    _, _, mixtures = example1
    whitened = gram_schmidt_whiten(mixtures)
    result = separate(mixtures, MethodParams(method="global", v_th=0.4))
    directions = np.array([d.unit_vector for d in result.directions])
    # consecutive directions orthogonal
    assert abs(directions[0] @ directions[1]) < 1e-6
    # energy of the whitened data splits across the extracted sources
    total = np.sum(whitened.components**2)
    recovered = np.sum(result.estimates**2)
    residual = result.iterations[-1].residual_energy
    assert abs(total - (recovered + residual)) < 1e-8 * total


def test_scale_indifference(example1):
    _, _, mixtures = example1
    params = MethodParams(method="global", v_th=0.4)
    a = separate(mixtures, params)
    b = separate(250.0 * mixtures, params)
    for da, db in zip(a.directions, b.directions):
        np.testing.assert_allclose(da.unit_vector, db.unit_vector, atol=1e-10)


def test_perfect_sparsity_direction_oracle():
    # disjoint supports and no noise: each extracted direction must match
    # the whitened image of one true source column within 1e-6 rad
    rng = np.random.default_rng(44)
    sources = np.zeros((2, 60))
    sources[0, 5:25] = np.sin(np.linspace(0, 3 * np.pi, 20))
    sources[1, 35:55] = rng.uniform(-1, 1, 20)
    mixing = np.array([[1.2, -0.7], [0.4, 0.9]])
    mixtures = mixing @ sources
    whitened = gram_schmidt_whiten(mixtures)
    truth = [whitened.transform @ mixing[:, k] for k in range(2)]
    truth = [d / np.linalg.norm(d) for d in truth]
    result = separate(mixtures, MethodParams(method="global", v_th=0.2))
    for direction in result.directions:
        angles = [
            np.arccos(min(1.0, abs(direction.unit_vector @ t))) for t in truth
        ]
        assert min(angles) < 1e-6


def test_method_params_validation():
    with pytest.raises(ValueError):
        MethodParams(method="other")
    with pytest.raises(ValueError):
        MethodParams(v_th=1.0)
    with pytest.raises(ValueError):
        MethodParams(alpha=0.0)


def sparse_record(seed, n, length, noise_sd, burst):
    """Mixtures of n sources active in disjoint bursts, plus optional noise.

    Without noise, every velocity of a burst points along one mixing
    column, so heading magnitudes tie often.
    """
    rng = np.random.default_rng(seed)
    owner = rng.integers(-1, n, length // burst).repeat(burst)
    values = rng.uniform(-1.0, 1.0, length)
    sources = np.where(owner == np.arange(n)[:, None], values, 0.0)
    mixtures = rng.standard_normal((n, n)) @ sources
    return mixtures + noise_sd * rng.standard_normal(mixtures.shape)


def reference_separate(mixtures, params):
    """The deflation loop built from the public per-iteration helpers.

    Velocities, speeds and the acceptance threshold are written out row
    by row, one velocity per row: ``np.diff(e).T``, ``np.linalg.norm`` and
    ``np.max(np.abs(v))`` along each row, apart from the loop's
    channel-major kernel, so the bitwise check holds the kernel to them.  MHC
    reads full unit headings (as velocities of speed one), so it also
    checks that forming headings only at the compared pairs gives the same
    bits.
    """
    whitened = gram_schmidt_whiten(mixtures)
    data = whitened.components.copy()
    estimates, directions, iterations = [], [], []
    for iteration in range(data.shape[0]):
        v = np.diff(data, axis=1).T
        speeds = np.linalg.norm(v, axis=1)
        v_max = speeds.max(initial=0.0)
        accepted = (speeds > 0.0) & (np.max(np.abs(v), axis=1) >= params.v_th * v_max)
        if params.method == "global":
            accepted_idx = np.flatnonzero(accepted)
            try:
                if accepted_idx.size < 2:
                    raise TooFewHeadingsError(f"only {accepted_idx.size} accepted headings")
                epsilon = gap_threshold(params.alpha, accepted_idx.size)
                cluster, _ = find_cluster(v[accepted_idx], epsilon)
                direction = weighted_average_heading(cluster)
            except SparseBssError as cause:
                raise ClusterFormationFailedError(iteration, cause) from cause
            member_indices = accepted_idx[cluster.member_indices]
        else:
            live = speeds > 0.0
            headings = np.divide(v, speeds[:, None], out=np.zeros_like(v), where=live[:, None])
            unit_speed = HeadingSet(
                velocities=headings, headings=headings, speeds=np.ones_like(speeds),
                nonzero=live, accepted=accepted, v_max=float(v_max),
            )
            try:
                direction = mhc_find_direction(unit_speed)
            except NoConsecutivePairError as err:
                raise NoConsecutivePairError(str(err), iteration=iteration) from err
            member_indices, epsilon = np.array([], dtype=int), None
        source = project_source(data, direction)
        data = deflate(data, direction, source)
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
    return np.array(estimates), directions, iterations


def outcome(run, mixtures, params):
    """A separation's result and None, or None and its error's type, iteration and cause type."""
    try:
        return run(mixtures, params), None
    except SparseBssError as err:
        cause = err.cause if isinstance(err, ClusterFormationFailedError) else None
        return None, (type(err), getattr(err, "iteration", None), type(cause))


def assert_same_outcome(mixtures, params):
    """Compare both loops; return the error they both raised, if any."""
    got, got_error = outcome(separate, mixtures, params)
    expected, error = outcome(reference_separate, mixtures, params)
    assert got_error == error
    if error is not None:
        return error
    estimates, directions, iterations = expected
    assert got.estimates.tobytes() == estimates.tobytes()
    assert len(got.directions) == len(directions)
    for a, b in zip(got.directions, directions):
        assert a.unit_vector.tobytes() == b.unit_vector.tobytes()
        assert a.support_size == b.support_size
    assert len(got.iterations) == len(iterations)
    for a, b in zip(got.iterations, iterations):
        assert a.accepted_count == b.accepted_count
        assert a.cluster_size == b.cluster_size
        assert a.epsilon == b.epsilon and type(a.epsilon) is type(b.epsilon)
        assert a.member_indices.tobytes() == b.member_indices.tobytes()
        assert a.residual_energy == b.residual_energy
    return None


METHOD_GRID = [("global", 0.4), ("global", 0.8), ("mhc", 0.5), ("mhc", 0.8)]


class TestMatchesHelperLoop:
    """``separate`` equals the loop of public helpers bit for bit."""

    @pytest.mark.parametrize("method, v_th", METHOD_GRID)
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("noise_sd", [0.0, 0.01])
    def test_sparse_records(self, method, v_th, n, noise_sd):
        params = MethodParams(method=method, v_th=v_th)
        for seed in range(4):
            assert_same_outcome(sparse_record(seed, n, 300, noise_sd, burst=10), params)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        noise_sd=st.sampled_from([0.0, 0.01]),
        method_v_th=st.sampled_from(METHOD_GRID),
        length=st.sampled_from([20, 40, 60, 300]),
        burst=st.sampled_from([1, 2, 4, 5]),
    )
    def test_any_sparse_record(self, seed, n, noise_sd, method_v_th, length, burst):
        # Short records with short bursts, and global v_th 0.8, fail often, at
        # several iterations and for several causes, so failures are compared too.
        method, v_th = method_v_th
        params = MethodParams(method=method, v_th=v_th)
        assert_same_outcome(sparse_record(seed, n, length, noise_sd, burst), params)

    @pytest.mark.parametrize("method, seed", [("global", 25), ("mhc", 2)])
    def test_record_failing_at_iteration_1(self, method, seed):
        params = MethodParams(method=method, v_th=0.4 if method == "global" else 0.5)
        error = assert_same_outcome(sparse_record(seed, 2, 60, 0.0, burst=5), params)
        assert error[1] == 1

    @pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.8)])
    def test_two_pulse_example(self, example1, method, v_th):
        _, _, mixtures = example1
        assert assert_same_outcome(mixtures, MethodParams(method=method, v_th=v_th)) is None

    @pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.5)])
    def test_nine_channels(self, method, v_th):
        # From eight channels on, numpy sums a contiguous row's squares pairwise.
        mixtures = sparse_record(3, 9, 3000, 1e-3, burst=50)
        assert_same_outcome(mixtures, MethodParams(method=method, v_th=v_th))

    @pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.5)])
    def test_long_record(self, method, v_th):
        # Seven blocks of the acceptance kernel, and 34,224 accepted headings at iteration 0.
        mixtures = sparse_record(5, 4, 200_000, 1e-3, burst=50)
        assert assert_same_outcome(mixtures, MethodParams(method=method, v_th=v_th)) is None

    @pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.5)])
    @pytest.mark.parametrize(
        "velocities", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, (1 << 17) + 1]
    )
    def test_block_edges(self, method, v_th, velocities):
        # The velocity pass, the deflation and whitening read the record one
        # block at a time.  The last count gives a residual-energy sum over
        # more than 2**17 samples per channel, which splits several times.
        mixtures = sparse_record(6, 3, 50 * (velocities // 50 + 1), 1e-3, burst=50)
        params = MethodParams(method=method, v_th=v_th)
        assert assert_same_outcome(mixtures[:, : velocities + 1], params) is None


class TestBoundary:
    """``separate`` validates once, through whitening, and writes nothing back."""

    @pytest.mark.parametrize("method", ["global", "mhc"])
    def test_caller_array_untouched(self, method):
        mixtures = sparse_record(1, 3, 300, 0.01, burst=10)
        kept = mixtures.copy()
        separate(mixtures, MethodParams(method=method, v_th=0.5))
        assert mixtures.tobytes() == kept.tobytes()

    def test_deflate_and_project_do_not_write(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(3, 40))
        kept = data.copy()
        d = EstimatedDirection(unit_vector=np.array([0.6, 0.0, 0.8]), support_size=1)
        source = project_source(data, d)
        deflated = deflate(data, d, source)
        assert data.tobytes() == kept.tobytes()
        assert deflated is not data

    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda x: x.__setitem__((1, 7), np.nan), NonFiniteError),
            (lambda x: x.__setitem__((0, 3), np.inf), NonFiniteError),
            (lambda x: x.__setitem__(2, x[0]), RankDeficientError),
            (lambda x: x.__setitem__(1, 0.0), ZeroChannelError),
        ],
        ids=["nan", "inf", "duplicated", "all_zero"],
    )
    @pytest.mark.parametrize("method", ["global", "mhc"])
    def test_bad_input_raises_typed_error(self, corrupt, error, method):
        mixtures = sparse_record(1, 3, 300, 0.01, burst=10)
        corrupt(mixtures)
        with pytest.raises(error):
            separate(mixtures, MethodParams(method=method, v_th=0.5))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        kind=st.sampled_from(["nan", "inf", "all_zero", "duplicated", "two_samples"]),
        scale=st.sampled_from([1.0, -1.0, 0.5, 3.0, -1e-3]),
        method_v_th=st.sampled_from(METHOD_GRID),
    )
    def test_any_bad_record_raises_typed_error(self, seed, n, kind, scale, method_v_th):
        # A record with a non-finite entry, a zero channel, a channel that
        # repeats another up to scale, or only two samples.
        rng = np.random.default_rng(seed)
        mixtures = sparse_record(seed, n, 2 if kind == "two_samples" else 300, 0.01, burst=1)
        i, j = rng.choice(n, 2, replace=False)
        if kind in ("nan", "inf"):
            mixtures[i, rng.integers(mixtures.shape[1])] = scale * np.inf if kind == "inf" else np.nan
        elif kind == "all_zero":
            mixtures[i] = 0.0
        elif kind == "duplicated":
            mixtures[j] = scale * mixtures[i]
        with pytest.raises(SparseBssError):
            separate(mixtures, MethodParams(*method_v_th))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        extra=st.integers(0, 3),
        noise_sd=st.sampled_from([0.0, 0.01]),
        method_v_th=st.sampled_from(METHOD_GRID),
    )
    def test_short_record_raises_typed_error_or_gives_finite_estimates(
        self, seed, n, extra, noise_sd, method_v_th
    ):
        # At most N + 3 samples: a typed error, or every estimate finite.
        mixtures = sparse_record(seed, n, n + extra, noise_sd, burst=1)
        try:
            result = separate(mixtures, MethodParams(*method_v_th))
        except SparseBssError:
            return
        assert np.isfinite(result.estimates).all()

    @pytest.mark.parametrize(
        "corrupt, error, message",
        [
            (lambda x: x.__setitem__(1, 0.0), ZeroChannelError, "channel 1 is identically zero"),
            (lambda x: x.__setitem__(2, x[0]), RankDeficientError, "channel 2 is linearly dependent"),
            (lambda x: x.__setitem__(1, 1e-300 * x[1]), SparseBssError, "channel 1 .* rms underflows"),
        ],
        ids=["all_zero", "duplicated", "tiny_channel"],
    )
    def test_typed_error_on_a_record_over_two_blocks(self, corrupt, error, message):
        # Such a record is whitened in place, one block at a time.
        mixtures = sparse_record(1, 3, 2 * BLOCK + 34, 0.01, burst=10)
        corrupt(mixtures)
        with pytest.raises(error, match=message) as excinfo:
            separate(mixtures, MethodParams(method="global", v_th=0.5))
        assert type(excinfo.value) is error

    @pytest.mark.parametrize("method", ["global", "mhc"])
    def test_single_sample_raises_typed_error(self, method):
        with pytest.raises(TooShortError):
            separate(np.array([[1.0], [2.0]]), MethodParams(method=method))

    @pytest.mark.parametrize("scale, way", [(1e300, "overflows"), (1e-300, "underflows")])
    @pytest.mark.parametrize("method", ["global", "mhc"])
    def test_out_of_range_scale_is_named(self, scale, way, method):
        # Finite and nonzero, but the rms of every channel leaves float64:
        # not a zero channel, and not a cluster failure on whitened zeros.
        mixtures = scale * sparse_record(1, 3, 300, 0.01, burst=10)
        with pytest.raises(SparseBssError, match=f"rms {way} float64") as excinfo:
            separate(mixtures, MethodParams(method=method, v_th=0.5))
        assert type(excinfo.value) is SparseBssError

    @pytest.mark.parametrize("method", ["global", "mhc"])
    def test_complex_input_is_refused(self, method):
        mixtures = sparse_record(1, 3, 300, 0.01, burst=10) * (1 + 1j)
        with pytest.raises(SparseBssError, match="complex128"):
            separate(mixtures, MethodParams(method=method, v_th=0.5))

    @pytest.mark.parametrize("method", ["global", "mhc"])
    def test_subnormal_scale_is_named(self, method):
        # At 1e-160 the squares are subnormal and whitening would lose bits of
        # the directions, so it names the scale; at 1e-150 the directions hold.
        mixtures = sparse_record(1, 3, 300, 0.0, burst=10)
        params = MethodParams(method=method, v_th=0.5)
        with pytest.raises(SparseBssError, match="rms underflows float64") as excinfo:
            separate(1e-160 * mixtures, params)
        assert type(excinfo.value) is SparseBssError
        scaled, unscaled = separate(1e-150 * mixtures, params), separate(mixtures, params)
        for a, b in zip(scaled.directions, unscaled.directions):
            assert 1.0 - abs(a.unit_vector @ b.unit_vector) <= 1e-15


def silent_bursts(seed, n, bursts_per_source, burst):
    """Sources in disjoint bursts that each open with one silent sample, and their mixtures.

    Every velocity then moves along one source's mixing column: into a
    burst from its silent sample, within it, or out of the previous burst
    onto that sample.  Returns ``(sources, mixing, mixtures)``.
    """
    rng = np.random.default_rng(seed)
    owner = rng.permutation(np.repeat(np.arange(n), bursts_per_source)).repeat(burst)
    values = rng.uniform(-1.0, 1.0, owner.size)
    values[::burst] = 0.0
    sources = np.where(owner == np.arange(n)[:, None], values, 0.0)
    mixing = rng.standard_normal((n, n))
    return sources, mixing, mixing @ sources


def recovery_error(sources, estimates):
    """Largest per-sample error of the unit-norm estimates against the unit-norm sources."""
    _, errors = source_errors(normalize_unit_norm(sources), normalize_unit_norm(estimates))
    return np.abs(errors).max()


class TestProperties:
    """Invariances and exact recovery that hold for every record drawn."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 4),
        noise_sd=st.sampled_from([0.0, 0.01]),
        method_v_th=st.sampled_from(METHOD_GRID),
        length=st.sampled_from([40, 300]),
        burst=st.sampled_from([2, 5, 10]),
        power=st.integers(-60, 60),
        channel=st.integers(0, 3),
    )
    def test_power_of_two_scale_and_channel_sign_change_nothing(
        self, seed, n, noise_sd, method_v_th, length, burst, power, channel
    ):
        # Scaling by 2**power is exact in every step, and a channel's sign
        # cancels in every product that reads it twice, so the estimates keep
        # their bits; a failing record fails with the same type at the same iteration.
        params = MethodParams(*method_v_th)
        mixtures = sparse_record(seed, n, length, noise_sd, burst)
        flipped = mixtures.copy()
        flipped[channel % n] *= -1.0
        base, base_error = outcome(separate, mixtures, params)
        for variant in (2.0**power * mixtures, flipped):
            result, error = outcome(separate, variant, params)
            assert error == base_error
            if error is None:
                assert result.estimates.tobytes() == base.estimates.tobytes()

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        bursts_per_source=st.integers(4, 12),
        burst=st.integers(5, 24),
    )
    def test_mhc_recovers_silent_burst_sources(self, seed, n, bursts_per_source, burst):
        # The newest heading of any consecutive pair moves along one source,
        # so whenever MHC finds a pair it finds a source.
        sources, _, mixtures = silent_bursts(seed, n, bursts_per_source, burst)
        result, _ = outcome(separate, mixtures, MethodParams("mhc", 0.5))
        if result is not None:
            assert recovery_error(sources, result.estimates) <= 1e-12

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        bursts_per_source=st.integers(4, 12),
        burst=st.integers(5, 24),
    )
    def test_global_recovers_two_silent_burst_sources(self, seed, bursts_per_source, burst):
        # Each source's headings tie in every component.  The sorted run
        # chains the two sources when their whitened directions differ by
        # less than epsilon in some component magnitude (a known defect, see
        # ROADMAP item 6), so only records without such a tie are drawn.
        sources, mixing, mixtures = silent_bursts(seed, 2, bursts_per_source, burst)
        result = separate(mixtures, MethodParams("global", 0.4, 1.0))
        columns = gram_schmidt_whiten(mixtures).transform @ mixing
        magnitudes = np.abs(columns / np.linalg.norm(columns, axis=0))
        assume(np.min(np.abs(magnitudes[:, 0] - magnitudes[:, 1])) >= result.iterations[0].epsilon)
        assert recovery_error(sources, result.estimates) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mhc_estimates_do_not_depend_on_the_channel_order(n):
    # Gram-Schmidt depends on the channel order, so compare the sets of
    # estimates: on clean sparse records every order that separates finds
    # the same sources, up to order and sign.  Whether MHC finds a pair at
    # all may depend on the order.  The global method fails this at N = 3
    # and 4, where its cluster can chain two sources (ROADMAP item 1).
    params = MethodParams("mhc", 0.5)
    for seed in range(6):
        mixtures = sparse_record(seed, n, 3000, 0.0, burst=50)
        reference = separate(mixtures, params).estimates
        separated = 0
        for order in itertools.permutations(range(n)):
            try:
                estimates = separate(mixtures[list(order)], params).estimates
            except NoConsecutivePairError:
                continue
            separated += 1
            assert np.abs(associate(reference, estimates).correlations).min() >= 1.0 - 1e-6
        assert separated >= 0.8 * np.prod(range(1, n + 1))


class TestMemory:
    """``separate`` holds no velocity buffer, whitens and deflates in place, and sums in blocks."""

    @staticmethod
    def peak_per_record_byte(run, record):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / record.nbytes

    @pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.5)])
    def test_separate_peak(self, method, v_th):
        # The whitened data and the estimates are one record each; the
        # velocity pass adds the component maxima, a quarter at N = 4, and
        # the direction steps the velocities they read: 2.83 records
        # (global) and 2.51 (MHC).  A (Q, N, L-1) velocity buffer
        # reads 3.41-3.45, and a record-sized square for the residual energy
        # raises it again.
        mixtures = sparse_record(0, 4, 250_000, 1e-3, burst=50)
        params = MethodParams(method=method, v_th=v_th)
        assert self.peak_per_record_byte(lambda: separate(mixtures, params), mixtures) <= 3.15

    def test_whitening_peak(self):
        # The components are one record; the finiteness mask (an eighth) is
        # freed before them, and the rest are blocks: 1.03 records.
        # Whitening each channel in a copy, as records of one block are, reads 1.5.
        mixtures = sparse_record(0, 4, 250_000, 1e-3, burst=50)
        assert self.peak_per_record_byte(lambda: gram_schmidt_whiten(mixtures), mixtures) <= 1.1

    @pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.5)])
    def test_loop_peak(self, method, v_th):
        # Beyond the data it deflates and the estimates it fills, the loop
        # holds only row-sized or heading-sized arrays: 0.83 records (global)
        # and 0.51 (MHC) here.  A (Q, N, L-1) velocity buffer takes it to
        # 1.9-2.3, and a (Q, N, L) deflation product raises it again.
        data = gram_schmidt_whiten(sparse_record(0, 4, 250_000, 1e-3, burst=50)).components[None]
        steps = deflation_steps(data, MethodParams(method=method, v_th=v_th), np.empty_like(data))

        def run():
            for _ in steps:  # holds the latest iteration's outputs, as separate does
                pass

        assert self.peak_per_record_byte(run, data) <= 1.05

    def test_mhc_keeps_no_record_length_speeds(self):
        # The threshold pass keeps its speeds one block at a time, and MHC's
        # change table has one slot per pair: beyond the component maxima (a
        # quarter record at N = 4) the loop holds only pair- and block-sized
        # arrays, 0.51 records, and separate 2.51.  Record-length speeds and a
        # record-length change table read 0.79 and 2.79.
        mixtures = sparse_record(0, 4, 250_000, 1e-3, burst=50)
        params = MethodParams(method="mhc", v_th=0.5)
        data = gram_schmidt_whiten(mixtures).components[None]
        steps = deflation_steps(data, params, np.empty_like(data))

        def run():
            for _ in steps:
                pass

        assert self.peak_per_record_byte(run, data) <= 0.6
        assert self.peak_per_record_byte(lambda: separate(mixtures, params), mixtures) <= 2.6
