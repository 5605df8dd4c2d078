"""Golden tests for the sorting/run-detection clustering pass.

The expected tables follow the ten-velocity worked example: heading
magnitudes, per-component stable sorts with their index maps, the gap
table at epsilon = 0.01, seed expansion with the left anchor, the
cross-component check, and the final AND.  All indices here are 0-based.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebss import clustering
from sparsebss.clustering import check_alpha, cluster_tables, gap_thresholds, longest_runs
from sparsebss import (
    DimensionMismatchError,
    EmptyClusterError,
    MethodParams,
    NoRunFoundError,
    NonFiniteError,
    SparseBssError,
    TooFewHeadingsError,
    build_adjacency,
    cross_check_components,
    expand_and_remap,
    extract_cluster,
    find_cluster,
    find_largest_run,
    gap_threshold,
    normalize_headings,
    sort_component,
)

EPSILON = 0.01

SORTED_VALUES_1 = [0.4472] * 5 + [0.5547] * 3 + [0.7071, 0.8575]
INDEX_MAP_1 = [0, 2, 3, 5, 9, 1, 6, 8, 7, 4]
SORTED_VALUES_2 = [0.5145, 0.7071] + [0.8321] * 3 + [0.8944] * 5
INDEX_MAP_2 = [4, 7, 1, 6, 8, 0, 2, 3, 5, 9]
ADJACENCY_1 = [0, 1, 1, 1, 1, 0, 1, 1, 0, 0]
ADJACENCY_2 = [0, 0, 0, 1, 1, 0, 1, 1, 1, 1]
CLUSTER_MEMBERS = [0, 2, 3, 5, 9]


def magnitudes_of(velocities):
    headings, zero = normalize_headings(velocities)
    assert not zero.any()
    return np.abs(headings)


def test_heading_magnitudes_match_table(worked_velocities):
    mags = magnitudes_of(worked_velocities)
    expected = np.array(
        [
            [0.4472, 0.8944],
            [0.5547, 0.8321],
            [0.4472, 0.8944],
            [0.4472, 0.8944],
            [0.8575, 0.5145],
            [0.4472, 0.8944],
            [0.5547, 0.8321],
            [0.7071, 0.7071],
            [0.5547, 0.8321],
            [0.4472, 0.8944],
        ]
    )
    np.testing.assert_allclose(np.round(mags, 4), expected, atol=0)


def test_sort_component_golden(worked_velocities):
    mags = magnitudes_of(worked_velocities)
    sc1 = sort_component(mags, 0)
    np.testing.assert_allclose(np.round(sc1.values, 4), SORTED_VALUES_1, atol=0)
    assert list(sc1.index_map) == INDEX_MAP_1
    sc2 = sort_component(mags, 1)
    np.testing.assert_allclose(np.round(sc2.values, 4), SORTED_VALUES_2, atol=0)
    assert list(sc2.index_map) == INDEX_MAP_2


def test_sort_component_identity_on_sorted_input():
    mags = np.array([[0.1], [0.2], [0.5]])
    sc = sort_component(mags, 0)
    assert list(sc.index_map) == [0, 1, 2]


@st.composite
def magnitude_columns(draw):
    """An (M, N) matrix whose chosen column has forced ties, none, or one value."""
    m = draw(st.integers(2, 600))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["grid", "distinct", "equal"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitudes = rng.random((m, n))
    component = draw(st.integers(0, n - 1))
    if kind == "grid":
        k = draw(st.integers(1, 8))
        magnitudes[:, component] = rng.integers(0, k + 1, m) / k
    elif kind == "distinct":
        magnitudes[:, component] = (rng.permutation(m) + rng.random()) / m
    else:
        magnitudes[:, component] = rng.random()
    return magnitudes, component


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(magnitude_columns())
def test_sort_component_equals_stable_argsort(case):
    magnitudes, component = case
    column = magnitudes[:, component]
    expected = np.argsort(column, kind="stable")
    sc = sort_component(magnitudes, component)
    assert sc.index_map.tobytes() == expected.tobytes()
    assert sc.values.tobytes() == column[expected].tobytes()


def test_sort_component_needs_two_headings():
    with pytest.raises(TooFewHeadingsError):
        sort_component(np.array([[0.5, 0.5]]), 0)


@pytest.mark.parametrize("component", [2, -1, 7])
def test_sort_component_names_a_component_out_of_range(component):
    with pytest.raises(DimensionMismatchError, match=f"component {component} is out of range"):
        sort_component(np.ones((3, 2)), component)


@pytest.mark.parametrize(
    "run, message",
    [
        ((2, 1, 3), "run component 2 is out of range for 2 components"),
        ((0, 1, 7), "run 1..7 does not lie within the 5 sorted positions of component 0"),
        ((1, -1, 2), "run -1..2 does not lie within"),
        ((1, 3, 2), "run 3..2 does not lie within"),
    ],
)
def test_expand_and_remap_names_a_run_out_of_range(run, message):
    sorted_components = [sort_component(np.random.default_rng(0).random((5, 2)), i) for i in (0, 1)]
    with pytest.raises(DimensionMismatchError, match=re.escape(message)):
        expand_and_remap(run, sorted_components)


def test_gap_threshold_values():
    assert gap_threshold(1.0, 10) == pytest.approx(0.1)
    assert gap_threshold(0.5, 100) == pytest.approx(0.005)
    assert gap_threshold(1.0, 2) == pytest.approx(0.5)


def test_gap_threshold_validates():
    with pytest.raises(ValueError):
        gap_threshold(1.5, 10)
    with pytest.raises(TooFewHeadingsError):
        gap_threshold(1.0, 1)


def test_stacked_gap_thresholds_are_the_one_record_rule():
    # The stacked global step's epsilon is gap_threshold's division, record
    # by record; a record under two headings is marked, not raised.
    count = np.array([0, 1, 2, 3, 7, 10, 1000])
    for alpha in (1.0, 0.3, 0.1, 1e-3):
        epsilon, enough = gap_thresholds(alpha, count)
        assert enough.tolist() == [False, False, True, True, True, True, True]
        for k, eps in zip(count[enough].tolist(), epsilon[enough]):
            assert eps.tobytes() == np.float64(gap_threshold(alpha, k)).tobytes()
        assert (epsilon[~enough] == alpha / 2).all()


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5, float("nan")])
def test_alpha_has_one_check(alpha):
    for check in (check_alpha, lambda a: gap_threshold(a, 10), lambda a: MethodParams(alpha=a)):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\], got "):
            check(alpha)


def test_one_dimensional_magnitudes_are_a_dimension_mismatch():
    # A 1-D array escaped as numpy's IndexError.
    with pytest.raises(DimensionMismatchError, match=r"shape \(4,\)"):
        sort_component(np.array([0.1, 0.3, 0.6, 0.95]), 0)


@pytest.mark.parametrize("table", [[True, False, True], np.ones(5, dtype=bool), [[[True]]]])
def test_adjacency_that_is_not_a_table_is_a_dimension_mismatch(table):
    with pytest.raises(DimensionMismatchError, match="table"):
        find_largest_run(table)


def test_adjacency_golden(worked_velocities):
    mags = magnitudes_of(worked_velocities)
    c1 = build_adjacency(sort_component(mags, 0), EPSILON)
    c2 = build_adjacency(sort_component(mags, 1), EPSILON)
    assert list(c1.astype(int)) == ADJACENCY_1
    assert list(c2.astype(int)) == ADJACENCY_2


def test_adjacency_all_false_for_wide_gaps():
    sc = sort_component(np.array([[0.1], [0.3], [0.6], [0.95]]), 0)
    assert not build_adjacency(sc, 0.05).any()


def test_find_largest_run_golden(worked_velocities):
    mags = magnitudes_of(worked_velocities)
    adjacency = np.column_stack(
        [build_adjacency(sort_component(mags, i), EPSILON) for i in (0, 1)]
    )
    # the two runs tie at length 4; the lower component index wins
    assert find_largest_run(adjacency) == (0, 1, 4)


def test_find_largest_run_single_true():
    adjacency = np.zeros((5, 2), dtype=bool)
    adjacency[3, 1] = True
    assert find_largest_run(adjacency) == (1, 3, 3)


def test_find_largest_run_all_false():
    with pytest.raises(NoRunFoundError):
        find_largest_run(np.zeros((4, 2), dtype=bool))


def test_expand_and_remap_golden(worked_velocities):
    mags = magnitudes_of(worked_velocities)
    sorted_components = [sort_component(mags, i) for i in (0, 1)]
    seed = expand_and_remap((0, 1, 4), sorted_components)
    assert list(seed) == CLUSTER_MEMBERS


def test_expand_includes_left_anchor():
    values = np.array([[0.1], [0.4], [0.41], [0.9]])
    sc = sort_component(values, 0)
    seed = expand_and_remap((0, 2, 2), [sc])
    assert set(seed) == {1, 2}


def test_cross_check_golden(worked_velocities):
    mags = magnitudes_of(worked_velocities)
    sorted_components = [sort_component(mags, i) for i in (0, 1)]
    adjacency = np.column_stack(
        [build_adjacency(sc, EPSILON) for sc in sorted_components]
    )
    tables = cross_check_components(
        np.array(CLUSTER_MEMBERS), 0, adjacency, sorted_components
    )
    expected_membership = np.zeros(10, dtype=bool)
    expected_membership[CLUSTER_MEMBERS] = True
    # both columns agree on the member rows (anchor rule fills heading 0,
    # whose sorted position in component 2 sits just left of a run)
    np.testing.assert_array_equal(tables.membership[:, 0], expected_membership)
    np.testing.assert_array_equal(tables.membership[:, 1], expected_membership)
    np.testing.assert_array_equal(tables.survivors, expected_membership)


def test_cross_check_isolated_position_is_false():
    mags = np.array([[0.1, 0.10], [0.101, 0.50], [0.5, 0.51]])
    sorted_components = [sort_component(mags, i) for i in (0, 1)]
    adjacency = np.column_stack(
        [build_adjacency(sc, 0.02) for sc in sorted_components]
    )
    # seed = headings 0 and 1 from component 0; heading 0's component-2
    # position is isolated, heading 1's is the anchor of the (0.50, 0.51) run
    tables = cross_check_components(np.array([0, 1]), 0, adjacency, sorted_components)
    assert not tables.membership[0, 1]
    assert tables.membership[1, 1]


def test_extract_cluster_golden(worked_velocities):
    cluster, tables = find_cluster(worked_velocities, EPSILON)
    assert list(cluster.member_indices) == CLUSTER_MEMBERS
    np.testing.assert_array_equal(
        cluster.member_velocities, worked_velocities[CLUSTER_MEMBERS]
    )
    assert list(np.flatnonzero(tables.survivors)) == CLUSTER_MEMBERS


def test_extract_cluster_empty():
    from sparsebss.clustering import ClusterTables

    tables = ClusterTables(
        adjacency=np.zeros((3, 2), dtype=bool),
        membership=np.zeros((3, 2), dtype=bool),
        survivors=np.zeros(3, dtype=bool),
    )
    with pytest.raises(EmptyClusterError):
        extract_cluster(tables, np.ones((3, 2)))


def test_extract_cluster_dimension_mismatch(worked_velocities):
    _, tables = find_cluster(worked_velocities, EPSILON)
    with pytest.raises(DimensionMismatchError):
        extract_cluster(tables, worked_velocities[:-1])


@pytest.mark.parametrize("epsilon", [0.0, -0.01, float("nan")])
def test_build_adjacency_needs_positive_epsilon(worked_velocities, epsilon):
    sorted_component = sort_component(magnitudes_of(worked_velocities), 0)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        build_adjacency(sorted_component, epsilon)


@pytest.mark.parametrize("epsilon", [0.0, -0.01, float("nan")])
def test_find_cluster_needs_positive_epsilon(worked_velocities, epsilon):
    # NaN passes an `epsilon <= 0` test and would be reported as no run.
    with pytest.raises(ValueError, match="epsilon must be positive"):
        find_cluster(worked_velocities, epsilon)


def test_find_cluster_needs_two_headings():
    with pytest.raises(TooFewHeadingsError):
        find_cluster(np.array([[0.6, 0.8]]), EPSILON)


def test_find_cluster_rejects_zero_velocity(worked_velocities):
    velocities = worked_velocities.copy()
    velocities[3] = 0.0
    with pytest.raises(SparseBssError, match="zero-velocity rows"):
        find_cluster(velocities, EPSILON)


def test_find_cluster_names_overflowing_lengths():
    # Four unit directions with no two component magnitudes within epsilon:
    # no run.  Scaled so far that their lengths overflow, they would all read
    # magnitude 0 and form one cluster; the overflow is named instead.
    directions = np.random.default_rng(0).normal(size=(4, 3))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    with pytest.raises(NoRunFoundError):
        find_cluster(directions, 0.01)
    with pytest.raises(SparseBssError, match="velocity 0 overflows float64; rescale"):
        find_cluster(directions * 1e160, 0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_find_cluster_rejects_non_finite_velocities(bad):
    # A NaN used to read as no run, an infinity as an overflowing length.
    with pytest.raises(NonFiniteError, match="NaN or infinite entries in the velocities"):
        find_cluster([[bad, 1.0], [1.0, 1.0], [0.5, 0.2]], 0.1)


def test_epsilon_monotonicity(worked_velocities):
    mags = magnitudes_of(worked_velocities)
    previous = None
    for epsilon in (0.001, 0.01, 0.05, 0.2, 0.9):
        adjacency = np.column_stack(
            [build_adjacency(sort_component(mags, i), epsilon) for i in (0, 1)]
        )
        if previous is not None:
            assert np.all(previous <= adjacency)
        previous = adjacency


def test_permutation_equivariance():
    rng = np.random.default_rng(55)
    velocities = rng.normal(size=(20, 3))
    cluster, _ = find_cluster(velocities, 0.08)
    perm = rng.permutation(20)
    cluster_p, _ = find_cluster(velocities[perm], 0.08)
    # membership maps through the permutation
    original = set(cluster.member_indices)
    remapped = set(perm[cluster_p.member_indices])
    assert original == remapped


def test_perfect_sparsity_clusters_single_window():
    # source 0 active on samples 0..24, source 1 on 25..49; every
    # clustered heading must come from one window only
    rng = np.random.default_rng(56)
    sources = np.zeros((2, 50))
    sources[0, :25] = rng.uniform(-1, 1, 25)
    sources[1, 25:] = rng.uniform(-1, 1, 25)
    mixtures = np.array([[1.1, 0.4], [-0.3, 0.9]]) @ sources
    velocities = np.diff(mixtures, axis=1).T
    live = np.linalg.norm(velocities, axis=1) > 0
    idx = np.flatnonzero(live)
    cluster, _ = find_cluster(velocities[idx], 0.01)
    members = idx[cluster.member_indices]
    # velocity n mixes samples n and n+1; the pure windows are 0..23 and 25..48
    in_first = members <= 23
    in_second = members >= 25
    assert in_first.all() or in_second.all()


def loop_cross_check(seed_indices, seed_component, adjacency, sorted_components):
    """Reference cross-check: look up each seed heading's sorted position in turn."""
    n_rows, n_cols = adjacency.shape
    membership = np.zeros((n_rows, n_cols), dtype=bool)
    for heading in seed_indices:
        for component in range(n_cols):
            if component == seed_component:
                membership[heading, component] = True
                continue
            position = list(sorted_components[component].index_map).index(heading)
            after = position + 1 < n_rows and adjacency[position + 1, component]
            membership[heading, component] = adjacency[position, component] or after
    return membership


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    m=st.integers(2, 60),
    n=st.integers(1, 4),
    levels=st.integers(1, 12),
    epsilon=st.sampled_from([0.01, 0.1, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cross_check_matches_loop_reference(m, n, levels, epsilon, seed):
    # Magnitudes on a coarse grid tie often, so runs and anchors are common.
    rng = np.random.default_rng(seed)
    magnitudes = rng.integers(0, levels + 1, (m, n)) / levels
    sorted_components = [sort_component(magnitudes, i) for i in range(n)]
    adjacency = np.column_stack([build_adjacency(sc, epsilon) for sc in sorted_components])
    seed_component = int(rng.integers(0, n))
    seed_indices = np.flatnonzero(rng.random(m) < 0.5)
    tables = cross_check_components(seed_indices, seed_component, adjacency, sorted_components)
    expected = loop_cross_check(seed_indices, seed_component, adjacency, sorted_components)
    np.testing.assert_array_equal(tables.membership, expected)
    np.testing.assert_array_equal(tables.survivors, expected.all(axis=1))


def channel_order_norms(v):
    """Lengths of (M, N) velocity rows: each row's squares added in channel order."""
    return np.sqrt(sum(np.square(v[:, i]) for i in range(v.shape[1])))


@pytest.mark.parametrize("n", [4, 8, 9, 17])
def test_find_cluster_keeps_channel_order_bits(monkeypatch, n):
    # numpy sums the components of a contiguous row pairwise from eight on,
    # and those of a strided row in order.  The magnitudes handed to the
    # sorts must be those of the channel-order formula, on both sides of
    # eight components, whether the caller passes (M, N) rows or a view of
    # (N, M) channel rows, and the clusters must not depend on the layout.
    rng = np.random.default_rng(n)
    columns = rng.standard_normal((n, n))
    owner = rng.integers(0, n, 600)
    v = columns[:, owner].T * rng.uniform(0.5, 1.5, (600, 1))
    v += 1e-4 * rng.standard_normal(v.shape)
    expected = np.abs(v / channel_order_norms(v)[:, None])

    seen = []

    def recording_kernel(magnitudes, count, epsilon):
        seen.append(np.array(magnitudes))
        return cluster_tables(magnitudes, count, epsilon)

    monkeypatch.setattr(clustering, "cluster_tables", recording_kernel)
    results = []
    for table in (v, np.ascontiguousarray(v.T).T):
        seen.clear()
        results.append(find_cluster(table, gap_threshold(1.0, len(v))))
        (magnitudes,) = seen  # (N, M) channel rows, the table the kernel sorts
        assert magnitudes.T.tobytes() == expected.tobytes()
    (a, tables_a), (b, tables_b) = results
    assert 1 < a.member_indices.size < len(v)  # sorted, not every heading
    assert a.member_indices.tobytes() == b.member_indices.tobytes()
    assert a.member_velocities.tobytes() == b.member_velocities.tobytes()
    assert tables_a.membership.tobytes() == tables_b.membership.tobytes()


def step_pipeline(velocities, epsilon):
    """:func:`find_cluster` through its step helpers, always sorting."""
    v = np.asarray(velocities)
    magnitudes = np.abs(v / channel_order_norms(v)[:, None])
    sorted_components = [sort_component(magnitudes, i) for i in range(v.shape[1])]
    adjacency = np.column_stack([build_adjacency(sc, epsilon) for sc in sorted_components])
    run = find_largest_run(adjacency)
    seed = expand_and_remap(run, sorted_components)
    tables = cross_check_components(seed, run[0], adjacency, sorted_components)
    return extract_cluster(tables, v), tables


def tight_set(k, n, seed, channel_rows):
    """+-u at random speeds, each perturbed far below epsilon.

    Returned as (K, N) rows, or as the (K, N) view of (N, K) channel rows.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    speeds = rng.uniform(0.1, 10.0, k) * rng.choice([-1.0, 1.0], k)
    v = (speeds[:, None] * u) * (1.0 + 1e-9 * rng.standard_normal((k, n)))
    return np.ascontiguousarray(v.T).T if channel_rows else v


def cluster_and_run_tables(velocities, epsilon):
    """:func:`find_cluster`'s result and the shapes of the run tables it scanned.

    Each shape is (records, headings, components): the components sorted.
    """
    shapes = []

    def recording_runs(adjacency):
        shapes.append(adjacency.shape)
        return longest_runs(adjacency)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(clustering, "longest_runs", recording_runs)
        return find_cluster(velocities, epsilon), shapes


def assert_same_cluster(got, expected):
    (cluster, tables), (cluster_ref, tables_ref) = got, expected
    indices, indices_ref = cluster.member_indices, cluster_ref.member_indices
    assert indices.dtype == indices_ref.dtype and indices.tobytes() == indices_ref.tobytes()
    members, members_ref = cluster.member_velocities, cluster_ref.member_velocities
    assert members.shape == members_ref.shape and members.strides == members_ref.strides
    assert members.flags.c_contiguous and members.tobytes() == members_ref.tobytes()
    for name in ("adjacency", "membership", "survivors"):
        np.testing.assert_array_equal(getattr(tables, name), getattr(tables_ref, name))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    k=st.integers(2, 200),
    n=st.integers(2, 9),
    alpha=st.sampled_from([1.0, 0.3, 0.05]),
    seed=st.integers(0, 2**32 - 1),
    channel_rows=st.booleans(),
)
def test_tight_set_clusters_every_heading_without_sorting(k, n, alpha, seed, channel_rows):
    # The last iteration's residual holds one source: every heading is +-u and
    # the sorts can only find every heading.  The exit must return what they would.
    v = tight_set(k, n, seed, channel_rows)
    epsilon = gap_threshold(alpha, k)
    got, run_tables = cluster_and_run_tables(v, epsilon)
    assert run_tables == []
    assert len(got[0]) == k
    assert_same_cluster(got, step_pipeline(v, epsilon))


@pytest.mark.parametrize("n", [2, 5, 9])
def test_spread_equal_to_epsilon_takes_the_full_path(n):
    v = tight_set(50, n, n, channel_rows=True)
    magnitudes = np.abs(v / channel_order_norms(v)[:, None])
    epsilon = float(np.max(magnitudes.max(axis=0) - magnitudes.min(axis=0)))
    got, run_tables = cluster_and_run_tables(v, epsilon)
    assert run_tables == [(1, 50, n)]
    assert_same_cluster(got, step_pipeline(v, epsilon))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    m=st.integers(2, 60),
    n=st.integers(1, 9),
    levels=st.integers(1, 4),
    epsilon=st.sampled_from([0.01, 0.1, 0.3]),
    seed=st.integers(0, 2**32 - 1),
    channel_rows=st.booleans(),
)
def test_find_cluster_matches_step_pipeline_on_ties(m, n, levels, epsilon, seed, channel_rows):
    # Velocities on a coarse integer grid give magnitudes on a coarse grid:
    # headings that differ only in sign or component order tie exactly, so
    # runs, anchors and empty ANDs are common.
    rng = np.random.default_rng(seed)
    v = rng.integers(-levels, levels + 1, (m, n)).astype(float)
    v[~v.any(axis=1), 0] = 1.0
    if channel_rows:
        v = np.ascontiguousarray(v.T).T
    try:
        expected = step_pipeline(v, epsilon)
    except (NoRunFoundError, EmptyClusterError) as err:
        with pytest.raises(type(err)):
            find_cluster(v, epsilon)
        return
    assert_same_cluster(find_cluster(v, epsilon), expected)
