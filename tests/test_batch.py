"""The batched Monte Carlo engine against the per-run path it batches."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebss import (
    AllRunsFailedError,
    GaussianPulseSpec,
    HeadingSet,
    MethodParams,
    NoConsecutivePairError,
    NoRunFoundError,
    ScenarioConfig,
    SparseBssError,
    ZeroChannelError,
    add_noise,
    associate,
    find_largest_run,
    load_preset,
    mhc_find_direction,
    monte_carlo,
    normalize_unit_norm,
    separate,
    source_errors,
)
from sparsebss import clustering, evaluation
from sparsebss.clustering import cluster_tables, longest_runs
from sparsebss.evaluation import CHUNK_RUNS, associate_stack, chunk_runs, rms_metrics, run_chunk
from sparsebss.rng import derive_seed
from sparsebss.separation import deflation_steps, mhc_pick
from sparsebss.signals import ordered_row_norms
from sparsebss.simulate import noisy_stack
from sparsebss.whitening import whiten_stack

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)

#: The acceptance gate's six Monte Carlo rows: (noise sd, method, v_th).
GATE_ROWS = [
    (0.005, "global", 0.40),
    (0.005, "global", 0.35),
    (0.005, "mhc", 0.70),
    (0.010, "mhc", 0.80),
    (0.010, "global", 0.30),
    (0.010, "global", 0.40),
]


def noisy_example1(noise_sd):
    return ScenarioConfig.from_dict(dict(load_preset("example1").to_dict(), noise_sd=noise_sd))


def per_run(clean, actual, params, noise_sd, seed):
    """One run on the per-run path: its (S, L) errors, or None if it raises."""
    try:
        estimates = normalize_unit_norm(separate(add_noise(clean, noise_sd, seed), params).estimates)
        return source_errors(actual, estimates)[1]
    except SparseBssError:
        return None


def by_run(chunks):
    """The chunks' success-order errors as one (runs, S, L) array, NaN on
    failed runs, and their success mask."""
    ok = np.concatenate([k for _, k in chunks])
    errors = np.full((ok.size, *chunks[0][0].shape[1:]), np.nan)
    errors[ok] = np.concatenate([e for e, _ in chunks])
    return errors, ok


@pytest.mark.parametrize("noise_sd, method, v_th", GATE_ROWS)
def test_batched_matches_per_run_on_gate_rows(noise_sd, method, v_th):
    sources, clean = noisy_example1(noise_sd).generate()
    actual = normalize_unit_norm(sources)
    params = MethodParams(method, v_th, 1.0)
    seeds = [derive_seed(20240707, q) for q in range(320)]
    chunks = [run_chunk(clean, actual, params, noise_sd, seeds[i : i + CHUNK_RUNS])
              for i in range(0, len(seeds), CHUNK_RUNS)]
    errors, ok = by_run(chunks)
    reference = [per_run(clean, actual, params, noise_sd, s) for s in seeds]
    assert list(ok) == [r is not None for r in reference]
    for q in np.flatnonzero(ok):
        np.testing.assert_allclose(errors[q], reference[q], rtol=0, atol=1e-12)


def test_result_independent_of_worker_count():
    config = noisy_example1(0.005)
    params = MethodParams("global", 0.4)
    reports = [monte_carlo(config, params, 2, 300, master_seed=7, workers=w) for w in (1, 2, 3)]
    for other in reports[1:]:
        np.testing.assert_array_equal(other.rms_per_sample, reports[0].rms_per_sample)
        np.testing.assert_array_equal(other.set_rms_max, reports[0].set_rms_max)
        np.testing.assert_array_equal(other.set_rms_tot, reports[0].set_rms_tot)
        assert other.failures == reports[0].failures


@pytest.mark.parametrize(
    "method, v_th, noise_sd",
    [
        pytest.param("global", 0.4, 0.005, id="global-0.4"),
        pytest.param("mhc", 0.7, 0.005, id="mhc-0.7"),
        pytest.param("global", 0.9, 0.005, id="global-0.9"),
        # Most runs leave the chunk at iteration 0.
        pytest.param("mhc", 0.8, 0.01, id="mhc-0.8-0.01"),
        # Overflowing noise: whitening rejects 225 of the 250 runs.
        pytest.param("global", 0.4, 2e153, id="global-0.4-2e+153"),
        pytest.param("mhc", 0.7, 2e153, id="mhc-0.7-2e+153"),
    ],
)
def test_run_alone_equals_run_inside_a_full_chunk(method, v_th, noise_sd):
    sources, clean = noisy_example1(noise_sd).generate()
    actual = normalize_unit_norm(sources)
    params = MethodParams(method, v_th, 1.0)
    seeds = [derive_seed(31, q) for q in range(CHUNK_RUNS)]
    errors, ok = by_run([run_chunk(clean, actual, params, noise_sd, seeds)])
    assert 0 < ok.sum()
    assert method == "global" or not ok.all()
    passed, failed = np.flatnonzero(ok), np.flatnonzero(~ok)
    for q in {0, 1, 117, CHUNK_RUNS - 1, *passed[:2], *passed[-1:], *failed[:2]}:
        alone, alone_ok = run_chunk(clean, actual, params, noise_sd, seeds[q : q + 1])
        assert alone_ok[0] == ok[q]
        if ok[q]:
            np.testing.assert_array_equal(alone[0], errors[q])


@pytest.mark.parametrize(
    "method, v_th, noise_sd, runs",
    [
        ("mhc", 0.99, 0.1, CHUNK_RUNS),  # every run leaves the loop
        ("global", 0.999, 0.01, CHUNK_RUNS),
        ("mhc", 0.99, 0.1, 1),
        ("global", 0.4, 3e153, CHUNK_RUNS),  # whitening rejects every run
        ("mhc", 0.7, 3e153, 1),
    ],
)
def test_chunk_without_a_survivor_skips_the_association(monkeypatch, method, v_th, noise_sd, runs):
    def no_association(*args):
        raise AssertionError("a chunk without a survivor reached the association")

    monkeypatch.setattr(evaluation, "associate_stack", no_association)
    sources, clean = noisy_example1(noise_sd).generate()
    seeds = [derive_seed(31, q) for q in range(runs)]
    errors, ok = run_chunk(clean, normalize_unit_norm(sources), MethodParams(method, v_th), noise_sd, seeds)
    assert ok.shape == (runs,) and not ok.any()
    assert errors.shape == (0, *sources.shape)


def flag_runs_after_the_loop(monkeypatch):
    """Make the norms fail every fifth run that clears the deflation loop, and
    the association every third, counted by row of the loop's survivors."""
    in_scale_range, associate_stack = evaluation.in_scale_range, evaluation.associate_stack

    def norms_flag_every_fifth(scale):
        in_range = in_scale_range(scale)
        in_range[2::5] = False
        return in_range

    def association_flags_every_third(actual, estimates):
        *outputs, constant = associate_stack(actual, estimates)
        constant[1::3] = True
        return *outputs, constant

    monkeypatch.setattr(evaluation, "in_scale_range", norms_flag_every_fifth)
    monkeypatch.setattr(evaluation, "associate_stack", association_flags_every_third)


def test_runs_failing_after_the_loop_carry_no_rows(monkeypatch):
    # MHC 0.80 @ 0.01: most runs leave the chunk in the loop, and the norms
    # and the association fail some of those that clear it.
    sources, clean = noisy_example1(0.01).generate()
    actual = normalize_unit_norm(sources)
    params = MethodParams("mhc", 0.8)
    seeds = [derive_seed(5, q) for q in range(CHUNK_RUNS)]
    cleared_errors, cleared = run_chunk(clean, actual, params, 0.01, seeds)
    flag_runs_after_the_loop(monkeypatch)
    errors, ok = run_chunk(clean, actual, params, 0.01, seeds)
    row = np.arange(cleared.sum())
    expected = np.zeros_like(cleared)
    expected[cleared] = (row % 5 != 2) & (row % 3 != 1)
    assert list(ok) == list(expected)
    assert ok.any() and (cleared & ~ok).any() and not cleared.all()
    assert errors.shape == (ok.sum(), *sources.shape)
    assert errors.tobytes() == cleared_errors[ok[cleared]].tobytes()
    monkeypatch.undo()
    for row, q in enumerate(np.flatnonzero(ok)):
        alone, alone_ok = run_chunk(clean, actual, params, 0.01, seeds[q : q + 1])
        assert alone_ok[0] and alone[0].tobytes() == errors[row].tobytes()


def test_pooling_skips_runs_failing_after_the_loop(monkeypatch):
    config = noisy_example1(0.01)
    params = MethodParams("mhc", 0.8)
    sets, runs = 3, 200
    flag_runs_after_the_loop(monkeypatch)
    report = monte_carlo(config, params, sets, runs, master_seed=777)
    sources, clean = config.generate()
    seeds = [derive_seed(777, q) for q in range(sets * runs)]
    chunks = [run_chunk(clean, normalize_unit_norm(sources), params, 0.01, seeds[i : i + CHUNK_RUNS])
              for i in range(0, len(seeds), CHUNK_RUNS)]
    errors, ok = by_run(chunks)
    errors, ok = errors.reshape(sets, runs, *sources.shape), ok.reshape(sets, runs)
    assert_pooled_as_rms_metrics(report, errors, ok)
    monkeypatch.undo()
    assert report.failures > monte_carlo(config, params, sets, runs, master_seed=777).failures


def test_chunks_stay_small():
    assert CHUNK_RUNS <= 256
    assert chunk_runs(2, 50) == CHUNK_RUNS
    assert chunk_runs(4, 10**6) == 1


#: Bound on one chunk's traced peak, in multiples of a (runs, sources,
#: samples) error array: every method measured at most 5.26 (noise,
#: association and signed errors written in place), and 6.42 with
#: chunk-sized throwaway arrays.
CHUNK_PEAK_ERROR_ARRAYS = 5.5


@pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.7)])
def test_chunk_peak(method, v_th):
    sources, clean = noisy_example1(0.005).generate()
    actual = normalize_unit_norm(sources)
    params = MethodParams(method, v_th, 1.0)
    seeds = [derive_seed(20240707, q) for q in range(250)]
    run_chunk(clean, actual, params, 0.005, seeds)  # first-call imports stay out of the peak
    tracemalloc.start()
    try:
        run_chunk(clean, actual, params, 0.005, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CHUNK_PEAK_ERROR_ARRAYS * len(seeds) * sources.nbytes


def test_rank_deficient_scenario_fails_every_run():
    config = ScenarioConfig(
        kind="gaussian",
        sources=(GaussianPulseSpec(1.0, 0.1, 0.0125), GaussianPulseSpec(0.1, 0.026, 0.00625)),
        sample_rate_hz=250.0,
        duration_s=0.2,
        mixing=((1.0, 2.0), (2.0, 4.0)),
        noise_sd=0.0,
        seed=1,
    )
    sources, clean = config.generate()
    _, ok = run_chunk(clean, normalize_unit_norm(sources), MethodParams("global", 0.4), 0.0, [1, 2])
    assert not ok.any()
    with pytest.raises(AllRunsFailedError):
        monte_carlo(config, MethodParams("mhc", 0.7), 2, 3)


def test_noise_free_runs_give_identical_rows():
    sources, clean = load_preset("example1").generate()
    actual = normalize_unit_norm(sources)
    for method, v_th in (("global", 0.4), ("mhc", 0.8)):
        errors, ok = run_chunk(clean, actual, MethodParams(method, v_th), 0.0, list(range(5)))
        assert ok.all()
        assert all(np.array_equal(errors[q], errors[0]) for q in range(5))
        np.testing.assert_array_equal(errors[0], per_run(clean, actual, MethodParams(method, v_th), 0.0, 0))


def test_run_with_a_constant_row_counts_as_failed():
    sources, clean = noisy_example1(0.005).generate()
    actual = normalize_unit_norm(sources)
    actual[1] = 1.0 / np.sqrt(actual.shape[1])  # constant, unit norm
    params = MethodParams("global", 0.4)
    _, ok = run_chunk(clean, actual, params, 0.005, [3, 4, 5])
    assert not ok.any()
    assert per_run(clean, actual, params, 0.005, 3) is None


def test_constant_estimate_flags_only_its_run():
    rng = np.random.default_rng(8)
    actual = rng.normal(size=(2, 30))
    estimates = rng.normal(size=(3, 2, 30))
    estimates[1, 0] = 0.25
    permutation, signs, correlations, constant = associate_stack(actual, estimates)
    assert list(constant) == [False, True, False]
    with pytest.raises(ZeroChannelError):
        associate(actual, estimates[1])
    for q in (0, 2):
        assoc = associate(actual, estimates[q])
        np.testing.assert_array_equal(permutation[q], assoc.permutation)
        np.testing.assert_array_equal(signs[q], assoc.signs)
        np.testing.assert_array_equal(correlations[q], assoc.correlations)


def loop_largest_run(adjacency):
    """Reference run finder: a scan of each column in turn."""
    best = None
    n_rows, n_cols = adjacency.shape
    for component in range(n_cols):
        m = 0
        while m < n_rows:
            if adjacency[m, component]:
                lo = m
                while m < n_rows and adjacency[m, component]:
                    m += 1
                if best is None or m - lo > best[0]:
                    best = (m - lo, component, lo)
            else:
                m += 1
    if best is None:
        return None
    length, component, lo = best
    return component, lo, lo + length - 1


@st.composite
def boolean_tables(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 5))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((rows, cols)) < density


@PROPERTY
@given(boolean_tables())
def test_find_largest_run_matches_loop_reference(table):
    expected = loop_largest_run(table)
    if expected is None:
        with pytest.raises(NoRunFoundError):
            find_largest_run(table)
    else:
        assert find_largest_run(table) == expected
    # Stacked with other tables, each table still gets its own run.
    stack = np.stack([~table, table, np.zeros_like(table)])
    component, lo, length = longest_runs(stack)
    assert length[2] == 0
    if expected is not None:
        assert (component[1], lo[1], lo[1] + length[1] - 1) == expected


@st.composite
def boolean_stacks(draw):
    """A (Q, M, N) stack mixing empty, random and tied tables.

    A tied table leaves one row in each period unmarked, at a random phase
    per column, so many runs share the longest length.
    """
    q = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((q, rows, cols), dtype=bool)
    for table in stack:
        kind = draw(st.sampled_from(["empty", "random", "tied"]))
        if kind == "random":
            table[:] = rng.random((rows, cols)) < draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
        elif kind == "tied":
            period = draw(st.integers(2, 6))
            table[:] = (np.arange(rows)[:, None] + rng.integers(0, period, cols)) % period != 0
    return stack


@PROPERTY
@given(boolean_stacks())
def test_longest_runs_matches_loop_reference_per_table(stack):
    component, lo, length = longest_runs(stack)
    for q, table in enumerate(stack):
        expected = loop_largest_run(table)
        if expected is None:
            assert length[q] == 0
            with pytest.raises(NoRunFoundError):
                find_largest_run(table)
        else:
            assert (component[q], lo[q], lo[q] + length[q] - 1) == expected
            assert find_largest_run(table) == expected


def loop_mhc_index(headings, accepted):
    """Reference minimum-change search: a loop over consecutive pairs.

    Each change's length adds its squares in channel order.
    """
    best_change, best_index = np.inf, None
    for n in range(1, len(accepted)):
        if accepted[n] and accepted[n - 1]:
            pair = np.array([headings[n] - headings[n - 1], headings[n] + headings[n - 1]])
            change = np.sqrt(sum(np.square(pair[:, i]) for i in range(pair.shape[1]))).min()
            if change < best_change:
                best_change, best_index = change, n
    return best_index


@st.composite
def heading_records(draw):
    """Unit headings on a coarse grid, so exact ties between pairs are common."""
    m = draw(st.integers(1, 30))
    n = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    v = rng.integers(-2, 3, size=(m, n)).astype(float)
    v[np.all(v == 0, axis=1), 0] = 1.0
    accepted = rng.random(m) < draw(st.sampled_from([0.3, 0.7, 1.0]))
    return v / np.linalg.norm(v, axis=1, keepdims=True), accepted


@PROPERTY
@given(heading_records())
def test_mhc_find_direction_matches_loop_reference(record):
    headings, accepted = record
    heading_set = HeadingSet(
        velocities=headings, headings=headings, speeds=np.ones(len(headings)),
        nonzero=np.ones(len(headings), dtype=bool), accepted=accepted, v_max=1.0,
    )
    expected = loop_mhc_index(headings, accepted)
    if expected is None:
        with pytest.raises(NoConsecutivePairError):
            mhc_find_direction(heading_set)
    else:
        np.testing.assert_array_equal(mhc_find_direction(heading_set).unit_vector, headings[expected])
        speeds = np.ones((1, len(headings)))
        best, found, _ = mhc_pick(stack_headings(headings.T[None], speeds), accepted[None])
        assert found[0] and best[0] == expected


def stack_headings(v, speeds):
    """``mhc_pick``'s heading gather on a (Q, N, M) velocity stack and its (Q, M) speeds.

    Each call returns a new (N, K) array: the velocities divided by their speeds.
    """
    return lambda record, index: v[record, :, index].T / speeds[record, index]


@st.composite
def velocity_stacks(draw):
    """A (Q, N, M) stack of real velocities; some records have no consecutive accepted pair.

    Each record's velocities stray a little from one direction.  In most
    records the first two or three come back over and over: as they were,
    scaled by a power of two or negated, which ties their changes exactly,
    or with their channels permuted, which ties them up to the order of each
    change's sum of squares.  The pick then rests on that order, channel by
    channel, where numpy's own norm would use eight running sums from N = 8
    on.  Some stacks
    are long, up to 2,000 velocities, and their records may hold only a few
    far-apart pairs, so a record's pairs sit in slots far from their indices.
    """
    q = draw(st.integers(1, 6))
    m = draw(st.one_of(st.integers(1, 30), st.integers(1000, 2000)))
    n = draw(st.sampled_from(range(2, 11)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = rng.standard_normal((q, n, 1)) + 0.1 * rng.standard_normal((q, n, m))
    for record in v:
        kind = draw(st.sampled_from(["none", "same", "scaled", "negated", "permuted"]))
        width = int(rng.integers(2, 4))
        for start in range(width, m, width) if kind != "none" else ():
            stretch = record[:, :width]
            if kind == "scaled":
                stretch = stretch * 2.0 ** int(rng.integers(-3, 4))
            elif kind == "negated":
                stretch = -stretch
            elif kind == "permuted":
                stretch = stretch[rng.permutation(n)]
            record[:, start:start + width] = stretch[:, : m - start]
    accepted = np.zeros((q, m), dtype=bool)
    for record in accepted:
        kind = draw(st.sampled_from(["none", "alternate", "random", "all", "far"]))
        if kind == "alternate":
            record[rng.integers(0, 2)::2] = True
        elif kind == "far" and m > 1:
            later = rng.choice(np.arange(1, m), size=min(m - 1, int(rng.integers(1, 4))))
            record[later] = record[later - 1] = True
        elif kind == "random":
            record[:] = rng.random(m) < draw(st.sampled_from([0.3, 0.7, 1.0]))
        elif kind == "all":
            record[:] = True
    return v, accepted


@PROPERTY
@given(velocity_stacks())
def test_mhc_pick_matches_loop_reference_per_record(stack):
    v, accepted = stack
    speeds = np.linalg.norm(v, axis=1)
    before = v.copy()
    best, found, headings = mhc_pick(stack_headings(v, speeds), accepted)
    np.testing.assert_array_equal(v, before)  # the gather's copies are divided, not v
    for q in range(len(v)):
        expected = loop_mhc_index((v[q] / speeds[q]).T, accepted[q])
        if expected is None:
            assert best[q] == 0 and not found[q]
            assert headings[q].tobytes() == np.zeros(v.shape[1]).tobytes()
        else:
            assert found[q] and best[q] == expected
            # The winner's heading as it was scored, with the bits of one division.
            assert headings[q].tobytes() == (v[q, :, best[q]] / speeds[q, best[q]]).tobytes()


def test_mhc_pick_on_one_velocity_finds_nothing():
    # Two samples make one velocity and no consecutive pair.  Nothing may
    # divide by a record's M - 1 = 0 pairs: a warning would raise here.
    v = np.arange(1.0, 7.0).reshape(3, 2, 1)
    best, found, headings = mhc_pick(
        stack_headings(v, np.linalg.norm(v, axis=1)), np.ones((3, 1), dtype=bool)
    )
    np.testing.assert_array_equal(best, [0, 0, 0])
    assert not found.any()
    assert headings.tobytes() == np.zeros((3, 2)).tobytes()
    with pytest.raises(NoConsecutivePairError, match="iteration 0"):
        separate([[1.0, 2.0], [3.0, -1.0]], MethodParams(method="mhc", v_th=0.5))


@pytest.mark.parametrize("method, v_th", [("mhc", 0.80), ("global", 0.40), ("global", 0.80)])
def test_every_yielded_row_belongs_to_a_survivor(method, v_th):
    # At MHC 0.80 @ 0.01 most records find no pair at iteration 0, and at
    # global 0.80 some find no cluster.  Whatever leaves, the directions and
    # acceptance masks of each iteration hold one row per survivor, in the
    # caller's order, each with the bits of that record run alone.
    _, clean = noisy_example1(0.01).generate()
    data, _, failed, _ = whiten_stack(noisy_stack(clean, 0.01, [derive_seed(41, q) for q in range(60)]))
    assert (failed < 0).all()
    params = MethodParams(method, v_th)
    alone = [
        list(deflation_steps(data[q : q + 1].copy(), params, np.empty((1, *data.shape[1:]))))
        for q in range(len(data))
    ]
    steps = list(deflation_steps(data.copy(), params, np.empty_like(data)))
    assert v_th == 0.40 or steps[0][1].size < len(data)
    for iteration, (directions, survivors, accepted, _) in enumerate(steps):
        assert directions.shape == (survivors.size, data.shape[1])
        assert accepted.shape == (survivors.size, data.shape[2] - 1)
        for row, q in enumerate(survivors):
            units, kept, mask, _ = alone[q][iteration]
            assert kept.tolist() == [0]
            assert directions[row].tobytes() == units[0].tobytes()
            np.testing.assert_array_equal(accepted[row], mask[0])
        ran = [q for q in range(len(data)) if len(alone[q]) > iteration]
        prior = steps[iteration - 1][1] if iteration else np.arange(len(data))
        assert ran == prior.tolist()
        assert survivors.tolist() == [q for q in ran if alone[q][iteration][1].size]


@pytest.mark.parametrize("method", ["global", "mhc"])
def test_loop_on_an_empty_stack_yields_one_empty_step(method):
    data = np.zeros((0, 2, 50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        steps = list(deflation_steps(data, MethodParams(method), np.empty_like(data)))
    ((directions, survivors, accepted, cluster),) = steps
    assert directions.shape == (0, 2) and survivors.shape == (0,) and accepted.shape == (0, 49)
    assert cluster is None


@pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.7)])
def test_chunk_that_whitening_empties_runs_the_loop_on_no_record(monkeypatch, method, v_th):
    # Rank-deficient mixing: whitening rejects every run, and the chunk goes
    # through the one deflation loop with nothing in it.
    yields = []

    def recording_steps(data, params, estimates):
        for step in deflation_steps(data, params, estimates):
            yields.append(step)
            yield step

    monkeypatch.setattr(evaluation, "deflation_steps", recording_steps)
    sources, clean = noisy_example1(0.005).generate()
    clean[1] = 2.0 * clean[0]
    errors, ok = run_chunk(clean, normalize_unit_norm(sources), MethodParams(method, v_th), 0.0, [1, 2, 3])
    assert ok.shape == (3,) and not ok.any()
    assert errors.shape == (0, *sources.shape)
    ((directions, survivors, accepted, _),) = yields
    assert directions.shape == (0, 2) and survivors.size == 0 and accepted.shape == (0, clean.shape[1] - 1)


#: Bound on one 1 x 1000 ``monte_carlo`` call's traced peak, in multiples of
#: its (1000, 2, 50) error array.  The chunks' errors and their one
#: concatenation, squared in place, measured 2.08 for both methods; pooling
#: from boolean-index copies and their squares measured 3.47 (MHC) to 4.08
#: (global).
MONTE_CARLO_PEAK_ERROR_ARRAYS = 2.25


@pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.7)])
def test_monte_carlo_peak(method, v_th):
    config = noisy_example1(0.005)
    params = MethodParams(method, v_th)
    monte_carlo(config, params, 1, 1000, master_seed=5)  # first-call imports stay out of the peak
    tracemalloc.start()
    try:
        monte_carlo(config, params, 1, 1000, master_seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sources, _ = config.generate()
    assert peak <= MONTE_CARLO_PEAK_ERROR_ARRAYS * 1000 * sources.nbytes


def assert_pooled_as_rms_metrics(report, errors, ok):
    """``report`` has the bits of one ``rms_metrics`` call per set with a
    successful run and one over every successful run."""
    per_set = [rms_metrics(e[k])[1:] for e, k in zip(errors, ok) if k.any()]
    set_rms_tot, set_rms_max = map(np.array, zip(*per_set))
    ddof = 1 if len(per_set) > 1 else 0
    expected = dict(
        zip(("rms_per_sample", "rms_tot", "rms_max"), rms_metrics(errors[ok])),
        set_rms_tot=set_rms_tot,
        set_rms_max=set_rms_max,
        mean_rms_tot=set_rms_tot.mean(axis=0),
        sd_rms_tot=set_rms_tot.std(axis=0, ddof=ddof),
        mean_rms_max=set_rms_max.mean(axis=0),
        sd_rms_max=set_rms_max.std(axis=0, ddof=ddof),
    )
    for name, value in expected.items():
        got = getattr(report, name)
        assert got.shape == value.shape and got.tobytes() == value.tobytes(), name
    assert report.failures == ok.size - ok.sum()


@pytest.mark.parametrize(
    "method, v_th, sets, runs, master_seed, workers",
    [
        ("global", 0.4, 1, 1000, 11, 1),
        ("mhc", 0.8, 3, 200, 2**64 - 2, 1),  # the seeds wrap modulo 2**64 after two runs
        ("global", 0.3, 2, 333, -5, 2),  # 666 runs: the last chunk is short
    ],
)
def test_pooling_keeps_the_bits_of_rms_metrics(method, v_th, sets, runs, master_seed, workers):
    config = noisy_example1(0.01)
    params = MethodParams(method, v_th)
    report = monte_carlo(config, params, sets, runs, master_seed=master_seed, workers=workers)
    sources, clean = config.generate()
    seeds = [derive_seed(master_seed, q) for q in range(sets * runs)]
    chunks = [run_chunk(clean, normalize_unit_norm(sources), params, 0.01, seeds[i : i + CHUNK_RUNS])
              for i in range(0, len(seeds), CHUNK_RUNS)]
    errors, ok = by_run(chunks)
    errors, ok = errors.reshape(sets, runs, *sources.shape), ok.reshape(sets, runs)
    assert ok.any()
    assert_pooled_as_rms_metrics(report, errors, ok)


def test_pooling_leaves_out_a_set_without_a_successful_run(monkeypatch):
    sets, runs = 3, 150  # set 1 spans the edge of the first chunk
    returned = []

    def run_chunk_failing_set_1(clean, actual, params, noise_sd, seeds):
        errors, ok = run_chunk(clean, actual, params, noise_sd, seeds)
        keep = (np.asarray(seeds) // runs != 1) & (np.asarray(seeds) % 7 != 3)
        errors = errors[keep[ok]]
        ok &= keep
        returned.append((errors.copy(), ok.copy()))
        return errors, ok

    monkeypatch.setattr(evaluation, "run_chunk", run_chunk_failing_set_1)
    report = monte_carlo(noisy_example1(0.005), MethodParams("global", 0.4), sets, runs, master_seed=0)
    errors, ok = by_run(returned)
    errors, ok = errors.reshape(sets, runs, 2, -1), ok.reshape(sets, runs)
    assert not ok[1].any() and ok[0].any() and ok[2].any()
    assert report.set_rms_tot.shape == report.set_rms_max.shape == (2, 2)
    assert_pooled_as_rms_metrics(report, errors, ok)


def clustered_slots(velocities, count, alpha):
    """The stacked global step's mask of the slots in each record's cluster."""
    epsilon = alpha / np.maximum(count, 2)
    magnitudes = np.abs(velocities / ordered_row_norms(velocities))
    return cluster_tables(magnitudes, count, epsilon)[0].all(axis=0)


def stable_clustered_slots(velocities, record, count, alpha):
    """The stacked cluster mask on (Q, N, width) tables sorted with a stable
    sort: ties keep slot order, the reference any tie order must match."""
    n = velocities.shape[0]
    q, width = count.size, int(count.max())
    position = np.arange(width)
    magnitudes = np.empty((q, n, width))
    magnitudes[...] = 2.0 + position
    slots = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    np.put(magnitudes, record * (n * width) + slots + (np.arange(n) * width)[:, None],
           np.abs(velocities / np.linalg.norm(velocities, axis=0)))
    order = np.argsort(magnitudes, axis=-1, kind="stable")
    order += (np.arange(q * n) * width).reshape(q, n, 1)
    values = np.take(magnitudes, order)
    adjacency = np.zeros(values.shape, dtype=bool)
    adjacency[..., 1:] = np.diff(values, axis=-1) < (alpha / np.maximum(count, 2))[:, None, None]
    component, lo, run_length = longest_runs(adjacency.swapaxes(1, 2))
    in_run = adjacency.copy()
    in_run[..., :-1] |= adjacency[..., 1:]
    in_run[np.arange(q), component] = (position >= lo[:, None] - 1) & (position < (lo + run_length)[:, None])
    member = np.empty_like(in_run)
    member.reshape(-1)[order] = in_run
    return member.all(axis=1), magnitudes


@pytest.mark.parametrize("n", [2, 4])
def test_cluster_mask_of_tight_records_needs_no_tables(monkeypatch, n):
    # Every record's headings are +-u: each record of two or more clusters all
    # of them, and the mask must be the sorted tables' without building them.
    rng = np.random.default_rng(n)
    count = rng.integers(0, 30, 40)
    count[:3] = [0, 1, 2]
    record = np.repeat(np.arange(count.size), count)
    u = rng.standard_normal((n, count.size))
    speeds = rng.uniform(0.1, 10.0, record.size) * rng.choice([-1.0, 1.0], record.size)
    velocities = u[:, record] * speeds * (1.0 + 1e-9 * rng.standard_normal((n, record.size)))
    expected, _ = stable_clustered_slots(velocities, record, count, 1.0)

    def no_tables(*args):
        raise AssertionError("the stacked step built its run tables")

    monkeypatch.setattr(clustering, "longest_runs", no_tables)
    mask = clustered_slots(velocities, count, 1.0)
    assert np.array_equal(mask, expected)
    assert np.array_equal(mask.sum(axis=1), np.where(count < 2, 0, count))


#: Integer directions per channel count: scaled by +-1, 2 or 0.5, they give
#: headings whose magnitudes tie exactly.
TIE_DIRECTIONS = {
    2: [[1, 0], [0, 1], [1, 1], [1, -2]],
    3: [[1, 0, 0], [0, 1, 1], [1, 1, 1], [2, -1, 0]],
}


@pytest.mark.parametrize("alpha", [1.0, 0.3, 0.05])
@pytest.mark.parametrize("n", [2, 3])
def test_cluster_mask_does_not_depend_on_the_tie_order(n, alpha):
    rng = np.random.default_rng([n, int(alpha * 100)])
    directions = np.array(TIE_DIRECTIONS[n], dtype=float)
    reordered = 0
    for _ in range(100):
        count = rng.integers(0, 30, rng.integers(1, 12))
        count[rng.integers(count.size)] = max(2, count.max())
        k = int(count.sum())
        record = np.repeat(np.arange(count.size), count)
        scales = rng.choice([1.0, -1.0, 2.0, -2.0, 0.5, -0.5], k)
        velocities = np.ascontiguousarray((directions[rng.integers(0, 4, k)] * scales[:, None]).T)
        expected, magnitudes = stable_clustered_slots(velocities, record, count, alpha)
        reordered += not np.array_equal(np.argsort(magnitudes, axis=-1),
                                        np.argsort(magnitudes, axis=-1, kind="stable"))
        assert np.array_equal(clustered_slots(velocities, count, alpha), expected)
    assert reordered > 50


@pytest.mark.parametrize("noise_sd", [1e308, 6e307])
@pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.7)])
def test_overflowing_noise_fails_exactly_the_runs_separate_refuses(method, v_th, noise_sd):
    # Noise this large gives infinite samples in some or all records; whitening
    # alone must flag them, with no warning, where ``separate`` raises.
    sources, clean = noisy_example1(noise_sd).generate()
    actual = normalize_unit_norm(sources)
    params = MethodParams(method, v_th)
    seeds = [derive_seed(12, q) for q in range(60)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, ok = run_chunk(clean, actual, params, noise_sd, seeds)
    with np.errstate(over="ignore"):
        noisy = evaluation.noisy_stack(clean, noise_sd, seeds)
        reference = [per_run(clean, actual, params, noise_sd, s) for s in seeds]
    assert list(ok) == [r is not None for r in reference]
    infinite = ~np.isfinite(noisy).all(axis=(1, 2))
    assert infinite.any()
    assert (whiten_stack(noisy)[2][infinite] >= 0).all()
