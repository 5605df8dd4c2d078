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
from sparsebss import evaluation, separation
from sparsebss.clustering import longest_runs
from sparsebss.evaluation import CHUNK_RUNS, associate_stack, chunk_runs, rms_metrics, run_chunk
from sparsebss.rng import derive_seed
from sparsebss.separation import _clustered_slots, mhc_pick
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


@pytest.mark.parametrize("noise_sd, method, v_th", GATE_ROWS)
def test_batched_matches_per_run_on_gate_rows(noise_sd, method, v_th):
    sources, clean = noisy_example1(noise_sd).generate()
    actual = normalize_unit_norm(sources)
    params = MethodParams(method, v_th, 1.0)
    seeds = [derive_seed(20240707, q) for q in range(320)]
    chunks = [run_chunk(clean, actual, params, noise_sd, seeds[i : i + CHUNK_RUNS])
              for i in range(0, len(seeds), CHUNK_RUNS)]
    errors = np.concatenate([e for e, _ in chunks])
    ok = np.concatenate([k for _, k in chunks])
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


@pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.7), ("global", 0.9)])
def test_run_alone_equals_run_inside_a_full_chunk(method, v_th):
    sources, clean = noisy_example1(0.005).generate()
    actual = normalize_unit_norm(sources)
    params = MethodParams(method, v_th, 1.0)
    seeds = [derive_seed(31, q) for q in range(CHUNK_RUNS)]
    errors, ok = run_chunk(clean, actual, params, 0.005, seeds)
    assert 0 < ok.sum()
    first_failed = np.flatnonzero(~ok)[:1]
    for q in (0, 1, 117, CHUNK_RUNS - 1, *first_failed):
        alone, alone_ok = run_chunk(clean, actual, params, 0.005, seeds[q : q + 1])
        assert alone_ok[0] == ok[q]
        if ok[q]:
            np.testing.assert_array_equal(alone[0], errors[q])


def test_chunks_stay_small():
    assert CHUNK_RUNS <= 256
    assert chunk_runs(2, 50) == CHUNK_RUNS
    assert chunk_runs(4, 10**6) == 1


#: Bound on one chunk's traced peak, in multiples of its error array: every
#: method measured at most 5.26 (noise, association and signed errors
#: written in place), and 6.42 with chunk-sized throwaway arrays.
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
        errors, _ = run_chunk(clean, actual, params, 0.005, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= CHUNK_PEAK_ERROR_ARRAYS * errors.nbytes


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
    """Reference minimum-change search: a loop over consecutive pairs."""
    best_change, best_index = np.inf, None
    for n in range(1, len(accepted)):
        if accepted[n] and accepted[n - 1]:
            pair = np.array([headings[n] - headings[n - 1], headings[n] + headings[n - 1]])
            change = np.linalg.norm(pair, axis=-1).min()
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
        best, found = mhc_pick(stack_pairs(headings.T[None]), speeds, accepted[None])
        assert found[0] and best[0] == expected


def stack_pairs(v):
    """``mhc_pick``'s pair gather on a (Q, N, M) velocity stack."""
    return lambda record, later: (v[record, :, later].T, v[record, :, later - 1].T)


@st.composite
def velocity_stacks(draw):
    """A (Q, N, M) stack of real velocities; some records have no consecutive accepted pair.

    Each record's velocities stray a little from one direction.  In most
    records the first two or three come back over and over: as they were,
    scaled by a power of two or negated, which ties their changes exactly,
    or with their channels permuted, which ties them up to the order of each
    change's sum of squares.  The pick then rests on that order: from N = 8
    on, numpy sums a vector's squares with eight running sums.
    """
    q = draw(st.integers(1, 6))
    m = draw(st.integers(1, 30))
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
        kind = draw(st.sampled_from(["none", "alternate", "random", "all"]))
        if kind == "alternate":
            record[rng.integers(0, 2)::2] = True
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
    best, found = mhc_pick(stack_pairs(v), speeds, accepted)
    for q in range(len(v)):
        expected = loop_mhc_index((v[q] / speeds[q]).T, accepted[q])
        if expected is None:
            assert best[q] == 0 and not found[q]
        else:
            assert found[q] and best[q] == expected


def test_mhc_pick_on_one_velocity_finds_nothing():
    # Two samples make one velocity and no consecutive pair.  Nothing may
    # divide by a record's M - 1 = 0 pairs: a warning would raise here.
    v = np.arange(1.0, 7.0).reshape(3, 2, 1)
    best, found = mhc_pick(stack_pairs(v), np.linalg.norm(v, axis=1), np.ones((3, 1), dtype=bool))
    np.testing.assert_array_equal(best, [0, 0, 0])
    assert not found.any()
    with pytest.raises(NoConsecutivePairError, match="iteration 0"):
        separate([[1.0, 2.0], [3.0, -1.0]], MethodParams(method="mhc", v_th=0.5))


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
    errors = np.concatenate([e for e, _ in chunks]).reshape(sets, runs, *sources.shape)
    ok = np.concatenate([k for _, k in chunks]).reshape(sets, runs)
    assert ok.any()
    assert_pooled_as_rms_metrics(report, errors, ok)


def test_pooling_leaves_out_a_set_without_a_successful_run(monkeypatch):
    sets, runs = 3, 150  # set 1 spans the edge of the first chunk
    returned = []

    def run_chunk_failing_set_1(clean, actual, params, noise_sd, seeds):
        errors, ok = run_chunk(clean, actual, params, noise_sd, seeds)
        ok &= (np.asarray(seeds) // runs != 1) & (np.asarray(seeds) % 7 != 3)
        returned.append((errors.copy(), ok.copy()))
        return errors, ok

    monkeypatch.setattr(evaluation, "run_chunk", run_chunk_failing_set_1)
    report = monte_carlo(noisy_example1(0.005), MethodParams("global", 0.4), sets, runs, master_seed=0)
    errors = np.concatenate([e for e, _ in returned]).reshape(sets, runs, 2, -1)
    ok = np.concatenate([k for _, k in returned]).reshape(sets, runs)
    assert not ok[1].any() and ok[0].any() and ok[2].any()
    assert report.set_rms_tot.shape == report.set_rms_max.shape == (2, 2)
    assert_pooled_as_rms_metrics(report, errors, ok)


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

    monkeypatch.setattr(separation, "longest_runs", no_tables)
    mask = _clustered_slots(velocities, record, count, 1.0)
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
        assert np.array_equal(_clustered_slots(velocities, record, count, alpha), expected)
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
