import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebss import (
    AllRunsFailedError,
    DimensionMismatchError,
    GaussianPulseSpec,
    MethodParams,
    NonFiniteError,
    ScenarioConfig,
    SparseBssError,
    TooShortError,
    ZeroChannelError,
    associate,
    load_preset,
    monte_carlo,
    normalize_unit_norm,
    pointwise_error,
    rms_metrics,
    source_errors,
)
from sparsebss.evaluation import associate_stack

#: Fixed example sequence, so every run of the suite tests the same cases.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def signed_permutations(draw):
    """Random sources (S, L) with a random permutation and signs of them."""
    n = draw(st.integers(2, 5))
    length = draw(st.integers(8, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    perm = np.array(draw(st.permutations(range(n))))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    actual = np.random.default_rng(seed).normal(size=(n, length))
    return actual, perm, signs, seed


#: Row kinds for the constant-row property: the old rule, max == min, and a
#: test against the first sample must agree on each.
ROW_KINDS = ["constant", "signed_zero", "nan_first", "nan_later", "free"]


@st.composite
def rows_of_every_kind(draw, count, length):
    """``count`` rows of ``length`` samples over a few values, each of a drawn kind."""
    rows = np.array(draw(st.lists(
        st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0]), min_size=count * length, max_size=count * length
    ))).reshape(count, length)
    for row in rows:
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "signed_zero":
            row[:] = np.where(row > 1.0, -0.0, 0.0)
        elif kind == "nan_first":
            row[1:] = row[1]
            row[0] = np.nan
        elif kind != "free":
            row[1:] = row[0]
            if kind == "nan_later":
                row[draw(st.integers(1, length - 1))] = np.nan
    return rows


def greedy_oracle(corr):
    """Brute force over all permutations: the greedy elimination picks the
    assignment whose matched |c| values, sorted descending, are
    lexicographically largest."""
    n = corr.shape[0]
    best_perm, best_score = None, None
    for perm in itertools.permutations(range(n)):
        score = tuple(sorted((abs(corr[r, perm[r]]) for r in range(n)), reverse=True))
        if best_score is None or score > best_score:
            best_perm, best_score = perm, score
    return np.array(best_perm)


class TestAssociate:
    def test_identity(self):
        rng = np.random.default_rng(71)
        s = normalize_unit_norm(rng.normal(size=(3, 50)))
        assoc = associate(s, s)
        assert list(assoc.permutation) == [0, 1, 2]
        np.testing.assert_allclose(assoc.signs, 1.0)
        np.testing.assert_allclose(assoc.correlations, 1.0, atol=1e-12)

    def test_negated_estimates(self):
        rng = np.random.default_rng(72)
        s = normalize_unit_norm(rng.normal(size=(2, 50)))
        assoc = associate(s, -s)
        assert list(assoc.permutation) == [0, 1]
        np.testing.assert_allclose(assoc.signs, -1.0)

    def test_matches_brute_force_over_100_trials(self):
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            actual = rng.normal(size=(3, 64))
            estimates = rng.normal(size=(3, 64))
            n = 3
            corr = np.corrcoef(np.vstack([actual, estimates]))[:n, n:]
            assoc = associate(actual, estimates)
            np.testing.assert_array_equal(assoc.permutation, greedy_oracle(corr))

    @pytest.mark.parametrize("runs", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("length", [3, 50, 1001])
    def test_stacked_correlations_are_corrcoefs_bits(self, runs, n, length):
        # associate_stack centres its own copy of the rows in place; the
        # matched correlations must still be np.corrcoef's, bit for bit,
        # and neither input may be written.
        rng = np.random.default_rng(100 * runs + 10 * n + length)
        actual = rng.normal(size=(n, length))
        estimates = rng.normal(size=(runs, n, length)) + 0.5 * actual
        before = actual.copy(), estimates.copy()
        permutation, _, correlations, constant = associate_stack(actual, estimates)
        assert not constant.any()
        for q in range(runs):
            corr = np.corrcoef(np.vstack([actual, estimates[q]]))[:n, n:]
            matched = corr[np.arange(n), permutation[q]]
            assert correlations[q].tobytes() == matched.tobytes()
        assert actual.tobytes() == before[0].tobytes()
        assert estimates.tobytes() == before[1].tobytes()

    @PROPERTY
    @given(data=st.data())
    def test_constant_mask_is_the_max_equals_min_rule(self, data):
        runs, n, length = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (1, 3), (2, 6)))
        actual = data.draw(rows_of_every_kind(n, length))
        estimates = data.draw(rows_of_every_kind(runs * n, length)).reshape(runs, n, length)
        rows = np.concatenate([np.broadcast_to(actual, estimates.shape), estimates], axis=1)
        expected = (rows.max(axis=-1) == rows.min(axis=-1)).any(axis=-1)
        assert associate_stack(actual, estimates)[3].tolist() == expected.tolist()

    def test_estimate_permutation_invariance(self):
        rng = np.random.default_rng(73)
        actual = rng.normal(size=(4, 80))
        estimates = rng.normal(size=(4, 80))
        base = associate(actual, estimates)
        shuffle = rng.permutation(4)
        moved = associate(actual, estimates[shuffle])
        # the same underlying estimate is matched to each source
        np.testing.assert_array_equal(
            shuffle[moved.permutation], base.permutation
        )
        np.testing.assert_allclose(moved.correlations, base.correlations, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            associate(np.ones((2, 10)), np.ones((3, 10)))

    def test_constant_row_rejected(self):
        rng = np.random.default_rng(76)
        actual = rng.normal(size=(2, 20))
        constant = np.vstack([rng.normal(size=20), np.ones(20)])
        with pytest.raises(ZeroChannelError):
            associate(actual, constant)
        with pytest.raises(ZeroChannelError):
            associate(constant, actual)

    def test_correlations_bounded(self):
        rng = np.random.default_rng(74)
        assoc = associate(rng.normal(size=(3, 30)), rng.normal(size=(3, 30)))
        assert np.all(np.abs(assoc.correlations) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("length", [0, 1])
    def test_stack_of_fewer_than_two_samples_is_too_short(self, length):
        # Refused before any arithmetic: it warned "divide by zero", which the
        # suite's error::RuntimeWarning filter turns into an error.
        with pytest.raises(TooShortError, match=f"got {length}"):
            associate_stack(np.ones((2, length)), np.ones((3, 2, length)))

    @pytest.mark.parametrize(
        "actual_shape, estimates_shape",
        [((2, 5), (3, 3, 5)), ((2, 5), (3, 2, 6)), ((2, 5), (2, 5)), ((3, 2, 5), (3, 2, 5))],
        ids=["sources", "samples", "unstacked-estimates", "stacked-actual"],
    )
    def test_stack_of_other_shapes_is_refused(self, actual_shape, estimates_shape):
        with pytest.raises(DimensionMismatchError):
            associate_stack(np.ones(actual_shape), np.ones(estimates_shape))

    @pytest.mark.parametrize("length", [0, 1])
    @pytest.mark.parametrize("metric", [associate, source_errors])
    def test_fewer_than_two_samples_are_too_short(self, metric, length):
        # Refused before the correlation divides by length - 1 or by zero variances.
        rows = np.arange(2.0 * length).reshape(2, length)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TooShortError, match=f"got {length}"):
                metric(rows, rows)


class TestPointwiseError:
    def test_equal_signals_zero_error(self):
        x = np.array([0.3, -0.2, 0.5])
        assert np.all(pointwise_error(x, x, +1.0) == 0.0)

    def test_inverted_estimate_zero_error(self):
        x = np.array([0.3, -0.2, 0.5])
        assert np.all(pointwise_error(x, -x, -1.0) == 0.0)

    def test_orthogonal_case(self):
        err = pointwise_error(np.array([1.0, 0.0]), np.array([0.0, 1.0]), +1.0)
        np.testing.assert_array_equal(err, [1.0, -1.0])

    @pytest.mark.parametrize("estimate", [np.ones(4), 1.0], ids=["longer", "scalar"])
    def test_rows_of_two_shapes_are_refused(self, estimate):
        # numpy raised an untyped ValueError for (3,) and (4,), and broadcast a scalar.
        with pytest.raises(DimensionMismatchError, match=r"shape \(3,\)"):
            pointwise_error(np.ones(3), estimate, 1.0)


class TestSourceErrors:
    @PROPERTY
    @given(signed_permutations())
    def test_signed_permutation_recovered_with_zero_error(self, case):
        actual, perm, signs, _ = case
        estimates = np.empty_like(actual)
        estimates[perm] = signs[:, None] * actual
        assoc, errors = source_errors(actual, estimates)
        np.testing.assert_array_equal(assoc.permutation, perm)
        np.testing.assert_array_equal(assoc.signs, signs)
        assert np.all(errors == 0.0)

    @PROPERTY
    @given(signed_permutations())
    def test_rows_equal_pointwise_error(self, case):
        actual, perm, signs, seed = case
        estimates = np.empty_like(actual)
        estimates[perm] = signs[:, None] * actual
        estimates += 0.5 * np.random.default_rng(seed + 1).normal(size=actual.shape)
        assoc, errors = source_errors(actual, estimates)
        for r in range(actual.shape[0]):
            expected = pointwise_error(
                actual[r], estimates[assoc.permutation[r]], assoc.signs[r]
            )
            assert np.array_equal(errors[r], expected)


class TestRmsMetrics:
    @PROPERTY
    @given(st.integers(1, 6), st.integers(2, 5), st.integers(1, 120), st.integers(0, 2**32 - 1))
    def test_stack_equals_per_source_calls(self, runs, n_sources, length, seed):
        stack = np.random.default_rng(seed).normal(size=(runs, n_sources, length))
        per_sample, rms_tot, rms_max = rms_metrics(stack)
        assert per_sample.shape == (n_sources, length)
        for r in range(n_sources):
            one = rms_metrics(stack[:, r, :])
            assert np.array_equal(per_sample[r], one[0])
            assert rms_tot[r] == one[1] and rms_max[r] == one[2]

    def test_zero_errors(self):
        _, rms_tot, rms_max = rms_metrics(np.zeros((5, 20)))
        assert rms_tot == 0.0 and rms_max == 0.0

    def test_single_run_constant_error(self):
        _, rms_tot, rms_max = rms_metrics(np.full((1, 10), -0.3))
        assert rms_tot == pytest.approx(0.3)
        assert rms_max == pytest.approx(0.3)

    def test_opposite_runs_do_not_cancel(self):
        e = np.array([[0.1, -0.4, 0.2]])
        per_sample, _, _ = rms_metrics(np.vstack([e, -e]))
        np.testing.assert_allclose(per_sample, np.abs(e[0]), atol=1e-15)

    def test_max_bounds_tot(self):
        rng = np.random.default_rng(75)
        _, rms_tot, rms_max = rms_metrics(rng.normal(size=(7, 33)))
        assert rms_max >= rms_tot >= 0.0

    @pytest.mark.parametrize("shape", [(0, 5), (0, 2, 5), (3, 0)])
    def test_rms_of_no_run_or_no_sample_is_refused(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SparseBssError, match="at least one run"):
                rms_metrics(np.zeros(shape))


#: Each metric called on its first argument, with a well-formed partner.
METRICS = {
    "associate": lambda x: associate(x, np.arange(5.0)),
    "source_errors": lambda x: source_errors(np.arange(5.0), x),
    "pointwise_error": lambda x: pointwise_error(x, np.arange(5.0), 1.0),
    "rms_metrics": lambda x: rms_metrics(x),
}


class TestRealFiniteInput:
    """The metrics refuse complex and non-finite input as ``as_signal_matrix`` does."""

    @pytest.mark.parametrize("metric", METRICS.values(), ids=METRICS.keys())
    def test_complex_input_is_refused(self, metric):
        # Refused before numpy's ComplexWarning, which would mean the imaginary part was dropped.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SparseBssError, match="complex128") as excinfo:
                metric(np.arange(5) * (1 + 1j))
        assert type(excinfo.value) is SparseBssError

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", METRICS.values(), ids=METRICS.keys())
    def test_non_finite_input_is_refused(self, metric, bad):
        x = np.arange(5.0)
        x[2] = bad
        with pytest.raises(NonFiniteError):
            metric(x)

    def test_sample_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            associate(np.ones((2, 10)), np.ones((2, 11)))


def noisy_example1(noise_sd):
    base = load_preset("example1")
    data = base.to_dict()
    data["noise_sd"] = noise_sd
    return ScenarioConfig.from_dict(data)


class TestMonteCarlo:
    def test_noiseless_runs_have_zero_set_spread(self):
        config = load_preset("example1")
        report = monte_carlo(
            config, MethodParams("global", 0.4), sets=3, runs_per_set=2
        )
        # Without noise every run separates the same record: the three sets
        # are bit-equal (their spread is zero only while their mean rounds
        # back to their value, so it is not what is checked).
        for figures in (report.set_rms_max, report.set_rms_tot):
            assert all(row.tobytes() == figures[0].tobytes() for row in figures)
        assert report.failures == 0
        # clean recovery: errors at numerical noise level
        assert np.all(report.rms_max < 1e-6)

    def test_reproducible_bit_for_bit(self):
        config = noisy_example1(0.005)
        params = MethodParams("global", 0.4)
        a = monte_carlo(config, params, 2, 5, master_seed=11)
        b = monte_carlo(config, params, 2, 5, master_seed=11)
        assert np.array_equal(a.set_rms_max, b.set_rms_max)
        assert np.array_equal(a.rms_per_sample, b.rms_per_sample)

    def test_independent_of_worker_count(self):
        config = noisy_example1(0.005)
        params = MethodParams("global", 0.4)
        serial = monte_carlo(config, params, 2, 6, master_seed=3, workers=1)
        parallel = monte_carlo(config, params, 2, 6, master_seed=3, workers=2)
        assert np.array_equal(serial.set_rms_max, parallel.set_rms_max)
        assert np.array_equal(serial.rms_per_sample, parallel.rms_per_sample)
        assert serial.failures == parallel.failures

    def test_master_seed_changes_results(self):
        config = noisy_example1(0.01)
        params = MethodParams("global", 0.3)
        a = monte_carlo(config, params, 1, 5, master_seed=1)
        b = monte_carlo(config, params, 1, 5, master_seed=2)
        assert not np.array_equal(a.rms_per_sample, b.rms_per_sample)

    def test_all_runs_failed(self):
        # singular mixing makes whitening fail on every (noiseless) run
        config = ScenarioConfig(
            kind="gaussian",
            sources=(
                GaussianPulseSpec(1.0, 0.1, 0.0125),
                GaussianPulseSpec(0.1, 0.026, 0.00625),
            ),
            sample_rate_hz=250.0,
            duration_s=0.2,
            mixing=((1.0, 2.0), (2.0, 4.0)),
            noise_sd=0.0,
            seed=1,
        )
        with pytest.raises(AllRunsFailedError):
            monte_carlo(config, MethodParams("global", 0.4), 1, 3)

    @pytest.mark.parametrize("sets, runs", [(0, 5), (2, 0)])
    def test_needs_a_run(self, sets, runs):
        with pytest.raises(ValueError, match="at least 1"):
            monte_carlo(noisy_example1(0.005), MethodParams("global", 0.4), sets, runs)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_needs_a_worker(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            monte_carlo(noisy_example1(0.005), MethodParams("global", 0.4), 1, 5, workers=workers)

    def test_mixture_count_must_match_sources(self):
        # each run would give 2 estimates for 3 sources
        config = ScenarioConfig(
            kind="gaussian",
            sources=tuple(GaussianPulseSpec(1.0, c, 0.0125) for c in (0.05, 0.1, 0.15)),
            sample_rate_hz=250.0,
            duration_s=0.2,
            mixing=((1.0, 0.5, 0.2), (0.3, 1.0, 0.7)),
            noise_sd=0.005,
            seed=1,
        )
        with pytest.raises(DimensionMismatchError):
            monte_carlo(config, MethodParams("global", 0.4), 1, 3)

    def test_report_invariants(self):
        config = noisy_example1(0.005)
        report = monte_carlo(config, MethodParams("mhc", 0.7), 2, 10, master_seed=5)
        assert np.all(report.rms_max >= report.rms_tot)
        assert 0.0 <= report.failure_rate <= 1.0
        assert report.total_runs == 20
