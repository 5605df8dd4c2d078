"""Source/estimate association, RMS error metrics, and the Monte Carlo harness.

Estimated sources come back in arbitrary order, with arbitrary scale and
possibly inverted sign.  Association is greedy on the Pearson correlation
matrix: repeatedly take the entry of largest magnitude, pair that source
with that estimate, record the correlation sign, and strike the row and
column.

Before errors are computed, actual sources and estimates are both scaled
to unit Euclidean norm.  (Per-sample error magnitudes are therefore
relative to a unit-energy signal, which keeps them comparable across
record lengths.)  The per-sample RMS error aggregates squared errors
across Monte Carlo runs; its quadratic mean over time and its maximum over
time are the two summary figures.

The Monte Carlo harness runs its seeds in chunks of at most
:data:`CHUNK_RUNS` runs, each carried through noise, whitening, the
deflation loop and association as one array pass by :func:`run_chunk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ScenarioConfig
from .errors import AllRunsFailedError, DimensionMismatchError, SparseBssError
from .errors import TooShortError, ZeroChannelError
from .rng import derive_seed
from .separation import MethodParams, deflation_steps
from .signals import as_real_finite, in_scale_range, normalize_unit_norm, sum_of_products
from .simulate import noisy_stack
from .whitening import whiten_stack

#: Most runs in one chunk.  250 runs of a 2 x 50 record keep every array of
#: the pass near 200 kB; larger chunks gain little and raise peak memory.
CHUNK_RUNS = 250

#: Most channel x sample values per run array in one chunk, so long records
#: get fewer runs per chunk instead of gigabyte arrays.
CHUNK_VALUES = 1 << 20


@dataclass(frozen=True)
class Association:
    """Greedy pairing of actual sources with estimates.

    ``permutation[r]`` is the estimate index matched to actual source ``r``;
    ``signs[r]`` is +1 or -1 according to the matched correlation's sign;
    ``correlations[r]`` is that correlation value.
    """

    permutation: np.ndarray
    signs: np.ndarray
    correlations: np.ndarray


@dataclass(frozen=True)
class EvalReport:
    """Error metrics of a Monte Carlo campaign.

    Per-sample, total, and maximum RMS errors are pooled over every
    successful run; ``set_rms_tot`` / ``set_rms_max`` hold the per-set
    values whose across-set means and standard deviations quantify
    significance.  Failed runs are excluded from all RMS figures and
    reported through ``failures``.
    """

    rms_per_sample: np.ndarray
    rms_tot: np.ndarray
    rms_max: np.ndarray
    set_rms_tot: np.ndarray
    set_rms_max: np.ndarray
    mean_rms_tot: np.ndarray
    sd_rms_tot: np.ndarray
    mean_rms_max: np.ndarray
    sd_rms_max: np.ndarray
    sets: int
    runs_per_set: int
    failures: int
    total_runs: int

    @property
    def failure_rate(self) -> float:
        return self.failures / self.total_runs if self.total_runs else 0.0


def associate(actual, estimates) -> Association:
    """Greedily pair sources with estimates by largest |Pearson correlation|.

    Exact ties go to the lowest (source, estimate) pair in row-major
    order.  Inputs must be real and finite with equal channel counts and at
    least two samples, and no row may be constant (its correlation would be
    undefined).
    """
    return _associate(actual, estimates)[0]


def _associate(actual, estimates) -> tuple[Association, np.ndarray, np.ndarray]:
    """:func:`associate`, with the checked (S, L) source and estimate arrays, C-contiguous."""
    s = np.ascontiguousarray(np.atleast_2d(as_real_finite(actual)))
    e = np.ascontiguousarray(np.atleast_2d(as_real_finite(estimates)))
    permutation, signs, correlations, constant = associate_stack(s, e[None])
    if constant[0]:
        raise ZeroChannelError("a source or estimate is constant; correlation undefined")
    assoc = Association(permutation=permutation[0], signs=signs[0], correlations=correlations[0])
    return assoc, s, e


def associate_stack(actual: np.ndarray, estimates: np.ndarray):
    """:func:`associate` for a (Q, S, L) stack of estimates, one set per run.

    Returns ``(permutation, signs, correlations, constant)`` as (Q, S)
    arrays plus a (Q,) mask of runs with a constant row, whose other
    outputs are meaningless.  A row is constant when every sample equals
    its first (``max == min``; a NaN makes neither true).  The correlations
    follow ``np.corrcoef``'s steps over a stacked ``matmul``, which gives
    its exact bits.  The sources and estimates are concatenated once, and
    that copy is centred in place by its ``mean``, which is what
    ``np.average`` takes without weights; neither input is written.

    Raises
    ------
    DimensionMismatchError
        Unless ``actual`` is (S, L) and ``estimates`` (Q, S, L).
    TooShortError
        If L < 2: a correlation needs two samples.
    """
    if estimates.ndim != 3 or actual.shape != estimates.shape[1:]:
        raise DimensionMismatchError(
            f"sources of shape {actual.shape} do not match estimates of shape {estimates.shape}"
        )
    q, n, length = estimates.shape
    if length < 2:
        raise TooShortError(f"need at least 2 samples to correlate, got {length}")
    constant = (estimates == estimates[..., :1]).all(axis=-1).any(axis=-1)
    constant |= (actual == actual[..., :1]).all(axis=-1).any()
    rows = np.concatenate([np.broadcast_to(actual, estimates.shape), estimates], axis=1)
    rows -= rows.mean(axis=-1, keepdims=True)
    cov = rows @ rows.swapaxes(-1, -2)
    cov *= np.true_divide(1, length - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        stddev = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
        cov /= stddev[:, :, None]
        cov /= stddev[:, None, :]
    corr = np.clip(cov, -1, 1, out=cov)[:, :n, n:]
    runs = np.arange(q)
    permutation = np.full((q, n), -1, dtype=int)
    correlations = np.zeros((q, n))
    remaining = np.abs(corr)
    for _ in range(n):
        r, c = np.divmod(np.argmax(remaining.reshape(q, -1), axis=-1), n)
        permutation[runs, r] = c
        correlations[runs, r] = corr[runs, r, c]
        remaining[runs, r, :] = -np.inf
        remaining[runs, :, c] = -np.inf
    signs = np.where(correlations >= 0.0, 1.0, -1.0)
    return permutation, signs, correlations, constant


def pointwise_error(actual_row, estimate_row, sign: float) -> np.ndarray:
    """Per-sample error with the estimate's sign resolved.

    ``actual - estimate`` for a positive correlation, ``actual + estimate``
    for a negative one (the estimate came out inverted).  ``source_errors``
    computes this for every source at once.  Both rows must have one shape.
    """
    s = as_real_finite(actual_row)
    e = as_real_finite(estimate_row)
    if s.shape != e.shape:
        raise DimensionMismatchError(f"actual row has shape {s.shape}, estimate row {e.shape}")
    return s - e if sign >= 0.0 else s + e


def source_errors(actual, estimates) -> tuple[Association, np.ndarray]:
    """Associate estimates with sources; per-sample errors with signs resolved.

    Row ``r`` of the (S, L) error array is
    ``pointwise_error(actual[r], estimates[permutation[r]], signs[r])``.
    """
    assoc, s, e = _associate(actual, estimates)
    return assoc, signed_errors(s, e, assoc.permutation, assoc.signs)


def signed_errors(actual, estimates, permutation, signs) -> np.ndarray:
    """``actual[r] - signs[r] * estimates[permutation[r]]``, over any leading run axes.

    The matched rows are gathered once, by one flat ``np.take`` over the
    (..., S, L) rows; the signs multiply them and ``actual`` is subtracted
    from them in that array, which is returned.  The operations and their
    order are those of the formula.
    """
    sources, length = estimates.shape[-2:]
    rows = permutation + sources * np.arange(permutation.size // sources).reshape(
        *permutation.shape[:-1], 1
    )
    matched = np.take(estimates.reshape(-1, length), rows, axis=0)
    matched *= signs[..., None]
    return np.subtract(actual, matched, out=matched)


def rms_metrics(errors):
    """Per-sample RMS over runs, plus its quadratic time-mean and time-max.

    ``errors`` is a (Q, L) array of one source's error sequences over Q
    runs, or a (Q, S, L) stack of S sources' sequences.  Returns
    ``(rms_per_sample, rms_tot, rms_max)``: shapes (L,), (), () for one
    source and (S, L), (S,), (S,) for a stack.  The errors are summed in a
    C-contiguous array, so any layout of ``errors`` gives the same bits.
    Without a run or a sample there is no figure, and ``SparseBssError`` is
    raised.
    """
    err = np.ascontiguousarray(np.atleast_2d(as_real_finite(errors)))
    if err.shape[0] == 0 or err.shape[-1] == 0:
        raise SparseBssError(f"need at least one run of at least one sample, got shape {err.shape}")
    return _rms_figures(np.mean(np.square(err), axis=0))


def _rms_figures(mean_squares: np.ndarray):
    """:func:`rms_metrics`' three figures from the per-sample mean squares, over any leading axes.

    The square root is taken in place.
    """
    rms_per_sample = np.sqrt(mean_squares, out=mean_squares)
    rms_tot = np.sqrt(np.mean(np.square(rms_per_sample), axis=-1))
    rms_max = np.max(rms_per_sample, axis=-1)
    return rms_per_sample, rms_tot, rms_max


def chunk_runs(n_channels: int, n_samples: int) -> int:
    """Runs per chunk for records of this shape."""
    return max(1, min(CHUNK_RUNS, CHUNK_VALUES // (n_channels * n_samples)))


def run_chunk(
    clean: np.ndarray, actual: np.ndarray, params: MethodParams, noise_sd: float, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Errors of one chunk of Monte Carlo runs.

    Run ``q`` separates record ``q`` of ``noisy_stack(clean, noise_sd,
    seeds)``, the noise draw of ``add_noise``, scales its estimates to unit
    norm, and pairs them with the unit-norm ``actual`` sources.
    Returns the (successes, sources, samples) signed errors of the
    successful runs, in run order, and the (runs,) success mask.

    A run leaves the chunk at the first stage that fails it: the deflation
    loop starts from the runs that whitening accepted and drops each run
    whose direction step finds nothing (:func:`deflation_steps`), and the
    norms, the association and the signed errors are taken over the runs
    that came through the loop, in the leading rows of the loop's
    estimates.  A chunk in which no run comes through the loop stops there;
    one whose every run fails whitening runs the loop on no record, whose
    one yield is empty.
    Every step reduces along the sample axis and multiplies in the one-run
    shapes, so each run gives the bits that ``separate``,
    ``normalize_unit_norm`` and ``source_errors`` give it alone, and fails
    exactly where that path raises a ``SparseBssError``.  Each failure is
    flagged once: whitening flags a zero, rank-deficient or out-of-scale
    channel (a non-finite one has an rms out of range), the loop a missing
    direction, the norms an estimate out of scale, and association a
    constant row.  The norms are ``normalize_unit_norm``'s rule, the square
    root of :func:`~sparsebss.signals.sum_of_products`.

    The chunk makes no throwaway copy of its records: the noise is drawn
    into the array it is added in (:func:`~sparsebss.rng.normal_grid`), the
    estimates are divided by their norms where they lie, association
    centres its one concatenation in place, and the errors are formed in
    the gathered matched rows (:func:`signed_errors`), which are copied
    only when the norms or the association fail a run.  The loop drops runs
    by copying only the survivors and freeing the array they leave, and the
    whitened data is freed when the loop ends.
    """
    # Noise that overflows gives a non-finite record, which whitening flags.
    with np.errstate(over="ignore"):
        noisy = noisy_stack(clean, noise_sd, seeds)
    ok = np.zeros(len(noisy), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        data, _, failed, _ = whiten_stack(noisy)
        del noisy
        runs = np.flatnonzero(failed < 0)
        if runs.size < ok.size:
            data = data[runs]
        estimates = np.empty_like(data)
        steps = deflation_steps(data, params, estimates)
        del data
        # The last step names the runs that found a direction at every iteration.
        for _, survivors, _, _ in steps:
            pass
        runs = runs[survivors]
        if not runs.size:
            return np.empty((0, *actual.shape)), ok
        estimates = estimates[: runs.size]
        scale = np.sqrt(sum_of_products(estimates))
        ok[runs] = in_scale_range(scale).all(axis=-1)
        estimates /= scale[..., None]
        permutation, signs, _, constant = associate_stack(actual, estimates)
    ok[runs] &= ~constant
    errors = signed_errors(actual, estimates, permutation, signs)
    kept = ok[runs]
    return (errors if kept.all() else errors[kept]), ok


def monte_carlo(
    scenario: ScenarioConfig,
    params: MethodParams,
    sets: int,
    runs_per_set: int,
    master_seed: int | None = None,
    workers: int = 1,
) -> EvalReport:
    """Repeated separation of one scenario under fresh noise realizations.

    Run ``q`` of set ``k`` regenerates noise with seed
    ``master_seed + k * runs_per_set + q``, separates, associates, and
    collects the per-sample errors of each actual source.  Per-set RMS
    figures are summarized by their mean and standard deviation across
    sets.  Runs whose separation fails are counted and excluded from the
    RMS figures.

    The seeds are cut, in order, into chunks of at most :data:`CHUNK_RUNS`
    runs (fewer for long records), and each chunk runs as one array pass
    of :func:`run_chunk`.  ``workers`` > 1 hands the chunks to
    that many processes, one chunk per task; the chunks do not depend on
    ``workers`` and are stacked in seed order, so the report is identical
    for any worker count.  The seeds are one uint64 array, ``master_seed``
    modulo 2**64 plus each run's index, wrapping as :func:`derive_seed` does.

    The chunks hold the errors of their successful runs only, so their one
    concatenation, squared in place once, holds each set's successful runs
    in consecutive rows.  Each set's sum runs over its rows and the pooled
    sum over all of them, each divided by its count of runs.  numpy adds
    the rows of such a sum in order, as :func:`rms_metrics` does, so the
    figures keep that call's bits.  With one set, the pooled sum is that
    set's, which is not taken twice.  A successful run's errors are finite
    and at most 2 in magnitude (unit-norm sources and estimates), so they
    need no second check and their squares cannot overflow.

    Raises
    ------
    AllRunsFailedError
        If not a single run separated successfully.
    ValueError
        If ``sets``, ``runs_per_set`` or ``workers`` is below 1.
    """
    if sets < 1 or runs_per_set < 1:
        raise ValueError("sets and runs_per_set must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if master_seed is None:
        master_seed = scenario.seed
    sources, clean = scenario.generate()
    if clean.shape[0] != sources.shape[0]:
        raise DimensionMismatchError(f"{clean.shape[0]} mixtures of {sources.shape[0]} sources")

    run = partial(run_chunk, clean, normalize_unit_norm(sources), params, scenario.noise_sd)
    total_runs = sets * runs_per_set
    # derive_seed(master_seed, q) for every run; uint64 addition wraps modulo 2**64.
    seeds = np.arange(total_runs, dtype=np.uint64) + np.uint64(derive_seed(master_seed, 0))
    size = chunk_runs(*clean.shape)
    chunks = [seeds[i : i + size] for i in range(0, total_runs, size)]
    if workers > 1:
        # Imported only here: loading multiprocessing would slow every CLI start.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = list(map(run, chunks))
    squares = np.concatenate([e for e, _ in results])
    ok = np.concatenate([k for _, k in results])

    failures = total_runs - int(np.count_nonzero(ok))
    if failures == total_runs:
        raise AllRunsFailedError(
            f"all {total_runs} runs failed to separate ({params.method}, "
            f"v_th={params.v_th})"
        )

    np.square(squares, out=squares)
    # The successful runs of each set with one, and where its rows end.
    kept = np.count_nonzero(ok.reshape(sets, runs_per_set), axis=1)
    kept = kept[kept > 0]
    ends = np.cumsum(kept)
    set_sums = np.stack([np.add.reduce(squares[hi - k : hi], axis=0) for k, hi in zip(kept, ends)])
    _, set_rms_tot, set_rms_max = _rms_figures(set_sums / kept[:, None, None])
    pooled = set_sums[0] if sets == 1 else np.add.reduce(squares, axis=0)
    rms_per_sample, rms_tot, rms_max = _rms_figures(pooled / (total_runs - failures))
    ddof = 1 if len(set_rms_tot) > 1 else 0
    return EvalReport(
        rms_per_sample=rms_per_sample,
        rms_tot=rms_tot,
        rms_max=rms_max,
        set_rms_tot=set_rms_tot,
        set_rms_max=set_rms_max,
        mean_rms_tot=set_rms_tot.mean(axis=0),
        sd_rms_tot=set_rms_tot.std(axis=0, ddof=ddof),
        mean_rms_max=set_rms_max.mean(axis=0),
        sd_rms_max=set_rms_max.std(axis=0, ddof=ddof),
        sets=sets,
        runs_per_set=runs_per_set,
        failures=failures,
        total_runs=total_runs,
    )
