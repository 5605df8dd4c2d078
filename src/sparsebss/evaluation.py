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
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import ScenarioConfig
from .errors import AllRunsFailedError, DimensionMismatchError, SparseBssError, ZeroChannelError
from .rng import derive_seed
from .separation import MethodParams, separate
from .signals import normalize_unit_norm
from .simulate import add_noise


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
    order.  Inputs must have equal channel counts, and no row may be
    constant (its correlation would be undefined).
    """
    s = np.atleast_2d(np.asarray(actual, dtype=float))
    e = np.atleast_2d(np.asarray(estimates, dtype=float))
    if s.shape[0] != e.shape[0]:
        raise DimensionMismatchError(
            f"{s.shape[0]} sources vs {e.shape[0]} estimates"
        )
    if s.shape[1] != e.shape[1]:
        raise DimensionMismatchError(
            f"sources have {s.shape[1]} samples, estimates {e.shape[1]}"
        )
    rows = np.vstack([s, e])
    if (rows.max(axis=1) == rows.min(axis=1)).any():
        raise ZeroChannelError("a source or estimate is constant; correlation undefined")
    n = s.shape[0]
    corr = np.corrcoef(rows)[:n, n:]
    permutation = np.full(n, -1, dtype=int)
    signs = np.zeros(n)
    correlations = np.zeros(n)
    remaining = np.abs(corr).copy()
    for _ in range(n):
        r, c = np.unravel_index(np.argmax(remaining), remaining.shape)
        permutation[r] = c
        correlations[r] = corr[r, c]
        signs[r] = 1.0 if corr[r, c] >= 0.0 else -1.0
        remaining[r, :] = -np.inf
        remaining[:, c] = -np.inf
    return Association(permutation=permutation, signs=signs, correlations=correlations)


def pointwise_error(actual_row, estimate_row, sign: float) -> np.ndarray:
    """Per-sample error with the estimate's sign resolved.

    ``actual - estimate`` for a positive correlation, ``actual + estimate``
    for a negative one (the estimate came out inverted).  ``source_errors``
    computes this for every source at once.
    """
    s = np.asarray(actual_row, dtype=float)
    e = np.asarray(estimate_row, dtype=float)
    return s - e if sign >= 0.0 else s + e


def source_errors(actual, estimates) -> tuple[Association, np.ndarray]:
    """Associate estimates with sources; per-sample errors with signs resolved.

    Row ``r`` of the (S, L) error array is
    ``pointwise_error(actual[r], estimates[permutation[r]], signs[r])``.
    """
    assoc = associate(actual, estimates)
    s = np.atleast_2d(np.asarray(actual, dtype=float))
    e = np.atleast_2d(np.asarray(estimates, dtype=float))
    return assoc, s - assoc.signs[:, None] * e[assoc.permutation]


def rms_metrics(errors):
    """Per-sample RMS over runs, plus its quadratic time-mean and time-max.

    ``errors`` is a (Q, L) array of one source's error sequences over Q
    runs, or a (Q, S, L) stack of S sources' sequences.  Returns
    ``(rms_per_sample, rms_tot, rms_max)``: shapes (L,), (), () for one
    source and (S, L), (S,), (S,) for a stack.
    """
    err = np.atleast_2d(np.asarray(errors, dtype=float))
    rms_per_sample = np.sqrt(np.mean(np.square(err), axis=0))
    rms_tot = np.sqrt(np.mean(np.square(rms_per_sample), axis=-1))
    rms_max = np.max(rms_per_sample, axis=-1)
    return rms_per_sample, rms_tot, rms_max


def _run_once(clean_mixtures, actual_norm, params, noise_sd, seed):
    """One Monte Carlo run: the (S, L) error array, or None if it failed."""
    noisy = add_noise(clean_mixtures, noise_sd, seed)
    try:
        estimates = normalize_unit_norm(separate(noisy, params).estimates)
        return source_errors(actual_norm, estimates)[1]
    except SparseBssError:
        return None


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

    ``workers`` > 1 parallelizes runs across that many processes; results
    are reduced in run order, so the report is identical for any worker
    count.

    Raises
    ------
    AllRunsFailedError
        If not a single run separated successfully.
    """
    if sets < 1 or runs_per_set < 1:
        raise ValueError("sets and runs_per_set must be at least 1")
    if master_seed is None:
        master_seed = scenario.seed
    sources, clean = scenario.generate()
    if clean.shape[0] != sources.shape[0]:
        raise DimensionMismatchError(f"{clean.shape[0]} mixtures of {sources.shape[0]} sources")

    total_runs = sets * runs_per_set
    seeds = [derive_seed(master_seed, q) for q in range(total_runs)]
    run = partial(_run_once, clean, normalize_unit_norm(sources), params, scenario.noise_sd)
    if workers > 1:
        chunksize = max(1, total_runs // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, seeds, chunksize=chunksize))
    else:
        results = list(map(run, seeds))

    failures = sum(1 for r in results if r is None)
    if failures == total_runs:
        raise AllRunsFailedError(
            f"all {total_runs} runs failed to separate ({params.method}, "
            f"v_th={params.v_th})"
        )

    per_set = []
    for k in range(sets):
        good = [r for r in results[k * runs_per_set : (k + 1) * runs_per_set] if r is not None]
        if good:
            per_set.append(rms_metrics(np.array(good))[1:])
    set_rms_tot, set_rms_max = map(np.array, zip(*per_set))
    rms_per_sample, rms_tot, rms_max = rms_metrics(np.array([r for r in results if r is not None]))
    ddof = 1 if len(per_set) > 1 else 0
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
