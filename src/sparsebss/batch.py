"""Batched Monte Carlo engine: a chunk of noisy runs as one array pass.

:func:`run_chunk` takes the seeds of up to :data:`CHUNK_RUNS` runs and
carries them together through noise, whitening, the deflation loop of
:func:`~sparsebss.separation.deflation_steps` (the loop ``separate`` runs
on one record), normalization and association.  Every step reduces along
the sample axis and multiplies in the one-run shapes, so each run gives
the bits ``separate``, ``normalize_unit_norm`` and ``source_errors`` give
it alone, and fails exactly where that path raises a ``SparseBssError``.
"""

from __future__ import annotations

import numpy as np

from .evaluation import associate_stack, signed_errors
from .rng import normal_grid
from .separation import MethodParams, deflation_steps
from .whitening import whiten_stack

#: Most runs in one chunk.  250 runs of a 2 x 50 record keep every array of
#: the pass near 200 kB; larger chunks gain little and raise peak memory.
CHUNK_RUNS = 250

#: Most channel x sample values per run array in one chunk, so long records
#: get fewer runs per chunk instead of gigabyte arrays.
CHUNK_VALUES = 1 << 20


def chunk_runs(n_channels: int, n_samples: int) -> int:
    """Runs per chunk for records of this shape."""
    return max(1, min(CHUNK_RUNS, CHUNK_VALUES // (n_channels * n_samples)))


def run_chunk(
    clean: np.ndarray, actual: np.ndarray, params: MethodParams, noise_sd: float, seeds
) -> tuple[np.ndarray, np.ndarray]:
    """Errors of one chunk of Monte Carlo runs.

    Run ``q`` separates ``clean`` plus noise of standard deviation
    ``noise_sd`` drawn from stream ``seeds[q]``, scales its estimates to
    unit norm, and pairs them with the unit-norm ``actual`` sources.
    Returns the (runs, sources, samples) signed errors and the (runs,)
    success mask; the errors of failed runs are meaningless.
    """
    q = len(seeds)
    if noise_sd == 0.0:
        noisy = np.repeat(clean[None], q, axis=0)
    else:
        noisy = normal_grid(seeds, clean.shape)
        noisy *= noise_sd
        noisy += clean
    ok = np.isfinite(noisy).all(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        data, _, failed = whiten_stack(noisy)
        del noisy
        ok &= failed < 0
        estimates = np.empty_like(data)
        for iteration, (sources, _, found, _, _) in enumerate(deflation_steps(data, params)):
            ok &= found
            estimates[:, iteration] = sources
        scale = np.linalg.norm(estimates, axis=-1)
        ok &= np.isfinite(estimates).all(axis=(1, 2)) & (scale != 0.0).all(axis=-1)
        estimates = estimates / scale[..., None]
        permutation, signs, _, constant = associate_stack(actual, estimates)
    ok &= ~constant
    return signed_errors(actual, estimates, permutation, signs), ok
