"""Batched Monte Carlo engine: a chunk of noisy runs as one array pass.

:func:`run_chunk` takes the seeds of up to :data:`CHUNK_RUNS` runs and
carries all of them through noise, whitening, the deflation iterations,
normalization and association as (runs, channels, samples) arrays.  Each
step is the per-run step with a leading run axis: reductions run along
the sample axis and products are stacked ``matmul`` calls with the
one-run shapes, so every run gives exactly the errors that
:func:`~sparsebss.separation.separate`, ``normalize_unit_norm`` and
:func:`~sparsebss.evaluation.source_errors` give it alone, whichever
chunk it falls in.  A run counts as failed exactly where that per-run
path raises a :class:`~sparsebss.errors.SparseBssError`.

Only the global method's clustering is written out a second time here;
noise, whitening, the MHC search, the run finder, the cluster average and
association call the same functions as the per-run path.
"""

from __future__ import annotations

import numpy as np

from .clustering import longest_runs
from .evaluation import associate_stack, signed_errors
from .headings import _speeds, _threshold
from .rng import normal_grid
from .separation import DEGENERATE_TOLERANCE, MethodParams, average_directions, mhc_pick
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
    n = clean.shape[0]
    if noise_sd == 0.0:
        noisy = np.repeat(clean[None], q, axis=0)
    else:
        noisy = clean + noise_sd * normal_grid(seeds, clean.shape)
    ok = np.isfinite(noisy).all(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        data, _, failed = whiten_stack(noisy)
        del noisy
        ok &= failed < 0
        estimates = np.empty_like(data)
        for iteration in range(n):
            v = np.diff(data, axis=-1).swapaxes(-1, -2)
            speeds = _speeds(v)
            accepted, _ = _threshold(v, speeds, params.v_th)
            if params.method == "global":
                direction, found = _global_directions(v, accepted, params.alpha)
            else:
                best, found = mhc_pick(v, speeds, accepted)
                runs = np.arange(q)
                direction = v[runs, best] / speeds[runs, best][:, None]
            ok &= found
            source = (direction[:, None, :] @ data)[:, 0]
            data -= direction[:, :, None] * source[:, None, :]
            estimates[:, iteration] = source
        scale = np.linalg.norm(estimates, axis=-1)
        ok &= np.isfinite(estimates).all(axis=(1, 2)) & (scale != 0.0).all(axis=-1)
        estimates = estimates / scale[..., None]
        permutation, signs, _, constant = associate_stack(actual, estimates)
    ok &= ~constant
    return signed_errors(actual, estimates, permutation, signs), ok


def _global_directions(
    v: np.ndarray, accepted: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The global method's direction step for a (Q, M, N) velocity stack.

    The batched form of ``separation._global_direction``.  Each run's
    accepted velocities move to the front, in index order, of a width set
    by the run with the most; the empty slots sort as +inf and are never
    adjacent to anything.  Returns the unit directions and which runs
    formed a cluster.
    """
    q, _, n = v.shape
    count = accepted.sum(axis=-1)
    width = int(count.max())
    directions = np.zeros((q, n))
    found = count >= 2
    if width < 2:
        return directions, found
    slots = np.argsort(~accepted, axis=-1, kind="stable")[:, :width]
    velocities = np.ascontiguousarray(np.take_along_axis(v, slots[..., None], axis=1))
    speeds = np.linalg.norm(velocities, axis=-1)
    valid = np.arange(width) < count[:, None]
    magnitudes = np.where(valid[..., None], np.abs(velocities / speeds[..., None]), np.inf)

    order = np.argsort(magnitudes, axis=1, kind="stable")
    values = np.take_along_axis(magnitudes, order, axis=1)
    adjacency = np.zeros(values.shape, dtype=bool)
    adjacency[:, 1:] = np.diff(values, axis=1) < (alpha / count)[:, None, None]

    component, lo, run_length = longest_runs(adjacency)
    found &= run_length > 0
    # The seed spans sorted positions lo - 1 .. hi: lo marks the gap after
    # lo - 1, so that value belongs to the bunch (``expand_and_remap``).
    position = np.arange(width)
    in_seed = (position >= lo[:, None] - 1) & (position < (lo + run_length)[:, None])
    seed = np.zeros((q, width), dtype=bool)
    seed_order = np.take_along_axis(order, component[:, None, None], axis=2)[..., 0]
    np.put_along_axis(seed, seed_order, in_seed, axis=1)

    # A heading is in a component's clustering when its sorted position or
    # the next one is marked (``cross_check_components``).
    in_run = adjacency.copy()
    in_run[:, :-1] |= adjacency[:, 1:]
    member = np.empty_like(in_run)
    np.put_along_axis(member, order, in_run, axis=1)
    member |= np.arange(n) == component[:, None, None]
    survivors = seed & member.all(axis=-1)

    size = survivors.sum(axis=-1)
    found &= size > 0
    # One stacked average per cluster size keeps every item in its one-run shape.
    for k in np.flatnonzero(np.bincount(size[found])):
        runs = np.flatnonzero(found & (size == k))
        members = np.nonzero(survivors[runs])[1].reshape(len(runs), k)
        unit, length, moving = average_directions(velocities[runs[:, None], members])
        directions[runs] = unit
        found[runs] = moving & (length >= DEGENERATE_TOLERANCE)
    return directions, found
