"""A record's memory layout does not change a result.

Every public function that reduces along the samples gives the same bits
on a C-ordered record and on its Fortran-ordered copy, whose channel rows
are strided.
"""

import dataclasses

import numpy as np
import pytest

from sparsebss import MethodParams, separate
from sparsebss.evaluation import associate, rms_metrics, source_errors
from sparsebss.signals import normalize_rms, normalize_unit_norm
from sparsebss.whitening import gram_schmidt_whiten

N_SAMPLES = 200_000


def same(a, b) -> bool:
    """Equal shapes and bits, or both None."""
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module", params=[2, 3, 4], ids=lambda n: f"{n}ch")
def record(request):
    """(sources, mixtures): sources active in disjoint 50-sample bursts, a little noise."""
    n = request.param
    rng = np.random.default_rng(100 + n)
    owner = rng.integers(-1, n, N_SAMPLES // 50).repeat(50)
    sources = np.where(owner == np.arange(n)[:, None], rng.uniform(-1.0, 1.0, N_SAMPLES), 0.0)
    mixtures = rng.standard_normal((n, n)) @ sources
    mixtures += 1e-4 * rng.standard_normal(mixtures.shape)
    return sources, mixtures


@pytest.mark.parametrize("method, v_th", [("global", 0.4), ("mhc", 0.5)])
def test_separate(record, method, v_th):
    mixtures = record[1]
    params = MethodParams(method=method, v_th=v_th)
    c, f = separate(mixtures, params), separate(np.asfortranarray(mixtures), params)
    assert same(c.estimates, f.estimates)
    assert same(c.transform, f.transform)
    assert [d.support_size for d in c.directions] == [d.support_size for d in f.directions]
    assert all(same(a.unit_vector, b.unit_vector) for a, b in zip(c.directions, f.directions))
    assert len(c.iterations) == len(f.iterations) == mixtures.shape[0]
    for a, b in zip(c.iterations, f.iterations):
        for name in (field.name for field in dataclasses.fields(a)):
            assert same(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize(
    "transform",
    [
        lambda x: gram_schmidt_whiten(x).components,
        lambda x: gram_schmidt_whiten(x).transform,
        normalize_unit_norm,
        normalize_rms,
    ],
    ids=["whitened", "whitening-transform", "unit-norm", "unit-rms"],
)
def test_whitening_and_normalization(record, transform):
    mixtures = record[1]
    assert same(transform(mixtures), transform(np.asfortranarray(mixtures)))


def test_evaluation(record):
    sources, mixtures = record
    estimates = separate(mixtures, MethodParams()).estimates
    f_sources, f_estimates = np.asfortranarray(sources), np.asfortranarray(estimates)
    c, f = associate(sources, estimates), associate(f_sources, f_estimates)
    assert all(same(getattr(c, k), getattr(f, k)) for k in ("permutation", "signs", "correlations"))
    c, c_errors = source_errors(sources, estimates)
    f, f_errors = source_errors(f_sources, f_estimates)
    assert all(same(getattr(c, k), getattr(f, k)) for k in ("permutation", "signs", "correlations"))
    assert same(c_errors, f_errors)
    for errors in (c_errors, c_errors[None], np.stack([c_errors, -2.0 * c_errors])):
        # (Q, L) runs of one source, and (Q, S, L) stacks of one and of two runs
        for a, b in zip(rms_metrics(errors), rms_metrics(np.asfortranarray(errors))):
            assert same(a, b)
