"""Self-time arithmetic and the tracer's wrapping, on synthetic spans."""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from spans import TRACED, Tracer, self_times  # noqa: E402


def spans(*rows):
    parent, start, end = (np.array(col, dtype=float) for col in zip(*rows))
    return parent.astype(int), start, end


def test_nested_children_count_only_for_their_direct_parent():
    own = self_times(*spans((-1, 0, 10), (0, 1, 6), (1, 2, 4)))
    np.testing.assert_allclose(own, [5, 3, 2])


def test_back_to_back_children_add_up():
    own = self_times(*spans((-1, 0, 10), (0, 1, 4), (0, 4, 9), (-1, 10, 12)))
    np.testing.assert_allclose(own, [2, 3, 5, 2])


def test_raising_child_is_closed_and_subtracted():
    tracer = Tracer()

    def child():
        time.sleep(0.01)
        raise ValueError("boom")

    traced_child = tracer._wrap("separation.deflate", child)

    def parent():
        with pytest.raises(ValueError):
            traced_child()
        time.sleep(0.005)

    tracer._wrap("separation.project_source", parent)()
    parent_ids = np.frombuffer(tracer.parent, dtype=np.int32)
    start, end = np.frombuffer(tracer.start), np.frombuffer(tracer.end)
    assert parent_ids.tolist() == [-1, 0]
    own = self_times(parent_ids, start, end)
    assert own[1] >= 0.01
    assert own[0] == pytest.approx((end[0] - start[0]) - (end[1] - start[1]))
    assert own[0] >= 0.005


def test_failed_separate_is_counted_by_type_and_iteration():
    tracer = Tracer()

    class NoConsecutivePairError(Exception):
        pass

    class ClusterFormationFailedError(Exception):
        iteration = 1

    headings = tracer._wrap(
        "headings.compute_headings", lambda: SimpleNamespace(accepted=np.ones(4, bool))
    )

    def separate(error):
        headings()
        headings()
        raise error

    traced = tracer._wrap("separation.separate", separate)
    for error in (NoConsecutivePairError(), ClusterFormationFailedError(), KeyError()):
        with pytest.raises((NoConsecutivePairError, ClusterFormationFailedError, KeyError)):
            traced(error)
    assert tracer.failures == {
        "NoConsecutivePairError.iter1": 1,
        "ClusterFormationFailedError.iter1": 1,
        "other": 1,
    }
    metrics = tracer.layer_metrics(1.0)
    assert metrics["separation.separate.fail.NoConsecutivePairError.iter1"] == (1, "count")
    assert metrics["headings.compute_headings.accepted_ratio"] == (1.0, "share")
    per_cycle = tracer.layer_metrics(1.0, cycles=3)
    assert per_cycle["separation.separate.calls"] == (1.0, "count")
    assert per_cycle["headings.compute_headings.calls"] == (2.0, "count")
    assert per_cycle["separation.separate.fail.other"] == (1 / 3, "count")
    # The first separate call (three spans) as a set-up counted in full.
    with_setup = tracer.layer_metrics(1.0, cycles=2, setup_spans=3)
    assert with_setup["separation.separate.calls"] == (2.0, "count")
    assert with_setup["headings.compute_headings.calls"] == (4.0, "count")


def test_install_reaches_internal_callers_and_uninstall_restores():
    import sparsebss
    from sparsebss import separation

    original = separation.separate
    rng = np.random.default_rng(0)
    sources = np.zeros((2, 400))
    sources[0, :150] = rng.uniform(-1, 1, 150)
    sources[1, 250:] = rng.uniform(-1, 1, 150)
    mixtures = np.array([[1.0, 0.6], [0.3, 1.0]]) @ sources

    tracer = Tracer()
    tracer.install()
    try:
        assert sparsebss.separate is not original
        sparsebss.separate(mixtures, sparsebss.MethodParams())
    finally:
        tracer.uninstall()
    assert separation.separate is original and sparsebss.separate is original

    called = [TRACED[f] for f in tracer.func]
    parents = list(tracer.parent)
    assert called[0] == "separation.separate" and parents[0] == -1
    assert called.count("clustering.find_cluster") == 2
    for i, name in enumerate(called):
        if name == "headings.compute_headings":
            assert parents[i] == 0
