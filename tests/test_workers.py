"""Blocked passes split over worker threads: the helper's contract, and bits that do not move.

``signals.in_workers`` runs the groups of a pass at once, the first in the
caller and the others on persistent daemon threads.  Every output must keep
its bits whatever the number of groups: these tests force the worker count
to 1 and to several, and hand every multi-block pass to the workers by
setting ``GROUP_BLOCKS`` to 1, so even the test records' short passes split.
"""

import ast
import dataclasses
import hashlib
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import run_fresh
from test_separation import sparse_record

import sparsebss
from sparsebss import MethodParams, SparseBssError, load_preset, monte_carlo, separate, signals
from sparsebss.signals import BLOCK, in_workers, worker_groups

#: Worker counts compared with one worker: the default count, 2 and 3.
COUNTS = sorted({signals.WORKERS, 2, 3})


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def separate_digest(mixtures, params) -> str:
    try:
        result = separate(mixtures, params)
    except SparseBssError as error:
        return type(error).__name__
    return digest(result.estimates, result.transform, *(d.unit_vector for d in result.directions),
                  np.array([it.residual_energy for it in result.iterations]))


def long_record(n, length):
    """``sparse_record(777002, n, ..., 1e-3, burst=50)`` cut to ``length`` samples."""
    return sparse_record(777002, n, 50 * (length // 50 + 1), 1e-3, burst=50)[:, :length]


def with_workers(monkeypatch, count, run):
    """``run()`` with ``count`` workers and every multi-block pass split."""
    monkeypatch.setattr(signals, "WORKERS", count)
    monkeypatch.setattr(signals, "GROUP_BLOCKS", 1 if count > 1 else signals.GROUP_BLOCKS)
    return run()


METHODS = [("global", 0.4), ("mhc", 0.5)]


class TestWorkerCountSymmetry:
    @pytest.mark.parametrize("method, v_th", METHODS)
    @pytest.mark.parametrize(
        "velocities", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, (1 << 17) + 1]
    )
    def test_block_edges(self, monkeypatch, method, v_th, velocities):
        # The lengths of TestMatchesHelperLoop::test_block_edges.
        mixtures = sparse_record(6, 3, 50 * (velocities // 50 + 1), 1e-3, burst=50)
        mixtures = mixtures[:, : velocities + 1]
        params = MethodParams(method=method, v_th=v_th)
        expected = with_workers(monkeypatch, 1, lambda: separate_digest(mixtures, params))
        for count in COUNTS:
            got = with_workers(monkeypatch, count, lambda: separate_digest(mixtures, params))
            assert got == expected

    @pytest.mark.parametrize("method, v_th", METHODS)
    @pytest.mark.parametrize("n, length", [(3, 200_001), (6, 100_003), (8, 100_003), (4, 250_000)])
    def test_long_records(self, monkeypatch, method, v_th, n, length):
        mixtures = long_record(n, length)
        params = MethodParams(method=method, v_th=v_th)
        expected = with_workers(monkeypatch, 1, lambda: separate_digest(mixtures, params))
        for count in COUNTS:
            got = with_workers(monkeypatch, count, lambda: separate_digest(mixtures, params))
            assert got == expected

    def test_monte_carlo(self, monkeypatch):
        scenario = dataclasses.replace(load_preset("example1"), noise_sd=0.005)

        def report():
            r = monte_carlo(scenario, MethodParams("global", 0.4), 2, 100, 777000)
            return digest(r.rms_per_sample, r.set_rms_tot, r.set_rms_max, np.array([r.failures]))

        expected = with_workers(monkeypatch, 1, report)
        assert with_workers(monkeypatch, max(COUNTS), report) == expected


def worker_groups_of(items, count):
    """``items`` in ``count`` contiguous groups, whatever the machine."""
    return [items[g * len(items) // count : (g + 1) * len(items) // count] for g in range(count)]


def run_callers(caller, seeds):
    """``caller(seed)`` for each seed, each on a thread of its own, at once; their results."""
    results = {}
    threads = [
        threading.Thread(target=lambda s=s: results.__setitem__(s, caller(s))) for s in seeds
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [results[s] for s in seeds]


def bounded(run, seconds=60):
    """``run()`` on a thread of its own, failing rather than hanging if it outlasts ``seconds``."""
    outcome = []

    def target():
        try:
            outcome.append(("value", run()))
        except BaseException as error:  # handed to the test's thread
            outcome.append(("error", error))

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    kind, value = outcome[0]
    if kind == "error":
        raise value
    return value


class TestHelper:
    def test_groups_are_contiguous_and_balanced(self, monkeypatch):
        monkeypatch.setattr(signals, "WORKERS", 3)
        assert worker_groups(range(10), 1) == [range(0, 3), range(3, 6), range(6, 10)]
        assert worker_groups(range(0, 100, 10), 4) == [range(0, 50, 10), range(50, 100, 10)]
        assert worker_groups(range(5), 8) == [range(5)]
        assert worker_groups(range(0), 1) == [range(0)]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
    def test_the_default_count_is_the_cpus_but_at_most_two(self):
        # More groups were not measured: the threshold pass's blocks narrow
        # and the scratch grows with them.
        assert signals.WORKERS == min(2, len(os.sched_getaffinity(0)))

    def test_each_group_runs_once_with_its_slot(self):
        seen = []
        groups = [range(0, 2), range(2, 5), range(5, 6)]
        bounded(lambda: in_workers(lambda slot, group: seen.append((slot, list(group))), groups))
        assert sorted(seen) == [(0, [0, 1]), (1, [2, 3, 4]), (2, [5])]

    def test_a_worker_groups_exception_is_raised_in_the_caller(self):
        class Stop(Exception):
            pass

        ran = []

        def fn(slot, group):
            ran.append(slot)
            if slot == 1:
                raise Stop(f"group {slot}")

        with pytest.raises(Stop, match="group 1"):
            bounded(lambda: in_workers(fn, [range(1), range(1, 2), range(2, 3)]))
        assert sorted(ran) == [0, 1, 2]
        # The workers are free again.
        bounded(lambda: in_workers(lambda slot, group: None, [range(1), range(1, 2)]))

    def test_groups_run_under_the_callers_numpy_error_state(self):
        where = {}

        def fn(slot, group):
            where[slot] = threading.current_thread()
            if slot == 1:
                np.divide(np.ones(2), 0.0)

        def run():
            with np.errstate(all="raise"):
                in_workers(fn, [range(1), range(1, 2)])

        with pytest.raises(FloatingPointError):
            bounded(run)
        assert where[0] is not where[1]

    def test_a_call_from_inside_a_group_runs_inline(self):
        threads = {}

        def inner(outer_slot, slot, group):
            threads[outer_slot, slot] = threading.current_thread()

        def outer(slot, group):
            in_workers(lambda s, g: inner(slot, s, g), [range(1), range(1, 2)])

        bounded(lambda: in_workers(outer, [range(1), range(1, 2)]))
        assert threads[0, 0] is threads[0, 1]
        assert threads[1, 0] is threads[1, 1]
        assert threads[0, 0] is not threads[1, 0]

    def test_many_groups_from_several_callers(self):
        # More groups than cores, from four callers at once, with the
        # interpreter switching threads as often as it can: every group
        # runs once, and writes only its own slots.
        def caller(seed):
            out = np.zeros(60, dtype=int)

            def fn(slot, group):
                for i in group:
                    out[i] += seed + i

            for _ in range(50):
                in_workers(fn, worker_groups_of(range(60), 7))
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = bounded(lambda: run_callers(caller, range(4)), 120)
        finally:
            sys.setswitchinterval(interval)
        for seed, out in zip(range(4), results):
            assert out.tolist() == [50 * (seed + i) for i in range(60)]

    def test_one_block_passes_start_no_thread(self):
        code = (
            "import threading, dataclasses, numpy as np; "
            "from sparsebss import MethodParams, load_preset, monte_carlo, separate; "
            "x = np.random.default_rng(5).standard_normal((3, 2000)); "
            "separate(x, MethodParams('global', 0.4)); separate(x, MethodParams('mhc', 0.5)); "
            "s = dataclasses.replace(load_preset('example1'), noise_sd=0.005); "
            "monte_carlo(s, MethodParams('mhc', 0.7), 1, 300, 7); "
            "print(threading.active_count())"
        )
        assert run_fresh(code) == "1"


class TestImportAndFork:
    def test_import_starts_no_thread_and_loads_no_queue(self):
        code = (
            "import sys, threading, numpy; "
            "loaded = {'threading', 'contextvars'} <= set(sys.modules); "
            "import sparsebss, sparsebss.cli; "
            "print(loaded, threading.active_count(), 'queue' in sys.modules)"
        )
        assert run_fresh(code) == "True 1 False"

    def test_import_and_threaded_passes_without_affinity_or_fork(self):
        # macOS has no os.sched_getaffinity, and Windows neither it nor fork.
        code = (
            "import os; cpus = os.cpu_count() or 1; "
            "del os.sched_getaffinity, os.register_at_fork, os.fork; "
            "import threading, numpy as np; "
            "from sparsebss import MethodParams, separate, signals; "
            "x = np.random.default_rng(5).standard_normal((3, 70_000)); "
            "separate(x, MethodParams('global', 0.4)); "
            "print(signals.WORKERS == min(2, cpus), threading.active_count() == signals.WORKERS)"
        )
        assert run_fresh(code) == "True True"

    def test_process_pool_after_worker_threads_gives_the_one_process_report(self):
        # The forked processes start without the parent's worker threads; a
        # child that believed it had them would wait for them forever.
        code = (
            "import dataclasses, hashlib, threading, numpy as np; "
            "from sparsebss import MethodParams, add_noise, load_preset, monte_carlo, separate; "
            "from sparsebss import signals; "
            "signals.WORKERS, signals.GROUP_BLOCKS = 2, 1; "
            "scenario = dataclasses.replace(load_preset('section2iii'), length=50_000, "
            "shift=49_000, noise_sd=5e-4); "
            "_, clean = scenario.generate(); "
            "separate(add_noise(clean, 5e-4, 1), MethodParams('mhc', 0.5)); "
            "started = threading.active_count() > 1; "
            "digests = set(); "
            "[digests.add(hashlib.sha256(r.rms_per_sample.tobytes() + r.set_rms_max.tobytes())"
            ".hexdigest()) for r in (monte_carlo(scenario, MethodParams('mhc', 0.5), 1, 4, 9, "
            "workers=w) for w in (2, 1))]; "
            "print(started, len(digests))"
        )
        assert run_fresh(code, timeout=120) == "True 1"

    def test_only_signals_imports_threading(self):
        # One module owns the workers; every other one hands its groups to
        # signals.in_workers.
        package = Path(sparsebss.__file__).parent
        found = []
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                if any(name.split(".")[0] in ("threading", "_thread") for name in names):
                    found.append(path.name)
        assert found == ["signals.py"]
