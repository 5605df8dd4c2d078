"""Outside-in layer tracing for the benchmark.

The tracer wraps public ``sparsebss`` functions by replacing the attribute in
every loaded ``sparsebss.*`` module that holds the function, so internal
callers (``separate`` -> ``find_cluster``, ``_run_once`` -> ``add_noise``)
go through the wrapper while the package itself is unchanged.  Each call
records one span (function, parent span, start, end) in flat arrays kept in
memory; per-layer figures are computed from them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np

#: Wrapped functions, as ``<module>.<function>`` (or ``<module>.<Class>.<method>``).
TRACED = (
    "rng.normal_matrix",
    "simulate.add_noise",
    "config.load_config",
    "config.ScenarioConfig.generate",
    "signals.normalize_unit_norm",
    "whitening.gram_schmidt_whiten",
    "headings.compute_headings",
    "headings.compute_velocities",
    "headings.normalize_headings",
    "headings.apply_velocity_threshold",
    "clustering.find_cluster",
    "clustering.sort_component",
    "clustering.build_adjacency",
    "clustering.find_largest_run",
    "clustering.cross_check_components",
    "separation.separate",
    "separation.weighted_average_heading",
    "separation.mhc_find_direction",
    "separation.project_source",
    "separation.deflate",
    "evaluation.monte_carlo",
    "evaluation.associate",
    "evaluation.pointwise_error",
    "evaluation.rms_metrics",
    "io.read_csv",
    "io.write_csv",
    "cli.cmd_simulate",
    "cli.cmd_separate",
    "cli.cmd_evaluate",
)

#: Functions called at least 1000 times in one table8_mc protocol (10 sets of
#: 1000 runs per method); they also report a 99th-percentile self time, on
#: every workload that calls them.
P99_TRACED = (
    "rng.normal_matrix",
    "simulate.add_noise",
    "signals.normalize_unit_norm",
    "whitening.gram_schmidt_whiten",
    "headings.compute_headings",
    "headings.compute_velocities",
    "headings.normalize_headings",
    "headings.apply_velocity_threshold",
    "clustering.find_cluster",
    "clustering.sort_component",
    "clustering.build_adjacency",
    "clustering.find_largest_run",
    "clustering.cross_check_components",
    "separation.separate",
    "separation.weighted_average_heading",
    "separation.mhc_find_direction",
    "separation.project_source",
    "separation.deflate",
    "evaluation.associate",
    "evaluation.pointwise_error",
)

#: ``separate`` failures reported by name; any other (type, iteration) is
#: counted under ``separation.separate.fail.other``.
FAILURE_KINDS = tuple(
    f"{error}.iter{k}"
    for error in ("ClusterFormationFailedError", "NoConsecutivePairError")
    for k in range(4)
)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so a span's children run one after another
    inside it and their durations add up to the time they cover.
    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    """
    duration = end - start
    covered = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failures: dict[str, int] = {}
        self.counts = dict.fromkeys(
            ("accepted", "steps", "headings_in", "members", "read_bytes", "write_bytes"), 0
        )
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._ids = {name: i for i, name in enumerate(TRACED)}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        owners = {
            name: importlib.import_module(f"sparsebss.{name.split('.')[0]}") for name in TRACED
        }
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "sparsebss" or name.startswith("sparsebss."))
        ]
        for name, owner in owners.items():
            attr = name.split(".", 1)[1]
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        fid = self._ids[name]
        after = {
            "headings.compute_headings": self._after_headings,
            "clustering.find_cluster": self._after_cluster,
            "io.read_csv": self._after_read,
            "io.write_csv": self._after_write,
        }.get(name)
        on_error = self._record_failure if name == "separation.separate" else None
        stack, clock = self._stack, time.perf_counter
        func, parent, start, end = self.func, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            idx = len(func)
            func.append(fid)
            parent.append(stack[-1] if stack else -1)
            start.append(t0)
            end.append(t0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if on_error is not None:
                    on_error(idx, err)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters at layer boundaries ---------------------------------------

    def _after_headings(self, args, heading_set) -> None:
        self.counts["accepted"] += int(heading_set.accepted.sum())
        self.counts["steps"] += heading_set.accepted.size

    def _after_cluster(self, args, result) -> None:
        self.counts["headings_in"] += len(args[0])
        self.counts["members"] += len(result[0])

    def _after_read(self, args, result) -> None:
        self.counts["read_bytes"] += os.path.getsize(args[0])

    def _after_write(self, args, result) -> None:
        self.counts["write_bytes"] += os.path.getsize(args[0])

    def _record_failure(self, idx: int, err: BaseException) -> None:
        """Count a failed ``separate`` by exception type and iteration.

        The iteration is the error's own ``iteration`` attribute when it has
        one, else the number of ``compute_headings`` calls made directly by
        the failed span, minus one.
        """
        iteration = getattr(err, "iteration", None)
        if iteration is None:
            headings_id = self._ids["headings.compute_headings"]
            iteration = sum(
                1 for i in range(idx + 1, len(self.func))
                if self.parent[i] == idx and self.func[i] == headings_id
            ) - 1
        key = f"{type(err).__name__}.iter{iteration}"
        if key not in FAILURE_KINDS:
            key = "other"
        self.failures[key] = self.failures.get(key, 0) + 1

    # -- results ------------------------------------------------------------

    def layer_metrics(
        self, wall_s: float, cycles: int = 1, setup_spans: int = 0
    ) -> dict[str, tuple[float, str]]:
        """Per-layer figures as ``{name: (value, unit)}``.

        The first ``setup_spans`` spans come from one set-up, the rest from
        ``cycles`` repeats of a workload's protocol.  Call and failure counts
        are per set-up plus one protocol, so they do not depend on how many
        repeats fit in the run.  ``self_share`` is a function's total self
        time over ``wall_s``, the time spent in traced work.  Functions never
        called report 0.
        """
        func = np.frombuffer(self.func, dtype=np.int32)
        setup_calls = np.bincount(func[:setup_spans], minlength=len(TRACED))
        cycle_calls = np.bincount(func[setup_spans:], minlength=len(TRACED))
        own = self_times(
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start),
            np.frombuffer(self.end),
        )
        inclusive = np.frombuffer(self.end) - np.frombuffer(self.start)
        out: dict[str, tuple[float, str]] = {}
        for fid, name in enumerate(TRACED):
            mine = own[func == fid] * 1e6
            calls = len(mine)
            out[f"{name}.calls"] = (int(setup_calls[fid]) + cycle_calls[fid] / cycles, "count")
            out[f"{name}.self_us_p50"] = (float(np.median(mine)) if calls else 0.0, "us")
            if name in P99_TRACED:
                out[f"{name}.self_us_p99"] = (
                    float(np.percentile(mine, 99)) if calls else 0.0, "us")
            out[f"{name}.self_share"] = (float(mine.sum()) / 1e6 / wall_s, "share")

        c = self.counts
        out["headings.compute_headings.accepted_ratio"] = (
            c["accepted"] / c["steps"] if c["steps"] else 0.0, "share")
        calls = int(np.count_nonzero(func == self._ids["clustering.find_cluster"]))
        out["clustering.find_cluster.headings_in"] = (
            c["headings_in"] / calls if calls else 0.0, "count")
        out["clustering.find_cluster.cluster_ratio"] = (
            c["members"] / c["headings_in"] if c["headings_in"] else 0.0, "share")
        for op, key in (("read_csv", "read_bytes"), ("write_csv", "write_bytes")):
            busy = float(inclusive[func == self._ids[f"io.{op}"]].sum())
            out[f"io.{op}.mb_per_s"] = (c[key] / 1e6 / busy if busy else 0.0, "MB/s")
        for kind in FAILURE_KINDS + ("other",):
            out[f"separation.separate.fail.{kind}"] = (
                self.failures.get(kind, 0) / cycles, "count")
        return out
