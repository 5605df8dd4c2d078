"""Benchmark of the sparsebss package: one workload per run.

Usage, from the repository root::

    python3 bench/run.py --workload table8_mc --seed 1 --seconds 30 --trace 0

Workloads are defined in ``bench/workloads.py``; metric names and units are
listed in ``BENCHMARK.json``.  Each run first sets up ``SETUPS`` times (fresh
import of ``sparsebss`` and input build) and reports the median as
``setup_s``.  With ``--trace 0`` the run reports the end-to-end metrics,
measured with no instrumentation; quality metrics named after another
workload read ``NOT_APPLICABLE``.  With ``--trace 1`` it times whole protocol
cycles untraced, then repeats them with every layer wrapped
(``bench/spans.py``) and reports the per-layer metrics per protocol cycle,
including the tracing overhead.  All inputs derive from ``--seed``.  The package is
imported from ``src/`` of the checkout this file sits in and is not modified.
Everything runs in this one process; ``monte_carlo`` gets ``workers=1``.
Pass timings are reported as ratios to a fixed reference kernel timed
around each pass (``Reference``); the seconds are in the ``run`` line.

Output: human-readable lines, one ``{"run": ...}`` JSON line with
provenance, quality details and check results, and as the last line
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when every operation and output check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import Tracer
from workloads import METHODS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 7

#: Value of a quality metric that belongs to another workload.
NOT_APPLICABLE = 1.0


def derive_seed(seed: int) -> int:
    """Spread consecutive benchmark seeds into unrelated 62-bit input seeds."""
    state = np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)[0]
    return int(state >> np.uint64(2))


def set_up(name: str, seed: int, tiny: bool, workdir: Path):
    """Import sparsebss afresh and build the inputs, ``SETUPS`` times.

    Returns the package and inputs of the last set-up, and each one's time.
    """
    times, workload = [], None
    for _ in range(SETUPS):
        workload = None  # free the previous inputs before building the next
        for module in [m for m in sys.modules if m == "sparsebss" or m.startswith("sparsebss.")]:
            del sys.modules[module]
        t0 = perf_counter()
        sb = importlib.import_module("sparsebss")
        importlib.import_module("sparsebss.cli")
        workload = WORKLOADS[name](sb, seed, tiny, workdir)
        times.append(perf_counter() - t0)
    return sb, workload, times


class Reference:
    """A fixed piece of work, unrelated to sparsebss, timed around every pass.

    Pass timings are reported as multiples of it.  On a shared machine other
    tenants' load moves a pass's time by up to 2x within a run and a run's
    median by up to a fifth; the reference slows down with it.  Its mix, many
    numpy calls on 2 x 50 arrays plus passes over a 1 MB array, follows the
    per-call overhead of table8_mc and the array traffic of long_record.
    The kernel is short, so one stall of a few milliseconds would double it;
    the minimum of ``REPEATS`` timings follows the machine's speed instead.
    """

    REPEATS = 5

    def __init__(self):
        gen = np.random.default_rng(0)
        self.small = gen.standard_normal((2, 50))
        self.large = gen.standard_normal((4, 32_000))

    def _kernel(self) -> float:
        t0 = perf_counter()
        for i in range(40):
            x = np.atleast_2d(np.asarray(self.small * (i % 7 + 1), dtype=float))
            v = np.diff(x, axis=1).T
            h = np.abs(v / np.linalg.norm(v, axis=1)[:, None])
            order = np.argsort(h[:, 0], kind="stable")
            np.flatnonzero(np.diff(h[order, 0]) < 0.01)
            np.corrcoef(np.vstack([x, x[::-1]]))
        v = np.diff(self.large, axis=1)
        np.argsort(np.linalg.norm(v, axis=0), kind="stable")
        return perf_counter() - t0

    def seconds(self) -> float:
        return min(self._kernel() for _ in range(self.REPEATS))


def add_pass(passes: list, workload, keep: int, reference: Reference) -> None:
    """Run the next pass between two reference timings.

    Only the first ``keep`` passes keep their detailed results.
    """
    before = reference.seconds()
    p = workload.run_pass(len(passes))
    p.times["ref"] = (before + reference.seconds()) / 2
    if len(passes) >= keep:
        p.detail = None
    passes.append(p)


def relative(passes, key: str) -> list[float]:
    return [p.times[key] / p.times["ref"] for p in passes]


def repeats_identical(passes, protocol: int) -> bool:
    """Whether every pass matches the first pass of the same protocol index."""
    first = {}
    for k, p in enumerate(passes):
        if first.setdefault(k % protocol, p.digest) != p.digest:
            return False
    return True


def end_to_end(workload, passes, setup_times, peak_mb) -> tuple[dict, dict]:
    """End-to-end metrics and the workload's own figures, and the details.

    Pass and leg timings are medians of time over the reference time
    measured around the same pass; seconds go to the workload's figures and
    the details.
    """
    details = {"quality": workload.quality(passes[: workload.protocol_passes]), "timings": {}}
    out = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (peak_mb, "MB", 1),
    }
    for key in ("pass",) + METHODS:
        ratios = relative(passes, key)
        out[f"{key}_ref_ratio"] = (statistics.median(ratios), "ratio", len(ratios))
        seconds = [p.times[key] for p in passes]
        details["timings"][f"{key}_s"] = {
            "min": min(seconds), "median": statistics.median(seconds), "max": max(seconds),
            "n": len(seconds)}
    details["timings"]["per_pass"] = [p.times for p in passes]
    for method in METHODS:
        row = details["quality"][method]
        out[f"{method}_ok_rate"] = (row["ok_rate"], "share", row.get("attempted", 1))
    out.update(workload.figures(passes, details["quality"]))
    return out, details


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    info = {"cpu_model": "unknown", "l3_cache": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and info["cpu_model"] == "unknown":
                    info["cpu_model"] = value.strip()
                elif key == "cache size" and info["l3_cache"] == "unknown":
                    info["l3_cache"] = value.strip()
    except OSError:
        pass
    return dict(info, nproc=os.cpu_count(), python=platform.python_version(),
                numpy=np.__version__)


def emit(listed: list[dict], computed: dict, prefix: str = "") -> dict:
    """The metrics BENCHMARK.json lists, in its order, with their units.

    A metric named after another workload reads ``NOT_APPLICABLE``; any
    other listed metric must have been computed.
    """
    others = tuple(w.prefix for w in WORKLOADS.values() if w.prefix != prefix)
    out = {}
    for entry in listed:
        name = entry["name"]
        if name not in computed and name.startswith(others):
            out[name] = {"value": NOT_APPLICABLE, "unit": entry["unit"]}
            continue
        value, unit = computed[name][:2]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']}: unit {unit!r}, BENCHMARK.json says {entry['unit']!r}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "sparsebss" / "__init__.py").is_file():
        print(f"error: no sparsebss package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / "bench" / f".work-{args.workload}-{os.getpid()}"
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec: dict, workdir: Path) -> int:
    input_seed = derive_seed(args.seed)
    sb, workload, setup_times = set_up(args.workload, input_seed, args.tiny, workdir)
    protocol = workload.protocol_passes
    checks: dict[str, bool] = {}
    record = {"workload": args.workload, "seed": args.seed, "input_seed": input_seed,
              "input_bytes": workload.input_bytes, "commit": git_commit(ROOT),
              "trace": args.trace, **machine()}
    reference = Reference()
    start = perf_counter()

    if not args.trace:
        passes = []
        while len(passes) <= protocol or perf_counter() < start + args.seconds:
            add_pass(passes, workload, protocol, reference)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        computed, details = end_to_end(workload, passes, setup_times, peak_mb)
        checks["repeat_passes_identical"] = repeats_identical(passes, protocol)
        record.update(details)
        listed = spec["end_to_end"]
    else:
        # Whole protocol cycles, so per-cycle counts do not depend on timing.
        passes, traced = [], []
        while not passes or len(passes) % protocol or perf_counter() < start + args.seconds / 2:
            add_pass(passes, workload, protocol, reference)
        cycles = len(passes) // protocol
        tracer = Tracer()
        tracer.install()
        try:
            t0 = perf_counter()
            rebuilt = type(workload)(sb, input_seed, args.tiny, workdir / "traced")
            rebuild_s = perf_counter() - t0
            setup_spans = len(tracer.func)
            while len(traced) < len(passes):
                add_pass(traced, rebuilt, 0, reference)
        finally:
            tracer.uninstall()
        computed = tracer.layer_metrics(
            rebuild_s + sum(p.times["pass"] for p in traced), cycles, setup_spans)
        computed["trace.overhead_ratio"] = (
            statistics.median(relative(traced, "pass"))
            / statistics.median(relative(passes, "pass")), "ratio")
        checks["traced_inputs_equal_untraced"] = rebuilt.input_digest() == workload.input_digest()
        checks["traced_results_equal_untraced"] = [p.digest for p in traced] == [
            p.digest for p in passes]
        checks["repeat_passes_identical"] = repeats_identical(passes, protocol)
        listed = spec["per_layer"]

    checks.update(workload.checks(passes))
    attempted = sum(p.ops for p in passes) + len(checks)
    failed = sum(p.failed_ops for p in passes) + sum(not ok for ok in checks.values())
    wall = perf_counter() - start
    record.update(passes=len(passes), setup_s=setup_times, wall_s=wall, checks=checks)

    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes in {wall:.2f} s "
          f"(trace {args.trace})")
    for name, (value, unit, *samples) in computed.items():
        count = f"  n={samples[0]}" if samples else ""
        print(f"{name:52s} {value:>16.6g} {unit}{count}")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({"run": record}, default=float))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": emit(listed, computed, workload.prefix)}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
