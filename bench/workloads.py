"""The benchmark's three workloads.

Each workload builds its inputs from one seed, then runs "passes": fixed
units of work timed from outside the package.  Every pass runs a global-method
leg and an MHC (minimum heading change) leg, so every workload reports the
same timing metrics.  Its quality figures (``figures``) carry its own name
prefix, because their spread across seeds differs too much between workloads
to share one bound:

``table8_mc``
    The paper's Table 8 rows on the ``example1`` preset at noise 0.005:
    global (v_th 0.40) and MHC (v_th 0.70, alpha 1).  Pass ``k`` runs set
    ``k mod 10`` of the 10 x 1000 protocol for both rows, one ``monte_carlo``
    call each with ``workers=1``.  Almost all cost is per-call overhead on 2 x 50
    arrays.
``long_record``
    ``separate`` on one 4-channel x 10**6-sample record, global (v_th 0.40)
    and MHC (v_th 0.50).  Big-array layers dominate.
``cli_roundtrip``
    ``sparsebss.cli.main`` runs simulate, then separate and evaluate for each
    method, on a 99 000-sample ``shifted_uniform`` scenario.  The only
    workload that uses ``io`` and the report writers.

A workload's quality figures (success rate, RMS error, correlation) come from
its protocol passes; later passes repeat them to time more work and to check
that results are bit-identical.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io as _stdio
import json
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

METHODS = ("global", "mhc")


@dataclasses.dataclass
class Pass:
    """One timed unit of work.

    ``times`` holds seconds for the ``global`` and ``mhc`` legs and the whole
    ``pass``; ``digest`` fingerprints every output bit for the determinism
    checks; ``detail`` is the workload's own result, kept for protocol passes.
    """

    times: dict[str, float]
    digest: str
    ops: int
    failed_ops: int
    detail: object = None


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _separation_row(rms_tot, rms_max, correlations) -> dict:
    """Quality of one separation from its per-source errors and correlations.

    ``rms_tot_x1e6`` pools the sources' RMS errors quadratically; it moves
    less from seed to seed than the worst source's error or ``min_abs_corr``.
    """
    return {
        "ok_rate": 1.0,
        "rms_tot_x1e6": 1e6 * float(np.sqrt(np.mean(np.square(rms_tot)))),
        "min_abs_corr": float(np.min(np.abs(correlations))),
        "rms_max_x1e3": (1e3 * np.asarray(rms_max)).tolist(),
    }


def _separation_figures(prefix: str, quality: dict) -> dict:
    out = {}
    for method, row in quality.items():
        if "rms_tot_x1e6" in row:
            out[f"{prefix}{method}_rms_tot_x1e6"] = (row["rms_tot_x1e6"], "1e-6", 1)
            out[f"{prefix}{method}_min_corr"] = (row["min_abs_corr"], "abs_corr", 1)
    return out


def _median_seconds(passes: list[Pass], key: str) -> tuple[float, str, int]:
    return statistics.median(p.times[key] for p in passes), "s", len(passes)


class Table8:
    name = "table8_mc"
    prefix = "table8_"

    def __init__(self, sb, seed: int, tiny: bool, workdir: Path):
        self.sb = sb
        self.master_seed = seed
        self.sets, self.runs = (2, 20) if tiny else (10, 1000)
        self.protocol_passes = self.sets
        base = sb.load_config("example1")
        self.scenario = dataclasses.replace(base, noise_sd=0.005, seed=seed)
        self.params = {
            "global": sb.MethodParams(method="global", v_th=0.40, alpha=1.0),
            "mhc": sb.MethodParams(method="mhc", v_th=0.70, alpha=1.0),
        }
        self.input_bytes = 2 * int(np.ceil(base.duration_s * base.sample_rate_hz)) * 8

    def input_digest(self) -> str:
        _, clean = self.scenario.generate()
        return _digest(clean, np.array([self.scenario.noise_sd, self.master_seed], dtype=float))

    def run_pass(self, k: int) -> Pass:
        set_index = k % self.sets
        times, reports, parts = {}, {}, []
        failed_ops = 0
        for method in METHODS:
            t0 = perf_counter()
            try:
                report = self.sb.monte_carlo(
                    self.scenario, self.params[method], 1, self.runs,
                    master_seed=self.master_seed + set_index * self.runs, workers=1,
                )
            except self.sb.AllRunsFailedError:
                report = None
                failed_ops += 1
            times[method] = perf_counter() - t0
            reports[method] = report
            if report is not None:
                parts += [np.array([report.failures]), report.set_rms_max,
                          report.set_rms_tot, report.rms_per_sample]
        times["pass"] = times["global"] + times["mhc"]
        return Pass(times, _digest(*parts), len(METHODS), failed_ops, reports)

    def quality(self, passes: list[Pass]) -> dict:
        """Pool the protocol's sets into the Table 8 figures for both rows."""
        out = {}
        for method in METHODS:
            reports = [p.detail[method] for p in passes[: self.sets]]
            good = [r for r in reports if r is not None]
            failures = sum(r.failures for r in good) + self.runs * (len(reports) - len(good))
            attempted = self.runs * len(reports)
            row = {"ok_rate": 1.0 - failures / attempted, "failures": failures,
                   "attempted": attempted, "sets": len(good)}
            if good:
                set_max = np.array([r.set_rms_max[0] for r in good])
                row["rms_max_x1e3"] = (1e3 * set_max.mean(axis=0)).tolist()
                ddof = 1 if len(good) > 1 else 0
                row["rms_max_sd_x1e3"] = (1e3 * set_max.std(axis=0, ddof=ddof)).tolist()
            out[method] = row
        return out

    def figures(self, passes: list[Pass], quality: dict) -> dict:
        """Runs per second, failure rates and the paper's Table 8 cells.

        Each cell is RMS_max of one source, x 1e3, averaged over the sets.
        """
        rates = [len(METHODS) * self.runs / p.times["pass"] for p in passes]
        out = {"table8_runs_per_s": (statistics.median(rates), "1/s", len(rates))}
        for method, row in quality.items():
            out[f"table8_{method}_fail_rate"] = (
                row["failures"] / row["attempted"], "share", row["attempted"])
            for s, value in enumerate(row.get("rms_max_x1e3", []), start=1):
                out[f"table8_{method}_rms_max_s{s}_x1e3"] = (value, "1e-3", row["sets"])
        return out

    def checks(self, passes: list[Pass]) -> dict[str, bool]:
        finite = all(
            np.isfinite(r.rms_per_sample).all()
            for p in passes[: self.sets] for r in p.detail.values() if r is not None
        )
        return {"table8_rms_finite": finite}


#: Seed of the long record's standard-Gaussian mixing matrix.  The matrix is
#: part of the workload's definition, like the presets' matrices: it sets the
#: whitened source directions, hence how many headings pass the threshold, and
#: a new matrix per benchmark seed moved ``separate``'s cost by 15-25 %.
MIXING_SEED = 0


def long_record_inputs(seed: int, n_samples: int, n_sources: int = 4, burst: int = 50):
    """Sources active in disjoint ``burst``-sample runs, 20 % of samples each.

    Burst owners and values, uniform on (-1, 1), come from a numpy generator
    seeded with ``seed``; the mixing matrix from one seeded with ``MIXING_SEED``.
    """
    gen = np.random.default_rng(seed)
    n_bursts = n_samples // burst
    per_source = n_bursts // 5
    owner = np.full(n_bursts, -1)
    order = gen.permutation(n_bursts)
    for i in range(n_sources):
        owner[order[i * per_source:(i + 1) * per_source]] = i
    values = gen.uniform(-1.0, 1.0, n_bursts * burst)
    active = np.repeat(owner, burst)[None, :] == np.arange(n_sources)[:, None]
    sources = np.where(active, values[None, :], 0.0)
    mixing = np.random.default_rng(MIXING_SEED).standard_normal((n_sources, n_sources))
    return sources, mixing


class LongRecord:
    name = "long_record"
    prefix = "long_"

    def __init__(self, sb, seed: int, tiny: bool, workdir: Path):
        self.sb = sb
        self.protocol_passes = 1
        n_samples = 20_000 if tiny else 1_000_000
        self.sources, mixing = long_record_inputs(seed, n_samples)
        self.mixtures = sb.add_noise(sb.mix(self.sources, mixing), 1e-3, seed + 1)
        self.params = {
            "global": sb.MethodParams(method="global", v_th=0.40),
            "mhc": sb.MethodParams(method="mhc", v_th=0.50),
        }
        self.input_bytes = self.mixtures.nbytes

    def input_digest(self) -> str:
        return _digest(self.sources, self.mixtures)

    def run_pass(self, k: int) -> Pass:
        times, estimates = {}, {}
        failed_ops = 0
        for method in METHODS:
            t0 = perf_counter()
            try:
                estimates[method] = self.sb.separate(self.mixtures, self.params[method]).estimates
            except self.sb.SparseBssError:
                estimates[method] = None
                failed_ops += 1
            times[method] = perf_counter() - t0
        times["pass"] = times["global"] + times["mhc"]
        digest = _digest(*(e for e in estimates.values() if e is not None))
        return Pass(times, digest, len(METHODS), failed_ops, estimates)

    def quality(self, passes: list[Pass]) -> dict:
        sb = self.sb
        actual = sb.normalize_unit_norm(self.sources)
        out = {}
        for method, est in passes[0].detail.items():
            if est is None:
                out[method] = {"ok_rate": 0.0}
                continue
            est = sb.normalize_unit_norm(est)
            assoc = sb.associate(actual, est)
            rms_tot, rms_max = [], []
            for r in range(actual.shape[0]):
                err = sb.pointwise_error(actual[r], est[assoc.permutation[r]], assoc.signs[r])
                _, tot, peak = sb.rms_metrics(err[None, :])
                rms_tot.append(tot)
                rms_max.append(peak)
            out[method] = _separation_row(rms_tot, rms_max, assoc.correlations)
        return out

    def figures(self, passes: list[Pass], quality: dict) -> dict:
        """Seconds per ``separate`` call, and each method's quality."""
        out = {f"long_{method}_s": _median_seconds(passes, method) for method in METHODS}
        out.update(_separation_figures("long_", quality))
        return out

    def checks(self, passes: list[Pass]) -> dict[str, bool]:
        shape = self.mixtures.shape
        return {
            f"long_{method}_finite_shape": est is not None and est.shape == shape
            and bool(np.isfinite(est).all())
            for method, est in passes[0].detail.items()
        }


class CliRoundtrip:
    name = "cli_roundtrip"
    prefix = "cli_"

    VTH = {"global": "0.40", "mhc": "0.50"}

    def __init__(self, sb, seed: int, tiny: bool, workdir: Path):
        self.sb = sb
        self.protocol_passes = 1
        self.workdir = workdir
        length, shift = (2_000, 1_960) if tiny else (50_000, 49_000)
        data = dict(sb.load_config("section2iii").to_dict(),
                    length=length, shift=shift, noise_sd=5e-4, seed=seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = workdir / "scenario.json"
        self.config_path.write_text(json.dumps(data))
        self.input_bytes = self.config_path.stat().st_size

    def input_digest(self) -> str:
        return hashlib.sha256(self.config_path.read_bytes()).hexdigest()

    def _main(self, argv) -> int:
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return self.sb.cli.main([str(a) for a in argv])

    def run_pass(self, k: int) -> Pass:
        d = self.workdir / f"pass{k}"
        shutil.rmtree(d, ignore_errors=True)
        t0 = perf_counter()
        codes = [self._main(["simulate", self.config_path, d])]
        times = {}
        for method in METHODS:
            t1 = perf_counter()
            codes.append(self._main(["separate", d / "mixtures.csv", d / f"est_{method}.csv",
                                     "--method", method, "--vth", self.VTH[method]]))
            codes.append(self._main(["evaluate", d / "sources.csv", d / f"est_{method}.csv",
                                     d / f"eval_{method}.txt"]))
            times[method] = perf_counter() - t1
        times["pass"] = perf_counter() - t0
        h = hashlib.sha256()
        for name in ("sources.csv", "mixtures.csv", "est_global.csv", "est_mhc.csv",
                     "eval_global.json", "eval_mhc.json"):
            path = d / name
            h.update(path.read_bytes() if path.exists() else b"missing")
        if k >= self.protocol_passes:
            shutil.rmtree(d, ignore_errors=True)
        failed = sum(code != 0 for code in codes)
        return Pass(times, h.hexdigest(), len(codes), failed, d)

    def quality(self, passes: list[Pass]) -> dict:
        d = passes[0].detail
        out = {}
        for method in METHODS:
            path = d / f"eval_{method}.json"
            if not path.exists():
                out[method] = {"ok_rate": 0.0}
                continue
            rows = json.loads(path.read_text())["association"]
            out[method] = _separation_row(
                [r["rms_tot"] for r in rows], [r["rms_max"] for r in rows],
                [r["correlation"] for r in rows])
        return out

    def figures(self, passes: list[Pass], quality: dict) -> dict:
        """Seconds per simulate, separate and evaluate round trip, and quality."""
        out = {"cli_roundtrip_s": _median_seconds(passes, "pass")}
        out.update(_separation_figures("cli_", quality))
        return out

    def checks(self, passes: list[Pass]) -> dict[str, bool]:
        """Estimates CSV and evaluate JSON against in-memory recomputation."""
        sb, d = self.sb, passes[0].detail
        out = {}
        try:
            _, mixtures = sb.io.read_csv(d / "mixtures.csv")
            _, actual = sb.io.read_csv(d / "sources.csv")
        except (OSError, ValueError):
            return {"cli_outputs_readable": False}
        for method in METHODS:
            params = sb.MethodParams(method=method, v_th=float(self.VTH[method]))
            try:
                _, written = sb.io.read_csv(d / f"est_{method}.csv")
                report = json.loads((d / f"eval_{method}.json").read_text())
                in_memory = sb.separate(mixtures, params).estimates
            except (OSError, ValueError):
                out[f"cli_{method}_outputs_readable"] = False
                continue
            out[f"cli_{method}_csv_equals_separate"] = (
                written.shape == in_memory.shape and written.tobytes() == in_memory.tobytes()
            )
            assoc = sb.associate(sb.normalize_unit_norm(actual), sb.normalize_unit_norm(written))
            out[f"cli_{method}_json_corr_equals_associate"] = (
                [r["correlation"] for r in report["association"]] == assoc.correlations.tolist()
            )
        return out


WORKLOADS = {cls.name: cls for cls in (Table8, LongRecord, CliRoundtrip)}
