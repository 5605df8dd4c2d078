"""Command-line interface.

Subcommands: ``simulate`` (scenario config to CSV), ``separate`` (CSV to
estimated sources), ``evaluate`` (estimates against known sources),
``montecarlo`` (RMS-error tables over repeated noisy runs), and
``plotdata`` (phase-plot and sorted-heading diagnostic CSVs).

Each report is built once as a JSON record, written next to the
requested path (``.json`` suffix) on one compact line, and rendered from
that record as the human-readable text file at the requested path.
An input or output path that cannot be read or written ends the command
with ``error: ...`` and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .clustering import sort_component
from .config import PRESET_NAMES, load_config
from .errors import (
    AllRunsFailedError,
    ClusterFormationFailedError,
    SparseBssError,
)
from .evaluation import monte_carlo, rms_metrics, source_errors
from .headings import compute_velocities, normalize_headings
from .io import read_csv, write_csv
from .rng import derive_seed
from .separation import METHODS, MethodParams, separate
from .signals import normalize_unit_norm
from .simulate import add_noise
from .whitening import gram_schmidt_whiten


def _write_report(path: Path, lines: list[str], record: dict) -> None:
    """Text ``lines`` at ``path``; the JSON ``record`` alongside (.json suffix)."""
    json_path = path.with_suffix(".json")
    text_path = path if path != json_path else path.with_suffix(".txt")
    text_path.parent.mkdir(parents=True, exist_ok=True)
    text_path.write_text("\n".join(lines) + "\n")
    # An array is written as nested lists; any other object the encoder
    # cannot take makes the unbound ``tolist`` raise TypeError.
    json_path.write_text(json.dumps(record, default=np.ndarray.tolist) + "\n")


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    sources, clean = config.generate()
    mixtures = add_noise(clean, config.noise_sd, derive_seed(config.seed, 0))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    write_csv(outdir / "sources.csv", sources, [f"source_{i+1}" for i in range(sources.shape[0])])
    write_csv(outdir / "mixtures.csv", mixtures, [f"mixture_{i+1}" for i in range(mixtures.shape[0])])
    print(f"wrote {outdir / 'sources.csv'} and {outdir / 'mixtures.csv'}")
    return 0


def cmd_separate(args) -> int:
    _, data = read_csv(args.input)
    if data.shape[0] < 2:
        print("error: separation needs at least 2 channels", file=sys.stderr)
        return 2
    params = MethodParams(method=args.method, v_th=args.vth, alpha=args.alpha)
    result = separate(data, params)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    names = [f"estimate_{i+1}" for i in range(result.estimates.shape[0])]
    write_csv(out, result.estimates, names)
    record = {
        "method": params.method,
        "v_th": params.v_th,
        "alpha": params.alpha,
        "directions": [d.unit_vector for d in result.directions],
        "iterations": [asdict(diag) for diag in result.iterations],
    }
    lines = [f"separation report ({params.method}, v_th={params.v_th}, alpha={params.alpha})"]
    for i, (direction, it) in enumerate(zip(record["directions"], record["iterations"])):
        vec = ", ".join(f"{v:+.6f}" for v in direction)
        lines.append(
            f"  iteration {i}: direction ({vec}), accepted {it['accepted_count']}, "
            f"cluster size {it['cluster_size']}, residual energy {it['residual_energy']:.6g}"
        )
    report_path = out.with_name(out.stem + "_report.txt")
    _write_report(report_path, lines, record)
    print(f"wrote {out} and {report_path}")
    return 0


def cmd_evaluate(args) -> int:
    _, actual = read_csv(args.actual)
    _, estimates = read_csv(args.estimates)
    assoc, errors = source_errors(normalize_unit_norm(actual), normalize_unit_norm(estimates))
    _, rms_tot, rms_max = rms_metrics(errors[None])
    record = {
        "association": [
            {
                "source": r + 1,
                "estimate": int(assoc.permutation[r]) + 1,
                "correlation": float(assoc.correlations[r]),
                "sign": float(assoc.signs[r]),
                "rms_tot": float(rms_tot[r]),
                "rms_max": float(rms_max[r]),
            }
            for r in range(len(errors))
        ],
        "unit": "per-sample error on unit-norm signals",
    }
    lines = ["evaluation report"] + [
        f"  source {e['source']} <- estimate {e['estimate']}"
        f" (corr {e['correlation']:+.6f}):"
        f" rms_tot {e['rms_tot']:.6g}, rms_max {e['rms_max']:.6g}"
        for e in record["association"]
    ]
    _write_report(Path(args.report), lines, record)
    print(f"wrote {args.report}")
    return 0


def cmd_montecarlo(args) -> int:
    config = load_config(args.config)
    n_sources = len(config.mixing)
    record = {
        "sets": args.sets,
        "runs_per_set": args.runs,
        "noise_sd": config.noise_sd,
        "metric": f"rms_{args.metric}",
        "rows": [],
    }
    for vth in args.vth:
        params = MethodParams(method=args.method, v_th=vth, alpha=args.alpha)
        # Every row has the same keys; the means are null when no run succeeded.
        row = {"method": args.method, "v_th": vth, "mean_x1e3": None, "sd_x1e3": None}
        try:
            report = monte_carlo(
                config, params, args.sets, args.runs,
                master_seed=args.seed, workers=args.workers,
            )
        except AllRunsFailedError:
            failures = total_runs = args.sets * args.runs
        else:
            row["mean_x1e3"] = [1e3 * m for m in getattr(report, f"mean_rms_{args.metric}")]
            row["sd_x1e3"] = [1e3 * s for s in getattr(report, f"sd_rms_{args.metric}")]
            failures, total_runs = report.failures, report.total_runs
        row.update(failures=failures, total_runs=total_runs, failure_rate=failures / total_runs)
        record["rows"].append(row)

    lines = [
        f"monte carlo: {record['sets']} sets x {record['runs_per_set']} runs, "
        f"noise sd {record['noise_sd']}, metric {record['metric']}",
        f"{'method':8s} {'v_th':>5s}  "
        + "  ".join(f"source_{i+1} (x1e3)" for i in range(n_sources))
        + "  failures",
    ]
    for row in record["rows"]:
        if row["mean_x1e3"] is not None:
            cells = [f"{m:.3g} ({s:.3g})".ljust(16) for m, s in zip(row["mean_x1e3"], row["sd_x1e3"])]
        else:
            cells = ["---".center(16)] * n_sources
        lines.append(
            f"{row['method']:8s} {row['v_th']:5.2f}  "
            + "  ".join(cells)
            + f"  {100 * row['failure_rate']:.1f}%"
        )
    _write_report(Path(args.report), lines, record)
    print("\n".join(lines))
    return 0


def cmd_plotdata(args) -> int:
    _, data = read_csv(args.input)
    if args.kind == "phase":
        whitened = gram_schmidt_whiten(data)
        names = [f"e_{i+1}" for i in range(whitened.components.shape[0])]
        write_csv(args.output, whitened.components, names)
    else:  # sorted-headings
        velocities = compute_velocities(data)
        headings, zero_mask = normalize_headings(velocities)
        live = np.abs(headings[~zero_mask])
        if live.shape[0] < 2:
            print("error: fewer than 2 nonzero headings", file=sys.stderr)
            return 2
        columns = np.vstack(
            [sort_component(live, i).values for i in range(live.shape[1])]
        )
        names = [f"sorted_heading_{i+1}" for i in range(columns.shape[0])]
        write_csv(args.output, columns, names)
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebss",
        description="Blind separation of sparse sources by heading clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a scenario's CSV files")
    p.add_argument("config", help=f"config JSON path or preset name {PRESET_NAMES}")
    p.add_argument("output", help="output directory for sources.csv and mixtures.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("separate", help="extract sources from a mixtures CSV")
    p.add_argument("input", help="mixtures CSV (channels as columns)")
    p.add_argument("output", help="estimates CSV path")
    p.add_argument("--method", choices=METHODS, default=MethodParams.method)
    p.add_argument("--vth", type=float, default=MethodParams.v_th, help="velocity threshold in (0,1)")
    p.add_argument("--alpha", type=float, default=MethodParams.alpha, help="gap-threshold scale in (0,1]")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("evaluate", help="compare estimates against known sources")
    p.add_argument("actual", help="actual sources CSV")
    p.add_argument("estimates", help="estimated sources CSV")
    p.add_argument("report", help="report path (text; .json written alongside)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("montecarlo", help="RMS-error table over repeated noisy runs")
    p.add_argument("config", help=f"config JSON path or preset name {PRESET_NAMES}")
    p.add_argument("report", help="report path (text; .json written alongside)")
    p.add_argument("--method", choices=METHODS, default=MethodParams.method)
    p.add_argument("--vth", type=float, nargs="+", required=True,
                   help="one table row per threshold value")
    p.add_argument("--alpha", type=float, default=MethodParams.alpha)
    p.add_argument("--sets", type=int, default=10)
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: the config's seed)")
    p.add_argument("--metric", choices=["max", "tot"], default="max")
    p.add_argument("--workers", type=int, default=1, help="process count")
    p.set_defaults(func=cmd_montecarlo)

    p = sub.add_parser("plotdata", help="diagnostic plot data as CSV")
    p.add_argument("input", help="signal CSV (channels as columns)")
    p.add_argument("output", help="output CSV path")
    p.add_argument("--kind", choices=["phase", "sorted-headings"], required=True)
    p.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ClusterFormationFailedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (SparseBssError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
