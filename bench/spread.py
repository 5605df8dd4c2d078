"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 bench/spread.py --seeds 1 2 3 4 5 --workloads long_record
    python3 bench/spread.py --seeds 1-10 --out bench/results/<name>.json
    python3 bench/spread.py --seeds 11-20 --against bench/results/<name>.json

For each workload and end-to-end metric it prints the median of the runs and
the distance between the first and third quartile as a share of the median,
next to the metric's bound from BENCHMARK.json.  With ``--against`` it also
prints how far each median moved in the worse direction from that earlier
summary, as a share of the earlier median, and flags a move beyond the
bound.  Runs go one at a time, so they never compete with each other for
the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    """Interquartile range over the median; 0 when all values agree."""
    if len(set(values)) == 1:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges like 1-10")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run and the summary as JSON")
    parser.add_argument("--against", type=Path, help="earlier --out file to compare medians with")
    args = parser.parse_args(argv)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    earlier = json.loads(args.against.read_text())["summary"] if args.against else {}

    runs, summary, ok = [], {}, True
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in listed}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                break
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["run"]
            runs.append({"record": record, "result": result})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct={result['correct']}", flush=True)
        summary[workload] = {}
        for m in listed:
            vals = values[m["name"]]
            if not vals:
                continue
            row = {"median": statistics.median(vals), "spread": spread(vals), "n": len(vals)}
            summary[workload][m["name"]] = row
            bound = m.get("bound")
            flag = "" if bound is None else f"  bound {bound:.3f}" + (
                "  OVER A THIRD" if row["spread"] > bound / 3 else "")
            before = earlier.get(workload, {}).get(m["name"])
            if before and before["median"]:
                change = (row["median"] - before["median"]) / abs(before["median"])
                row["worse_than_before"] = -change if m["better"] == "higher" else change
                flag += f"  worse by {row['worse_than_before']:+.4f}" + (
                    "  OVER BOUND" if bound is not None and row["worse_than_before"] > bound else "")
            print(f"  {m['name']:40s} median {row['median']:.6g}  spread {row['spread']:.4f}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
