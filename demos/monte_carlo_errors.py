"""Noise robustness of both extraction methods on the two-pulse scenario.

Adds Gaussian noise to the mixtures, separates over many fresh noise
realizations, and tabulates the maximum per-sample RMS error of each
recovered source (x 1000, on unit-energy-normalized signals), with the
across-set standard deviation in brackets and the separation failure
rate alongside.

Every row runs the paper's 10 x 1000 protocol.  ``monte_carlo`` carries
each chunk of up to ``sparsebss.evaluation.CHUNK_RUNS`` runs through
``run_chunk`` as one array pass, so all six rows take a few seconds.
``workers=N`` spreads the chunks over N processes, but starting the pool
costs about as much as a row: on a 2-vCPU Xeon the global 0.40 row at
noise 0.005 took 0.30-0.35 s with one worker and 0.37-0.42 s with two, and
the MHC 0.70 row 0.15-0.19 s either way.  The pool pays off only for larger
campaigns or more cores.
"""

from sparsebss import MethodParams, ScenarioConfig, load_preset, monte_carlo
from sparsebss.errors import AllRunsFailedError

sets, runs = 10, 1000

rows = [
    (0.005, "global", 0.40),
    (0.005, "global", 0.35),
    (0.005, "mhc", 0.70),
    (0.010, "mhc", 0.80),
    (0.010, "global", 0.30),
    (0.010, "global", 0.40),
]

print(f"{sets} sets x {runs} runs per row")
print(f"{'noise sd':>8s} {'method':>7s} {'v_th':>5s}  "
      f"{'source 1 (x1e3)':>16s} {'source 2 (x1e3)':>16s} {'failures':>9s}")
base = load_preset("example1").to_dict()
for noise_sd, method, v_th in rows:
    base["noise_sd"] = noise_sd
    config = ScenarioConfig.from_dict(base)
    try:
        report = monte_carlo(
            config, MethodParams(method, v_th, 1.0), sets=sets, runs_per_set=runs
        )
    except AllRunsFailedError:
        print(f"{noise_sd:8.3f} {method:>7s} {v_th:5.2f}  "
              f"{'all runs failed':>16s} {'':>16s} {'100.0%':>9s}")
        continue
    cells = [
        f"{1e3 * m:.3g} ({1e3 * s:.2g})"
        for m, s in zip(report.mean_rms_max, report.sd_rms_max)
    ]
    print(f"{noise_sd:8.3f} {method:>7s} {v_th:5.2f}  "
          f"{cells[0]:>16s} {cells[1]:>16s} {100 * report.failure_rate:8.1f}%")

print("\nthe global method improves as v_th grows toward 0.4 (cleaner clusters)")
print("while raising it further rejects the second source's headings outright")
