import json

import numpy as np
import pytest

from sparsebss import MethodParams, load_preset, separate
from sparsebss.cli import build_parser, main
from sparsebss.evaluation import rms_metrics, source_errors
from sparsebss.io import read_csv, write_csv
from sparsebss.separation import METHODS
from sparsebss.signals import normalize_unit_norm


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def simulated(tmp_path):
    outdir = tmp_path / "sim"
    assert run_cli("simulate", "example1", outdir) == 0
    return outdir


def test_simulate_writes_sources_and_mixtures(simulated):
    names, sources = read_csv(simulated / "sources.csv")
    assert names == ["source_1", "source_2"]
    assert sources.shape == (2, 50)
    _, mixtures = read_csv(simulated / "mixtures.csv")
    assert mixtures.shape == (2, 50)
    # bit for bit what the scenario generates
    generated = load_preset("example1").generate()[0]
    assert np.array_equal(sources.view(np.int64), generated.view(np.int64))


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "example1", a) == 0
    assert run_cli("simulate", "example1", b) == 0
    assert (a / "mixtures.csv").read_bytes() == (b / "mixtures.csv").read_bytes()
    assert (a / "sources.csv").read_bytes() == (b / "sources.csv").read_bytes()


def test_simulate_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "gaussian"')
    assert run_cli("simulate", bad, tmp_path / "out") != 0
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    lambda config: [1, 2],
    lambda config: dict(config, mixing=5),
    lambda config: dict(config, seed=None),
    lambda config: dict(config, sources=[1]),
    lambda config: dict(config, duration_s=1e308),
    lambda config: dict(config, mixing=[[1, 2, 3], [4, 5, 6]]),
    None,  # a directory in place of the file
], ids=["top-level-list", "mixing-number", "seed-null", "source-number", "sample-count-overflow",
        "mixing-columns", "directory"])
def test_simulate_reports_a_malformed_config_by_path(tmp_path, capsys, change):
    bad = tmp_path / "bad.json"
    if change is None:
        bad.mkdir()
    else:
        bad.write_text(json.dumps(change(load_preset("example1").to_dict())))
    assert run_cli("simulate", bad, tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method,vth", [("global", "0.4"), ("mhc", "0.8")])
def test_separate_produces_estimates_and_report(simulated, tmp_path, method, vth):
    out = tmp_path / "estimates.csv"
    code = run_cli(
        "separate", simulated / "mixtures.csv", out,
        "--method", method, "--vth", vth, "--alpha", "1.0",
    )
    assert code == 0
    names, estimates = read_csv(out)
    assert names == ["estimate_1", "estimate_2"]
    assert estimates.shape == (2, 50)
    # bit for bit what separate returns in memory for the same input
    _, mixtures = read_csv(simulated / "mixtures.csv")
    expected = separate(mixtures, MethodParams(method=method, v_th=float(vth), alpha=1.0))
    assert np.array_equal(estimates.view(np.int64), expected.estimates.view(np.int64))
    report = json.loads((tmp_path / "estimates_report.json").read_text())
    assert report["directions"] == [d.unit_vector.tolist() for d in expected.directions]
    assert len(report["iterations"]) == len(expected.iterations) == 2
    for written, diag in zip(report["iterations"], expected.iterations):
        assert written["member_indices"] == diag.member_indices.tolist()
        assert written["accepted_count"] == diag.accepted_count
        assert written["epsilon"] == diag.epsilon
        assert written["residual_energy"] == diag.residual_energy
    assert (tmp_path / "estimates_report.txt").exists()


@pytest.mark.parametrize("method,vth", [("global", "0.4"), ("mhc", "0.5")])
def test_round_trip_of_three_channels_equals_the_library(tmp_path, method, vth):
    # Sources active in disjoint 50-sample bursts, three mixtures with a little noise.
    rng = np.random.default_rng(23)
    owner = rng.integers(-1, 3, 200).repeat(50)
    sources = np.where(owner == np.arange(3)[:, None], rng.uniform(-1.0, 1.0, owner.size), 0.0)
    mixtures = rng.standard_normal((3, 3)) @ sources
    mixtures += 1e-4 * rng.standard_normal(mixtures.shape)
    write_csv(tmp_path / "sources.csv", sources)
    write_csv(tmp_path / "mixtures.csv", mixtures)
    out = tmp_path / "estimates.csv"
    args = ("--method", method, "--vth", vth)
    assert run_cli("separate", tmp_path / "mixtures.csv", out, *args) == 0
    estimates = separate(mixtures, MethodParams(method=method, v_th=float(vth))).estimates
    assert read_csv(out)[1].tobytes() == estimates.tobytes()
    assert run_cli("evaluate", tmp_path / "sources.csv", out, tmp_path / "eval.txt") == 0
    report = json.loads((tmp_path / "eval.json").read_text())["association"]
    assoc, errors = source_errors(normalize_unit_norm(sources), normalize_unit_norm(estimates))
    _, rms_tot, rms_max = rms_metrics(errors[None])
    assert [r["correlation"] for r in report] == assoc.correlations.tolist()
    assert [r["rms_tot"] for r in report] == rms_tot.tolist()
    assert [r["rms_max"] for r in report] == rms_max.tolist()


@pytest.mark.parametrize("folder_is", ["input", "output"])
@pytest.mark.parametrize("command", ["separate", "evaluate", "plotdata"])
def test_a_directory_in_place_of_a_file_is_an_error(
    simulated, tmp_path, capsys, command, folder_is
):
    folder = tmp_path / "folder"
    folder.mkdir()
    mixtures = simulated / "mixtures.csv"
    inputs, output, options = {
        "separate": ([mixtures], tmp_path / "estimates.csv", []),
        "evaluate": ([simulated / "sources.csv", mixtures], tmp_path / "eval.txt", []),
        "plotdata": ([mixtures], tmp_path / "phase.csv", ["--kind", "phase"]),
    }[command]
    if folder_is == "input":
        inputs[0] = folder
    else:
        output = folder
    assert run_cli(command, *inputs, output, *options) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err


def test_separate_rejects_single_channel(tmp_path, capsys):
    single = tmp_path / "one.csv"
    single.write_text("only\n" + "\n".join(str(v) for v in range(10)) + "\n")
    assert run_cli("separate", single, tmp_path / "out.csv") != 0


def test_separate_cluster_failure_exits_3(tmp_path, capsys):
    # Two accepted headings far apart in every component: no adjacency run.
    mixtures = tmp_path / "mix.csv"
    write_csv(mixtures, np.array([[0.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0]]))
    out = tmp_path / "est.csv"
    assert run_cli("separate", mixtures, out, "--vth", "0.1", "--alpha", "0.01") == 3
    assert "cluster formation failed at iteration 0" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_self_comparison(simulated, tmp_path):
    report_path = tmp_path / "eval.txt"
    code = run_cli(
        "evaluate", simulated / "sources.csv", simulated / "sources.csv", report_path
    )
    assert code == 0
    payload = json.loads((tmp_path / "eval.json").read_text())
    for entry in payload["association"]:
        assert entry["correlation"] == pytest.approx(1.0, abs=1e-12)
        assert entry["rms_tot"] == pytest.approx(0.0, abs=1e-12)


def test_evaluate_signed_permutation_gives_zero_error(simulated, tmp_path):
    _, sources = read_csv(simulated / "sources.csv")
    flipped = tmp_path / "flipped.csv"
    from sparsebss.io import write_csv

    write_csv(flipped, np.vstack([-sources[1], sources[0]]), ["e1", "e2"])
    report_path = tmp_path / "eval2.txt"
    assert run_cli("evaluate", simulated / "sources.csv", flipped, report_path) == 0
    payload = json.loads((tmp_path / "eval2.json").read_text())
    for entry in payload["association"]:
        assert entry["rms_max"] == pytest.approx(0.0, abs=1e-10)
    signs = sorted(e["sign"] for e in payload["association"])
    assert signs == [-1.0, 1.0]


def test_evaluate_channel_mismatch(simulated, tmp_path, capsys):
    single = tmp_path / "one.csv"
    single.write_text("only\n" + "\n".join(str(v) for v in range(50)) + "\n")
    assert run_cli("evaluate", simulated / "sources.csv", single, tmp_path / "r.txt") != 0


def test_evaluate_constant_estimate_rejected(simulated, tmp_path, capsys):
    _, sources = read_csv(simulated / "sources.csv")
    constant = tmp_path / "constant.csv"
    write_csv(constant, np.vstack([sources[0], np.ones(sources.shape[1])]), ["e1", "e2"])
    report_path = tmp_path / "r.txt"
    assert run_cli("evaluate", simulated / "sources.csv", constant, report_path) == 1
    assert "error:" in capsys.readouterr().err
    assert not report_path.exists() and not report_path.with_suffix(".json").exists()


def test_montecarlo_table(tmp_path):
    config = tmp_path / "noisy.json"
    from sparsebss import load_preset

    data = load_preset("example1").to_dict()
    data["noise_sd"] = 0.005
    config.write_text(json.dumps(data))
    report_path = tmp_path / "mc.txt"
    code = run_cli(
        "montecarlo", config, report_path,
        "--method", "global", "--vth", "0.4", "0.3",
        "--sets", "2", "--runs", "3", "--seed", "42",
    )
    assert code == 0
    payload = json.loads((tmp_path / "mc.json").read_text())
    assert len(payload["rows"]) == 2
    for row in payload["rows"]:
        assert row["failure_rate"] <= 1.0
        assert len(row["mean_x1e3"]) == 2
    text = report_path.read_text()
    assert "global" in text and "failures" in text


def test_montecarlo_row_whose_runs_all_fail(tmp_path):
    # Singular mixing: whitening fails on every run, and the row says so.
    data = dict(load_preset("example1").to_dict(), mixing=[[1.0, 2.0], [2.0, 4.0]])
    config = tmp_path / "singular.json"
    config.write_text(json.dumps(data))
    report_path = tmp_path / "mc.txt"
    args = ("montecarlo", config, report_path, "--vth", "0.4", "--sets", "1", "--runs", "3")
    assert run_cli(*args) == 0
    row = json.loads((tmp_path / "mc.json").read_text())["rows"][0]
    assert row == {
        "method": "global", "v_th": 0.4, "mean_x1e3": None, "sd_x1e3": None,
        "failures": 3, "total_runs": 3, "failure_rate": 1.0,
    }
    last_line = report_path.read_text().splitlines()[-1]
    assert last_line.split() == ["global", "0.40", "---", "---", "100.0%"]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_montecarlo_needs_a_worker(tmp_path, capsys, workers):
    report_path = tmp_path / "mc.txt"
    args = ("montecarlo", "example1", report_path, "--vth", "0.4", "--runs", "3", "--workers", workers)
    assert run_cli(*args) == 1
    assert "error: workers must be at least 1" in capsys.readouterr().err
    assert not report_path.exists()


def test_parser_defaults_are_the_method_defaults():
    parser = build_parser()
    args = parser.parse_args(["separate", "in.csv", "out.csv"])
    assert MethodParams(args.method, args.vth, args.alpha) == MethodParams()
    args = parser.parse_args(["montecarlo", "example1", "mc.txt", "--vth", "0.5"])
    assert (args.method, args.alpha) == (MethodParams.method, MethodParams.alpha)
    for method in METHODS:
        assert parser.parse_args(["separate", "a", "b", "--method", method]).method == method


def test_montecarlo_deterministic(tmp_path):
    config = tmp_path / "noisy.json"
    from sparsebss import load_preset

    data = load_preset("example1").to_dict()
    data["noise_sd"] = 0.01
    config.write_text(json.dumps(data))
    args = (
        "montecarlo", config, tmp_path / "mc1.txt",
        "--method", "mhc", "--vth", "0.7", "--sets", "1", "--runs", "4",
    )
    assert run_cli(*args) == 0
    first = (tmp_path / "mc1.json").read_bytes()
    assert run_cli(*args) == 0
    assert (tmp_path / "mc1.json").read_bytes() == first


def test_plotdata_phase(simulated, tmp_path):
    out = tmp_path / "phase.csv"
    assert run_cli("plotdata", simulated / "mixtures.csv", out, "--kind", "phase") == 0
    names, data = read_csv(out)
    assert names == ["e_1", "e_2"]
    # whitened components: orthogonal with unit rms
    gram = data @ data.T / data.shape[1]
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)


def test_plotdata_sorted_headings_constant_for_identical_channels(tmp_path):
    from sparsebss.io import write_csv

    rng = np.random.default_rng(91)
    row = rng.uniform(size=100)
    src = tmp_path / "same.csv"
    write_csv(src, np.vstack([row, 2.0 * row]), ["a", "b"])
    out = tmp_path / "sorted.csv"
    assert run_cli("plotdata", src, out, "--kind", "sorted-headings") == 0
    _, data = read_csv(out)
    # perfectly correlated channels give constant sorted heading components
    assert np.ptp(data[0]) < 1e-12
    assert np.ptp(data[1]) < 1e-12


def test_plotdata_sorted_headings_monotone_for_independent_channels(tmp_path):
    from sparsebss.io import write_csv

    rng = np.random.default_rng(92)
    src = tmp_path / "indep.csv"
    write_csv(src, rng.uniform(size=(2, 100)), ["a", "b"])
    out = tmp_path / "sorted.csv"
    assert run_cli("plotdata", src, out, "--kind", "sorted-headings") == 0
    _, data = read_csv(out)
    assert np.all(np.diff(data[0]) >= 0)
    assert np.all(np.diff(data[1]) >= 0)


def test_plotdata_sorted_headings_flat_segments_for_sparse_mixture(tmp_path):
    from sparsebss import load_preset, mix
    from sparsebss.io import write_csv

    config = load_preset("section2iii")
    sources, mixtures = config.generate()
    src = tmp_path / "mix.csv"
    write_csv(src, mixtures, ["z1", "z2"])
    out = tmp_path / "sorted.csv"
    assert run_cli("plotdata", src, out, "--kind", "sorted-headings") == 0
    _, data = read_csv(out)
    # sole-source segments produce long runs of (nearly) equal sorted values
    gaps = np.diff(data[0])
    tiny = gaps < 1e-9
    run_lengths = np.diff(np.flatnonzero(np.diff(np.r_[0, tiny, 0])))[::2]
    assert run_lengths.max() >= 80  # solo segments span >= 89 headings each
    # and the rest of the curve still rises
    assert data[0, -1] > data[0, 0]


def test_plotdata_sorted_headings_needs_two_nonzero_headings(tmp_path, capsys):
    src = tmp_path / "still.csv"
    write_csv(src, np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0]]), ["a", "b"])
    out = tmp_path / "sorted.csv"
    assert run_cli("plotdata", src, out, "--kind", "sorted-headings") == 2
    assert "fewer than 2 nonzero headings" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_kind_rejected(simulated, tmp_path):
    with pytest.raises(SystemExit):
        run_cli("plotdata", simulated / "mixtures.csv", tmp_path / "x.csv",
                "--kind", "spectrogram")
