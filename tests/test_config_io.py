import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sparsebss
from sparsebss import PRESET_NAMES, ScenarioConfig, load_config, load_preset
from sparsebss.config import SCENARIO_KEYS
from sparsebss.io import _BLOCK_ROWS, read_csv, write_csv

#: Fixed example sequence, so every run of the suite tests the same cases.
PROPERTY = settings(
    derandomize=True, database=None, deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.finfo(float).max,
               -np.finfo(float).max, 1.0, -1.0, 0.1 + 0.2, 1e300, -1e-300]


def savetxt_reference(path, data, names):
    """The writer's former implementation: the bytes it must reproduce."""
    np.savetxt(path, data.T, fmt="%.17g", delimiter=",", header=",".join(names), comments="")


def line_reader_reference(path):
    """The reader's former implementation: np.loadtxt over a text-mode file
    object, after the first non-blank line.  ``read_csv`` must give the same
    names, bits and errors."""
    with open(path) as fh:
        header = next((line for line in fh if line.strip()), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        names = [c.strip() for c in header.split(",")]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from err
    if data.shape[0] == 0 or data.shape[1] != len(names):
        raise ValueError(f"{path}: ragged or empty table")
    return names, data.T


def loadtxt_refused(*args, **kwargs):
    raise AssertionError("np.loadtxt reached")


def read_outcome(read, path):
    """Names, shape and bytes of what ``read`` returns, or the error it raises."""
    try:
        names, data = read(path)
    except ValueError as err:
        return type(err), str(err)
    return names, data.shape, data.tobytes()


def g17_reference(data, names):
    """The writer's bytes, one ``'%.17g' %`` per value."""
    rows = (",".join("%.17g" % v for v in row) for row in data.T.tolist())
    return (",".join(names) + "\n" + "\n".join(rows) + "\n").encode()


def hard_to_print(seed):
    """Over 200,000 doubles that probe every branch of the vectorized %.17g.

    Every binade from 1e-320 up, random bit patterns over all finite doubles,
    zeros, subnormals and the extremes, 10**E and its neighbours, the doubles
    nearest 9.9999999999999999eN (some print as 1eN+1), and .25/.75 ties
    above 1e15, which %.17g rounds half to even.
    """
    rng = np.random.default_rng(seed)
    binades = np.ldexp(rng.uniform(1.0, 2.0, (2088, 48)), np.arange(-1064, 1024)[:, None])
    bits = rng.integers(0, 2**63 - 2**52, 40_000, dtype=np.int64).view(np.float64)
    powers = 10.0 ** np.arange(-30, 31)
    near_ten = [float(f"9.9999999999999999e{n}") for n in range(-320, 308)]
    near_ten += [np.nextafter(float(f"1e{n}"), 0.0) for n in range(-320, 309)]
    whole = rng.integers(10**15, 2**51, 4000).astype(np.float64)
    values = np.concatenate([
        binades.ravel(), bits, EDGE_VALUES, np.arange(1, 200) * 5e-324,
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        near_ten, whole + 0.25, whole + 0.75, whole + 0.5,
    ])
    values = np.concatenate([values, -values])
    return rng.permutation(values)


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def spread_record(n_channels, n_samples, seed):
    """Values over 1e-300..1e300, with the edge values at and across block edges."""
    rng = np.random.default_rng(seed)
    size = n_channels * n_samples
    flat = rng.normal(size=size) * 10.0 ** rng.uniform(-300, 300, size)  # row-major samples
    for start in (0, n_channels * (_BLOCK_ROWS - 1), size - len(EDGE_VALUES)):
        chunk = flat[max(start, 0):][: len(EDGE_VALUES)]
        chunk[:] = EDGE_VALUES[: len(chunk)]
    return np.ascontiguousarray(flat.reshape(n_samples, n_channels).T)


class TestScenarioConfig:
    def test_presets_load_and_generate(self):
        for name in PRESET_NAMES:
            config = load_preset(name)
            sources, mixtures = config.generate()
            assert sources.ndim == 2 and mixtures.shape[0] == len(config.mixing)

    def test_example1_shape(self):
        sources, mixtures = load_preset("example1").generate()
        assert sources.shape == (2, 50)
        assert mixtures.shape == (2, 50)
        # pulse peaks sit at the expected samples
        assert np.argmax(sources[0]) == 25  # 0.1 s at 250 Hz
        assert np.argmax(sources[1]) in (6, 7)  # 0.026 s falls between samples

    def test_json_round_trip_lossless(self):
        config = load_preset("example1")
        again = ScenarioConfig.from_json(config.to_json())
        assert again == config
        a = config.generate()[1]
        b = again.generate()[1]
        assert np.array_equal(a, b)

    def test_round_trip_preserves_awkward_floats(self):
        data = load_preset("section2iii").to_dict()
        data["noise_sd"] = 0.1 + 0.2  # 0.30000000000000004
        config = ScenarioConfig.from_dict(data)
        assert ScenarioConfig.from_json(config.to_json()).noise_sd == data["noise_sd"]

    @pytest.mark.parametrize("noise_sd", [-0.1, float("nan"), float("inf")])
    def test_invalid_noise_sd_rejected(self, noise_sd):
        data = dict(load_preset("example1").to_dict(), noise_sd=noise_sd)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("example1", "mixing", [[1.3, float("nan")], [1.0, 2.85]]),
            ("example1", "duration_s", -0.2),
            ("example1", "sample_rate_hz", float("nan")),
            ("example1", "width_s", float("nan")),
            ("example1", "amplitude", float("inf")),
            ("example1", "noise_sd", 10**400),
            ("section2iii", "seed", 3.9),
            ("section2iii", "seed", True),
            ("section2iii", "length", 100.5),
            ("section2iii", "shift", 2.5),
            ("section2iii", "shift", -1),
        ],
    )
    def test_value_that_cannot_make_a_dataset_rejected_by_name(self, name, key, value):
        # Each of these loaded and failed later, or was silently truncated by int().
        data = load_preset(name).to_dict()
        pulse = key in ("amplitude", "center_s", "width_s")
        (data["sources"][0] if pulse else data)[key] = value
        with pytest.raises(ValueError, match=f"^{key} must"):
            ScenarioConfig.from_dict(data)

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("example1", "noise_sd", "0.1"),
            ("section2iii", "noise_sd", True),
            ("example1", "mixing", [["1", True], [1.0, 2.85]]),
            ("example1", "mixing", [[1.3, True], [1.0, 2.85]]),
            ("example1", "sample_rate_hz", "250"),
            ("section2iii", "sample_rate_hz", True),
            ("example1", "duration_s", "0.2"),
            ("example1", "center_s", True),
            ("example1", "amplitude", "1"),
            ("example1", "width_s", False),
        ],
    )
    def test_string_or_boolean_number_rejected_by_name(self, name, key, value):
        # float() read each of these as a number: "0.1" as 0.1, true as 1.0.
        data = load_preset(name).to_dict()
        pulse = key in ("amplitude", "center_s", "width_s")
        (data["sources"][0] if pulse else data)[key] = value
        with pytest.raises(ValueError, match=f"^{key} must be a number, got "):
            ScenarioConfig.from_dict(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind 'nope'"):
            ScenarioConfig.from_dict({"kind": "nope", "mixing": [[1.0]]})

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(kind="nope"), "unknown scenario kind"),
            (dict(kind="gaussian"), "at least one source spec"),
            (dict(kind="shifted_uniform", length=0), "length >= 1"),
        ],
    )
    def test_invalid_fields_rejected_on_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(mixing=((1.0,),), **fields)

    @pytest.mark.parametrize("mixing", [[[1.3, 0.6], [1.0]], [], [[]], [[], []]])
    def test_mixing_without_rows_of_one_length_rejected(self, mixing):
        # A ragged mixing used to load, and generate() failed in numpy.
        data = dict(load_preset("example1").to_dict(), mixing=mixing)
        with pytest.raises(ValueError, match="^mixing must be one or more rows of one nonzero length"):
            ScenarioConfig.from_dict(data)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown preset 'nope'"):
            load_preset("nope")

    def test_missing_key_message(self):
        with pytest.raises(ValueError, match="missing key"):
            ScenarioConfig.from_dict({"kind": "gaussian", "sources": []})

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_files_and_to_dict_list_the_kind_keys_in_order(self, name):
        config = load_preset(name)
        text = (Path(sparsebss.__file__).parent / "presets" / f"{name}.json").read_text()
        assert list(json.loads(text)) == list(SCENARIO_KEYS[config.kind])
        assert list(config.to_dict()) == list(SCENARIO_KEYS[config.kind])

    @pytest.mark.parametrize(
        "name, extra, listed",
        [
            # A misspelt key must not load as a noise-free scenario.
            ("example1", dict(noise_Sd=0.01), "['noise_Sd']"),
            ("section2iii", dict(duration_s=1.0, width=2), "['duration_s', 'width']"),
        ],
    )
    def test_unknown_keys_are_rejected_by_name(self, name, extra, listed):
        data = dict(load_preset(name).to_dict(), **extra)
        with pytest.raises(ValueError, match=re.escape(f"unknown keys {listed}")):
            ScenarioConfig.from_dict(data)

    def test_unknown_pulse_key_is_rejected_by_name(self):
        data = load_preset("example1").to_dict()
        data["sources"][1]["amplitud"] = 0.5
        with pytest.raises(ValueError, match=r"pulse spec has unknown keys \['amplitud'\]"):
            ScenarioConfig.from_dict(data)

    def test_missing_pulse_key_message(self):
        data = load_preset("example1").to_dict()
        del data["sources"][0]["width_s"]
        with pytest.raises(ValueError, match="missing key 'width_s'"):
            ScenarioConfig.from_dict(data)

    def test_unknown_key_in_a_file_names_the_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(dict(load_preset("section2iii").to_dict(), seeed=3)))
        with pytest.raises(ValueError, match=r"scenario.json: .*unknown keys \['seeed'\]"):
            load_config(str(path))

    def test_load_config_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(load_preset("example1").to_json())
        assert load_config(str(path)) == load_preset("example1")

    def test_load_config_falls_back_to_preset_name(self):
        assert load_config("section2iii") == load_preset("section2iii")

    def test_load_config_unknown_name(self):
        with pytest.raises(FileNotFoundError):
            load_config("not_a_preset")


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(81)
        data = rng.normal(size=(3, 40)) * 10.0 ** rng.integers(-12, 12, size=(3, 40))
        path = tmp_path / "data.csv"
        write_csv(path, data, ["a", "b", "c"])
        names, back = read_csv(path)
        assert names == ["a", "b", "c"]
        assert np.array_equal(back, data)

    def test_default_names(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, np.ones((2, 3)))
        names, _ = read_csv(path)
        assert names == ["channel_1", "channel_2"]

    def test_layout_is_samples_by_channels(self, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(path, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), ["x", "y"])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 4  # header + 3 samples
        assert lines[1] == "1,4"

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"a,b\n1,2\n3\n", "number of columns changed from 2 to 1 at row 2"),
            (b"\n \na,b\r\n1,2\r\n3\r\n", "number of columns changed from 2 to 1 at row 2"),
            (b"a,b\n# note\n1,2\n3,4,5\n", "number of columns changed from 2 to 3 at row 2"),
            (b"\n\na,b\r\n1,2\r\n# note\r\n3,x\r\n", "could not convert string 'x'"),
        ],
        ids=["ragged", "ragged-blank-lines-crlf", "ragged-comment", "non-numeric-crlf-comment"],
    )
    def test_bad_row_rejected_as_the_line_reader_did(self, tmp_path, raw, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as err:
            read_csv(path)
        assert message in str(err.value)
        assert read_outcome(read_csv, path) == read_outcome(line_reader_reference, path)

    @pytest.mark.parametrize(
        "raw",
        [
            b"\n\n  \na,b\n1,2\n3,4\n",
            b"a,b\r\n1,2\r\n3,4\r\n",
            b"\r\n\r\na , b\r\n1,2\r\n\r\n3,4",
            b"a,b\n# a comment line\n1,2\n3,4\n",
            b"a,b\n1,2 # and a trailing one\n3,4\n",
            b"a,b\r1,2\r3,4\r",
        ],
        ids=["blank-lines", "crlf", "crlf-blank-lines-no-eol", "comment", "trailing-comment", "cr"],
    )
    def test_blank_lines_line_endings_and_comments(self, tmp_path, raw):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        names, data = read_csv(path)
        assert names == ["a", "b"]
        assert same_bits(data, np.array([[1.0, 3.0], [2.0, 4.0]]))
        assert data.flags.c_contiguous and data.flags.owndata  # np.loadtxt's table, copied
        assert read_outcome(read_csv, path) == read_outcome(line_reader_reference, path)

    @pytest.mark.parametrize("text", ["", "\n  \n", "\r\n \r\n"])
    def test_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="empty file"):
            read_csv(path)
        assert read_outcome(read_csv, path) == read_outcome(line_reader_reference, path)

    @pytest.mark.parametrize(
        "text",
        ["a,b,c\n1,2\n3,4\n", "a,b\n", "\n\na,b\r\n", "a,b", "a,b\n\n# only a comment\n",
         "# a comment line\n1,2\n3,4\n"],
    )
    def test_table_unlike_its_header_rejected(self, tmp_path, text):
        # Rows of one width other than the header's, or no rows at all; a
        # leading comment line is the header, as it always was.
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="ragged or empty table"):
            read_csv(path)
        assert read_outcome(read_csv, path) == read_outcome(line_reader_reference, path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,x\n")
        with pytest.raises(ValueError):
            read_csv(path)

    @pytest.mark.parametrize("n_channels", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "n_samples", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
    )
    def test_bytes_equal_savetxt_across_block_edges(
        self, tmp_path, monkeypatch, n_channels, n_samples
    ):
        data = spread_record(n_channels, n_samples, seed=1000 * n_channels + n_samples)
        names = [f"ch{i}" for i in range(n_channels)]
        write_csv(tmp_path / "new.csv", data, names)
        savetxt_reference(tmp_path / "ref.csv", data, names)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        monkeypatch.setattr(np, "loadtxt", loadtxt_refused)
        back_names, back = read_csv(tmp_path / "new.csv")
        assert back_names == names
        assert same_bits(back, data)
        assert back.flags.c_contiguous and back.flags.owndata

    @PROPERTY
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
                min_size=2, max_size=40,
            )
        )
    )
    def test_any_finite_record_matches_savetxt_and_reads_back(self, tmp_path, monkeypatch, rows):
        data = np.array(rows, dtype=float).T
        names = [f"c{i}" for i in range(data.shape[0])]
        write_csv(tmp_path / "new.csv", data, names)
        savetxt_reference(tmp_path / "ref.csv", data, names)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        with monkeypatch.context() as patched:
            patched.setattr(np, "loadtxt", loadtxt_refused)
            assert same_bits(read_csv(tmp_path / "new.csv")[1], data)

    def test_hard_values_match_per_value_format_and_read_back(self, tmp_path, monkeypatch):
        values = hard_to_print(seed=19)
        assert values.size >= 200_000
        data = values[: values.size // 4 * 4].reshape(-1, 4).T  # 4 channels
        names = ["w", "x", "y", "z"]
        write_csv(tmp_path / "hard.csv", data, names)
        assert (tmp_path / "hard.csv").read_bytes() == g17_reference(data, names)
        monkeypatch.setattr(np, "loadtxt", loadtxt_refused)
        back_names, back = read_csv(tmp_path / "hard.csv")
        assert back_names == names
        assert same_bits(back, data)

    def test_peak_memory_is_one_block_not_the_record(self, tmp_path):
        # a writer that formats the whole record at once needs about 18 MB here
        data = np.random.default_rng(5).normal(size=(2, 200_000))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "long.csv", data, ["a", "b"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_peak_memory_of_a_wide_record_is_one_block(self, tmp_path):
        # blocks of 4096 rows whatever the width need about 16 MB here
        data = np.random.default_rng(6).normal(size=(64, 12_000))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "wide.csv", data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert same_bits(read_csv(tmp_path / "wide.csv")[1], data)

    @pytest.mark.parametrize(
        "raw, parsed",
        [
            (b"a,b\n-0,1.5e-07\n0.001,-1e+20\n-0.5,12e5\n", True),
            (b"a,b\n1.,.5\n-1.,-.5\n-0,007\n", True),
            (b"a,b\n12345678901234567890,-0.12345678901234567890123\n-0,99999999999999999999e-5\n",
             True),
            (b"a,b\n9007199254740993,2.4703282292062328e-324\n-9007199254740993,-0\n", True),
            # decimals that lie closest to a midpoint between doubles (Paxson, 1991)
            (b"a\n46202199371337e-072\n231010996856685e-073\n272104041512242479e200\n"
             b"609610927149051e-255\n3743626360493413e-165\n-0\n", True),
            (b"a,b\n5e-324,-2.2250738585072009e-308\n4.9406564584124654e-324,-0\n", True),
            (b"a,b\n1.7976931348623157e308,-1.7976931348623157e+308\n1e309,-1e309\n", True),
            (b"a,b\r\n1,-0\r\n2,3\r\n", False),
            (b"a,b\n# note\n1,-0\n", False),
            (b"a,b\n1,-0\n\n2,3\n", False),
            (b"a,b\n1, -0\n", False),
            (b"a,b\n+1,-0\n", False),
            (b"a,b\n1E5,-0\n", False),
            (b"a,b\ninf,-nan\n-inf,nan\n", False),
            (b"a,b\n1e0005,-0\n", False),
            (b"a,b\n1,-0\n2,3", False),
            (b"a,b\n" + b"0.5,-0\n" * 20_000 + b"nan,1\n", False),
            (b"a,b\n1,\n", False),
            (b"a,b\n1-2,3\n", False),
            (b"a,b\n1.2.3,4\n", False),
            (b"a,b\ne5,1\n", False),
            (b"a,b\n1e+,1\n", False),
            (b"a,b\n-,1\n", False),
            (b"a,b\n1,2\n3\n", False),
            (b"a,b\n1,2,3\n", False),
        ],
        ids=["writer-forms", "bare-points", "20-digits", "binary-midpoints", "near-midpoints",
             "subnormals", "extremes-and-overflow", "crlf", "comment", "blank-line", "space",
             "plus", "upper-e", "inf-nan", "four-exponent-digits", "no-final-newline",
             "nan-after-a-block", "empty-field", "inner-minus", "two-points", "no-mantissa",
             "no-exponent-digits", "bare-minus", "ragged", "wide"],
    )
    def test_reads_as_loadtxt_inside_and_outside_the_writer_grammar(
        self, tmp_path, monkeypatch, raw, parsed
    ):
        path = tmp_path / "data.csv"
        path.write_bytes(raw)
        calls = []
        loadtxt = np.loadtxt
        with monkeypatch.context() as patched:
            patched.setattr(np, "loadtxt", lambda *a, **k: calls.append(a) or loadtxt(*a, **k))
            outcome = read_outcome(read_csv, path)
        assert outcome == read_outcome(line_reader_reference, path)
        assert (not calls) == parsed

    @pytest.mark.parametrize("shape", [(2, 99_000), (64, 12_000)])
    def test_reader_peak_memory_is_the_table_and_one_block(self, tmp_path, shape):
        data = np.random.default_rng(7).normal(size=shape)
        write_csv(tmp_path / "data.csv", data)
        tracemalloc.start()
        try:
            back = read_csv(tmp_path / "data.csv")[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bits(back, data)
        assert peak < back.nbytes + 2e6  # np.loadtxt needs up to 1.4 MB beyond the table here

    @pytest.mark.parametrize("n_channels", [1, 3])
    def test_table_grows_in_place_when_later_rows_are_shorter(
        self, tmp_path, monkeypatch, n_channels
    ):
        # The first block's long values size the table for about a tenth of the rows.
        rng = np.random.default_rng(8)
        data = np.concatenate(
            [rng.normal(size=(n_channels, 20_000)), rng.integers(-9, 10, (n_channels, 200_000))],
            axis=1,
        )
        write_csv(tmp_path / "data.csv", data)
        monkeypatch.setattr(np, "loadtxt", loadtxt_refused)
        back = read_csv(tmp_path / "data.csv")[1]
        assert same_bits(back, data)
        assert back.flags.c_contiguous and back.flags.owndata

    @pytest.mark.parametrize("raw", [b"\xef\xbb\xbfa,b\n1,2\n", b"\xef\xbb\xbfa,b\r\n1,2\r\n"])
    def test_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, raw):
        path = tmp_path / "exported.csv"
        path.write_bytes(raw)
        names, data = read_csv(path)
        assert names == ["a", "b"]
        assert same_bits(data, np.array([[1.0], [2.0]]))

    def test_names_are_utf8_whatever_the_locale(self, tmp_path):
        code = (
            "import sys, numpy as np; from sparsebss.io import read_csv, write_csv; "
            "write_csv(sys.argv[1], np.ones((2, 3)), ['d\\xe9bit', '\\u03b2']); "
            "print(ascii(read_csv(sys.argv[1])[0]))"
        )
        src = str(Path(sparsebss.__file__).parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONUTF8="0", LC_ALL="C")
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "names.csv")],
                              capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == ascii(["d\xe9bit", "\u03b2"])

    @pytest.mark.parametrize(
        "names,bad",
        [
            (["a,b", "c"], "a,b"),
            (["a", "b\nc"], "b\nc"),
            (["a\r", "c"], "a\r"),
            ([" a", "b "], " a"),
        ],
    )
    def test_unreadable_name_rejected_before_opening(self, tmp_path, names, bad):
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            write_csv(path, np.ones((2, 3)), names)
        assert not path.exists()

    def test_blank_header_rejected_before_opening(self, tmp_path):
        # one channel named "" or " " gives a header line that read_csv skips
        path = tmp_path / "data.csv"
        for name in ["", " "]:
            with pytest.raises(ValueError, match="blank header"):
                write_csv(path, np.ones((1, 3)), [name])
        assert not path.exists()

    def test_wrong_name_count_rejected_before_opening(self, tmp_path):
        path = tmp_path / "data.csv"
        with pytest.raises(ValueError, match="1 names for 2 channels"):
            write_csv(path, np.ones((2, 3)), ["a"])
        assert not path.exists()
