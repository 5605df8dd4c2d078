import json
import re
import tracemalloc
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

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_file_rejected(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="empty file"):
            read_csv(path)

    @pytest.mark.parametrize("text", ["a,b,c\n1,2\n3,4\n", "a,b\n"])
    def test_table_unlike_its_header_rejected(self, tmp_path, text):
        # Rows of one width other than the header's, or no rows at all.
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="ragged or empty table"):
            read_csv(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,x\n")
        with pytest.raises(ValueError):
            read_csv(path)

    @pytest.mark.parametrize("n_channels", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "n_samples", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
    )
    def test_bytes_equal_savetxt_across_block_edges(self, tmp_path, n_channels, n_samples):
        data = spread_record(n_channels, n_samples, seed=1000 * n_channels + n_samples)
        names = [f"ch{i}" for i in range(n_channels)]
        write_csv(tmp_path / "new.csv", data, names)
        savetxt_reference(tmp_path / "ref.csv", data, names)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back_names, back = read_csv(tmp_path / "new.csv")
        assert back_names == names
        assert same_bits(back, data)

    @PROPERTY
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
                min_size=2, max_size=40,
            )
        )
    )
    def test_any_finite_record_matches_savetxt_and_reads_back(self, tmp_path, rows):
        data = np.array(rows, dtype=float).T
        names = [f"c{i}" for i in range(data.shape[0])]
        write_csv(tmp_path / "new.csv", data, names)
        savetxt_reference(tmp_path / "ref.csv", data, names)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert same_bits(read_csv(tmp_path / "new.csv")[1], data)

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
