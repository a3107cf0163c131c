"""Command-line pipeline: outputs, schemas, determinism, exit codes."""

import csv
import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest

from toplag.cli import AnalysisConfig, _grid_text, _json_ready, _write_csv, main
from toplag.ingest import AlignedPair
from toplag.synth import LagScenario, generate


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def make_inputs(tmp_path, name="data", **kw):
    """Generate a synthetic pair and split it into two input CSVs."""
    d = tmp_path / name
    args = ["synth", "--out", str(d)]
    for k, v in kw.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    assert run(args) == 0
    rows = read_csv(d / "pair.csv")
    for col, fname in (("x", "x.csv"), ("y", "y.csv")):
        with open(d / fname, "w", encoding="utf-8") as fh:
            fh.write("time,value\n")
            for r in rows:
                fh.write(f"{r['time']},{r[col]}\n")
    return str(d / "x.csv"), str(d / "y.csv"), d


class TestSynth:
    def test_writes_pair_and_true_lag(self, tmp_path):
        x_csv, y_csv, d = make_inputs(tmp_path, kind="constant", n=64, k=5, seed=3)
        pair = read_csv(d / "pair.csv")
        lag = read_csv(d / "true_lag.csv")
        assert len(pair) == 64 and len(lag) == 64
        assert all(r["lag"] == "5" for r in lag)
        x = np.array([float(r["x"]) for r in pair])
        y = np.array([float(r["y"]) for r in pair])
        assert np.array_equal(y[5:], x[:-5])

    def test_defaults_are_lag_scenario_defaults(self, tmp_path):
        assert run(["synth", "--out", str(tmp_path / "got")]) == 0
        pair, lag = generate(LagScenario("constant", 500, 0))
        os.makedirs(tmp_path / "want")
        _write_csv(tmp_path / "want" / "pair.csv", ["time", "x", "y"],
                   [pair.grid, pair.x, pair.y])
        _write_csv(tmp_path / "want" / "true_lag.csv", ["time", "lag"],
                   [pair.grid, lag])
        for f in ("pair.csv", "true_lag.csv"):
            got, want = (tmp_path / d / f for d in ("got", "want"))
            assert got.read_bytes() == want.read_bytes()

    def test_rejects_bad_scenario(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run(["synth", "--out", str(tmp_path / "o"), "--n", "4"])
        assert e.value.code == 4


class TestAnalyze:
    def test_full_pipeline_recovers_constant_lag(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(
            tmp_path, kind="constant", n=300, k=5, seed=1, noise_sigma=0.05
        )
        out = tmp_path / "run"
        assert run(["analyze", x_csv, y_csv, "--out", str(out)]) == 0

        for f in ("path.csv", "lag_by_time.csv", "consistency_w20.csv",
                  "summary.json"):
            assert (out / f).exists()

        lag = read_csv(out / "lag_by_time.csv")
        t = np.array([int(r["t"]) for r in lag])
        v = np.array([float(r["lag"]) for r in lag])
        bulk = (t > 60) & (t < 240)
        assert np.median(np.abs(v[bulk] - 5.0)) <= 1.0

        cons = read_csv(out / "consistency_w20.csv")
        sig = np.array([r["significant"] == "1" for r in cons])
        assert sig.mean() >= 0.8

        s = json.loads((out / "summary.json").read_text())
        assert set(s) == {"config", "data", "result", "consistency", "tool"}
        assert s["data"]["n"] == 300
        assert s["result"]["mode"] == "bridge"
        assert s["consistency"]["n_windows"] == len(cons)
        assert s["tool"]["name"] == "toplag"

    def test_identity_pair_gives_zero_lag_unit_slope(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=200, k=0, seed=2)
        out = tmp_path / "run"
        assert run(["analyze", x_csv, x_csv, "--out", str(out)]) == 0
        lag = read_csv(out / "lag_by_time.csv")
        assert all(abs(float(r["lag"])) <= 1e-9 for r in lag)
        cons = read_csv(out / "consistency_w20.csv")
        assert all(abs(float(r["a"]) - 1.0) <= 1e-9 for r in cons)

    def test_zero_temperature_emits_hard_path(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=80, k=3, seed=4)
        out = tmp_path / "hard"
        assert run(
            ["analyze", x_csv, y_csv, "--out", str(out), "--temperature", "0"]
        ) == 0
        rows = read_csv(out / "path.csv")
        assert list(rows[0]) == ["tau", "mean_lag", "t1", "layer_cost"]
        lags = [float(r["mean_lag"]) for r in rows]
        assert all(v == int(v) for v in lags)
        s = json.loads((out / "summary.json").read_text())
        assert s["result"]["mode"] == "hard"
        assert s["result"]["total_energy"] is not None
        assert s["result"]["log_partition"] is None

    def test_path_columns_are_consistent(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(
            tmp_path, kind="constant", n=120, k=2, seed=5, noise_sigma=0.1
        )
        out = tmp_path / "run"
        assert run(["analyze", x_csv, y_csv, "--out", str(out)]) == 0
        rows = read_csv(out / "path.csv")
        taus = np.array([int(r["tau"]) for r in rows])
        lags = np.array([float(r["mean_lag"]) for r in rows])
        t1 = np.array([float(r["t1"]) for r in rows])
        assert np.array_equal(taus, np.arange(taus[0], taus[-1] + 1))
        assert np.allclose(t1, (taus - lags) / 2.0, atol=1e-9)

    def test_dump_flags_write_matrices(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=2, seed=6)
        out = tmp_path / "run"
        assert run(
            [
                "analyze", x_csv, y_csv, "--out", str(out),
                "--dump-landscape", "--dump-energy-table",
                "--boundary-depth", "4",
            ]
        ) == 0
        land = read_csv(out / "landscape.csv")
        assert len(land) == 60 and len(land[0]) == 61
        table = read_csv(out / "energy_table.csv")
        assert len(table) == 7 and len(table[0]) == 8

    def test_date_range_filter(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=200, k=2, seed=7)
        out = tmp_path / "run"
        assert run(
            [
                "analyze", x_csv, y_csv, "--out", str(out),
                "--start", "50", "--end", "149",
            ]
        ) == 0
        s = json.loads((out / "summary.json").read_text())
        assert s["data"]["n"] == 100

    def test_no_standardize_keeps_raw(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=1, seed=8)
        out = tmp_path / "run"
        assert run(
            ["analyze", x_csv, y_csv, "--out", str(out), "--no-standardize"]
        ) == 0
        s = json.loads((out / "summary.json").read_text())
        assert s["data"]["normalization"] == "raw"

    def test_high_temperature_notes_on_stderr(self, tmp_path, capsys):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=1, seed=9)
        out = tmp_path / "run"
        assert run(
            ["analyze", x_csv, y_csv, "--out", str(out), "--temperature", "6"]
        ) == 0
        assert "temperature" in capsys.readouterr().err.lower()

    def test_summary_records_every_parameter(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=1, seed=10)
        out = str(tmp_path / "run")
        assert run(["analyze", x_csv, y_csv, "--out", out]) == 0
        cfg = json.loads((tmp_path / "run" / "summary.json").read_text())["config"]
        assert cfg == _json_ready(asdict(AnalysisConfig(x_csv, y_csv, out)))


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(
            tmp_path, kind="step", n=150, k=2, k2=6,
            switch_index=75, seed=11, noise_sigma=0.2,
        )
        out = tmp_path / "run"
        argv = ["analyze", x_csv, y_csv, "--out", str(out)]
        assert run(argv) == 0
        first = {f: (out / f).read_bytes() for f in os.listdir(out)}
        assert run(argv) == 0
        assert sorted(os.listdir(out)) == sorted(first)
        for f, blob in first.items():
            assert (out / f).read_bytes() == blob


class TestScanTemperature:
    def test_writes_per_temperature_runs_and_sweep(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(
            tmp_path, kind="constant", n=150, k=3, seed=12, noise_sigma=0.1
        )
        out = tmp_path / "sweep"
        assert run(
            [
                "scan-temperature", x_csv, y_csv, "--out", str(out),
                "--temperatures", "1,2",
            ]
        ) == 0
        assert (out / "T_1" / "summary.json").exists()
        assert (out / "T_2" / "summary.json").exists()
        rows = read_csv(out / "sweep_summary.csv")
        assert [r["temperature"] for r in rows] == ["1", "2"]

    def test_runs_use_analysis_config_defaults(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=1, seed=16)
        out = tmp_path / "sweep"
        argv = ["scan-temperature", x_csv, y_csv, "--out", str(out)]
        assert run(argv + ["--temperatures", "1,3"]) == 0
        for t in (1.0, 3.0):
            sub = out / f"T_{t:g}"
            cfg = json.loads((sub / "summary.json").read_text())["config"]
            want = AnalysisConfig(x_csv, y_csv, str(sub), temperature=t)
            assert cfg == _json_ready(asdict(want))

    @pytest.mark.parametrize("temps", ["1.0000001,1.0000002", "1,1", "0.5,2,2.0"])
    def test_temperatures_sharing_a_run_directory_are_refused(
        self, tmp_path, capsys, temps
    ):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=1, seed=17)
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as e:
            run(["scan-temperature", x_csv, y_csv, "--out", str(out),
                 "--temperatures", temps])
        assert e.value.code == 4
        assert ("T_2" if "2,2" in temps else "T_1") in capsys.readouterr().err
        assert not out.exists()

    def test_single_temperature_is_usage_error(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=1, seed=13)
        with pytest.raises(SystemExit) as e:
            run(
                [
                    "scan-temperature", x_csv, y_csv,
                    "--out", str(tmp_path / "s"), "--temperatures", "2",
                ]
            )
        assert e.value.code == 2


class TestOracleCommand:
    def test_agreement_run(self, capsys):
        assert run(["oracle", "--size", "6", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "agreement" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "argv", [["--start", "1"], ["--start", "1,2,3"], ["--end", "6"]]
    )
    def test_node_that_is_not_two_integers_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as e:
            run(["oracle", "--size", "7"] + argv)
        assert e.value.code == 2
        assert "invalid node value" in capsys.readouterr().err

    def test_size_bounds(self):
        with pytest.raises(SystemExit) as e:
            run(["oracle", "--size", "11"])
        assert e.value.code == 4

    @pytest.mark.parametrize("t", ["0", "-1", "nan", "inf"])
    def test_temperature_not_finite_positive_is_config_error(self, capsys, t):
        with pytest.raises(SystemExit) as e:
            run(["oracle", "--size", "5", "--temperature", t])
        assert e.value.code == 4
        assert capsys.readouterr().err.startswith("toplag: config: temperature")


class TestExitCodes:
    def test_unknown_argument(self):
        with pytest.raises(SystemExit) as e:
            run(["analyze", "--bogus"])
        assert e.value.code == 2

    def test_missing_input_file(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run(
                [
                    "analyze", str(tmp_path / "nope.csv"), str(tmp_path / "nah.csv"),
                    "--out", str(tmp_path / "o"),
                ]
            )
        assert e.value.code == 3

    def test_invalid_config(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=1, seed=14)
        with pytest.raises(SystemExit) as e:
            run(
                [
                    "analyze", x_csv, y_csv, "--out", str(tmp_path / "o"),
                    "--window", "2",
                ]
            )
        assert e.value.code == 4

    @pytest.mark.parametrize("command", ["analyze", "scan-temperature", "synth"])
    def test_out_that_is_a_file_exits_6(self, tmp_path, capsys, command):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=1, seed=18)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        argv = {
            "analyze": ["analyze", x_csv, y_csv],
            "scan-temperature": ["scan-temperature", x_csv, y_csv,
                                 "--temperatures", "1,2"],
            "synth": ["synth", "--n", "60"],
        }[command]
        with pytest.raises(SystemExit) as e:
            run(argv + ["--out", str(blocker)])
        assert e.value.code == 6
        assert capsys.readouterr().err.startswith("toplag: output: ")
        assert blocker.read_text() == "not a directory\n"

    def test_scan_run_directory_that_is_a_file_exits_6(self, tmp_path, capsys):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=1, seed=19)
        out = tmp_path / "sweep"
        out.mkdir()
        (out / "T_2").write_text("")
        with pytest.raises(SystemExit) as e:
            run(["scan-temperature", x_csv, y_csv, "--out", str(out),
                 "--temperatures", "1,2"])
        assert e.value.code == 6
        assert "T_2" in capsys.readouterr().err
        assert (out / "T_1" / "summary.json").exists()

    @pytest.mark.parametrize(
        "blocked, flags",
        [("landscape.csv", ["--dump-landscape"]), ("path.csv", []),
         ("energy_table.csv", ["--dump-energy-table"]), ("summary.json", [])],
    )
    def test_output_file_that_cannot_be_written_exits_6(
        self, tmp_path, capsys, blocked, flags
    ):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=40, k=1, seed=20)
        out = tmp_path / "run"
        (out / blocked).mkdir(parents=True)
        with pytest.raises(SystemExit) as e:
            run(["analyze", x_csv, y_csv, "--out", str(out), "--boundary-depth", "4"]
                + flags)
        assert e.value.code == 6
        assert capsys.readouterr().err.startswith("toplag: output: ")

    @pytest.mark.parametrize("temperature", ["2e307", "0"])
    def test_cost_overflow_exits_5(self, tmp_path, capsys, temperature):
        # Raw costs near 1e307 could overflow the scan's cost sums, and the
        # zero-temperature DP's path costs: a path-engine error, not a
        # crash, an underflow or a path picked among +inf ties.
        rng = np.random.default_rng(0)
        paths = []
        for name in ("x", "y"):
            paths.append(str(tmp_path / f"{name}.csv"))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                fh.write("time,value\n")
                for t, v in enumerate((1e307 * rng.standard_normal(40)).tolist()):
                    fh.write(f"{t},{v!r}\n")
        with pytest.raises(SystemExit) as e:
            run(["analyze", *paths, "--out", str(tmp_path / "o"), "--no-standardize",
                 "--temperature", temperature, "--boundary-depth", "5"])
        assert e.value.code == 5
        err = capsys.readouterr().err
        assert "toplag: path-engine: sums of landscape costs could overflow" in err
        assert "Traceback" not in err

    def test_negative_temperature_rejected(self, tmp_path):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=60, k=1, seed=15)
        with pytest.raises(SystemExit) as e:
            run(
                [
                    "analyze", x_csv, y_csv, "--out", str(tmp_path / "o"),
                    "--temperature", "-1",
                ]
            )
        assert e.value.code == 4

    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_temperature_is_config_error(self, tmp_path, capsys, t):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=40, k=1, seed=15)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as e:
            run(["analyze", x_csv, y_csv, "--out", str(out), "--temperature", t])
        assert e.value.code == 4
        assert capsys.readouterr().err.startswith("toplag: config: temperature")
        assert not out.exists()

    @pytest.mark.parametrize("temps", ["nan,1", "1,inf", "0,1"])
    def test_scan_temperature_not_finite_positive_is_config_error(
        self, tmp_path, capsys, temps
    ):
        x_csv, y_csv, _ = make_inputs(tmp_path, kind="constant", n=40, k=1, seed=15)
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as e:
            run(["scan-temperature", x_csv, y_csv, "--out", str(out),
                 "--temperatures", temps])
        assert e.value.code == 4
        assert capsys.readouterr().err.startswith(
            "toplag: config: scan temperatures must be finite and positive"
        )
        assert not out.exists()

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.5])
    def test_validate_requires_finite_nonnegative_temperature(self, t):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            AnalysisConfig("x.csv", "y.csv", "out", temperature=t).validate()
        AnalysisConfig("x.csv", "y.csv", "out", temperature=0.0).validate()


# The cell formatter and the row-wise writer as they stood before output
# went column at a time, kept verbatim as the reference for _write_csv.
def _reference_fmt(v):
    """Deterministic 12-significant-digit text for one CSV cell."""
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        v = float(v)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return f"{v:.12g}"
    return str(v)


def _reference_write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_reference_fmt(v) for v in row) + "\n")


def _reference_grid_text(pair):
    """Timestamps of the aligned grid as deterministic strings."""
    grid = pair.grid
    if not np.issubdtype(grid.dtype, np.datetime64):
        return [str(int(v)) for v in grid]
    ns = grid.astype("datetime64[ns]").astype(np.int64)
    unit = "s" if np.all(ns % 1_000_000_000 == 0) else "ns"
    return [np.datetime_as_string(v, unit=unit) for v in grid]


_INT64 = np.iinfo(np.int64)

_WRITER_COLUMNS = {
    "specials": [
        np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300, 1e300, -1e-300,
                  5e-324, 1.7976931348623157e308, 0.1, 1 / 3, -2.5e-7, 123456789012.5]),
    ],
    "negative_nan": [np.array([-np.nan, np.nan])],
    "float32": [np.array([0.1, np.nan, -np.inf, 3.4e38], dtype=np.float32)],
    "integers": [
        np.array([_INT64.min, -1, 0, 1, _INT64.max], dtype=np.int64),
        np.array([0, 7, 2**64 - 1], dtype=np.uint64)[[0, 1, 2, 2, 1]],
        np.array([-5, 0, 5, 6, 7], dtype=np.int32),
    ],
    "bools": [np.array([True, False, True]), [True, False, np.bool_(True)]],
    "str_labels": [
        ["0:0", "0:1", "1:0"],
        np.array(["2020-01-01T00:00:00", "a", "b"]),
        np.array([0.5, np.nan, np.inf]),
    ],
    "datetimes": [
        np.array(["2020-01-01T00:00:00", "2020-01-01T00:01:00.5"],
                 dtype="datetime64[ns]"),
        np.array(["2017-01-03", "2017-01-04"], dtype="datetime64[s]"),
    ],
    "mixed_sweep_rows": list(zip(
        (0.5, 2, 7.0, -0.0),
        (0, np.int64(3), 5, np.int64(-1)),
        (True, np.bool_(False), 1, 0),
        (float("nan"), float("inf"), np.float64(1e-300), np.float32(2.5)),
        ("x", np.str_("y"), None, 1e300),
    )),
    "empty": [np.empty(0), np.empty(0, dtype=np.int64), []],
    "two_d_columns": list(np.arange(12.0).reshape(3, 4).T / 7),
}


class TestOutputMatchesReference:
    """Column-at-a-time output gives the bytes the row-wise writer and the
    per-element grid formatter gave."""

    @pytest.mark.parametrize("case", sorted(_WRITER_COLUMNS))
    def test_file_bytes(self, tmp_path, case):
        columns = _WRITER_COLUMNS[case]
        header = [f"c{k}" for k in range(len(columns))]
        _write_csv(tmp_path / "got.csv", header, columns)
        _reference_write_csv(tmp_path / "want.csv", header, zip(*columns))
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize(
        "grid",
        [
            np.array([3, 5, 8, -2**40], dtype=np.int64)[[3, 0, 1, 2]],
            np.array(["2017-01-03T09:30", "2017-01-03T09:31"], dtype="datetime64[s]"),
            np.array(["2017-01-03", "2017-01-04"], dtype="datetime64[D]"),
            np.array(["2017-01-03T09:30:00", "2017-01-03T09:31:00"],
                     dtype="datetime64[ns]"),
            np.array(["1677-09-21T00:12:43.145225", "2017-01-03T09:30:00.000000001",
                      "2262-04-11T23:47:16.854775807"], dtype="datetime64[ns]"),
        ],
        ids=["int", "seconds", "days", "ns_whole_seconds", "ns"],
    )
    def test_grid_text(self, grid):
        pair = AlignedPair(x=np.arange(grid.size, dtype=float),
                           y=np.ones(grid.size), grid=grid)
        got = _grid_text(pair)
        want = _reference_grid_text(pair)
        assert [type(v) for v in got] == [str] * len(want)
        assert got == [str(v) for v in want]


class TestIngestExitCodes:
    def _write(self, path, header, stamps):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            fh.writelines(f"{t},{k % 7 * 0.5}\n" for k, t in enumerate(stamps))
        return str(path)

    def test_out_of_range_timestamp_exits_3(self, tmp_path, capsys):
        stamps = [f"2262-04-{d:02d}T00:00:00" for d in range(1, 31)]
        x = self._write(tmp_path / "x.csv", "time,value", stamps)
        argv = ["analyze", x, x, "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as e:
            run(argv)
        assert e.value.code == 3
        assert "row 12" in capsys.readouterr().err
        argv += ["--skip-bad-rows", "--temperature", "0", "--window", "5"]
        assert run(argv) == 0
        s = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert s["data"]["x_rows"] == 11 and s["data"]["x_skipped"] == 19

    def test_padded_header_names(self, tmp_path):
        stamps = list(range(40))
        x = self._write(tmp_path / "x.csv", "time , value", stamps)
        assert run(["analyze", x, x, "--out", str(tmp_path / "o")]) == 0
        s = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert s["data"]["n"] == 40


def _write_series(tmp_path, stamps, seed=0):
    """x.csv and y.csv with the given timestamp cells and random values."""
    rng = np.random.default_rng(seed)
    paths = []
    for name in ("x", "y"):
        paths.append(str(tmp_path / f"{name}.csv"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write("time,value\n")
            values = rng.normal(size=len(stamps)).tolist()
            fh.writelines(f"{t},{v!r}\n" for t, v in zip(stamps, values))
    return paths


class TestTimeBounds:
    """--start and --end are read by the CSV timestamp rules and must be of
    the aligned grid's time kind; a bound that is not exits 4."""

    MINUTES = [f"2020-01-01T{m // 60:02d}:{m % 60:02d}:00" for m in range(60)]

    def _analyze(self, tmp_path, paths, *flags):
        out = tmp_path / "o"
        code = run(["analyze", *paths, "--out", str(out), "--temperature", "0",
                    "--window", "5", *flags])
        return code, json.loads((out / "summary.json").read_text())

    def _refused(self, out, capsys, paths, *flags):
        with pytest.raises(SystemExit) as e:
            run(["analyze", *paths, "--out", str(out), *flags])
        assert e.value.code == 4
        assert capsys.readouterr().err.startswith("toplag: config: time bound ")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--start", "bogus"], ["--end", "2.5"],
                                       ["--start", "3", "--end", "1e3"]])
    def test_bound_that_does_not_parse_on_an_integer_grid(
        self, tmp_path, capsys, flags
    ):
        paths = _write_series(tmp_path, range(60))
        self._refused(tmp_path / "o", capsys, paths, *flags)

    @pytest.mark.parametrize("bound", ["5", "2020-01-01T00:10:00+25:00", "bogus"])
    def test_bound_of_the_wrong_kind_on_a_datetime_grid(
        self, tmp_path, capsys, bound
    ):
        paths = _write_series(tmp_path, self.MINUTES)
        self._refused(tmp_path / "o", capsys, paths, "--start", bound)

    @pytest.mark.parametrize("bound", ["2020", "2020-01"])
    def test_year_and_month_bounds_are_refused_on_a_datetime_grid(
        self, tmp_path, capsys, bound
    ):
        # A datetime bound is a full ISO date or datetime: "2020" reads as an
        # integer and "2020-01" does not parse.
        paths = _write_series(tmp_path, self.MINUTES)
        self._refused(tmp_path / "o", capsys, paths, "--start", bound)

    def test_datetime_bounds_convert_offsets_to_utc(self, tmp_path):
        paths = _write_series(tmp_path, self.MINUTES)
        code, s = self._analyze(
            tmp_path, paths,
            "--start", "2020-01-01T01:10:00+01:00",
            "--end", "2019-12-31T19:39:00-05:00",
        )
        assert code == 0 and s["data"]["n"] == 30

    def test_bounds_follow_the_time_format(self, tmp_path, capsys):
        stamps = [f"01/01/2020 00h{m:02d}" for m in range(60)]
        paths = _write_series(tmp_path, stamps)
        fmt = ["--time-format", "%d/%m/%Y %Hh%M"]
        code, s = self._analyze(tmp_path, paths, *fmt, "--start", "01/01/2020 00h20")
        assert code == 0 and s["data"]["n"] == 40
        self._refused(tmp_path / "o2", capsys, paths, *fmt, "--end", "2020-01-01T00:20")

    def test_integer_bounds_still_filter(self, tmp_path):
        paths = _write_series(tmp_path, range(100, 160))
        code, s = self._analyze(tmp_path, paths, "--start", " 110", "--end", "139")
        assert code == 0 and s["data"]["n"] == 30


class TestConfigThatDependsOnTheData:
    """Settings that only the loaded series can refute exit 4, before any
    engine runs."""

    @pytest.mark.parametrize("depth", ["40", "41"])
    def test_boundary_depth_at_or_above_the_aligned_length(
        self, tmp_path, capsys, depth
    ):
        paths = _write_series(tmp_path, range(40))
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as e:
            run(["analyze", *paths, "--out", str(out), "--boundary-depth", depth])
        assert e.value.code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"toplag: config: boundary depth {depth}")
        assert not out.exists()
        # The zero-temperature path has no boundary fan.
        assert run(["analyze", *paths, "--out", str(out), "--temperature", "0",
                    "--boundary-depth", depth]) == 0

    def test_boundary_depth_against_the_filtered_length(self, tmp_path, capsys):
        paths = _write_series(tmp_path, range(60))
        with pytest.raises(SystemExit) as e:
            run(["analyze", *paths, "--out", str(tmp_path / "o"), "--start", "30",
                 "--boundary-depth", "30"])
        assert e.value.code == 4
        assert "(n=30)" in capsys.readouterr().err

    def test_scan_boundary_depth_at_the_aligned_length(self, tmp_path, capsys):
        paths = _write_series(tmp_path, range(40))
        out = tmp_path / "s"
        with pytest.raises(SystemExit) as e:
            run(["scan-temperature", *paths, "--out", str(out),
                 "--temperatures", "1,2", "--boundary-depth", "40"])
        assert e.value.code == 4
        assert capsys.readouterr().err.startswith("toplag: config: boundary depth 40")
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    @pytest.mark.parametrize(
        "nodes",
        [["--end", "7,7"], ["--start", "0,-1"], ["--start", "7,0"],
         ["--start", "3,3", "--end", "2,6"], ["--start", "2,4", "--end", "5,3"]],
    )
    def test_oracle_nodes_outside_the_lattice_or_out_of_order(
        self, capsys, mode, nodes
    ):
        with pytest.raises(SystemExit) as e:
            run(["oracle", "--size", "7", "--mode", mode, *nodes])
        assert e.value.code == 4
        assert capsys.readouterr().err.startswith("toplag: config: start (")
