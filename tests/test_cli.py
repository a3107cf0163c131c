"""Command-line pipeline: outputs, schemas, determinism, exit codes."""

import csv
import json
import math
import os

import numpy as np
import pytest

from toplag.cli import _grid_text, _write_csv, main
from toplag.ingest import AlignedPair


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
        out = tmp_path / "run"
        assert run(["analyze", x_csv, y_csv, "--out", str(out)]) == 0
        cfg = json.loads((out / "summary.json").read_text())["config"]
        for key in (
            "temperature", "distance", "mode", "boundary_depth", "window",
            "alpha", "standardize", "memory_budget",
        ):
            assert key in cfg


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

    def test_size_bounds(self):
        with pytest.raises(SystemExit) as e:
            run(["oracle", "--size", "11"])
        assert e.value.code == 4


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
