"""CSV intake, clock alignment, and normalization."""

import csv
from datetime import datetime, timezone

import numpy as np
import pytest

from toplag.errors import (
    ColumnMissingError,
    EmptyIntersectionError,
    EmptySeriesError,
    IngestError,
    MalformedRowError,
    NonMonotoneTimestampsError,
    ZeroVarianceError,
)
from toplag.ingest import (
    TIME_KIND_DATETIME,
    TIME_KIND_INT,
    AlignedPair,
    RawSeries,
    _check_increasing,
    parse_csv,
    slice_pair,
    standardize,
    synchronize,
)


class TestParseCsv:
    def test_three_rows(self, tmp_csv):
        p = tmp_csv("a.csv", ["1,6.0488", "2,6.0500", "3,6.0600"])
        s = parse_csv(p, "time", "value")
        assert s.timestamps.tolist() == [1, 2, 3]
        assert s.values.tolist() == [6.0488, 6.05, 6.06]
        assert s.n == 3

    def test_duplicate_timestamp_names_offending_row(self, tmp_csv):
        rows = [f"{t},1.0" for t in [1, 2, 3, 4]] + ["4,2.0", "5,1.0"]
        p = tmp_csv("a.csv", rows)
        with pytest.raises(NonMonotoneTimestampsError) as e:
            parse_csv(p, "time", "value")
        assert e.value.row == 5

    def test_bad_value_fails_with_row_number(self, tmp_csv):
        p = tmp_csv("a.csv", ["1,1.0", "2,NA", "3,3.0"])
        with pytest.raises(MalformedRowError) as e:
            parse_csv(p, "time", "value")
        assert e.value.row == 2

    def test_skip_bad_rows_drops_and_counts(self, tmp_csv):
        p = tmp_csv("a.csv", ["1,1.0", "2,NA", "3,3.0"])
        s = parse_csv(p, "time", "value", skip_bad_rows=True)
        assert s.n == 2
        assert s.skipped_rows == 1
        assert s.timestamps.tolist() == [1, 3]

    def test_non_finite_value_rejected(self, tmp_csv):
        p = tmp_csv("a.csv", ["1,1.0", "2,inf"])
        with pytest.raises(MalformedRowError):
            parse_csv(p, "time", "value")

    def test_missing_column(self, tmp_csv):
        p = tmp_csv("a.csv", ["1,1.0"], header="time,price")
        with pytest.raises(ColumnMissingError):
            parse_csv(p, "time", "value")

    def test_single_row_rejected(self, tmp_csv):
        p = tmp_csv("a.csv", ["1,1.0"])
        with pytest.raises(EmptySeriesError):
            parse_csv(p, "time", "value")

    def test_iso_timestamps(self, tmp_csv):
        p = tmp_csv(
            "a.csv",
            ["2017-01-03T09:30:00,6.1", "2017-01-03T09:31:00,6.2"],
        )
        s = parse_csv(p, "time", "value")
        assert s.time_kind == "datetime"
        assert s.n == 2

    def test_mixed_timestamp_kinds_rejected(self, tmp_csv):
        p = tmp_csv("a.csv", ["1,6.1", "2017-01-03,6.2"])
        with pytest.raises(MalformedRowError):
            parse_csv(p, "time", "value")

    def test_explicit_time_format(self, tmp_csv):
        p = tmp_csv("a.csv", ["03/01/2017,6.1", "04/01/2017,6.2"])
        s = parse_csv(p, "time", "value", time_format="%d/%m/%Y")
        assert s.n == 2

    def test_header_names_matched_after_stripping(self, tmp_csv):
        p = tmp_csv("a.csv", ["1, 6.1", "2, 6.2"], header=" time , value")
        s = parse_csv(p, "time", "value")
        assert s.timestamps.tolist() == [1, 2]
        assert s.values.tolist() == [6.1, 6.2]

    def test_repeated_header_name_last_column_wins(self, tmp_csv):
        p = tmp_csv("a.csv", ["1,9.0,6.1", "2,9.0,6.2"], header="time,value, value")
        s = parse_csv(p, "time", "value")
        assert s.values.tolist() == [6.1, 6.2]

    def test_row_short_of_the_last_repeated_column(self, tmp_csv):
        p = tmp_csv("a.csv", ["1,6.1,7", "2,6.2"], header="time,value,value")
        with pytest.raises(MalformedRowError) as e:
            parse_csv(p, "time", "value")
        assert e.value.row == 2
        assert "short row" in str(e.value)


# datetime64[ns] holds 1677-09-21T00:12:43.145224193 .. 2262-04-11T23:47:16.854775807.
_FIRST_NS = "1677-09-21T00:12:43.145225"
_BEFORE_FIRST_NS = "1677-09-21T00:12:43.145224"
_LAST_NS = "2262-04-11T23:47:16.854775"
_AFTER_LAST_NS = "2262-04-11T23:47:16.854776"


class TestTimestampRange:
    def test_first_and_last_representable_instants_kept(self, tmp_csv):
        p = tmp_csv("a.csv", [f"{_FIRST_NS},1.0", f"{_LAST_NS},2.0"])
        s = parse_csv(p, "time", "value")
        assert s.timestamps.dtype == np.dtype("datetime64[ns]")
        assert s.timestamps.tolist() == [
            np.datetime64(_FIRST_NS, "ns").astype(np.int64),
            np.datetime64(_LAST_NS, "ns").astype(np.int64),
        ]
        assert np.datetime_as_string(s.timestamps, unit="us").tolist() == [
            _FIRST_NS, _LAST_NS,
        ]

    @pytest.mark.parametrize("stamp", [_BEFORE_FIRST_NS, _AFTER_LAST_NS,
                                       "2300-01-01T00:00:00", "0001-01-01"])
    def test_outside_the_range_is_a_malformed_row(self, tmp_csv, stamp):
        rows = ["2000-01-01T00:00:00,1.0", f"{stamp},2.0", "2000-01-03T00:00:00,3.0"]
        if stamp < "2000":
            rows = [rows[1], rows[0], rows[2]]
        p = tmp_csv("a.csv", rows)
        with pytest.raises(MalformedRowError) as e:
            parse_csv(p, "time", "value")
        assert e.value.row == (1 if stamp < "2000" else 2)
        assert "datetime64[ns] range" in str(e.value)
        s = parse_csv(p, "time", "value", skip_bad_rows=True)
        assert s.n == 2 and s.skipped_rows == 1

    def test_offset_moving_a_stamp_out_of_range(self, tmp_csv):
        # in range as written, out of range once converted to UTC
        p = tmp_csv("a.csv", ["2262-04-11T20:00:00-05:00,1.0", "2262-04-12,2.0"])
        with pytest.raises(MalformedRowError) as e:
            parse_csv(p, "time", "value")
        assert e.value.row == 1

    @pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+08:00",
                                       "9999-12-31T23:00:00-05:00"])
    def test_offset_past_the_datetime_range_is_a_malformed_row(self, tmp_csv, stamp):
        # converting to UTC overflows Python's own datetime range
        p = tmp_csv("a.csv", ["2000-01-01,1.0", f"{stamp},2.0", "2000-01-03,3.0"])
        with pytest.raises(MalformedRowError) as e:
            parse_csv(p, "time", "value")
        assert e.value.row == 2
        assert parse_csv(p, "time", "value", skip_bad_rows=True).skipped_rows == 1

    def test_integer_outside_int64_is_a_malformed_row(self, tmp_csv):
        p = tmp_csv("a.csv", ["1,1.0", "2,2.0", f"{2**63},3.0"])
        with pytest.raises(MalformedRowError) as e:
            parse_csv(p, "time", "value")
        assert e.value.row == 3
        s = parse_csv(p, "time", "value", skip_bad_rows=True)
        assert s.timestamps.tolist() == [1, 2]
        p = tmp_csv("b.csv", [f"{-2**63},1.0", f"{2**63 - 1},2.0"])
        assert parse_csv(p, "time", "value").timestamps.tolist() == [-2**63, 2**63 - 1]


# The row-wise parser as it stood before reading went column-indexed, kept
# verbatim as the reference the current parser must match.
def _reference_parse_timestamp(text, time_format):
    """One timestamp cell -> (kind, value). Integers stay integers; everything
    else must be ISO 8601 unless an explicit strptime format is given."""
    text = text.strip()
    if time_format is not None:
        dt = datetime.strptime(text, time_format)
    else:
        try:
            return TIME_KIND_INT, int(text)
        except ValueError:
            pass
        iso = text.replace("Z", "+00:00") if text.endswith("Z") else text
        dt = datetime.fromisoformat(iso)
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return TIME_KIND_DATETIME, np.datetime64(dt, "ns")


def _reference_parse_csv(
    path,
    time_col,
    value_col,
    time_format=None,
    skip_bad_rows=False,
    label=None,
):
    """Read one series from a headered CSV file.

    Rows whose timestamp or value fails to parse (or whose value is not
    finite) raise MalformedRowError naming the 1-based data row, unless
    skip_bad_rows is set, in which case they are counted and dropped.
    Timestamps must be strictly increasing and of one consistent kind
    (all integers or all datetimes).
    """
    times = []
    values = []
    kept_rows = []
    skipped = 0
    kind = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise EmptySeriesError(f"{path}: no header row")
        fields = [name.strip() for name in reader.fieldnames]
        for col in (time_col, value_col):
            if col not in fields:
                raise ColumnMissingError(col, path=str(path))
        for row_no, row in enumerate(reader, start=1):
            raw_t = row.get(time_col)
            raw_v = row.get(value_col)
            try:
                if raw_t is None or raw_v is None:
                    raise ValueError("short row")
                row_kind, t = _reference_parse_timestamp(raw_t, time_format)
                if kind is None:
                    kind = row_kind
                elif row_kind != kind:
                    raise ValueError(
                        f"timestamp kind flipped from {kind} to {row_kind}"
                    )
                v = float(raw_v)
                if not np.isfinite(v):
                    raise ValueError(f"non-finite value {raw_v!r}")
            except ValueError as exc:
                if skip_bad_rows:
                    skipped += 1
                    continue
                raise MalformedRowError(row_no, str(exc), path=str(path)) from None
            times.append(t)
            values.append(v)
            kept_rows.append(row_no)
    if len(values) < 2:
        raise EmptySeriesError(f"{path}: fewer than two usable rows")
    if kind == TIME_KIND_DATETIME:
        ts = np.array(times, dtype="datetime64[ns]")
    else:
        ts = np.array(times, dtype=np.int64)
    _check_increasing(ts, row_numbers=kept_rows, path=str(path))
    return RawSeries(
        timestamps=ts,
        values=np.array(values, dtype=np.float64),
        label=label if label is not None else value_col,
        time_format=time_format,
        skipped_rows=skipped,
    )


def _outcome(parse, path, **kw):
    """Everything a parse shows a caller: the series' bytes or the error."""
    try:
        s = parse(path, "time", "value", **kw)
    except IngestError as exc:
        return type(exc), getattr(exc, "row", None), str(exc)
    return (
        s.timestamps.dtype,
        s.timestamps.tobytes(),
        s.values.tobytes(),
        s.skipped_rows,
        s.label,
        s.time_format,
    )


_MINUTES = [f"2017-01-03T09:{m:02d}:00" for m in range(30, 60)]

_PARSER_CASES = {
    "integer": (["1,6.0488", "2,6.05", "3,-0.0", "10,1e-300", "11,1e300"], {}),
    "iso": ([f"{t},{k * 0.1}" for k, t in enumerate(_MINUTES)], {}),
    "iso_date_only": (["2017-01-03,1.0", "2017-01-04,2.0"], {}),
    "trailing_z": (
        ["2017-01-03T09:30:00Z,1.0", "2017-01-03T09:31:00Z,2.0"], {}),
    "offset": (
        ["2017-01-03T09:30:00+08:00,1.0", "2017-01-03T01:31:00Z,2.0",
         "2017-01-03T09:32:00.5+08:00,3.0"], {}),
    "fractional_seconds": (
        ["2017-01-03T09:30:00.000001,1.0", "2017-01-03T09:30:00.25,2.0",
         "2017-01-03T09:30:01.123456,3.0"], {}),
    "padded_cells": ([" 1 , 2.5 ", "\t2\t,3.5"], {}),
    "time_format": (
        ["03/01/2017 09:30,6.1", "03/01/2017 09:31,6.2", "04/01/2017 00:00,6.3"],
        {"time_format": "%d/%m/%Y %H:%M"}),
    "time_format_mismatch": (
        ["03/01/2017,6.1", "2017-01-04,6.2"], {"time_format": "%d/%m/%Y"}),
    "blank_lines": (["", "1,1.0", "", "", "2,NA", "3,3.0"], {}),
    "blank_lines_skipped": (
        ["", "1,1.0", "", "2,NA", "", "3,3.0"], {"skip_bad_rows": True}),
    "short_row": (["1,1.0", "2", "3,3.0"], {}),
    "short_row_skipped": (["1,1.0", "2", "3,3.0"], {"skip_bad_rows": True}),
    "long_row": (["1,1.0,extra", "2,2.0"], {}),
    "kind_flip": (["1,6.1", "2017-01-03,6.2"], {}),
    "kind_flip_back": (["2017-01-03,6.1", "5,6.2"], {}),
    "kind_flip_skipped": (
        ["1,6.1", "2017-01-03,6.2", "3,6.3"], {"skip_bad_rows": True}),
    "nan_value": (["1,1.0", "2,nan", "3,3.0"], {}),
    "inf_value": (["1,1.0", "2,-inf"], {}),
    "infinity_word": (["1,1.0", "2,Infinity"], {}),
    "huge_value": (["1,1.0", "2,1e400"], {}),
    "non_finite_skipped": (
        ["1,1.0", "2,nan", "3,inf", "4,4.0"], {"skip_bad_rows": True}),
    "bad_timestamp": (["1,1.0", "yesterday,2.0"], {}),
    "duplicate": (["1,1.0", "2,2.0", "2,3.0"], {}),
    "decreasing_after_skip": (
        ["1,1.0", "x,0", "3,3.0", "2,4.0"], {"skip_bad_rows": True}),
    "one_row_left": (["1,1.0", "2,NA"], {"skip_bad_rows": True}),
    "quoted": (['"1","1.5"', '"2","2,5"'], {}),
    "no_rows": ([], {}),
}


class TestParseCsvMatchesReference:
    """parse_csv gives what the row-wise DictReader parser gave, down to the
    bytes of the arrays and the text of the error."""

    @pytest.mark.parametrize("case", sorted(_PARSER_CASES))
    def test_case(self, tmp_csv, case):
        rows, kw = _PARSER_CASES[case]
        p = tmp_csv("a.csv", rows)
        got = _outcome(parse_csv, p, **kw)
        assert got == _outcome(_reference_parse_csv, p, **kw)

    @pytest.mark.parametrize("header", ["time,price", "", "value,time"])
    def test_headers(self, tmp_path, header):
        p = tmp_path / "a.csv"
        p.write_text(f"{header}\n1,1.0\n2,2.0\n", encoding="utf-8")
        got = _outcome(parse_csv, str(p))
        assert got == _outcome(_reference_parse_csv, str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("", encoding="utf-8")
        assert _outcome(parse_csv, str(p)) == _outcome(_reference_parse_csv, str(p))

    def test_minute_series(self, tmp_path):
        values = np.random.default_rng(7).normal(size=3000).tolist()
        start = np.datetime64("2020-01-01T00:00", "m")
        stamps = start + np.arange(3000).astype("timedelta64[m]")
        p = tmp_path / "a.csv"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write("time,value\n")
            fh.writelines(f"{s}:00,{v!r}\n" for s, v in zip(stamps, values))
        got = _outcome(parse_csv, str(p))
        assert got == _outcome(_reference_parse_csv, str(p))
        assert got[0] == np.dtype("datetime64[ns]")


class TestSynchronize:
    def _series(self, times, values, label="s"):
        return RawSeries(
            timestamps=np.asarray(times),
            values=np.asarray(values, dtype=np.float64),
            label=label,
        )

    def test_intersection_keeps_common_instants(self):
        a = self._series([1, 2, 3, 4], [10, 20, 30, 40])
        b = self._series([2, 3, 5], [2, 3, 5])
        pair = synchronize(a, b)
        assert pair.grid.tolist() == [2, 3]
        assert pair.x.tolist() == [20, 30]
        assert pair.y.tolist() == [2, 3]

    def test_identical_grids_pass_values_through(self):
        a = self._series([1, 2, 3], [1.0, 2.0, 3.0])
        b = self._series([1, 2, 3], [9.0, 8.0, 7.0])
        pair = synchronize(a, b)
        assert pair.n == 3
        assert np.array_equal(pair.x, a.values)
        assert np.array_equal(pair.y, b.values)

    def test_no_overlap_rejected(self):
        a = self._series([1, 2], [1.0, 2.0])
        b = self._series([3, 4], [3.0, 4.0])
        with pytest.raises(EmptyIntersectionError):
            synchronize(a, b)

    def test_sample_at_grid_takes_last_at_or_before(self):
        # minute-resolution series sampled at one instant per day
        a = self._series([100, 101, 102, 200, 201, 300], [1, 2, 3, 4, 5, 6])
        b = self._series([100, 150, 250, 299], [10, 20, 30, 40])
        pair = synchronize(a, b, policy="sample", grid=[102, 202, 301])
        assert pair.grid.tolist() == [102, 202, 301]
        assert pair.x.tolist() == [3, 5, 6]
        assert pair.y.tolist() == [10, 20, 40]

    def test_sample_grid_before_first_observation_dropped(self):
        a = self._series([10, 20], [1.0, 2.0])
        b = self._series([5, 20, 30], [0.5, 2.5, 3.5])
        pair = synchronize(a, b, policy="sample", grid=[1, 10, 25])
        assert pair.grid.tolist() == [10, 25]

    def test_sample_requires_grid(self):
        a = self._series([1, 2], [1.0, 2.0])
        with pytest.raises(IngestError):
            synchronize(a, a, policy="sample")

    def test_unknown_policy(self):
        a = self._series([1, 2], [1.0, 2.0])
        with pytest.raises(IngestError):
            synchronize(a, a, policy="outer")

    def test_idempotent_on_aligned_pair(self):
        a = self._series([1, 3, 5, 9], [1.0, 2.0, 3.0, 4.0])
        b = self._series([1, 3, 5, 9], [5.0, 6.0, 7.0, 8.0])
        once = synchronize(a, b)
        again = synchronize(
            self._series(once.grid, once.x), self._series(once.grid, once.y)
        )
        assert np.array_equal(once.grid, again.grid)
        assert np.array_equal(once.x, again.x)
        assert np.array_equal(once.y, again.y)

    def test_grid_is_subsequence_of_inputs(self):
        rng = np.random.default_rng(0)
        ta = np.unique(rng.integers(0, 60, size=30))
        tb = np.unique(rng.integers(0, 60, size=30))
        a = self._series(ta, rng.normal(size=ta.size))
        b = self._series(tb, rng.normal(size=tb.size))
        pair = synchronize(a, b)
        assert np.all(np.isin(pair.grid, ta))
        assert np.all(np.isin(pair.grid, tb))

    def test_mixed_time_kinds_rejected(self):
        a = self._series([1, 2], [1.0, 2.0])
        b = RawSeries(
            timestamps=np.array(["2017-01-01", "2017-01-02"], dtype="datetime64[s]"),
            values=np.array([1.0, 2.0]),
            label="b",
        )
        with pytest.raises(IngestError):
            synchronize(a, b)


class TestStandardize:
    def test_three_point_analytic(self):
        pair = AlignedPair(x=np.array([1.0, 2.0, 3.0]), y=np.array([4.0, 5.0, 6.0]))
        out = standardize(pair)
        assert np.allclose(out.x, [-1.0, 0.0, 1.0])
        assert np.allclose(out.y, [-1.0, 0.0, 1.0])
        assert out.normalization == "standardized"
        assert float(np.std(out.x, ddof=1)) == pytest.approx(1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        pair = AlignedPair(x=rng.normal(2, 7, 50), y=rng.normal(-4, 0.1, 50))
        once = standardize(pair)
        twice = standardize(once)
        assert np.allclose(once.x, twice.x, atol=1e-12)
        assert np.allclose(once.y, twice.y, atol=1e-12)

    def test_constant_series_rejected(self):
        pair = AlignedPair(x=np.ones(10), y=np.arange(10.0))
        with pytest.raises(ZeroVarianceError):
            standardize(pair)


class TestAlignedPair:
    def test_length_mismatch_rejected(self):
        with pytest.raises(IngestError):
            AlignedPair(x=np.arange(3.0), y=np.arange(4.0))

    def test_non_finite_rejected(self):
        with pytest.raises(IngestError):
            AlignedPair(x=np.array([1.0, np.nan]), y=np.arange(2.0))

    def test_default_grid_is_index(self):
        pair = AlignedPair(x=np.arange(5.0), y=np.arange(5.0))
        assert pair.grid.tolist() == [0, 1, 2, 3, 4]

    def test_slice_by_grid_value(self):
        pair = AlignedPair(
            x=np.arange(10.0), y=np.arange(10.0), grid=np.arange(100, 110)
        )
        cut = slice_pair(pair, start=103, end=106)
        assert cut.grid.tolist() == [103, 104, 105, 106]
        assert cut.x.tolist() == [3.0, 4.0, 5.0, 6.0]

    def test_slice_to_nothing_rejected(self):
        pair = AlignedPair(x=np.arange(5.0), y=np.arange(5.0))
        with pytest.raises(EmptyIntersectionError):
            slice_pair(pair, start=100)
