"""Loading, aligning, and normalizing the two input series.

CSV rows become a RawSeries (strictly increasing timestamps, finite values).
Two RawSeries are then synchronized onto a common clock, either by timestamp
intersection or by sampling both onto an explicit grid with last-observation-
carried-forward, producing the AlignedPair consumed by the lattice machinery.
"""

import csv
import math
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import (
    ColumnMissingError,
    EmptyIntersectionError,
    EmptySeriesError,
    IngestError,
    MalformedRowError,
    NonMonotoneTimestampsError,
    ZeroVarianceError,
)

TIME_KIND_INT = "int"
TIME_KIND_DATETIME = "datetime"


def _check_increasing(timestamps, row_numbers=None, path=""):
    t = np.asarray(timestamps)
    if t.size < 2:
        return
    bad = np.nonzero(t[1:] <= t[:-1])[0]
    if bad.size:
        idx = int(bad[0]) + 1  # position of the offending element
        row = int(row_numbers[idx]) if row_numbers is not None else idx + 1
        dup = t[idx] == t[idx - 1]
        detail = "duplicated timestamp" if dup else "timestamp not strictly increasing"
        raise NonMonotoneTimestampsError(row=row, detail=detail, path=path)


@dataclass
class RawSeries:
    """One parsed series: strictly increasing timestamps with finite values."""

    timestamps: np.ndarray
    values: np.ndarray
    label: str = ""
    time_format: str | None = None
    skipped_rows: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.timestamps = np.asarray(self.timestamps)
        if self.timestamps.ndim != 1 or self.timestamps.shape != self.values.shape:
            raise IngestError("timestamps and values must be 1-d and equally long")
        if self.values.size < 2:
            raise EmptySeriesError(
                f"series {self.label!r} has fewer than two usable rows"
            )
        if not np.all(np.isfinite(self.values)):
            raise IngestError(f"series {self.label!r} contains non-finite values")
        _check_increasing(self.timestamps)

    @property
    def n(self):
        return self.values.size

    @property
    def time_kind(self):
        return (
            TIME_KIND_DATETIME
            if np.issubdtype(self.timestamps.dtype, np.datetime64)
            else TIME_KIND_INT
        )


# datetime64[ns] holds int64 nanoseconds since 1970, the int64 minimum being
# NaT; these are the first and last microsecond datetimes it can hold, and
# their values in it.
_EPOCH = datetime(1970, 1, 1)
_NS_MIN = datetime(1677, 9, 21, 0, 12, 43, 145225)
_NS_MAX = datetime(2262, 4, 11, 23, 47, 16, 854775)
_NS_LO, _NS_HI = -9_223_372_036_854_775_000, 9_223_372_036_854_775_000
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# parse_csv's kept-row record: int64 timestamp, float64 value, int64 row.
_ROW = struct.Struct("<qdq")
_ROW_DTYPE = np.dtype([("t", "<i8"), ("v", "<f8"), ("row", "<i8")])


def _parse_timestamp(text, time_format):
    """One timestamp cell -> (kind, int). Integers stay integers; everything
    else must be ISO 8601 unless an explicit strptime format is given, and
    comes back as its datetime64[ns] value: nanoseconds since 1970 in UTC.
    Either kind must fit in 64 bits."""
    text = text.strip()
    if time_format is not None:
        dt = datetime.strptime(text, time_format)
    else:
        # int() rejects any text holding ":", and a failed int() costs more
        # than the ISO parse, so only texts without one are tried.
        if ":" not in text:
            try:
                t = int(text)
            except ValueError:
                pass
            else:
                if not _INT64_MIN <= t <= _INT64_MAX:
                    raise ValueError(f"timestamp {text!r} outside the int64 range")
                return TIME_KIND_INT, t
        iso = text.replace("Z", "+00:00") if text.endswith("Z") else text
        dt = datetime.fromisoformat(iso)
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    td = dt - _EPOCH  # exact, in whole microseconds
    ns = ((td.days * 86400 + td.seconds) * 1_000_000 + td.microseconds) * 1000
    if not _NS_LO <= ns <= _NS_HI:
        raise ValueError(
            f"timestamp {text!r} outside the datetime64[ns] range "
            f"{_NS_MIN.isoformat()} to {_NS_MAX.isoformat()}"
        )
    return TIME_KIND_DATETIME, ns


def _column(fields, col):
    """Index of a header name; the last one wins when a name repeats."""
    return len(fields) - 1 - fields[::-1].index(col)


def parse_csv(
    path,
    time_col,
    value_col,
    time_format=None,
    skip_bad_rows=False,
    label=None,
):
    """Read one series from a headered CSV file.

    Header names are matched after stripping surrounding whitespace. Rows
    whose timestamp or value fails to parse (or whose value is not finite,
    or whose datetime falls outside 1677-09-21 .. 2262-04-11) raise
    MalformedRowError naming the 1-based data row, unless skip_bad_rows is
    set, in which case they are counted and dropped. Blank lines are not
    data rows. Timestamps must be strictly increasing and of one consistent
    kind (all integers or all datetimes).

    Each kept row is packed, as it is read, into one 24-byte record of a
    growing buffer: its timestamp as an int64 (a datetime as its
    nanoseconds since 1970), its value and its data row number. No Python
    object outlives its row, so the parse peaks at about 40 bytes per row:
    the records plus the two arrays copied out of them.
    """
    rows = bytearray()
    pack = _ROW.pack
    skipped = 0
    kind = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise EmptySeriesError(f"{path}: no header row")
        fields = [name.strip() for name in header]
        for col in (time_col, value_col):
            if col not in fields:
                raise ColumnMissingError(col, path=str(path))
        ti = _column(fields, time_col)
        vi = _column(fields, value_col)
        width = max(ti, vi) + 1
        row_no = 0
        for row in reader:
            if not row:
                continue
            row_no += 1
            try:
                if len(row) < width:
                    raise ValueError("short row")
                row_kind, t = _parse_timestamp(row[ti], time_format)
                if kind is None:
                    kind = row_kind
                elif row_kind != kind:
                    raise ValueError(
                        f"timestamp kind flipped from {kind} to {row_kind}"
                    )
                raw_v = row[vi]
                v = float(raw_v)
                if not math.isfinite(v):
                    raise ValueError(f"non-finite value {raw_v!r}")
            # astimezone raises OverflowError near year 1 and year 9999
            except (ValueError, OverflowError) as exc:
                if skip_bad_rows:
                    skipped += 1
                    continue
                raise MalformedRowError(row_no, str(exc), path=str(path)) from None
            rows += pack(t, v, row_no)
    kept = np.frombuffer(rows, dtype=_ROW_DTYPE)
    if kept.size < 2:
        raise EmptySeriesError(f"{path}: fewer than two usable rows")
    ts = kept["t"].astype("M8[ns]" if kind == TIME_KIND_DATETIME else np.int64)
    _check_increasing(ts, row_numbers=kept["row"], path=str(path))
    return RawSeries(
        timestamps=ts,
        values=kept["v"].copy(),
        label=label if label is not None else value_col,
        time_format=time_format,
        skipped_rows=skipped,
    )


@dataclass
class AlignedPair:
    """Two series on a shared clock, ready for landscape construction."""

    x: np.ndarray
    y: np.ndarray
    grid: np.ndarray | None = None
    normalization: str = "raw"
    x_label: str = "x"
    y_label: str = "y"
    time_format: str | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise IngestError("aligned series must be 1-d and equally long")
        if self.x.size < 2:
            raise EmptySeriesError("aligned pair has fewer than two samples")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise IngestError("aligned series contain non-finite values")
        if self.grid is None:
            self.grid = np.arange(self.x.size, dtype=np.int64)
        else:
            self.grid = np.asarray(self.grid)
            if self.grid.shape != self.x.shape:
                raise IngestError("grid must match series length")
            _check_increasing(self.grid)

    @property
    def n(self):
        return self.x.size

    @property
    def time_kind(self):
        return (
            TIME_KIND_DATETIME
            if np.issubdtype(self.grid.dtype, np.datetime64)
            else TIME_KIND_INT
        )


def synchronize(a, b, policy="intersect", grid=None):
    """Put two RawSeries onto a common clock.

    policy "intersect" keeps instants present in both series. policy "sample"
    evaluates both series on the supplied grid, carrying the last observation
    forward; grid instants earlier than either series' first observation are
    dropped.
    """
    if a.time_kind != b.time_kind:
        raise IngestError(
            f"cannot synchronize {a.time_kind} timestamps with {b.time_kind}"
        )
    if policy == "intersect":
        common, ia, ib = np.intersect1d(
            a.timestamps, b.timestamps, assume_unique=True, return_indices=True
        )
        if common.size < 2:
            raise EmptyIntersectionError(
                "series share fewer than two common time instants"
            )
        x = a.values[ia]
        y = b.values[ib]
        out_grid = common
    elif policy == "sample":
        if grid is None:
            raise IngestError("policy 'sample' requires a grid")
        out_grid = np.asarray(grid)
        if out_grid.ndim != 1:
            raise IngestError("grid must be 1-d")
        _check_increasing(out_grid)
        ia = np.searchsorted(a.timestamps, out_grid, side="right") - 1
        ib = np.searchsorted(b.timestamps, out_grid, side="right") - 1
        ok = (ia >= 0) & (ib >= 0)
        if np.count_nonzero(ok) < 2:
            raise EmptyIntersectionError(
                "grid has fewer than two instants covered by both series"
            )
        out_grid = out_grid[ok]
        x = a.values[ia[ok]]
        y = b.values[ib[ok]]
    else:
        raise IngestError(f"unknown synchronization policy {policy!r}")
    return AlignedPair(
        x=x,
        y=y,
        grid=out_grid,
        normalization="raw",
        x_label=a.label or "x",
        y_label=b.label or "y",
        time_format=a.time_format or b.time_format,
    )


def standardize(pair):
    """Return the pair rescaled to zero mean, unit sample variance per series."""
    out = []
    for values, label in ((pair.x, pair.x_label), (pair.y, pair.y_label)):
        sd = float(np.std(values, ddof=1))
        if sd == 0.0 or not np.isfinite(sd):
            raise ZeroVarianceError(label)
        out.append((values - values.mean()) / sd)
    return AlignedPair(
        x=out[0],
        y=out[1],
        grid=pair.grid.copy(),
        normalization="standardized",
        x_label=pair.x_label,
        y_label=pair.y_label,
        time_format=pair.time_format,
    )


def slice_pair(pair, start=None, end=None):
    """Restrict an aligned pair to grid instants within [start, end].

    A bound given as text is read by the CSV timestamp rules (the pair's
    time_format, offsets converted to UTC) and must be of the grid's time
    kind; one that does not parse or is of the other kind raises ValueError.
    So a datetime bound is a full ISO 8601 date or datetime, or follows the
    time_format: "2020" is an integer and "2020-01" does not parse. Other
    bounds are converted to the grid's type; on an integer grid a fractional
    start rounds up and a fractional end down, and a bound with no integer
    value (nan, inf) raises ValueError.
    """
    datetimes = pair.time_kind == TIME_KIND_DATETIME

    def _coerce(v, rounding):
        if not isinstance(v, str):
            if datetimes:
                return np.datetime64(v)
            try:
                return np.int64(rounding(v))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"time bound {v!r}: {exc}") from None
        try:
            kind, t = _parse_timestamp(v, pair.time_format)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"time bound {v!r}: {exc}") from None
        if kind != pair.time_kind:
            raise ValueError(
                f"time bound {v!r} is {kind}, but the grid holds {pair.time_kind} times"
            )
        return np.datetime64(t, "ns") if datetimes else t

    mask = np.ones(pair.n, dtype=bool)
    if start is not None:
        mask &= pair.grid >= _coerce(start, math.ceil)
    if end is not None:
        mask &= pair.grid <= _coerce(end, math.floor)
    if np.count_nonzero(mask) < 2:
        raise EmptyIntersectionError("date filter leaves fewer than two samples")
    return AlignedPair(
        x=pair.x[mask],
        y=pair.y[mask],
        grid=pair.grid[mask],
        normalization=pair.normalization,
        x_label=pair.x_label,
        y_label=pair.y_label,
        time_format=pair.time_format,
    )
