"""Checks of one analyze call's output files against independent references.

Everything here runs outside the timed region, on the files the call wrote.

result_err is the largest absolute deviation from a reference:
  T > 0  the log-space engine (forward_weights, backward_weights,
         thermal_average), which carries log weights end to end and so stays
         exact at any temperature, for the winner pair the call reported;
         compared on the winner's energy and its per-layer mean_lag;
  T = 0  the reported path's node costs and energy, recomputed here from the
         standardized inputs.
It is a measurement: on a cold scan the scaled sweep loses weights to
underflow and the deviation shows that, unclipped.

A call fails (feeding failed_frac) when a file is missing or malformed, when
the reported winner is not the minimum of its own energy table, when a T = 0
path is not a valid lattice path, when result_err exceeds rounding at
T = 0 or at T >= WARM_T, or when its
files differ in bytes from the first call of the same source tree on the
same inputs (checked by the caller, which keeps the digests).
"""

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

from toplag.errors import ToplagError
from toplag.landscape import build_landscape
from toplag.thermal import backward_weights, forward_weights, thermal_average

# Outputs carry 12 significant digits, so a right result deviates from its
# reference by rounding only: below this for the O(1..100) values compared.
TOLERANCE = 1e-9
# From this temperature up the scaled sweep matches the log-space engine to
# rounding and is held to TOLERANCE; colder scans lose weights to underflow
# (a known defect) and their deviation is reported, not judged.
WARM_T = 0.05


class Malformed(Exception):
    pass


def read_outputs(out_dir):
    """Every file an analyze call left in out_dir, by name."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def digest(files):
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def expected_files(w):
    names = {"summary.json", "path.csv", "lag_by_time.csv", f"consistency_w{w.window}.csv"}
    if w.scan:
        names.add("energy_table.csv")
    return names


def _table(blob, header_first):
    rows = list(csv.reader(io.StringIO(blob.decode("utf-8"))))
    if not rows or rows[0][: len(header_first)] != header_first:
        raise Malformed(f"unexpected header {rows[0] if rows else None}")
    return rows[0], rows[1:]


def _path(blob):
    _, rows = _table(blob, ["tau", "mean_lag", "t1", "layer_cost"])
    try:
        a = np.array([[float(v) for v in r] for r in rows], dtype=np.float64)
    except ValueError as exc:
        raise Malformed(f"path.csv: {exc}") from None
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] != 4 or not np.isfinite(a).all():
        raise Malformed("path.csv: empty, ragged or non-finite")
    return a


def _node(label):
    i, j = label.split(":")
    return int(i), int(j)


def _winner_problems(result, table_blob):
    """The reported winner must be the first minimum of the dumped table."""
    header, rows = _table(table_blob, ["start"])
    ends = [_node(c) for c in header[1:]]
    best, best_pair = math.inf, None
    for r in rows:
        for e, v in zip(ends, r[1:]):
            v = float(v)
            if v < best:  # nan never compares smaller: inadmissible pairs skip
                best, best_pair = v, (_node(r[0]), e)
    reported = (tuple(result["start"]), tuple(result["end"]))
    if best_pair is None:
        return ["energy table holds no finite entry"]
    problems = []
    if reported != best_pair:
        problems.append(f"winner {reported} is not the table minimum {best_pair}")
    if result["energy"] != best:
        problems.append(f"winner energy {result['energy']!r} != table minimum {best!r}")
    return problems


def _scan_err(w, pair, result, path):
    l = build_landscape(pair)
    start, end = tuple(result["start"]), tuple(result["end"])
    ref = thermal_average(
        l,
        forward_weights(l, start, w.temperature),
        backward_weights(l, end, w.temperature),
    )
    if path.shape[0] != ref.taus.size or not np.array_equal(path[:, 0], ref.taus):
        raise Malformed("path.csv layers do not span the winner pair")
    return max(
        abs(result["energy"] - ref.energy),
        float(np.max(np.abs(path[:, 1] - ref.mean_lag))),
    )


def _hard_err(w, pair, result, path):
    tau = path[:, 0].astype(np.int64)
    lag = path[:, 1].astype(np.int64)
    if not (np.array_equal(tau, path[:, 0]) and np.array_equal(lag, path[:, 1])):
        raise Malformed("T = 0 path has non-integer layers or lags")
    if np.any((tau + lag) % 2):
        raise Malformed("T = 0 path visits a point that is not a lattice node")
    i, j = (tau - lag) // 2, (tau + lag) // 2
    steps = np.stack([np.diff(i), np.diff(j)], axis=1)
    ok_step = (steps.min(axis=1) >= 0) & (steps.max(axis=1) == 1)
    if not ok_step.all():
        raise Malformed("T = 0 path takes a step that is not right, down or diagonal")
    if (i[0], j[0]) != tuple(result["start"]) or (i[-1], j[-1]) != tuple(result["end"]):
        raise Malformed("T = 0 path does not join the reported start and end")
    cost = np.abs(pair.x[i] - pair.y[j])
    return max(
        float(np.max(np.abs(path[:, 3] - cost))),
        abs(result["energy"] - float(np.mean(cost))),
    )


def check_outputs(w, pair, files):
    """Check one call's files; returns (problems, result_err).

    problems is empty for a good call. result_err is nan when the files are
    too broken to compare.
    """
    missing = expected_files(w) - set(files)
    if missing:
        return [f"missing {sorted(missing)}"], math.nan
    problems = []
    err = math.nan
    try:
        result = json.loads(files["summary.json"])["result"]
        path = _path(files["path.csv"])
        if w.scan:
            problems += _winner_problems(result, files["energy_table.csv"])
            err = _scan_err(w, pair, result, path)
        else:
            err = _hard_err(w, pair, result, path)
    except (Malformed, ToplagError, KeyError, TypeError, ValueError, IndexError) as exc:
        return problems + [f"malformed output: {exc}"], math.nan
    if (not w.scan or w.temperature >= WARM_T) and not err <= TOLERANCE:
        problems.append(f"result deviates from the reference by {err:.3g}")
    return problems, err
