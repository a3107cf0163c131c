"""Command line interface.

Subcommands:

  analyze           full pipeline: ingest, align, landscape, path extraction
                    (hard path at temperature 0, boundary grid search above),
                    lag resampling, rolling consistency regression
  scan-temperature  analyze across several temperatures, plus a sweep summary
  synth             write a synthetic pair with a known lag trajectory
  oracle            compare the sweep engine against brute-force enumeration
                    on a small random lattice

All floating point output is written with 12 significant digits and files
are produced deterministically: rerunning a command on the same inputs
yields byte-identical outputs. The TOPLAG_THREADS environment variable caps
BLAS threads (it must be set before Python imports numpy, which the package
init guarantees for the console script).

Exit codes: 0 success, 1 oracle mismatch, 2 usage, 3 ingest failure,
4 configuration or landscape failure, 5 path-engine failure, 6 consistency
or output failure.
"""

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .boundary import DEFAULT_MEMORY_BUDGET, enumerate_boundaries, select_optimal
from .consistency import resample_lag_to_time, run_consistency
from .errors import DepthTooLargeError, ToplagError
from .ingest import AlignedPair, parse_csv, slice_pair, standardize, synchronize
from .landscape import DistanceMode, build_landscape
from .synth import LagScenario, brute_force_thermal, generate
from .thermal import backward_weights, forward_weights, thermal_average
from .zerotemp import optimal_path

HIGH_TEMPERATURE_NOTE = (
    "warning: temperature {t:g} is above 5; path weights are close to "
    "uniform there and lag structure is usually washed out"
)


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything one analyze run depends on; echoed into summary.json."""

    x_csv: str
    y_csv: str
    out_dir: str
    time_col: str = "time"
    value_col: str = "value"
    time_format: str | None = None
    skip_bad_rows: bool = False
    start: str | None = None
    end: str | None = None
    standardize: bool = True
    distance: str = "minus"
    temperature: float = 2.0
    mode: str = "bridge"
    boundary_depth: int = 20
    window: int = 20
    alpha: float = 0.05
    dump_landscape: bool = False
    dump_energy_table: bool = False
    memory_budget: int = DEFAULT_MEMORY_BUDGET

    def validate(self):
        DistanceMode.canonical(self.distance)
        if not 0 <= self.temperature < math.inf:
            raise ValueError(
                f"temperature must be finite and nonnegative, got {self.temperature!r}"
            )
        if self.mode not in ("bridge", "forward"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.boundary_depth < 1:
            raise ValueError("boundary depth must be at least 1")
        if self.window < 3:
            raise ValueError("window must be at least 3")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must be inside (0, 1)")
        if self.memory_budget < 1_000_000:
            raise ValueError("memory budget unreasonably small")


def _fail(stage, exc, code):
    print(f"toplag: {stage}: {exc}", file=sys.stderr)
    raise SystemExit(code)


@contextmanager
def _exit_on(stage, code, *errors):
    """Stop the run with _fail(stage, ..., code) on any of these errors."""
    try:
        yield
    except errors as exc:
        _fail(stage, exc, code)


def _fmt(v):
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


def _column_text(col):
    """One column's cells as _fmt would write them. Bool, integer and float
    arrays are formatted in one pass over tolist(); anything else (lists,
    tuples, str or datetime64 arrays) goes through _fmt one element at a time.
    """
    if isinstance(col, np.ndarray):
        kind = col.dtype.kind
        if kind == "b":
            return ["1" if v else "0" for v in col.tolist()]
        if kind in "iu":
            return [str(v) for v in col.tolist()]
        if kind == "f":
            # .12g already prints nan, inf, -inf and -0 as _fmt does.
            return [f"{v:.12g}" for v in col.tolist()]
    return [_fmt(v) for v in col]


def _write_csv(path, header, columns):
    """Write equally long columns under a header row."""
    cells = [_column_text(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines([",".join(row) + "\n" for row in zip(*cells)])


def _json_ready(obj):
    """Round floats to the output precision and strip non-finite values."""
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            return None
        return float(f"{v:.12g}")
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    return obj


def _write_summary(path, summary):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_json_ready(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _grid_text(pair):
    """Timestamps of the aligned grid as deterministic strings."""
    grid = pair.grid
    if not np.issubdtype(grid.dtype, np.datetime64):
        return [str(v) for v in grid.tolist()]
    ns = grid.astype("datetime64[ns]").astype(np.int64)
    unit = "s" if np.all(ns % 1_000_000_000 == 0) else "ns"
    return np.datetime_as_string(grid, unit=unit).tolist()


def _make_dir(path):
    with _exit_on("output", 6, OSError):
        os.makedirs(path, exist_ok=True)


def _analyze_core(cfg, pair, meta):
    _make_dir(cfg.out_dir)
    if cfg.temperature > 5:
        print(HIGH_TEMPERATURE_NOTE.format(t=cfg.temperature), file=sys.stderr)

    with _exit_on("landscape", 4, ToplagError), _exit_on("output", 6, OSError):
        l = build_landscape(pair, mode=DistanceMode.canonical(cfg.distance))
        if cfg.dump_landscape:
            mat = l.full_matrix()
            _write_csv(
                os.path.join(cfg.out_dir, "landscape.csv"),
                ["i"] + [f"j{j}" for j in range(l.n)],
                [np.arange(l.n)] + list(mat.T),
            )

    with _exit_on("path-engine", 5, ToplagError), _exit_on("output", 6, OSError):
        if cfg.temperature == 0:
            path = optimal_path(l)
            taus, lags = path.taus, path.lags
            costs = l.nodes(*path.nodes.T)
            result = {
                "mode": "hard",
                "temperature": 0.0,
                "start": list(path.start),
                "end": list(path.end),
                "total_energy": path.total_energy,
                "energy": path.total_energy / len(path.nodes),
                "log_partition": None,
                "runner_up_gap": None,
                "boundary_depth": None,
            }
        else:
            selection = select_optimal(
                l,
                temperature=cfg.temperature,
                mode=cfg.mode,
                depth=cfg.boundary_depth,
                memory_budget=cfg.memory_budget,
            )
            best = selection.best
            taus, lags, costs = best.taus, best.mean_lag, best.layer_cost
            table = selection.energy_table
            adm = ~np.isnan(table)
            result = {
                "mode": selection.mode,
                "temperature": selection.temperature,
                "start": list(selection.best_start),
                "end": list(selection.best_end),
                "total_energy": None,
                "energy": best.energy,
                "log_partition": best.log_partition,
                "runner_up_gap": selection.runner_up_gap,
                "boundary_depth": cfg.boundary_depth,
                "table_min": float(np.nanmin(table)),
                "table_max": float(np.nanmax(table[np.isfinite(table)])),
                "admissible_pairs": int(np.count_nonzero(adm)),
                "inadmissible_pairs": int(selection.inadmissible),
                "underflowed_pairs": int(selection.underflowed),
            }
            if cfg.dump_energy_table:
                _write_csv(
                    os.path.join(cfg.out_dir, "energy_table.csv"),
                    ["start"] + [f"{i}:{j}" for i, j in selection.end_nodes],
                    [[f"{i}:{j}" for i, j in selection.start_nodes]] + list(table.T),
                )
        result["lag_mean_min"] = float(lags.min())
        result["lag_mean_max"] = float(lags.max())

        # On the hard path t1 = (tau - lag) / 2 is the row index i, exactly.
        _write_csv(
            os.path.join(cfg.out_dir, "path.csv"),
            ["tau", "mean_lag", "t1", "layer_cost"],
            [taus, lags, (taus - lags) / 2.0, costs],
        )

    with _exit_on("consistency", 6, ToplagError), _exit_on("output", 6, OSError):
        t_index, lag_at_t = resample_lag_to_time(taus, lags, pair.n)
        grid_text = _grid_text(pair)
        _write_csv(
            os.path.join(cfg.out_dir, "lag_by_time.csv"),
            ["t", "timestamp", "lag"],
            [t_index, [grid_text[t] for t in t_index.tolist()], lag_at_t],
        )
        report = run_consistency(pair, t_index, lag_at_t, cfg.window, alpha=cfg.alpha)
        _write_csv(
            os.path.join(cfg.out_dir, f"consistency_w{cfg.window}.csv"),
            ["t_end", "a", "t_stat", "p_value", "significant"],
            [
                report.t_end,
                report.slope,
                report.t_stat,
                report.p_value,
                report.significant,
            ],
        )
        summary = {
            "config": asdict(cfg),
            "data": {
                **meta,
                "n": pair.n,
                "normalization": pair.normalization,
                "time_kind": pair.time_kind,
            },
            "result": result,
            "consistency": {
                "window": report.window,
                "alpha": report.alpha,
                "n_windows": report.n_windows,
                "n_defined": report.n_defined,
                "n_significant": int(np.count_nonzero(report.significant)),
                "frac_significant": report.frac_significant,
                "n_excluded_samples": report.n_excluded_samples,
            },
            "tool": {"name": "toplag", "version": __version__},
        }
        _write_summary(os.path.join(cfg.out_dir, "summary.json"), summary)
    return summary


def _prepare(cfg, temperatures=()):
    """Validate a run and load its aligned pair. Settings that are invalid on
    their own or for the loaded series exit 4; series that cannot be read,
    aligned or filtered exit 3. A scan passes its temperatures, which must
    be finite, positive and name distinct run directories."""
    with _exit_on("config", 4, ValueError):
        cfg.validate()
        if not all(0 < t < math.inf for t in temperatures):
            raise ValueError("scan temperatures must be finite and positive")
        names = [f"T_{t:g}" for t in temperatures]
        shared = ", ".join(sorted({d for d in names if names.count(d) > 1}))
        if shared:
            raise ValueError(f"more than one scan temperature writes to {shared}")
    with _exit_on("ingest", 3, FileNotFoundError, ToplagError):
        sx, sy = (
            parse_csv(
                path,
                cfg.time_col,
                cfg.value_col,
                time_format=cfg.time_format,
                skip_bad_rows=cfg.skip_bad_rows,
                label=label,
            )
            for path, label in ((cfg.x_csv, "x"), (cfg.y_csv, "y"))
        )
        pair = synchronize(sx, sy)
    with _exit_on("ingest", 3, ToplagError), _exit_on("config", 4, ValueError):
        if cfg.start is not None or cfg.end is not None:
            pair = slice_pair(pair, cfg.start, cfg.end)
        if cfg.standardize:
            pair = standardize(pair)
    if temperatures or cfg.temperature > 0:
        with _exit_on("config", 4, DepthTooLargeError):
            enumerate_boundaries(pair.n, cfg.boundary_depth)
    meta = {
        "x_rows": sx.n,
        "y_rows": sy.n,
        "x_skipped": sx.skipped_rows,
        "y_skipped": sy.skipped_rows,
    }
    return pair, meta


def run_analysis(cfg):
    """Programmatic entry point for one analyze run; returns the summary."""
    return _analyze_core(cfg, *_prepare(cfg))


def _from_args(cls, args):
    """cls built from the parsed options named like its fields. The parsers
    leave an option they were not given out of args, so its field keeps the
    dataclass default."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names})


def cmd_analyze(args):
    run_analysis(_from_args(AnalysisConfig, args))
    return 0


def cmd_scan_temperature(args):
    temperatures = args.temperatures
    if len(temperatures) < 2:
        print(
            "toplag: scan-temperature needs at least two temperatures",
            file=sys.stderr,
        )
        raise SystemExit(2)
    base = _from_args(AnalysisConfig, args)
    pair, meta = _prepare(base, temperatures)
    keys = ["energy", "lag_mean_min", "lag_mean_max", "runner_up_gap"]
    rows = []
    for t in temperatures:
        sub = os.path.join(base.out_dir, f"T_{t:g}")
        cfg = replace(base, temperature=t, out_dir=sub)
        r = _analyze_core(cfg, pair, meta)["result"]
        rows.append((t, *r["start"], *r["end"], *(r[k] for k in keys)))
    _write_csv(
        os.path.join(base.out_dir, "sweep_summary.csv"),
        ["temperature", "start_i", "start_j", "end_i", "end_j", *keys],
        list(zip(*rows)),
    )
    return 0


def cmd_synth(args):
    with _exit_on("synth", 4, ToplagError):
        pair, lag = generate(_from_args(LagScenario, args))
    _make_dir(args.out_dir)
    _write_csv(
        os.path.join(args.out_dir, "pair.csv"),
        ["time", "x", "y"],
        [pair.grid, pair.x, pair.y],
    )
    _write_csv(
        os.path.join(args.out_dir, "true_lag.csv"),
        ["time", "lag"],
        [pair.grid, lag],
    )
    return 0


def cmd_oracle(args):
    n = args.size
    if n < 2 or n > 10:
        _fail("config", ValueError("oracle size must be in [2, 10]"), 4)
    T = args.temperature
    if not 0 < T < math.inf:
        exc = ValueError(f"temperature must be finite and positive, got {T!r}")
        _fail("config", exc, 4)
    rng = np.random.default_rng(args.seed)
    pair = AlignedPair(x=rng.normal(size=n), y=rng.normal(size=n))
    l = build_landscape(pair, mode=DistanceMode.canonical(args.distance))
    start = args.start
    end = args.end if args.end is not None else (n - 1, n - 1)
    if not all(0 <= a <= b < n for a, b in zip(start, end)):
        exc = f"start {start} and end {end} need 0 <= start <= end < {n} in i and j"
        _fail("config", exc, 4)
    with _exit_on("path-engine", 5, ToplagError):
        fwd = forward_weights(l, start, T)
        if args.mode == "bridge":
            bwd = backward_weights(l, end, T)
            engine = thermal_average(l, fwd, bwd)
        else:
            engine = thermal_average(l, fwd, end=end)
        reference = brute_force_thermal(l, start, end=end, temperature=T, mode=args.mode)

    checks = [
        ("mean_lag", float(np.max(np.abs(engine.mean_lag - reference["mean_lag"])))),
        (
            "layer_cost",
            float(np.max(np.abs(engine.layer_cost - reference["layer_cost"]))),
        ),
        ("energy", abs(engine.energy - reference["path_cost"])),
        ("log_partition", abs(engine.log_partition - reference["log_partition"])),
    ]
    ok = True
    for name, diff in checks:
        passed = diff <= args.tolerance
        ok = ok and passed
        print(f"{name}: max abs diff {_fmt(diff)} {'OK' if passed else 'FAIL'}")
    print(
        f"oracle {'agreement' if ok else 'MISMATCH'} on {n} x {n} lattice, "
        f"T={_fmt(T)}, mode={args.mode}, {reference['n_paths']} paths"
    )
    return 0 if ok else 1


def node(text):
    """A lattice node written i,j: exactly two integers."""
    i, j = (int(v) for v in text.split(","))
    return i, j


# The analyze, scan-temperature and synth parsers leave out every option
# that is not given (argument_default=SUPPRESS), and each option's dest is
# the AnalysisConfig or LagScenario field it sets, so every default is
# written once, in its dataclass.
def _add_io_options(p):
    p.add_argument("x_csv", help="CSV file of the first (leading-candidate) series")
    p.add_argument("y_csv", help="CSV file of the second series")
    p.add_argument(
        "--out", dest="out_dir", metavar="OUT", required=True, help="output directory"
    )
    p.add_argument("--time-col", help="timestamp column name")
    p.add_argument("--value-col", help="value column name")
    p.add_argument(
        "--time-format",
        help="strptime format for timestamps (default: integers or ISO 8601)",
    )
    p.add_argument(
        "--skip-bad-rows",
        action="store_true",
        help="drop unparseable rows instead of failing",
    )
    p.add_argument("--start", help="keep samples at or after this time")
    p.add_argument("--end", help="keep samples at or before this time")
    p.add_argument(
        "--no-standardize",
        dest="standardize",
        action="store_false",
        help="skip per-series rescaling to zero mean, unit variance",
    )


def _add_engine_options(p):
    p.add_argument(
        "--distance",
        choices=["minus", "plus", "mixed"],
        help="node cost: |x-y|, |x+y|, or the minimum of the two",
    )
    p.add_argument(
        "--mode",
        choices=["bridge", "forward"],
        help="condition paths on both anchors, or weigh forward only",
    )
    p.add_argument(
        "--boundary-depth", type=int, help="fan depth of candidate start/end nodes"
    )
    p.add_argument("--window", type=int, help="consistency window length")
    p.add_argument("--alpha", type=float, help="significance level for windows")
    p.add_argument(
        "--dump-landscape",
        action="store_true",
        help="write the full cost matrix (small lattices only)",
    )
    p.add_argument(
        "--dump-energy-table",
        action="store_true",
        help="write the start x end cost table",
    )
    p.add_argument(
        "--memory-budget",
        type=int,
        help="bytes of sweep state the grid search may hold",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toplag",
        description="Time-dependent lead-lag detection via thermal lattice paths",
    )
    parser.add_argument("--version", action="version", version=f"toplag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help):
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p = add("analyze", "run the full pipeline on two CSV series")
    _add_io_options(p)
    _add_engine_options(p)
    p.add_argument(
        "--temperature",
        type=float,
        help="path temperature; 0 selects the single minimal path",
    )
    p.set_defaults(func=cmd_analyze)

    p = add("scan-temperature", "run analyze over several temperatures")
    _add_io_options(p)
    _add_engine_options(p)
    p.add_argument(
        "--temperatures",
        type=lambda s: [float(v) for v in s.split(",") if v],
        required=True,
        help="comma-separated list, at least two values",
    )
    p.set_defaults(func=cmd_scan_temperature)

    # LagScenario has no default for kind, n and seed, so these three keep
    # theirs here.
    p = add("synth", "generate a synthetic pair with known lag")
    p.add_argument(
        "--out", dest="out_dir", metavar="OUT", required=True, help="output directory"
    )
    p.add_argument(
        "--kind",
        default="constant",
        choices=["constant", "step", "sinusoid", "anti"],
    )
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, help="lag (first lag for step)")
    p.add_argument("--k2", type=int, help="second lag for step")
    p.add_argument("--switch-index", type=int)
    p.add_argument("--amplitude", type=float)
    p.add_argument("--period", type=float)
    p.add_argument("--driver", choices=["walk", "ar1"])
    p.add_argument("--rho", type=float)
    p.add_argument("--sigma-step", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser(
        "oracle", help="check the engine against brute-force enumeration"
    )
    p.add_argument("--size", type=int, default=7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--temperature", type=float, default=2.0)
    p.add_argument("--mode", default="bridge", choices=["bridge", "forward"])
    p.add_argument(
        "--distance", default="minus", choices=["minus", "plus", "mixed"]
    )
    p.add_argument("--start", type=node, default=(0, 0), help="start node as i,j")
    p.add_argument(
        "--end", type=node, default=None, help="end node as i,j (default: far corner)"
    )
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
