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
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__
from .boundary import DEFAULT_MEMORY_BUDGET, enumerate_boundaries, select_optimal
from .consistency import resample_lag_to_time, run_consistency
from .errors import ToplagError
from .ingest import parse_csv, slice_pair, standardize, synchronize
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
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
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


def _load_pair(cfg):
    sx = parse_csv(
        cfg.x_csv,
        cfg.time_col,
        cfg.value_col,
        time_format=cfg.time_format,
        skip_bad_rows=cfg.skip_bad_rows,
        label="x",
    )
    sy = parse_csv(
        cfg.y_csv,
        cfg.time_col,
        cfg.value_col,
        time_format=cfg.time_format,
        skip_bad_rows=cfg.skip_bad_rows,
        label="y",
    )
    pair = synchronize(sx, sy)
    if cfg.start is not None or cfg.end is not None:
        pair = slice_pair(pair, start=cfg.start, end=cfg.end)
    meta = {
        "x_rows": sx.n,
        "y_rows": sy.n,
        "x_skipped": sx.skipped_rows,
        "y_skipped": sy.skipped_rows,
    }
    if cfg.standardize:
        pair = standardize(pair)
    return pair, meta


def _hard_result(l):
    path = optimal_path(l)
    taus = path.taus
    lags = path.lags
    costs = l.nodes(path.nodes[:, 0], path.nodes[:, 1])
    return path, taus, lags, costs


def _analyze_core(cfg, pair, meta):
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.temperature > 5:
        print(HIGH_TEMPERATURE_NOTE.format(t=cfg.temperature), file=sys.stderr)

    try:
        l = build_landscape(pair, mode=DistanceMode.canonical(cfg.distance))
        if cfg.dump_landscape:
            mat = l.full_matrix()
            _write_csv(
                os.path.join(cfg.out_dir, "landscape.csv"),
                ["i"] + [f"j{j}" for j in range(l.n)],
                [np.arange(l.n)] + list(mat.T),
            )
    except ToplagError as exc:
        _fail("landscape", exc, 4)

    result = {}
    try:
        if cfg.temperature == 0:
            path, taus, lags, costs = _hard_result(l)
            path_cols = [taus, lags, path.nodes[:, 0], costs]
            result = {
                "mode": "hard",
                "temperature": 0.0,
                "start": list(path.start),
                "end": list(path.end),
                "total_energy": path.total_energy,
                "energy": path.total_energy / len(path.nodes),
                "log_partition": None,
                "runner_up_gap": None,
                "lag_mean_min": float(lags.min()),
                "lag_mean_max": float(lags.max()),
                "boundary_depth": None,
            }
            resample_args = (taus, lags)
            selection = None
        else:
            selection = select_optimal(
                l,
                temperature=cfg.temperature,
                mode=cfg.mode,
                depth=cfg.boundary_depth,
                memory_budget=cfg.memory_budget,
            )
            best = selection.best
            taus = best.taus
            path_cols = [
                taus,
                best.mean_lag,
                (taus - best.mean_lag) / 2.0,
                best.layer_cost,
            ]
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
                "lag_mean_min": float(best.mean_lag.min()),
                "lag_mean_max": float(best.mean_lag.max()),
                "boundary_depth": cfg.boundary_depth,
                "table_min": float(np.nanmin(table)),
                "table_max": float(np.nanmax(table[np.isfinite(table)])),
                "admissible_pairs": int(np.count_nonzero(adm)),
                "inadmissible_pairs": int(selection.inadmissible),
                "underflowed_pairs": int(selection.underflowed),
            }
            resample_args = (best.taus, best.mean_lag)

        _write_csv(
            os.path.join(cfg.out_dir, "path.csv"),
            ["tau", "mean_lag", "t1", "layer_cost"],
            path_cols,
        )
        if cfg.dump_energy_table and selection is not None:
            _write_csv(
                os.path.join(cfg.out_dir, "energy_table.csv"),
                ["start"] + [f"{i}:{j}" for i, j in selection.end_nodes],
                [[f"{i}:{j}" for i, j in selection.start_nodes]]
                + list(selection.energy_table.T),
            )
    except ToplagError as exc:
        _fail("path-engine", exc, 5)

    try:
        t_index, lag_at_t = resample_lag_to_time(*resample_args, pair.n)
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
    except ToplagError as exc:
        _fail("consistency", exc, 6)
    except OSError as exc:
        _fail("output", exc, 6)
    return summary


def run_analysis(cfg):
    """Programmatic entry point for one analyze run; returns the summary."""
    try:
        cfg.validate()
    except ValueError as exc:
        _fail("config", exc, 4)
    try:
        pair, meta = _load_pair(cfg)
    except FileNotFoundError as exc:
        _fail("ingest", exc, 3)
    except ToplagError as exc:
        _fail("ingest", exc, 3)
    return _analyze_core(cfg, pair, meta)


def _config_from_args(args, out_dir=None):
    return AnalysisConfig(
        x_csv=args.x_csv,
        y_csv=args.y_csv,
        out_dir=out_dir if out_dir is not None else args.out,
        time_col=args.time_col,
        value_col=args.value_col,
        time_format=args.time_format,
        skip_bad_rows=args.skip_bad_rows,
        start=args.start,
        end=args.end,
        standardize=not args.no_standardize,
        distance=args.distance,
        temperature=getattr(args, "temperature", 2.0),
        mode=args.mode,
        boundary_depth=args.boundary_depth,
        window=args.window,
        alpha=args.alpha,
        dump_landscape=args.dump_landscape,
        dump_energy_table=args.dump_energy_table,
        memory_budget=args.memory_budget,
    )


def cmd_analyze(args):
    run_analysis(_config_from_args(args))
    return 0


def cmd_scan_temperature(args):
    temperatures = args.temperatures
    if len(temperatures) < 2:
        print(
            "toplag: scan-temperature needs at least two temperatures",
            file=sys.stderr,
        )
        raise SystemExit(2)
    try:
        base = _config_from_args(args, out_dir=args.out)
        base.validate()
        for t in temperatures:
            if t <= 0:
                raise ValueError("scan temperatures must be positive")
    except ValueError as exc:
        _fail("config", exc, 4)
    try:
        pair, meta = _load_pair(base)
    except FileNotFoundError as exc:
        _fail("ingest", exc, 3)
    except ToplagError as exc:
        _fail("ingest", exc, 3)

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for t in temperatures:
        sub = os.path.join(args.out, f"T_{t:g}")
        cfg = replace(base, temperature=float(t), out_dir=sub)
        summary = _analyze_core(cfg, pair, meta)
        r = summary["result"]
        rows.append(
            (
                t,
                r["start"][0],
                r["start"][1],
                r["end"][0],
                r["end"][1],
                r["energy"],
                r["lag_mean_min"],
                r["lag_mean_max"],
                r["runner_up_gap"] if r["runner_up_gap"] is not None else float("nan"),
            )
        )
    _write_csv(
        os.path.join(args.out, "sweep_summary.csv"),
        [
            "temperature",
            "start_i",
            "start_j",
            "end_i",
            "end_j",
            "energy",
            "lag_mean_min",
            "lag_mean_max",
            "runner_up_gap",
        ],
        list(zip(*rows)),
    )
    return 0


def cmd_synth(args):
    try:
        scenario = LagScenario(
            kind=args.kind,
            n=args.n,
            seed=args.seed,
            k=args.k,
            k2=args.k2,
            switch_index=args.switch_index,
            amplitude=args.amplitude,
            period=args.period,
            driver=args.driver,
            rho=args.rho,
            sigma_step=args.sigma_step,
            noise_sigma=args.noise_sigma,
        )
        pair, lag = generate(scenario)
    except ToplagError as exc:
        _fail("synth", exc, 4)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "pair.csv"),
        ["time", "x", "y"],
        [pair.grid, pair.x, pair.y],
    )
    _write_csv(
        os.path.join(args.out, "true_lag.csv"),
        ["time", "lag"],
        [pair.grid, lag],
    )
    return 0


def cmd_oracle(args):
    from .ingest import AlignedPair

    n = args.size
    if n < 2 or n > 10:
        _fail("config", ValueError("oracle size must be in [2, 10]"), 4)
    rng = np.random.default_rng(args.seed)
    pair = AlignedPair(x=rng.normal(size=n), y=rng.normal(size=n))
    l = build_landscape(pair, mode=DistanceMode.canonical(args.distance))
    start = tuple(args.start)
    end = tuple(args.end) if args.end is not None else (n - 1, n - 1)
    T = args.temperature
    try:
        fwd = forward_weights(l, start, T)
        if args.mode == "bridge":
            bwd = backward_weights(l, end, T)
            engine = thermal_average(l, fwd, bwd)
        else:
            engine = thermal_average(l, fwd, end=end)
        reference = brute_force_thermal(l, start, end=end, temperature=T, mode=args.mode)
    except ToplagError as exc:
        _fail("path-engine", exc, 5)

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


def _add_io_options(p):
    p.add_argument("x_csv", help="CSV file of the first (leading-candidate) series")
    p.add_argument("y_csv", help="CSV file of the second series")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--time-col", default="time", help="timestamp column name")
    p.add_argument("--value-col", default="value", help="value column name")
    p.add_argument(
        "--time-format",
        default=None,
        help="strptime format for timestamps (default: integers or ISO 8601)",
    )
    p.add_argument(
        "--skip-bad-rows",
        action="store_true",
        help="drop unparseable rows instead of failing",
    )
    p.add_argument("--start", default=None, help="keep samples at or after this time")
    p.add_argument("--end", default=None, help="keep samples at or before this time")
    p.add_argument(
        "--no-standardize",
        action="store_true",
        help="skip per-series rescaling to zero mean, unit variance",
    )


def _add_engine_options(p):
    p.add_argument(
        "--distance",
        default="minus",
        choices=["minus", "plus", "mixed"],
        help="node cost: |x-y|, |x+y|, or the minimum of the two",
    )
    p.add_argument(
        "--mode",
        default="bridge",
        choices=["bridge", "forward"],
        help="condition paths on both anchors, or weigh forward only",
    )
    p.add_argument(
        "--boundary-depth",
        type=int,
        default=20,
        help="fan depth of candidate start/end nodes",
    )
    p.add_argument("--window", type=int, default=20, help="consistency window length")
    p.add_argument(
        "--alpha", type=float, default=0.05, help="significance level for windows"
    )
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
        default=DEFAULT_MEMORY_BUDGET,
        help="bytes of sweep state the grid search may hold",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toplag",
        description="Time-dependent lead-lag detection via thermal lattice paths",
    )
    parser.add_argument("--version", action="version", version=f"toplag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline on two CSV series")
    _add_io_options(p)
    _add_engine_options(p)
    p.add_argument(
        "--temperature",
        type=float,
        default=2.0,
        help="path temperature; 0 selects the single minimal path",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "scan-temperature", help="run analyze over several temperatures"
    )
    _add_io_options(p)
    _add_engine_options(p)
    p.add_argument(
        "--temperatures",
        type=lambda s: [float(v) for v in s.split(",") if v],
        required=True,
        help="comma-separated list, at least two values",
    )
    p.set_defaults(func=cmd_scan_temperature)

    p = sub.add_parser("synth", help="generate a synthetic pair with known lag")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--kind",
        default="constant",
        choices=["constant", "step", "sinusoid", "anti"],
    )
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=0, help="lag (first lag for step)")
    p.add_argument("--k2", type=int, default=0, help="second lag for step")
    p.add_argument("--switch-index", type=int, default=0)
    p.add_argument("--amplitude", type=float, default=0.0)
    p.add_argument("--period", type=float, default=64.0)
    p.add_argument("--driver", default="walk", choices=["walk", "ar1"])
    p.add_argument("--rho", type=float, default=0.95)
    p.add_argument("--sigma-step", type=float, default=1.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
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
    p.add_argument(
        "--start",
        type=lambda s: [int(v) for v in s.split(",")],
        default=[0, 0],
        help="start node as i,j",
    )
    p.add_argument(
        "--end",
        type=lambda s: [int(v) for v in s.split(",")],
        default=None,
        help="end node as i,j (default: far corner)",
    )
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
