"""Acceptance gate: the numbered claims the package is shipped against.

Each test prints one PASS or FAIL line (run with -s to see them live).
Tolerances and fixture parameters are stated inline; they are the contract,
not implementation details, so do not loosen them to make a red test green.
"""

import csv
import json
import math
import os
import resource
import time
from contextlib import contextmanager

import numpy as np
import pytest

from toplag.boundary import enumerate_boundaries, select_optimal
from toplag.cli import main as cli_main
from toplag.consistency import (
    resample_lag_to_time,
    run_consistency,
    student_t_two_sided_pvalue,
)
from toplag.ingest import AlignedPair
from toplag.landscape import build_landscape
from toplag.synth import (
    LagScenario,
    brute_force_thermal,
    enumerate_directed_paths,
    generate,
)
from toplag.thermal import backward_weights, forward_weights, thermal_average
from toplag.zerotemp import optimal_path


@contextmanager
def criterion(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as exc:
        print(f"ACCEPTANCE {num:>2} {name}: FAIL ({exc})")
        raise
    print(f"ACCEPTANCE {num:>2} {name}: PASS ({time.perf_counter() - t0:.1f}s)")


def lagged_walk_pair(seed, n, k, kind="constant", noise_factor=0.1, **kw):
    """Walk-driven pair with observation noise scaled to the driver step."""
    base = LagScenario(kind=kind, n=n, seed=seed, k=k, driver="walk",
                       sigma_step=1.0, noise_sigma=0.0, **kw)
    pair, _ = generate(base)
    sig = float(np.std(np.diff(pair.x)))
    s = LagScenario(kind=kind, n=n, seed=seed, k=k, driver="walk",
                    sigma_step=1.0, noise_sigma=noise_factor * sig, **kw)
    return generate(s)


def resampled_trajectory(pair, temperature, depth=20, mode="minus"):
    l = build_landscape(pair, mode=mode)
    res = select_optimal(l, temperature=temperature, depth=depth)
    return resample_lag_to_time(res.best.taus, res.best.mean_lag, pair.n)


def central_median_error(pair, k, temperature=2.0, mode="minus"):
    t, lag = resampled_trajectory(pair, temperature, mode=mode)
    n = pair.n
    lo, hi = int(0.2 * n), int(0.8 * n)
    m = (t >= lo) & (t < hi)
    return float(np.median(np.abs(lag[m] - k)))


def test_01_oracle_equivalence():
    with criterion(1, "oracle equivalence, 54 random lattices"):
        t0 = time.perf_counter()
        checked = 0
        for case in range(54):
            rng = np.random.default_rng(1000 + case)
            n = 5 + case % 5
            T = (0.5, 1.0, 2.0)[case % 3]
            dist = ("minus", "plus", "mixed")[case % 3]
            mode = "bridge" if case % 2 == 0 else "forward"
            pair = AlignedPair(x=rng.normal(size=n), y=rng.normal(size=n))
            l = build_landscape(pair, mode=dist)
            start = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
            if start == (1, 1):
                start = (1, 0)
            f = forward_weights(l, start, T)
            if mode == "bridge":
                end = (n - 1 - int(rng.integers(0, 2)), n - 1)
                b = backward_weights(l, end, T)
                got = thermal_average(l, f, b)
                ref = brute_force_thermal(l, start, end=end, temperature=T)
            else:
                got = thermal_average(l, f)
                ref = brute_force_thermal(l, start, temperature=T, mode="forward")
            assert np.allclose(got.mean_lag, ref["mean_lag"], rtol=1e-9, atol=1e-12)
            assert got.energy == pytest.approx(ref["path_cost"], rel=1e-9, abs=1e-12)
            assert got.log_partition == pytest.approx(
                ref["log_partition"], rel=1e-9, abs=1e-12
            )
            checked += 1
        assert checked >= 50
        assert time.perf_counter() - t0 < 60.0


def test_02_cold_limit_tracks_dp_path():
    with criterion(2, "T=0.01 bridge matches the minimal path"):
        done = 0
        seed = 0
        while done < 20:
            seed += 1
            assert seed < 400, "not enough separated fixtures"
            rng = np.random.default_rng(seed)
            n = int(rng.integers(6, 10))
            pair = AlignedPair(
                x=rng.integers(0, 10, size=n).astype(float),
                y=rng.integers(0, 10, size=n).astype(float),
            )
            l = build_landscape(pair)
            energies = _enumerated_energies(l, n)
            order = np.sort(energies)
            if order[1] - order[0] < 0.5:
                continue
            hard = optimal_path(l)
            f = forward_weights(l, (0, 0), 0.01)
            b = backward_weights(l, (n - 1, n - 1), 0.01)
            soft = thermal_average(l, f, b)
            at = {int(t): float(m) for t, m in zip(soft.taus, soft.mean_lag)}
            # a diagonal step skips a layer, so compare on visited layers
            for t, x in zip(hard.taus, hard.lags):
                assert abs(at[int(t)] - x) < 0.05
            done += 1


def _enumerated_energies(l, n):
    paths = enumerate_directed_paths(n, (0, 0), (n - 1, n - 1))
    # sentinels (< -100, a layer skipped by a diagonal step) read node
    # (tau >> 1, tau >> 1) and add 0; the costs are integers, so the sum's
    # order cannot matter
    valid = paths >= -100
    x = np.where(valid, paths, 0)
    tau = np.arange(paths.shape[1])
    c = l.full_matrix()[(tau - x) >> 1, (tau + x) >> 1]
    return np.where(valid, c, 0).sum(axis=1)


def test_03_constant_lag_recovery():
    with criterion(3, "lag 10 recovered on 20 noisy walks"):
        t0 = time.perf_counter()
        for seed in range(20):
            pair, _ = lagged_walk_pair(seed, 500, 10)
            assert central_median_error(pair, 10) <= 1.0
        assert time.perf_counter() - t0 < 120.0


def test_04_step_lag_tracking():
    with criterion(4, "step 5 -> 15 tracked away from the switch"):
        n = 600
        for seed in range(12):
            pair, _ = lagged_walk_pair(
                seed, n, 5, kind="step", k2=15, switch_index=n // 2
            )
            t, lag = resampled_trajectory(pair, 2.0)
            true = np.where(t < n // 2, 5.0, 15.0)
            far = np.abs(t - n // 2) >= 30
            frac = float(np.mean(np.abs(lag[far] - true[far]) <= 2.0))
            assert frac >= 0.70


def test_05_antimonotonic_mode():
    with criterion(5, "mirrored coupling needs the sum cost"):
        plus = []
        minus = []
        for seed in range(20):
            pair, _ = lagged_walk_pair(seed, 500, 4, kind="anti")
            plus.append(central_median_error(pair, 4, mode="plus"))
            minus.append(central_median_error(pair, 4, mode="minus"))
        assert max(plus) <= 1.0
        assert float(np.median(minus)) > 2.0


def test_06_boundary_protocol():
    with criterion(6, "39 + 39 anchors; winner equals table minimum"):
        spec = enumerate_boundaries(900, 20)
        assert len(spec.start_nodes) == 39
        assert len(spec.end_nodes) == 39
        pair, _ = lagged_walk_pair(3, 900, 3, noise_factor=0.3)
        l = build_landscape(pair)
        res = select_optimal(l, temperature=2.0, depth=20)
        table = res.energy_table
        assert res.best.energy == np.nanmin(table)
        s = res.start_nodes.index(res.best_start)
        e = res.end_nodes.index(res.best_end)
        assert res.best.energy == table[s, e]


def test_07_temperature_weakens_structure():
    with criterion(7, "peak lag error non-increasing in T"):
        meds = []
        for T in (1.0, 1.5, 2.0):
            worst = []
            for seed in range(24):
                pair, _ = lagged_walk_pair(seed, 500, 10)
                t, lag = resampled_trajectory(pair, T)
                worst.append(float(np.max(np.abs(lag - 10.0))))
            meds.append(float(np.median(worst)))
        assert meds[0] >= meds[1] >= meds[2]


def test_08_consistency_calibration():
    with criterion(8, "regression slope, size, and t tails"):
        # exact linear relation: unit slope in every window
        s = LagScenario(kind="constant", n=400, seed=6, k=5)
        pair, _ = generate(s)
        rep = run_consistency(pair, np.arange(400), np.full(400, 5.0), window=20)
        assert rep.n_windows > 0
        assert np.all(np.abs(rep.slope - 1.0) <= 1e-9)

        # independent regressor: the 5% test rejects about 5% of windows
        rng = np.random.default_rng(42)
        m = 20019
        noise = AlignedPair(x=rng.normal(size=m), y=rng.normal(size=m))
        rep = run_consistency(noise, np.arange(m), np.zeros(m), window=20)
        assert rep.n_windows >= 2000
        assert abs(rep.frac_significant - 0.05) <= 0.03

        # tail probabilities against direct numeric integration
        quad = pytest.importorskip("scipy.integrate").quad
        for df in (3, 18, 98):
            c = math.exp(
                math.lgamma((df + 1) / 2.0)
                - math.lgamma(df / 2.0)
                - 0.5 * math.log(df * math.pi)
            )
            pdf = lambda u: c * (1.0 + u * u / df) ** (-(df + 1) / 2.0)
            for t in (1.96, 2.58):
                want = 2.0 * quad(pdf, t, np.inf)[0]
                got = student_t_two_sided_pvalue(t, df)
                assert abs(got - want) <= 1e-6


def test_09_symmetry_suite():
    with criterion(9, "identity, swap, and common-shift symmetry"):
        # identical series: the average lag vanishes everywhere
        rng = np.random.default_rng(17)
        x = np.cumsum(rng.normal(size=120))
        ident = build_landscape(AlignedPair(x=x, y=x.copy()))
        res = select_optimal(ident, temperature=2.0, depth=6)
        assert np.max(np.abs(res.best.mean_lag)) <= 1e-9

        # swapping the series negates the trajectory
        pair, _ = lagged_walk_pair(8, 100, 3, noise_factor=0.2)
        l = build_landscape(pair)
        ls = build_landscape(AlignedPair(x=pair.y, y=pair.x))
        f = forward_weights(l, (0, 3), 2.0)
        b = backward_weights(l, (97, 99), 2.0)
        p = thermal_average(l, f, b)
        fs = forward_weights(ls, (3, 0), 2.0)
        bs = backward_weights(ls, (99, 97), 2.0)
        q = thermal_average(ls, fs, bs)
        assert np.max(np.abs(p.mean_lag + q.mean_lag)) <= 1e-9

        # adding one constant to both series leaves the difference cost,
        # hence the selected pair and its trajectory, unchanged
        pair, _ = lagged_walk_pair(5, 160, 4, noise_factor=0.15)
        base = select_optimal(build_landscape(pair), temperature=1.5, depth=6)
        for c in (0.5, -3.75):
            shifted = AlignedPair(x=pair.x + c, y=pair.y + c)
            res = select_optimal(build_landscape(shifted), temperature=1.5, depth=6)
            assert res.best_start == base.best_start
            assert res.best_end == base.best_end
            assert np.max(np.abs(res.best.mean_lag - base.best.mean_lag)) <= 1e-9


def test_10_performance_envelope():
    with criterion(10, "daily scale < 10 s; minute scale < 15 min, < 4 GB"):
        pair, _ = lagged_walk_pair(1, 900, 3, noise_factor=0.3)
        l = build_landscape(pair)
        t0 = time.perf_counter()
        select_optimal(l, temperature=2.0, depth=20)
        daily = time.perf_counter() - t0
        assert daily < 10.0

        pair, _ = lagged_walk_pair(2, 12000, 5, noise_factor=0.3)
        l = build_landscape(pair)
        t0 = time.perf_counter()
        res = select_optimal(l, temperature=2.0, depth=20)
        minute = time.perf_counter() - t0
        peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
        print(
            f"  [criterion 10] daily {daily:.2f}s, minute {minute:.1f}s, "
            f"peak rss {peak_gb:.2f} GB, winner {res.best_start}->{res.best_end}"
        )
        assert minute < 15 * 60.0
        assert peak_gb < 4.0


def test_11_byte_identical_reruns(tmp_path):
    with criterion(11, "identical config reruns byte-identical"):
        d = tmp_path / "in"
        assert cli_main(
            ["synth", "--out", str(d), "--kind", "constant", "--n", "400",
             "--k", "7", "--seed", "21", "--noise-sigma", "0.3"]
        ) == 0
        rows = list(csv.DictReader(open(d / "pair.csv", encoding="utf-8")))
        for col, fname in (("x", "x.csv"), ("y", "y.csv")):
            with open(d / fname, "w", encoding="utf-8") as fh:
                fh.write("time,value\n")
                for r in rows:
                    fh.write(f"{r['time']},{r[col]}\n")
        out = tmp_path / "run"
        argv = [
            "analyze", str(d / "x.csv"), str(d / "y.csv"), "--out", str(out),
            "--dump-energy-table",
        ]
        assert cli_main(argv) == 0
        first = {f: (out / f).read_bytes() for f in os.listdir(out)}
        assert cli_main(argv) == 0
        assert sorted(os.listdir(out)) == sorted(first)
        for f, blob in first.items():
            assert (out / f).read_bytes() == blob
        s = json.loads(first["summary.json"].decode())
        assert s["result"]["mode"] == "bridge"
