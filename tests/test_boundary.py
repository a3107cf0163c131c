"""Boundary fan enumeration and the grid search over anchor pairs."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from toplag import boundary
from toplag.boundary import (
    BoundarySpec,
    _admissibility,
    _block_edges,
    enumerate_boundaries,
    select_optimal,
)
from toplag.errors import DepthTooLargeError, EmptyLayerError, NoAdmissiblePairError
from toplag.ingest import AlignedPair
from toplag.landscape import build_landscape, layer_bounds, layer_lags
from toplag.synth import LagScenario, brute_force_thermal, generate
from toplag.thermal import (
    _StackedSweep,
    backward_weights,
    forward_weights,
    thermal_average,
)

from conftest import random_pair
from test_thermal import _ReferenceSweep


class TestEnumerateBoundaries:
    def test_depth_twenty_gives_39_each(self):
        spec = enumerate_boundaries(900, 20)
        assert len(spec.start_nodes) == 39
        assert len(spec.end_nodes) == 39

    def test_depth_one_is_corner_to_corner(self):
        spec = enumerate_boundaries(100, 1)
        assert spec.start_nodes == ((0, 0),)
        assert spec.end_nodes == ((99, 99),)

    def test_small_fan_by_hand(self):
        spec = enumerate_boundaries(10, 3)
        assert set(spec.start_nodes) == {(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)}
        assert set(spec.end_nodes) == {(9, 9), (8, 9), (7, 9), (9, 8), (9, 7)}
        assert len(spec.start_nodes) == 5 and len(spec.end_nodes) == 5

    def test_fans_are_sorted_and_deduplicated(self):
        spec = enumerate_boundaries(50, 4)
        assert len(set(spec.start_nodes)) == len(spec.start_nodes) == 7
        assert list(spec.start_nodes) == sorted(spec.start_nodes)
        assert list(spec.end_nodes) == sorted(spec.end_nodes)

    def test_depth_must_fit_lattice(self):
        with pytest.raises(DepthTooLargeError):
            enumerate_boundaries(10, 11)
        with pytest.raises(DepthTooLargeError):
            enumerate_boundaries(10, 0)


class TestSelectOptimal:
    def _fixture(self, seed=0, n=90, k=5, noise=0.3):
        s = LagScenario(kind="constant", n=n, seed=seed, k=k, noise_sigma=noise)
        pair, _ = generate(s)
        return build_landscape(pair)

    def test_best_energy_is_exact_table_minimum(self):
        l = self._fixture()
        res = select_optimal(l, temperature=2.0, depth=8)
        t = res.energy_table
        assert res.best.energy == np.nanmin(t)
        s = res.start_nodes.index(res.best_start)
        e = res.end_nodes.index(res.best_end)
        assert res.best.energy == t[s, e]

    def test_table_entries_match_independent_pair_scores(self):
        l = self._fixture(n=40)
        res = select_optimal(l, temperature=1.5, depth=4)
        for si, s in enumerate(res.start_nodes):
            for ei, e in enumerate(res.end_nodes):
                if np.isnan(res.energy_table[si, ei]):
                    continue
                f = forward_weights(l, s, 1.5)
                b = backward_weights(l, e, 1.5)
                want = thermal_average(l, f, b).energy
                assert res.energy_table[si, ei] == pytest.approx(want, rel=1e-12)

    def test_small_scan_matches_enumeration(self):
        pair = random_pair(5, 8)
        l = build_landscape(pair)
        res = select_optimal(l, temperature=1.0, depth=2)
        for si, s in enumerate(res.start_nodes):
            for ei, e in enumerate(res.end_nodes):
                ref = brute_force_thermal(l, s, end=e, temperature=1.0)
                assert res.energy_table[si, ei] == pytest.approx(
                    ref["path_cost"], abs=1e-9
                )

    def test_winner_trajectory_matches_direct_computation(self):
        l = self._fixture(seed=3)
        res = select_optimal(l, temperature=2.0, depth=6)
        f = forward_weights(l, res.best_start, 2.0)
        b = backward_weights(l, res.best_end, 2.0)
        want = thermal_average(l, f, b)
        assert np.allclose(res.best.mean_lag, want.mean_lag, atol=1e-12)
        assert np.array_equal(res.best.taus, want.taus)

    def test_deterministic_rerun(self):
        l = self._fixture(seed=7)
        a = select_optimal(l, temperature=2.0, depth=10)
        b = select_optimal(l, temperature=2.0, depth=10)
        assert a.best_start == b.best_start and a.best_end == b.best_end
        assert np.array_equal(a.energy_table, b.energy_table, equal_nan=True)
        assert np.array_equal(a.best.mean_lag, b.best.mean_lag)
        assert a.runner_up_gap == b.runner_up_gap

    def test_deeper_fan_never_raises_the_minimum(self):
        l = self._fixture(seed=11)
        prev = np.inf
        for depth in (1, 4, 8, 16):
            res = select_optimal(l, temperature=2.0, depth=depth)
            assert res.best.energy <= prev + 1e-15
            prev = res.best.energy

    def test_blocked_replay_is_byte_identical(self):
        l = self._fixture(seed=13, n=150)
        a = select_optimal(l, temperature=2.0, depth=6)
        # budget forces several replay blocks
        tight = 150 * 11 * 8 * 4
        b = select_optimal(l, temperature=2.0, depth=6, memory_budget=tight)
        assert np.array_equal(a.energy_table, b.energy_table, equal_nan=True)
        assert np.array_equal(a.best.mean_lag, b.best.mean_lag)
        assert np.array_equal(a.best.layer_cost, b.best.layer_cost)

    def test_identical_series_selects_diagonal_corners(self):
        rng = np.random.default_rng(2)
        x = np.cumsum(rng.normal(size=80))
        l = build_landscape(AlignedPair(x=x, y=x.copy()))
        res = select_optimal(l, temperature=2.0, depth=5)
        assert res.best_start == (0, 0)
        assert res.best_end == (79, 79)
        assert np.max(np.abs(res.best.mean_lag)) <= 1e-9

    def test_clean_lag_selects_low_energy_shifted_anchors(self):
        s = LagScenario(kind="constant", n=120, seed=1, k=5, noise_sigma=0.01)
        pair, _ = generate(s)
        l = build_landscape(pair)
        res = select_optimal(l, temperature=2.0, depth=10)
        t = res.energy_table
        assert res.best.energy <= np.nanpercentile(t, 10)
        bulk = slice(res.best.taus.size // 4, 3 * res.best.taus.size // 4)
        assert np.median(np.abs(res.best.mean_lag[bulk] - 5.0)) <= 0.5

    def test_forward_mode_scores_by_forward_weights(self):
        l = self._fixture(seed=17, n=50)
        res = select_optimal(l, temperature=2.0, depth=3, mode="forward")
        f = forward_weights(l, res.best_start, 2.0)
        want = thermal_average(l, f, end=res.best_end)
        assert res.best.energy == pytest.approx(want.energy, rel=1e-12)
        assert np.allclose(res.best.mean_lag, want.mean_lag, atol=1e-12)

    def test_inadmissible_pairs_counted_and_nan(self):
        l = self._fixture(n=30)
        res = select_optimal(l, temperature=2.0, depth=20)
        assert res.inadmissible > 0
        assert np.isnan(res.energy_table).sum() == res.inadmissible

    def test_runner_up_gap(self):
        l = self._fixture(seed=19)
        res = select_optimal(l, temperature=2.0, depth=4)
        vals = np.sort(res.energy_table[~np.isnan(res.energy_table)])
        assert res.runner_up_gap == pytest.approx(vals[1] - vals[0])
        solo = select_optimal(l, temperature=2.0, depth=1)
        assert np.isnan(solo.runner_up_gap)

    def test_hopeless_pairs_score_inf_not_crash(self):
        # anti-correlated series under the difference cost blow up the
        # cross-pair weight spread past double range for some anchors
        base = LagScenario(kind="anti", n=500, seed=5, k=4)
        pair, _ = generate(base)
        sig = float(np.std(np.diff(pair.x)))
        s = LagScenario(kind="anti", n=500, seed=5, k=4, noise_sigma=0.1 * sig)
        pair, _ = generate(s)
        l = build_landscape(pair, mode="minus")
        res = select_optimal(l, temperature=2.0, depth=20)
        assert res.underflowed > 0
        assert np.isinf(res.energy_table).sum() == res.underflowed
        assert np.isfinite(res.best.energy)

    def test_forward_dead_start_scores_inf(self):
        # At T = 0.004 some starts' forward fields underflow to zero a few
        # layers in; their pairs must score +inf, not 0, and never win.
        l = self._fixture(seed=3, n=24, k=3)
        res = select_optimal(l, temperature=0.004, depth=8, mode="forward")
        assert (res.best_start, res.best_end) == ((0, 3), (20, 23))
        assert res.underflowed == 120
        assert np.isinf(res.energy_table).sum() == res.underflowed
        f = forward_weights(l, res.best_start, 0.004)
        want = thermal_average(l, f, end=res.best_end)
        assert res.best.energy == pytest.approx(want.energy, rel=1e-12)
        assert res.best.energy == pytest.approx(0.41183090011496415, rel=1e-15)

    @pytest.mark.parametrize(
        "mode, depth, advice",
        [
            ("bridge", 8, "raise the temperature or shrink the boundary depth"),
            ("forward", 8, "raise the temperature or shrink the boundary depth"),
            # A depth-1 fan has no depth left to shrink.
            ("bridge", 1, "raise the temperature"),
            ("forward", 1, "raise the temperature"),
        ],
        ids=["bridge", "forward", "bridge-depth1", "forward-depth1"],
    )
    def test_all_underflowed_refusal_names_the_mode(self, mode, depth, advice):
        # At T = 0.004 every pair of this fixture underflows in both modes.
        l = self._fixture(seed=3, n=40, k=3)
        with pytest.raises(NoAdmissiblePairError) as err:
            select_optimal(l, temperature=0.004, depth=depth, mode=mode)
        assert str(err.value) == (
            f"every admissible pair's {mode} weight underflowed; {advice}"
        )

    def test_invalid_arguments(self):
        l = self._fixture(n=30)
        with pytest.raises(ValueError):
            select_optimal(l, temperature=0.0)
        with pytest.raises(ValueError):
            select_optimal(l, temperature=2.0, mode="both")

    def test_explicit_spec_overrides_depth(self):
        l = self._fixture(n=40)
        spec = BoundarySpec(
            n=40, depth=1, start_nodes=((0, 0),), end_nodes=((39, 39),)
        )
        res = select_optimal(l, temperature=2.0, spec=spec)
        assert res.energy_table.shape == (1, 1)
        assert res.best_start == (0, 0) and res.best_end == (39, 39)


class _ReferenceSweepWithCosts(_ReferenceSweep):
    """The reference sweep plus the eps attribute the scan reads."""

    def step(self):
        super().step()
        self.eps = self.l.layer(self.tau)


def _result_bytes(res):
    p = res.best
    return (
        res.energy_table.tobytes(),
        p.mean_lag.tobytes(),
        p.layer_cost.tobytes(),
        repr(p.energy),
        repr(p.log_partition),
        res.best_start,
        res.best_end,
        repr(res.runner_up_gap),
        res.inadmissible,
        res.underflowed,
    )


class TestScanMatchesReferenceSweep:
    """select_optimal gives the same bytes on the padded-row sweep as on the
    reference sweep it replaced (tests/test_thermal.py)."""

    def _compare(self, monkeypatch, l, **kw):
        got = select_optimal(l, **kw)
        with monkeypatch.context() as m:
            m.setattr(boundary, "_StackedSweep", _ReferenceSweepWithCosts)
            want = select_optimal(l, **kw)
        assert _result_bytes(got) == _result_bytes(want)
        return got

    _fixture = TestSelectOptimal._fixture

    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    def test_one_replay_block(self, monkeypatch, mode):
        l = self._fixture(seed=13, n=80)
        self._compare(monkeypatch, l, temperature=2.0, depth=6, mode=mode)

    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    def test_several_replay_blocks(self, monkeypatch, mode):
        l = self._fixture(seed=13, n=80)
        tight = 80 * 11 * 8 * 4
        self._compare(
            monkeypatch, l, temperature=0.5, depth=6, mode=mode, memory_budget=tight
        )

    def test_cold_scan_with_underflow_fallbacks(self, monkeypatch):
        # T = 0.01 sends many pair-layers to the log-space fallback and
        # underflows some pairs outright; the budget forces several blocks.
        l = self._fixture(seed=0, n=60)
        res = self._compare(
            monkeypatch, l, temperature=0.01, depth=10, memory_budget=36480
        )
        assert res.underflowed > 0


# Reference scan: the score tables, winner paths and pair selection as they
# were written before the sweeping moved into one layer generator, each with
# its own scout, checkpoint and replay. select_optimal must reproduce their
# results byte for byte. They run the live sweep, whose s1 is a transposed
# view of node-major rows; the arithmetic is the original, on a C-order copy
# of s1, because matrix products and row sums round by memory order.
def _ref_log_layer_cost(sf_row, sb_row, eps, T):
    with np.errstate(divide="ignore"):
        lw = np.log(sf_row) + np.log(sb_row) + eps / T
    finite = np.isfinite(lw)
    if not finite.any():
        return float("inf")
    p = np.exp(lw - lw[finite].max())
    return float((eps * p).sum() / p.sum())


def _ref_bridge_table(l, starts, ends, T, budget):
    n = l.n
    n_layers = 2 * n - 1
    adm, tau_s, tau_e = _admissibility(starts, ends)
    reflected = l.reflected()
    bwd_seeds = [(n - 1 - i, n - 1 - j) for i, j in ends]

    edges = _block_edges(n_layers, len(ends) * n * 8, budget)
    keys = set(edges[1:-1])
    snaps = {}
    if keys:
        lowest = min(keys)
        scout = _StackedSweep(reflected, bwd_seeds, T)
        for tau_r in range(n_layers):
            scout.step()
            tau_nat = n_layers - 1 - tau_r
            if tau_nat in keys:
                snaps[tau_nat] = scout.snapshot()
                if tau_nat == lowest:
                    break
        del scout

    all_live_lo, all_live_hi = int(tau_s.max()), int(tau_e.min())
    esum = np.zeros((len(starts), len(ends)))
    fwd = _StackedSweep(l, list(starts), T)
    for k in range(len(edges) - 1):
        b0, b1 = edges[k], edges[k + 1] - 1
        rep = _StackedSweep(reflected, bwd_seeds, T)
        if edges[k + 1] < n_layers:
            rep.restore(snaps.pop(edges[k + 1]))
        buf = {}
        for tau_nat in range(b1, b0 - 1, -1):
            rep.step()
            buf[tau_nat] = rep.s1[:, ::-1].copy()
        del rep
        for tau in range(b0, b1 + 1):
            fwd.step()
            sb = buf.pop(tau)
            if all_live_lo <= tau <= all_live_hi:
                live = adm
            else:
                live = (tau_s <= tau)[:, None] & (tau <= tau_e)[None, :] & adm
                if not live.any():
                    continue
            eps = fwd.eps
            emax = float(eps.max())
            u = np.exp((eps - emax) / T)
            fu = np.ascontiguousarray(fwd.s1) * u[None, :]
            den = fu @ sb.T
            num = (fu * eps[None, :]) @ sb.T
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = num / den
            good = live & (den > 0) & np.isfinite(ratio)
            np.add(esum, ratio, out=esum, where=good)
            if good.all():
                continue
            for s_idx, e_idx in zip(*np.nonzero(live & ~good)):
                if np.isinf(esum[s_idx, e_idx]):
                    continue
                esum[s_idx, e_idx] += _ref_log_layer_cost(
                    fwd.s1[s_idx], sb[e_idx], eps, T
                )
    lengths = tau_e[None, :] - tau_s[:, None] + 1
    with np.errstate(invalid="ignore"):
        table = np.where(adm, esum / lengths, np.nan)
    return table, adm


def _ref_forward_table(l, starts, ends, T):
    n_layers = 2 * l.n - 1
    adm, tau_s, tau_e = _admissibility(starts, ends)
    fwd = _StackedSweep(l, list(starts), T)
    q = np.zeros((len(starts), n_layers))
    for tau in range(n_layers):
        fwd.step()
        eps = fwd.eps
        s1 = np.ascontiguousarray(fwd.s1)
        den = s1.sum(axis=1)
        num = s1 @ eps
        alive = den > 0
        q[alive, tau] = num[alive] / den[alive]
        q[~alive & (tau_s <= tau), tau] = np.inf
    csum = np.concatenate(
        [np.zeros((len(starts), 1)), np.cumsum(q, axis=1)], axis=1
    )
    sums = csum[:, tau_e + 1] - csum[np.arange(len(starts)), tau_s][:, None]
    lengths = tau_e[None, :] - tau_s[:, None] + 1
    with np.errstate(invalid="ignore"):
        table = np.where(adm, sums / lengths, np.nan)
    return table, adm


def _ref_bridge_pair_path(l, start, end, T, budget):
    n = l.n
    si, sj = start
    ei, ej = end
    tau_0, tau_end = si + sj, ei + ej
    n_layers = 2 * n - 1
    reflected = l.reflected()
    seed_b = [(n - 1 - ei, n - 1 - ej)]

    edges = _block_edges(n_layers, n * 8, budget)
    keys = set(edges[1:-1])
    snaps = {}
    if keys:
        lowest = min(keys)
        scout = _StackedSweep(reflected, seed_b, T)
        for tau_r in range(n_layers):
            scout.step()
            tau_nat = n_layers - 1 - tau_r
            if tau_nat in keys:
                snaps[tau_nat] = scout.snapshot()
                if tau_nat == lowest:
                    break
        del scout

    taus = np.arange(tau_0, tau_end + 1)
    mean = np.zeros(taus.size)
    cost = np.zeros(taus.size)
    log_partition = -np.inf
    fwd = _StackedSweep(l, [start], T)
    for k in range(len(edges) - 1):
        b0, b1 = edges[k], edges[k + 1] - 1
        rep = _StackedSweep(reflected, seed_b, T)
        if edges[k + 1] < n_layers:
            rep.restore(snaps.pop(edges[k + 1]))
        buf = {}
        for tau_nat in range(b1, b0 - 1, -1):
            rep.step()
            buf[tau_nat] = rep.s1[0, ::-1].copy()
        del rep
        for tau in range(b0, min(b1, tau_end) + 1):
            fwd.step()
            sb = buf.pop(tau, None)
            if not tau_0 <= tau <= tau_end:
                continue
            sf = fwd.s1[0]
            eps = fwd.eps
            with np.errstate(divide="ignore"):
                lw = np.log(sf) + np.log(sb) + eps / T
            finite = np.isfinite(lw)
            if not finite.any():
                raise EmptyLayerError(tau)
            p = np.exp(lw - lw[finite].max())
            z = p.sum()
            x = layer_lags(n, tau)
            idx = tau - tau_0
            mean[idx] = float((x * p).sum() / z)
            cost[idx] = float((eps * p).sum() / z)
            if tau == tau_end:
                lo, _ = layer_bounds(n, tau)
                v = sf[ei - lo]
                if v > 0:
                    log_partition = float(np.log(v) + fwd.log1[0])
        if b1 >= tau_end:
            break
    return taus, mean, cost, log_partition


def _ref_forward_pair_path(l, start, end, T):
    n = l.n
    si, sj = start
    tau_0 = si + sj
    tau_end = end[0] + end[1]
    taus = np.arange(tau_0, tau_end + 1)
    mean = np.zeros(taus.size)
    cost = np.zeros(taus.size)
    log_partition = -np.inf
    fwd = _StackedSweep(l, [start], T)
    for tau in range(tau_end + 1):
        fwd.step()
        if tau < tau_0:
            continue
        sf = fwd.s1[0]
        z = sf.sum()
        if not z > 0:
            raise EmptyLayerError(tau)
        eps = fwd.eps
        x = layer_lags(n, tau)
        idx = tau - tau_0
        mean[idx] = float((x * sf).sum() / z)
        cost[idx] = float((eps * sf).sum() / z)
        if tau == tau_end:
            log_partition = float(np.log(z) + fwd.log1[0])
    return taus, mean, cost, log_partition


def _ref_select(l, T, mode, depth, budget):
    """The reference scan's result, in the layout of _scan_bytes."""
    spec = enumerate_boundaries(l.n, depth)
    starts = tuple(tuple(map(int, s)) for s in spec.start_nodes)
    ends = tuple(tuple(map(int, e)) for e in spec.end_nodes)
    if mode == "bridge":
        table, adm = _ref_bridge_table(l, starts, ends, T, budget)
    else:
        table, adm = _ref_forward_table(l, starts, ends, T)
    best_val = np.inf
    best_pair = None
    for s_idx in range(len(starts)):
        for e_idx in range(len(ends)):
            if adm[s_idx, e_idx] and table[s_idx, e_idx] < best_val:
                best_val = table[s_idx, e_idx]
                best_pair = (s_idx, e_idx)
    s_idx, e_idx = best_pair
    vals = np.sort(table[adm])
    gap = float(vals[1] - vals[0]) if vals.size > 1 else float("nan")
    if mode == "bridge":
        taus, mean, cost, log_z = _ref_bridge_pair_path(
            l, starts[s_idx], ends[e_idx], T, budget
        )
    else:
        taus, mean, cost, log_z = _ref_forward_pair_path(
            l, starts[s_idx], ends[e_idx], T
        )
    return (
        table.tobytes(),
        taus.tobytes(),
        mean.tobytes(),
        cost.tobytes(),
        repr(float(table[s_idx, e_idx])),
        repr(log_z),
        starts[s_idx],
        ends[e_idx],
        repr(gap),
        int(adm.size - np.count_nonzero(adm)),
        int(np.count_nonzero(np.isinf(table[adm]))),
    )


def _scan_bytes(res):
    p = res.best
    return (
        res.energy_table.tobytes(),
        p.taus.tobytes(),
        p.mean_lag.tobytes(),
        p.layer_cost.tobytes(),
        repr(p.energy),
        repr(p.log_partition),
        res.best_start,
        res.best_end,
        repr(res.runner_up_gap),
        res.inadmissible,
        res.underflowed,
    )


def _scan_counts():
    """perfbench/counts.py, the benchmark's step and block predictions."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "counts.py"
    spec = importlib.util.spec_from_file_location("perfbench_counts", path)
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    return counts.scan_counts


class _CountingSweep(_StackedSweep):
    """_StackedSweep that logs every step and snapshot it takes."""

    log = []

    def step(self):
        super().step()
        self.log.append(("step", self.n_fields, self.l, self.tau))

    def snapshot(self):
        self.log.append(("snapshot", self.n_fields, self.l, self.tau))
        return super().snapshot()


class TestScanMatchesParentScan:
    """select_optimal against the reference scan above, and the sweep work
    the shared layer generator does."""

    _fixture = TestSelectOptimal._fixture

    def _compare(self, l, temperature, mode, depth, memory_budget):
        got = select_optimal(
            l, temperature=temperature, mode=mode, depth=depth,
            memory_budget=memory_budget,
        )
        want = _ref_select(l, temperature, mode, depth, memory_budget)
        assert _scan_bytes(got) == want
        return got

    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    def test_one_replay_block(self, mode):
        l = self._fixture(seed=13, n=80)
        self._compare(l, 2.0, mode, 6, boundary.DEFAULT_MEMORY_BUDGET)

    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    def test_several_replay_blocks(self, mode):
        l = self._fixture(seed=13, n=80)
        self._compare(l, 0.5, mode, 6, 80 * 11 * 8 * 4)

    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    def test_cold_scan_with_underflow_fallbacks(self, mode):
        l = self._fixture(seed=0, n=60)
        res = self._compare(l, 0.01, mode, 10, 36480)
        assert res.underflowed > 0

    @pytest.mark.parametrize("budget", [2_000_000_000, 80 * 11 * 8 * 4])
    def test_sweep_work_matches_prediction(self, monkeypatch, budget):
        n, depth, T = 80, 6, 2.0
        l = self._fixture(seed=13, n=n)
        monkeypatch.setattr(boundary, "_StackedSweep", _CountingSweep)
        monkeypatch.setattr(_CountingSweep, "log", [])
        res = select_optimal(l, temperature=T, depth=depth, memory_budget=budget)
        log = _CountingSweep.log
        fields = 2 * depth - 1

        def count(kind, n_fields, backward):
            # Backward sweeps run on the reflected landscape, not on l.
            return sum(
                1 for e in log
                if e[0] == kind and e[1] == n_fields and (e[2] is not l) == backward
            )

        want = _scan_counts()(n, depth, budget)
        n_layers = 2 * n - 1
        assert count("step", fields, False) == want["table_steps_forward"] == n_layers
        assert count("step", fields, True) == want["table_steps_backward"]
        assert count("snapshot", fields, True) == want["replay_blocks"] - 1
        assert count("snapshot", fields, False) == 0

        # The winner's forward sweep stops on its end layer, and its backward
        # replay ends with the block that holds that layer.
        tau_end = sum(res.best_end)
        fwd_taus = [e[3] for e in log if e[0] == "step" and e[1] == 1 and e[2] is l]
        assert fwd_taus == list(range(tau_end + 1))
        edges = boundary._block_edges(n_layers, n * 8, budget)
        scout = n_layers - edges[1] if len(edges) > 2 else 0
        last = min(e for e in edges if e > tau_end)
        assert count("step", 1, True) == scout + last
        assert count("snapshot", 1, True) == len(edges) - 2
