"""Boundary fan enumeration and the grid search over anchor pairs."""

import importlib.util
import math
import warnings
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
from toplag.errors import (
    CostOverflowError,
    DepthTooLargeError,
    NoAdmissiblePairError,
)
from toplag.ingest import AlignedPair
from toplag.landscape import EnergyLandscape, build_landscape
from toplag.synth import LagScenario, brute_force_thermal, generate
from toplag.thermal import (
    _StackedSweep,
    backward_weights,
    forward_weights,
    thermal_average,
)
from toplag.zerotemp import optimal_path

from conftest import random_pair
from test_thermal import _ReferenceField, _ReferenceSweep, _reference_thermal_average


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

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, -1.0])
    def test_temperature_must_be_finite_and_positive(self, t):
        l = self._fixture(n=30)
        with pytest.raises(ValueError, match="finite and positive"):
            select_optimal(l, temperature=t, depth=3)

    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    def test_cost_sums_that_overflow_are_refused(self, mode):
        # Costs near 1e307 keep every layer cost finite, but a layer's
        # width times its largest cost, and the pairs' summed layer means,
        # pass the double range. That is an overflow, not an underflow.
        rng = np.random.default_rng(0)
        x = 1e307 * rng.standard_normal(40)
        y = 1e307 * rng.standard_normal(40)
        l = build_landscape(AlignedPair(x=x, y=y))
        with pytest.raises(CostOverflowError, match="could overflow the double range"):
            select_optimal(l, temperature=2e307, depth=5, mode=mode)

    @pytest.mark.parametrize("T", [0.004, 0.006, 0.01])
    def test_cold_table_entries_match_thermal_average(self, T):
        # The table takes each layer's products once, lifted so that their
        # terms stay normal; a pair whose lifted den is below the floor is
        # evaluated in log space. Every finite entry is then right to
        # rounding, although the sweep's stored weights lose cold mass.
        l = self._fixture(seed=0, n=60)
        res = select_optimal(l, temperature=T, depth=10)
        table = res.energy_table
        finite = np.isfinite(table)
        assert finite.any() and np.isinf(table).any()
        want = _thermal_energies(l, res, finite)
        assert np.abs(table[finite] - want[finite]).max() <= 1e-12

    def test_product_lift_keeps_the_unlifted_bits(self):
        # Costs spanning less than 700 T: u is exp((eps - emax) / T) and the
        # scale is 2**shift with shift = 1000 - ceil(log2(width * max(1, emax))).
        eps = np.random.default_rng(0).uniform(0.0, 3.0, 40)
        assert 64 < 40 * eps.max() <= 128
        # ceil(log2(width * max(1, emax))) is 7, then 6 (emax = 1).
        for layer, T, shift in ((eps, 2.0, 993), (eps / eps.max(), 0.01, 994)):
            u, scale = boundary._product_lift(layer, float(layer.min()), T)
            assert u.tobytes() == np.exp((layer - layer.max()) / T).tobytes()
            assert scale == 2.0**shift

    @pytest.mark.parametrize("span", [1000.0, 1400.0])
    def test_product_lift_of_a_wide_cost_span(self, span):
        # Costs spanning `span` T: unlifted, the bridge weights of the
        # cheapest nodes underflow.
        T = 0.5
        eps = np.linspace(0.0, span * T, 40)
        assert np.exp((eps.min() - eps.max()) / T) == 0.0
        u, scale = boundary._product_lift(eps, 0.0, T)
        assert u.min() >= np.finfo(float).tiny and np.isfinite(u.max())
        assert u.max() * scale * eps.size * max(1.0, eps.max()) <= 2.0**1000
        # The scale may fall below 1, but the lift as a whole still raises u.
        assert u.max() * scale >= 1.0

    def test_explicit_spec_overrides_depth(self):
        l = self._fixture(n=40)
        spec = BoundarySpec(
            n=40, depth=1, start_nodes=((0, 0),), end_nodes=((39, 39),)
        )
        res = select_optimal(l, temperature=2.0, spec=spec)
        assert res.energy_table.shape == (1, 1)
        assert res.best_start == (0, 0) and res.best_end == (39, 39)


def _edge_landscape(factor, n=40):
    """A raw n-sample pair whose (2n - 1) * cost_bound is about factor * DBL_MAX."""
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    top = np.finfo(float).max / (2 * n - 1)
    s = factor * top / (np.abs(x).max() + np.abs(y).max())
    return build_landscape(AlignedPair(x=s * x, y=s * y))


class TestCostSumRule:
    """landscape.check_cost_sums, checked before the first layer by the
    scan in both modes, thermal_average in both modes and optimal_path."""

    @staticmethod
    def _engines(l, T):
        n = l.n
        f = forward_weights(l, (0, 0), T)
        b = backward_weights(l, (n - 1, n - 1), T)
        return [
            lambda: select_optimal(l, temperature=T, depth=5).best,
            lambda: select_optimal(l, temperature=T, depth=5, mode="forward").best,
            lambda: thermal_average(l, f, b),
            lambda: thermal_average(l, f),
            lambda: optimal_path(l),
        ]

    @pytest.mark.parametrize("t_frac", [1.0, 1 / 50])
    def test_just_under_the_bound_runs_without_warnings(self, t_frac):
        l = _edge_landscape(0.999)
        assert math.isfinite((2 * l.n - 1) * l.cost_bound)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for run in self._engines(l, t_frac * l.cost_bound):
                p = run()
                if hasattr(p, "energy"):
                    assert np.isfinite(p.energy)
                    assert np.isfinite(p.layer_cost).all()
                    assert np.isfinite(p.mean_lag).all()
                else:
                    assert np.isfinite(p.total_energy)

    def test_just_over_the_bound_refuses_before_the_first_layer(self, monkeypatch):
        l = _edge_landscape(1.001)
        assert (2 * l.n - 1) * l.cost_bound == math.inf
        calls = []
        layer = EnergyLandscape.layer

        def counted(self, tau):
            calls.append(tau)
            return layer(self, tau)

        monkeypatch.setattr(EnergyLandscape, "layer", counted)
        for run in self._engines(l, l.cost_bound):
            with pytest.raises(CostOverflowError, match="could overflow"):
                run()
        assert calls == []


def _thermal_energies(l, res, where):
    """thermal_average's energy of each bridge pair where `where` holds, NaN
    elsewhere, in the layout of res.energy_table."""
    T = res.temperature
    out = np.full(res.energy_table.shape, np.nan)
    for s_idx, e_idx in zip(*np.nonzero(where)):
        f = forward_weights(l, res.start_nodes[s_idx], T)
        b = backward_weights(l, res.end_nodes[e_idx], T)
        out[s_idx, e_idx] = thermal_average(l, f, b).energy
    return out


class _ReferenceSweepWithCosts(_ReferenceSweep):
    """The reference sweep plus the eps and costs attributes the scan reads.
    It computes every layer's costs itself and ignores those handed over.
    It is linear only, as the score tables are."""

    def __init__(self, l, seeds, temperature, log_domain=False):
        if log_domain:
            raise ValueError("the reference sweep has no log domain")
        super().__init__(l, seeds, temperature)

    def step(self, costs=None):
        super().step()
        self.eps = eps = self.l.layer(self.tau)
        emin = float(eps.min())
        self.costs = (eps, emin, np.exp((emin - eps) / self.T))


class TestScanMatchesReferenceSweep:
    """The score tables give the same bytes on the padded-row sweep as on the
    reference sweep it replaced (tests/test_thermal.py). That sweep is
    linear only, as the tables are; the winner's log-domain path is pinned
    by TestWinnerIsThermalAverage and TestWinnerStatistics."""

    def _compare(
        self, monkeypatch, l, T, depth, mode, budget=boundary.DEFAULT_MEMORY_BUDGET
    ):
        spec = enumerate_boundaries(l.n, depth)
        args = (l, spec.start_nodes, spec.end_nodes, T)

        def table():
            if mode == "bridge":
                return boundary._bridge_table(*args, budget)[0]
            return boundary._forward_table(*args)[0]

        got = table()
        with monkeypatch.context() as m:
            m.setattr(boundary, "_StackedSweep", _ReferenceSweepWithCosts)
            want = table()
        assert got.tobytes() == want.tobytes()
        return got

    _fixture = TestSelectOptimal._fixture

    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    def test_one_replay_block(self, monkeypatch, mode):
        l = self._fixture(seed=13, n=80)
        self._compare(monkeypatch, l, 2.0, 6, mode)

    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    def test_several_replay_blocks(self, monkeypatch, mode):
        l = self._fixture(seed=13, n=80)
        self._compare(monkeypatch, l, 0.5, 6, mode, budget=80 * 11 * 8 * 4)

    def test_cold_scan_with_underflow_fallbacks(self, monkeypatch):
        # T = 0.01 sends many pair-layers to the log-space fallback and
        # underflows some pairs outright; the budget forces several blocks.
        l = self._fixture(seed=0, n=60)
        table = self._compare(monkeypatch, l, 0.01, 10, "bridge", budget=36480)
        assert np.isinf(table).any()


# Reference scan: the score tables and pair selection as they were written
# before the sweeping moved into one layer generator, each with its own
# scout, checkpoint and replay, and the winner's path from the layer-by-layer
# reference of tests/test_thermal.py. select_optimal must reproduce their
# results byte for byte. The tables run the live sweep, whose s1 is a
# transposed view of node-major rows; the arithmetic is the original, on a
# C-order copy of s1, because matrix products and row sums round by memory
# order.
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


def _ref_pair_path(l, start, end, T, mode):
    """The pair's LagPath from tests/test_thermal.py's layer-by-layer
    reference, on materialized log-space fields."""
    f = _ReferenceField(l, forward_weights(l, start, T))
    if mode == "bridge":
        b = _ReferenceField(l, backward_weights(l, end, T))
        return _reference_thermal_average(l, f, b)
    return _reference_thermal_average(l, f, end=end)


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
    path = _ref_pair_path(l, starts[s_idx], ends[e_idx], T, mode)
    return (
        table.tobytes(),
        path.taus.tobytes(),
        path.mean_lag.tobytes(),
        path.layer_cost.tobytes(),
        repr(float(table[s_idx, e_idx])),
        repr(path.log_partition),
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

    def step(self, costs=None):
        super().step(costs)
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

    def test_cold_forward_scan_with_underflowed_pairs(self):
        l = self._fixture(seed=0, n=60)
        res = self._compare(l, 0.01, "forward", 10, 36480)
        assert res.underflowed > 0

    def test_cold_bridge_scan_with_underflow_fallbacks(self):
        # The reference takes each layer's products unlifted and accepts
        # any den > 0, so its cold entries lose the mass of subnormal
        # terms. The scan keeps its NaN and +inf pattern, its winner and
        # the winner's path, and no finite entry is farther from
        # thermal_average than the reference's.
        l = self._fixture(seed=0, n=60)
        T, depth, budget = 0.01, 10, 36480
        res = select_optimal(l, temperature=T, depth=depth, memory_budget=budget)
        got, want = _scan_bytes(res), _ref_select(l, T, "bridge", depth, budget)
        # All but the table, the winner's entry in it and the runner-up gap:
        # the winner's path, the winning pair and the pair counts.
        same = [1, 2, 3, 5, 6, 7, 9, 10]
        assert [got[k] for k in same] == [want[k] for k in same]
        assert res.underflowed > 0
        table = res.energy_table
        ref = np.frombuffer(want[0]).reshape(table.shape)
        finite = np.isfinite(table)
        assert np.array_equal(np.isnan(table), np.isnan(ref))
        assert np.array_equal(np.isinf(table), np.isinf(ref))
        exact = _thermal_energies(l, res, finite)
        err = np.abs(table - exact)[finite]
        assert (err <= np.abs(ref - exact)[finite]).all()

    # Costs and temperature scaled together keep the path weights but move
    # the bridge products' magnitudes: at 1e-150 the cost-weighted sums fall
    # near the bottom of the double range, at 1e150 the power-of-two scale
    # shrinks, and at 1e300 it is 1 on all but the narrowest layers.
    @pytest.mark.parametrize("factor", [1e-150, 1e150, 1e300])
    def test_extreme_cost_magnitudes(self, factor):
        l = self._fixture(seed=13, n=80)
        scaled = build_landscape(AlignedPair(x=l.x * factor, y=l.y * factor))
        self._compare(scaled, 2.0 * factor, "bridge", 6, boundary.DEFAULT_MEMORY_BUDGET)

    @staticmethod
    def _product_layers(monkeypatch, l, **kw):
        """Bridge-product evaluations per table layer, in layer order. A
        second evaluation of a layer would reuse its eps array, which tells
        layers apart."""
        seen = []
        products = boundary._bridge_products

        def counting(fu, eps, sb):
            seen.append(eps)
            return products(fu, eps, sb)

        monkeypatch.setattr(boundary, "_bridge_products", counting)
        select_optimal(l, **kw)
        per_layer = []
        for k, eps in enumerate(seen):
            if k and eps is seen[k - 1]:
                per_layer[-1] += 1
            else:
                per_layer.append(1)
        return per_layer

    @pytest.mark.parametrize(
        "seed, n, kw",
        [
            (13, 80, dict(temperature=2.0, depth=6)),
            (0, 60, dict(temperature=0.01, depth=10, memory_budget=36480)),
        ],
        ids=["T2", "T0.01"],
    )
    def test_layers_take_the_products_once(self, monkeypatch, seed, n, kw):
        l = self._fixture(seed=seed, n=n)
        per_layer = self._product_layers(monkeypatch, l, **kw)
        # Every layer of the full lattice holds a live pair.
        assert per_layer == [1] * l.n_layers

    def test_warm_fixtures_mix_clear_and_edge_layers(self, monkeypatch):
        # A clear layer (a lifted scale, and every lifted den at or above
        # the floor) skips the per-pair masks; the parent-scan pins above
        # cover both kinds only while their warm fixture holds both.
        clear = []
        products = boundary._bridge_products

        def recording(fu, eps, sb):
            den, num = products(fu, eps, sb)
            scale = boundary._product_lift(eps, float(eps.min()), 2.0)[1]
            clear.append(bool(scale > 1 and den.min() >= boundary._PRODUCT_FLOOR))
            return den, num

        monkeypatch.setattr(boundary, "_bridge_products", recording)
        l = self._fixture(seed=13, n=80)
        self._compare(l, 2.0, "bridge", 6, boundary.DEFAULT_MEMORY_BUDGET)
        assert len(clear) == l.n_layers and 100 < sum(clear) < l.n_layers

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


def _path_bytes(p):
    """A LagPath's fields but energy, which a scan's winner takes from its
    table."""
    return (
        p.taus.tobytes(),
        p.mean_lag.tobytes(),
        p.layer_cost.tobytes(),
        repr(p.log_partition),
        repr(p.temperature),
        p.mode,
        p.start,
        p.end,
    )


class TestWinnerStatistics:
    """The winner's statistics, taken _WINNER_CHUNK layers at a time, against
    the layer-by-layer reference path."""

    _fixture = TestSelectOptimal._fixture

    def _pair(self, chunks, extra):
        """A start and end whose path spans chunks * _WINNER_CHUNK + extra
        layers."""
        start = (0, 2)
        tau_end = sum(start) + chunks * boundary._WINNER_CHUNK + extra - 1
        return start, (tau_end // 2, tau_end - tau_end // 2)

    @pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("budget", [boundary.DEFAULT_MEMORY_BUDGET, 80 * 8 * 4])
    def test_bridge_spans_around_a_chunk(self, chunks, extra, budget):
        l = self._fixture(seed=13, n=80)
        start, end = self._pair(chunks, extra)
        got = boundary._bridge_pair_path(l, start, end, 2.0, budget)
        want = _ref_pair_path(l, start, end, 2.0, "bridge")
        assert got.taus.size == chunks * boundary._WINNER_CHUNK + extra
        assert _path_bytes(got) == _path_bytes(want)

    @pytest.mark.parametrize("chunks, extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_forward_spans_around_a_chunk(self, chunks, extra):
        l = self._fixture(seed=13, n=80)
        start, end = self._pair(chunks, extra)
        got = boundary._bridge_pair_path(
            l, start, end, 0.5, boundary.DEFAULT_MEMORY_BUDGET, mode="forward"
        )
        want = _ref_pair_path(l, start, end, 0.5, "forward")
        assert _path_bytes(got) == _path_bytes(want)


class TestWinnerIsThermalAverage:
    """select_optimal's winner trajectory is thermal_average of the winning
    pair, byte for byte, at cold and warm T; only its energy is the table
    entry."""

    _fixture = TestSelectOptimal._fixture

    @pytest.mark.parametrize(
        "budget", [boundary.DEFAULT_MEMORY_BUDGET, 36480], ids=["one-block", "blocks"]
    )
    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    @pytest.mark.parametrize("T", [0.01, 0.5, 2.0])
    def test_winner_bytes(self, T, mode, budget):
        n = 60
        l = self._fixture(seed=0, n=n)
        blocks = len(_block_edges(2 * n - 1, n * 8, budget)) - 1
        assert blocks == 1 if budget == boundary.DEFAULT_MEMORY_BUDGET else blocks > 2
        res = select_optimal(
            l, temperature=T, mode=mode, depth=10, memory_budget=budget
        )
        s = res.start_nodes.index(res.best_start)
        e = res.end_nodes.index(res.best_end)
        assert res.best.energy == res.energy_table[s, e]
        f = forward_weights(l, res.best_start, T)
        if mode == "bridge":
            want = thermal_average(l, f, backward_weights(l, res.best_end, T))
        else:
            want = thermal_average(l, f, end=res.best_end)
        assert _path_bytes(res.best) == _path_bytes(want)


class TestCostHandOff:
    """In a bridge scan the backward replay hands every layer's costs to the
    forward step, which would have computed the same bits: (eps, emin, w) on
    the tables' linear steps, (eps, None, None) on the winner's log steps."""

    _fixture = TestSelectOptimal._fixture

    @pytest.mark.parametrize(
        "seed, n, T, depth, budget",
        [(13, 80, 2.0, 6, 80 * 11 * 8 * 4), (0, 60, 0.01, 10, 36480)],
        ids=["T2", "T0.01"],
    )
    def test_only_backward_steps_compute_costs(
        self, monkeypatch, seed, n, T, depth, budget
    ):
        l = self._fixture(seed=seed, n=n)
        assert len(_block_edges(2 * n - 1, (2 * depth - 1) * n * 8, budget)) > 3
        layer_calls = []
        steps = []
        layer = EnergyLandscape.layer

        def counting(land, tau):
            layer_calls.append(land)
            return layer(land, tau)

        class Recording(_StackedSweep):
            def step(self, costs=None):
                super().step(costs)
                steps.append((self.l, self.tau, costs, self.log_domain))

        with monkeypatch.context() as m:
            m.setattr(EnergyLandscape, "layer", counting)
            m.setattr(boundary, "_StackedSweep", Recording)
            select_optimal(l, temperature=T, depth=depth, memory_budget=budget)

        forward = [s for s in steps if s[0] is l]
        backward = [s for s in steps if s[0] is not l]
        assert len(layer_calls) == len(backward)
        assert all(land is not l for land in layer_calls)
        assert all(costs is None for _, _, costs, _ in backward)
        assert all(costs is not None for _, _, costs, _ in forward)
        table = [s for s in forward if not s[3]]
        winner = [s for s in forward if s[3]]
        assert table and winner
        for _, tau, (eps, emin, w), _ in table:
            own = l.layer(tau)
            own_min = float(own.min())
            assert eps.tobytes() == own.tobytes()
            assert np.float64(emin).tobytes() == np.float64(own_min).tobytes()
            assert w.tobytes() == np.exp((own_min - own) / T).tobytes()
        for _, tau, (eps, emin, w), _ in winner:
            assert eps.tobytes() == l.layer(tau).tobytes()
            assert emin is None and w is None


# The scan at T = 0.01 must follow the zero-temperature path, as acceptance
# test 2 requires of the log-space API on the same generator. The winner's
# trajectory is thermal_average of its pair, exact at any T; only the linear
# table's scores are still lost at cold T (ROADMAP item 3). Seed 23's table
# scores its one pair 2.0 where the pair's path energy is 2.0909, yet its
# trajectory tracks the path; seed 40's table underflows and the scan refuses.
@pytest.mark.parametrize(
    "seed",
    [
        23,
        pytest.param(
            40,
            marks=pytest.mark.xfail(
                strict=True,
                raises=NoAdmissiblePairError,
                reason="the linear table loses cold bridge mass (ROADMAP item 3)",
            ),
        ),
    ],
)
def test_cold_scan_tracks_minimal_path(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 10))
    pair = AlignedPair(
        x=rng.integers(0, 10, size=n).astype(float),
        y=rng.integers(0, 10, size=n).astype(float),
    )
    l = build_landscape(pair)
    hard = optimal_path(l)
    soft = select_optimal(l, temperature=0.01, depth=1).best
    at = {int(t): float(m) for t, m in zip(soft.taus, soft.mean_lag)}
    # a diagonal step skips a layer, so compare on visited layers
    for t, x in zip(hard.taus, hard.lags):
        assert abs(at[int(t)] - x) < 0.05
