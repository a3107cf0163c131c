"""Boundary fan enumeration and the grid search over anchor pairs."""

import numpy as np
import pytest

from toplag import boundary
from toplag.boundary import (
    BoundarySpec,
    enumerate_boundaries,
    select_optimal,
)
from toplag.errors import DepthTooLargeError, NoAdmissiblePairError
from toplag.ingest import AlignedPair
from toplag.landscape import build_landscape
from toplag.synth import LagScenario, brute_force_thermal, generate
from toplag.thermal import backward_weights, forward_weights, thermal_average

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
