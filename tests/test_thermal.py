"""Boltzmann weight propagation and thermally averaged trajectories.

Every numeric claim here is checked against the exhaustive enumeration
reference, which shares no code with the sweep engine.
"""

import math

import numpy as np
import pytest

from toplag.errors import EmptyLayerError, InvalidBoundaryError
from toplag.ingest import AlignedPair
from toplag.landscape import build_landscape, layer_bounds
from toplag.synth import LagScenario, brute_force_thermal, generate
from toplag.thermal import (
    _StackedSweep,
    backward_weights,
    forward_weights,
    thermal_average,
)
from toplag.zerotemp import optimal_path

from conftest import integer_pair, random_pair


# Reference sweep: _StackedSweep as it was written before the padded-row
# layout, with fresh zero-filled layers and three aligned accumulations per
# step. The padded-row sweep must reproduce its layers bit for bit.
def _accumulate(out, prev, lo_prev, lo, shift):
    """out[:, i-lo] += prev[:, i-shift-lo_prev] over the overlapping i."""
    if prev is None or prev.shape[1] == 0:
        return
    width = out.shape[1]
    hi_prev = lo_prev + prev.shape[1] - 1
    i_first = max(lo, lo_prev + shift)
    i_last = min(lo + width - 1, hi_prev + shift)
    if i_first > i_last:
        return
    out[:, i_first - lo : i_last - lo + 1] += prev[
        :, i_first - shift - lo_prev : i_last - shift - lo_prev + 1
    ]


class _ReferenceSweep:
    """Forward transfer-matrix sweeps for several seed nodes at once.

    Field f holds the path weights from seed f. Only the two most recent
    layers are retained: stored values are scaled so each field's layer
    maximum is 1, with true weights equal to stored * exp(logscale[f]).
    Layers are produced in order tau = 0, 1, ..., 2n-2 by step().
    """

    def __init__(self, l, seeds, temperature):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.l = l
        self.n = l.n
        self.T = float(temperature)
        self.n_fields = len(seeds)
        self.seed_by_tau = {}
        for f, (i, j) in enumerate(seeds):
            i, j = int(i), int(j)
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidBoundaryError(
                    f"seed ({i}, {j}) outside the {self.n} x {self.n} lattice"
                )
            self.seed_by_tau.setdefault(i + j, []).append((f, i))
        self.tau = -1
        self.s1 = None  # stored weights on layer tau, full layer extent
        self.lo1 = 0
        self.log1 = np.full(self.n_fields, -np.inf)
        self.s2 = None  # layer tau - 1
        self.lo2 = 0
        self.log2 = np.full(self.n_fields, -np.inf)

    def snapshot(self):
        return {
            "tau": self.tau,
            "s1": None if self.s1 is None else self.s1.copy(),
            "lo1": self.lo1,
            "log1": self.log1.copy(),
            "s2": None if self.s2 is None else self.s2.copy(),
            "lo2": self.lo2,
            "log2": self.log2.copy(),
        }

    def restore(self, snap):
        self.tau = snap["tau"]
        self.s1 = None if snap["s1"] is None else snap["s1"].copy()
        self.lo1 = snap["lo1"]
        self.log1 = snap["log1"].copy()
        self.s2 = None if snap["s2"] is None else snap["s2"].copy()
        self.lo2 = snap["lo2"]
        self.log2 = snap["log2"].copy()

    def step(self):
        """Produce the next layer; afterwards s1/log1/lo1 describe it."""
        tau = self.tau + 1
        if tau > 2 * self.n - 2:
            raise EmptyLayerError(tau)
        lo, hi = layer_bounds(self.n, tau)
        width = hi - lo + 1
        eps = self.l.layer(tau)
        emin = float(eps.min())
        w = np.exp((emin - eps) / self.T)  # in (0, 1]

        log_max = np.maximum(self.log1, self.log2)
        active = np.isfinite(log_max)
        f1 = np.zeros(self.n_fields)
        f2 = np.zeros(self.n_fields)
        if active.any():
            f1[active] = np.exp(self.log1[active] - log_max[active])
            f2[active] = np.exp(self.log2[active] - log_max[active])

        raw = np.zeros((self.n_fields, width))
        _accumulate(raw, self.s1, self.lo1, lo, 0)  # predecessor (i, j-1)
        _accumulate(raw, self.s1, self.lo1, lo, 1)  # predecessor (i-1, j)
        raw *= f1[:, None]
        if self.s2 is not None and self.s2.shape[1]:
            diag = np.zeros((self.n_fields, width))
            _accumulate(diag, self.s2, self.lo2, lo, 1)  # predecessor (i-1, j-1)
            diag *= f2[:, None]
            raw += diag
        raw *= w[None, :]

        # A field's whole mass at its seed layer is the seed's own weight.
        log_pre = np.where(active, log_max, 0.0) - emin / self.T
        for f, i_seed in self.seed_by_tau.get(tau, ()):
            if not lo <= i_seed <= hi:
                raise InvalidBoundaryError(
                    f"seed row {i_seed} not on layer {tau}"
                )
            raw[f, i_seed - lo] = w[i_seed - lo]

        peak = raw.max(axis=1)
        alive = peak > 0
        stored = np.zeros_like(raw)
        log_new = np.full(self.n_fields, -np.inf)
        if alive.any():
            stored[alive] = raw[alive] / peak[alive, None]
            log_new[alive] = log_pre[alive] + np.log(peak[alive])

        self.s2, self.lo2, self.log2 = self.s1, self.lo1, self.log1
        self.s1, self.lo1, self.log1 = stored, lo, log_new
        self.tau = tau


# Reference sweep: _StackedSweep as it was written before its rows went
# node-major, with feature-major (fields, n + 2) rows and an unconditional
# rescale of the previous layer. The node-major sweep must reproduce its
# layers, log scales and snapshots byte for byte in both number domains.
class _FeatureMajorSweep:
    """Forward transfer-matrix sweeps for several seed nodes at once.

    Field f holds the path weights from seed f. Layers are produced in
    order tau = 0, 1, ..., 2n-2 by step(); afterwards s1 is the current
    layer over its full extent and eps its landscape costs. The number
    domain is fixed at construction:

      linear (default)  stored values are scaled so each field's layer
                        maximum is 1, with true weights equal to
                        stored * exp(log1[f]); a field with no weight left
                        stores zeros and a -inf log scale.
      log_domain=True   stored values are the true log weights, -inf
                        where a field has no weight; log1 and log2 are
                        unused.

    Only the three most recent layers are kept, in three rotating
    (fields, n + 2) rows with node i at column i + 1. A layer writes its
    weights at columns lo+1 .. hi+1 and sentinels of the domain's zero
    weight (0 or -inf) at lo and hi+2. Layer bounds move by at most one per
    layer, so the predecessor slices a step reads (columns lo .. hi+1 of
    the previous row, lo .. hi of the one before) stay inside what those
    layers wrote and never read a weight left from the layer a row held
    three layers earlier; the sentinels stand for the nodes outside a
    layer's extent. (With the full-lattice bounds the zero-weight fill of
    fresh or restored rows already covers those cells; the sentinels keep
    the step right for any bounds that step by at most one, such as a lag
    band.)
    """

    def __init__(self, l, seeds, temperature, log_domain=False):
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        self.l = l
        self.n = l.n
        self.T = float(temperature)
        self.log_domain = log_domain
        self.zero = -np.inf if log_domain else 0.0
        self.n_fields = len(seeds)
        self.seed_by_tau = {}
        for f, (i, j) in enumerate(seeds):
            i, j = int(i), int(j)
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidBoundaryError(
                    f"seed ({i}, {j}) outside the {self.n} x {self.n} lattice"
                )
            self.seed_by_tau.setdefault(i + j, []).append((f, i))
        # np.zeros leaves the pages of a linear sweep's rows unmapped until a
        # step writes them, which keeps the scan's peak memory down.
        shape = (3, self.n_fields, self.n + 2)
        self.rows = np.full(shape, -np.inf) if log_domain else np.zeros(shape)
        self.tau = -1
        self.s1 = None  # stored weights on layer tau, full layer extent
        self.lo1 = 0
        self.log1 = np.full(self.n_fields, -np.inf)
        self.log2 = np.full(self.n_fields, -np.inf)  # layer tau - 1
        self.eps = None  # landscape costs on layer tau

    def _layer(self, tau):
        """Stored weights on a retained layer, over its full extent."""
        lo, hi = layer_bounds(self.n, tau)
        return self.rows[tau % 3, :, lo + 1 : hi + 2]

    def snapshot(self):
        """Copies of the two retained layers, over their full extents."""
        return {
            "tau": self.tau,
            "s1": None if self.s1 is None else self.s1.copy(),
            "log1": self.log1.copy(),
            "s2": self._layer(self.tau - 1).copy() if self.tau >= 1 else None,
            "log2": self.log2.copy(),
        }

    def restore(self, snap):
        self.rows[:] = self.zero
        self.tau = tau = snap["tau"]
        self.s1, self.lo1, self.eps = None, 0, None
        if snap["s2"] is not None:
            self._layer(tau - 1)[:] = snap["s2"]
        if snap["s1"] is not None:
            self.s1 = self._layer(tau)
            self.s1[:] = snap["s1"]
            self.lo1 = layer_bounds(self.n, tau)[0]
        self.log1 = snap["log1"].copy()
        self.log2 = snap["log2"].copy()

    def step(self):
        """Produce the next layer; afterwards s1/log1/lo1/eps describe it."""
        tau = self.tau + 1
        if tau > 2 * self.n - 2:
            raise EmptyLayerError(tau)
        lo, hi = layer_bounds(self.n, tau)
        eps = self.l.layer(tau)
        # A field's whole mass at its seed layer is the seed's own weight.
        # Seeds are inside the lattice, so each lies on its layer's extent.
        seeds = self.seed_by_tau.get(tau, ())

        p1 = self.rows[(tau - 1) % 3]
        p2 = self.rows[(tau - 2) % 3]
        cur = self.rows[tau % 3]
        raw = cur[:, lo + 1 : hi + 2]
        # predecessors (i, j-1) and (i-1, j) on layer tau-1, (i-1, j-1) on tau-2
        if self.log_domain:
            np.logaddexp(p1[:, lo + 1 : hi + 2], p1[:, lo : hi + 1], out=raw)
            np.logaddexp(raw, p2[:, lo : hi + 1], out=raw)
            cost = eps / self.T
            raw -= cost
            for f, i_seed in seeds:
                raw[f, i_seed - lo] = -cost[i_seed - lo]
        else:
            emin = float(eps.min())
            w = np.exp((emin - eps) / self.T)  # in (0, 1]

            log_max = np.maximum(self.log1, self.log2)
            base = np.where(np.isfinite(log_max), log_max, 0.0)
            f1 = np.exp(self.log1 - base)[:, None]
            f2 = np.exp(self.log2 - base)[:, None]

            np.add(p1[:, lo + 1 : hi + 2], p1[:, lo : hi + 1], out=raw)
            raw *= f1
            raw += p2[:, lo : hi + 1] * f2
            raw *= w

            log_pre = base - emin / self.T
            for f, i_seed in seeds:
                raw[f, i_seed - lo] = w[i_seed - lo]

            # A field with no weight left keeps zeros and a -inf log scale.
            peak = raw.max(axis=1)
            raw /= np.where(peak > 0, peak, 1.0)[:, None]
            with np.errstate(divide="ignore"):
                log_new = log_pre + np.log(peak)
            self.log2, self.log1 = self.log1, log_new
        cur[:, lo] = self.zero
        cur[:, hi + 2] = self.zero

        self.s1, self.lo1 = raw, lo
        self.eps = eps
        self.tau = tau


def _layer_state(sweep):
    """The bytes of what a sweep publishes about its current layer."""
    return (
        sweep.tau,
        sweep.lo1,
        None if sweep.s1 is None else (sweep.s1.shape, sweep.s1.tobytes()),
        sweep.log1.tobytes(),
        None if sweep.eps is None else sweep.eps.tobytes(),
    )


def _snapshot_state(snap):
    def state(v):
        if isinstance(v, np.ndarray):
            return v.shape, v.flags.c_contiguous, v.tobytes()
        return v

    return {k: state(v) for k, v in snap.items()}


def _rescale_factors(sweep):
    """f1 of the sweep's next linear step: exp(log1 - max(log1, log2))."""
    log_max = np.maximum(sweep.log1, sweep.log2)
    base = np.where(np.isfinite(log_max), log_max, 0.0)
    return np.exp(sweep.log1 - base)


def _assert_matches_feature_major(l, seeds, T, log_domain):
    """Step both sweeps over every layer; returns, per step once every field
    is seeded, whether that step rescaled the previous layer (f1 < 1)."""
    ref = _FeatureMajorSweep(l, seeds, T, log_domain=log_domain)
    sweep = _StackedSweep(l, seeds, T, log_domain=log_domain)
    seeded = max(i + j for i, j in seeds)
    rescaled = []
    for tau in range(2 * l.n - 1):
        if tau > seeded:
            rescaled.append(not (_rescale_factors(ref) == 1.0).all())
        ref.step()
        sweep.step()
        assert _layer_state(sweep) == _layer_state(ref)
    return rescaled


DOMAINS = pytest.mark.parametrize("log_domain", [False, True], ids=["linear", "log"])


class TestNodeMajorSweepMatchesFeatureMajor:
    @DOMAINS
    @pytest.mark.parametrize("T", [2.0, 0.01])
    def test_seeds_on_different_layers(self, log_domain, T):
        n = 15
        l = build_landscape(random_pair(4, n, scale=3.0))
        seeds = [(0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0), (4, 9), (7, 2), (0, 3)]
        _assert_matches_feature_major(l, seeds, T, log_domain)

    @DOMAINS
    @pytest.mark.parametrize("n", [2, 3])
    def test_tiny_lattices(self, log_domain, n):
        l = build_landscape(random_pair(5, n, scale=3.0))
        corners = [(0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0)]
        for T in (2.0, 0.01):
            _assert_matches_feature_major(l, corners, T, log_domain)

    @DOMAINS
    def test_boundary_fan_on_reflected_landscape(self, log_domain):
        n = 40
        l = build_landscape(random_pair(6, n, scale=3.0)).reflected()
        fan = [(i, 0) for i in range(6)] + [(0, i) for i in range(1, 6)]
        _assert_matches_feature_major(l, fan, 2.0, log_domain)

    def test_both_rescale_branches_after_seeding(self):
        # The node-major step skips the rescale of the previous layer when
        # every f1 is exactly 1. A seeded field whose layer scale falls
        # (a run of costly layers) forces f1 < 1 and the full rescale; on
        # this landscape both happen after the last seed is in.
        n = 30
        x = np.zeros(n)
        x[12:18] = 6.0
        l = build_landscape(AlignedPair(x=x, y=np.zeros(n)))
        seeds = [(0, 0), (2, 0), (0, 2)]
        rescaled = _assert_matches_feature_major(l, seeds, 2.0, False)
        assert any(rescaled) and not all(rescaled)

    @DOMAINS
    @pytest.mark.parametrize("T", [2.0, 0.01])
    def test_restore_into_dirty_rows(self, log_domain, T):
        n = 20
        l = build_landscape(random_pair(7, n, scale=3.0))
        seeds = [(0, 0), (3, 0), (0, 5), (9, 9)]
        ref = _FeatureMajorSweep(l, seeds, T, log_domain=log_domain)
        a = _StackedSweep(l, seeds, T, log_domain=log_domain)
        for _ in range(13):
            ref.step()
            a.step()
        snap = a.snapshot()
        assert _snapshot_state(snap) == _snapshot_state(ref.snapshot())
        b = _StackedSweep(l, seeds, T, log_domain=log_domain)
        for _ in range(29):  # leaves weights of later layers in every row
            b.step()
        b.restore(snap)
        # restore() leaves eps unset until the next step
        assert _layer_state(b)[:4] == _layer_state(a)[:4]
        for _ in range(13, 2 * n - 1):
            ref.step()
            b.step()
            assert _layer_state(b) == _layer_state(ref)

    @DOMAINS
    def test_snapshot_orientation(self, log_domain):
        n = 10
        l = build_landscape(random_pair(8, n))
        seeds = [(0, 0), (1, 0), (0, 2)]
        ref = _FeatureMajorSweep(l, seeds, 2.0, log_domain=log_domain)
        sweep = _StackedSweep(l, seeds, 2.0, log_domain=log_domain)
        for _ in range(2 * n - 1):
            # (fields, width) copies in C order, as the checkpoints always were
            assert _snapshot_state(sweep.snapshot()) == _snapshot_state(ref.snapshot())
            ref.step()
            sweep.step()


def delannoy_table(m):
    d = np.zeros((m, m), dtype=np.int64)
    d[0, :] = 1
    d[:, 0] = 1
    for i in range(1, m):
        for j in range(1, m):
            d[i, j] = d[i - 1, j] + d[i, j - 1] + d[i - 1, j - 1]
    return d


class TestForwardWeights:
    def test_seed_node_weight(self):
        pair = random_pair(0, 5)
        l = build_landscape(pair)
        T = 1.7
        f = forward_weights(l, (0, 0), T)
        assert f.node_log_weight(0, 0) == pytest.approx(-l.entry(0, 0) / T)

    def test_zero_cost_landscape_counts_paths(self):
        n = 5
        l = build_landscape(AlignedPair(x=np.zeros(n), y=np.zeros(n)))
        f = forward_weights(l, (0, 0), 2.0)
        d = delannoy_table(n)
        for i in range(n):
            for j in range(n):
                assert f.node_log_weight(i, j) == pytest.approx(math.log(d[i, j]))
        assert d[2, 2] == 13

    def test_every_node_matches_enumerated_path_sum(self):
        pair = random_pair(12, 7)
        l = build_landscape(pair)
        T = 2.0
        f = forward_weights(l, (0, 0), T)
        for i in range(7):
            for j in range(7):
                ref = brute_force_thermal(l, (0, 0), end=(i, j), temperature=T)
                assert f.node_log_weight(i, j) == pytest.approx(
                    ref["log_partition"], abs=1e-9
                )

    def test_outside_cone_is_zero(self):
        pair = random_pair(3, 6)
        l = build_landscape(pair)
        f = forward_weights(l, (2, 2), 1.0)
        assert f.node_log_weight(2, 3) > -np.inf
        with pytest.raises(EmptyLayerError):
            f.layer(1)
        lo, _ = layer_bounds(6, 5)
        vec, _ = f.layer(5)
        # node (1, 4) sits on layer 5 but outside the cone of (2, 2)
        assert vec[1 - lo] == -np.inf

    def test_rejects_bad_inputs(self):
        l = build_landscape(random_pair(0, 5))
        with pytest.raises(ValueError):
            forward_weights(l, (0, 0), 0.0)
        with pytest.raises(InvalidBoundaryError):
            forward_weights(l, (5, 0), 1.0)


class TestBackwardWeights:
    def test_palindromic_landscape_reflects_forward_field(self):
        rng = np.random.default_rng(7)
        half = rng.normal(size=4)
        x = np.concatenate([half, half[::-1]])
        y = rng.normal(size=8)
        y = np.concatenate([y[:4], y[:4][::-1]])
        l = build_landscape(AlignedPair(x=x, y=y))
        n = 8
        f = forward_weights(l, (0, 0), 1.5)
        b = backward_weights(l, (n - 1, n - 1), 1.5)
        for i in range(n):
            for j in range(n):
                assert b.node_log_weight(i, j) == pytest.approx(
                    f.node_log_weight(n - 1 - i, n - 1 - j), abs=1e-9
                )

    def test_matches_enumeration_from_each_node_to_end(self):
        pair = random_pair(21, 7)
        l = build_landscape(pair)
        T = 2.0
        b = backward_weights(l, (6, 6), T)
        for i in range(7):
            for j in range(7):
                ref = brute_force_thermal(l, (i, j), end=(6, 6), temperature=T)
                assert b.node_log_weight(i, j) == pytest.approx(
                    ref["log_partition"], abs=1e-9
                )


class TestThermalAverage:
    def test_identical_series_average_lag_vanishes(self):
        pair = random_pair(2, 40)
        pair = AlignedPair(x=pair.x, y=pair.x.copy())
        l = build_landscape(pair)
        f = forward_weights(l, (0, 0), 2.0)
        b = backward_weights(l, (39, 39), 2.0)
        p = thermal_average(l, f, b)
        assert np.max(np.abs(p.mean_lag)) <= 1e-9

    def test_bridge_matches_enumeration(self):
        for seed, mode in [(31, "minus"), (32, "plus"), (33, "mixed")]:
            pair = random_pair(seed, 7)
            l = build_landscape(pair, mode=mode)
            f = forward_weights(l, (0, 0), 2.0)
            b = backward_weights(l, (6, 6), 2.0)
            got = thermal_average(l, f, b)
            ref = brute_force_thermal(l, (0, 0), end=(6, 6), temperature=2.0)
            assert np.allclose(got.mean_lag, ref["mean_lag"], atol=1e-9)
            assert np.allclose(got.layer_cost, ref["layer_cost"], atol=1e-9)
            assert got.energy == pytest.approx(ref["path_cost"], abs=1e-9)
            assert got.log_partition == pytest.approx(
                ref["log_partition"], abs=1e-9
            )

    def test_forward_mode_matches_enumeration(self):
        pair = random_pair(34, 6)
        l = build_landscape(pair)
        f = forward_weights(l, (0, 0), 1.0)
        got = thermal_average(l, f)
        ref = brute_force_thermal(l, (0, 0), temperature=1.0, mode="forward")
        assert np.allclose(got.mean_lag, ref["mean_lag"], atol=1e-9)
        assert got.energy == pytest.approx(ref["path_cost"], abs=1e-9)

    def test_constant_landscape_energy_is_the_constant(self):
        l = build_landscape(AlignedPair(x=np.full(12, 2.0), y=np.full(12, 0.5)))
        f = forward_weights(l, (0, 0), 2.0)
        b = backward_weights(l, (11, 11), 2.0)
        p = thermal_average(l, f, b)
        assert np.allclose(p.layer_cost, 1.5, atol=1e-12)
        assert p.energy == pytest.approx(1.5, abs=1e-12)
        z = build_landscape(AlignedPair(x=np.zeros(12), y=np.zeros(12)))
        fz = forward_weights(z, (0, 0), 2.0)
        bz = backward_weights(z, (11, 11), 2.0)
        assert thermal_average(z, fz, bz).energy == 0.0

    def test_low_temperature_approaches_hard_path(self):
        for seed in range(40):
            pair = integer_pair(seed, 8)
            l = build_landscape(pair)
            hard = optimal_path(l)
            f = forward_weights(l, (0, 0), 0.01)
            b = backward_weights(l, (7, 7), 0.01)
            soft = thermal_average(l, f, b)
            at = {int(t): float(m) for t, m in zip(soft.taus, soft.mean_lag)}
            ok = all(
                abs(at[int(t)] - x) < 0.05 for t, x in zip(hard.taus, hard.lags)
            )
            if ok:
                return
        pytest.fail("cold bridge never matched the DP path")

    def test_lagged_pair_recovers_lag_in_bulk(self):
        s = LagScenario(kind="constant", n=200, seed=9, k=5, noise_sigma=0.05)
        pair, _ = generate(s)
        l = build_landscape(pair)
        f = forward_weights(l, (0, 5), 2.0)
        b = backward_weights(l, (194, 199), 2.0)
        p = thermal_average(l, f, b)
        bulk = slice(p.taus.size // 4, 3 * p.taus.size // 4)
        assert np.median(np.abs(p.mean_lag[bulk] - 5.0)) < 0.5

    def test_swap_negates_trajectory(self):
        pair = random_pair(8, 30)
        l = build_landscape(pair)
        ls = build_landscape(AlignedPair(x=pair.y, y=pair.x))
        f = forward_weights(l, (0, 3), 1.5)
        b = backward_weights(l, (27, 29), 1.5)
        p = thermal_average(l, f, b)
        fs = forward_weights(ls, (3, 0), 1.5)
        bs = backward_weights(ls, (29, 27), 1.5)
        q = thermal_average(ls, fs, bs)
        assert np.allclose(p.mean_lag, -q.mean_lag, atol=1e-9)
        assert np.allclose(p.layer_cost, q.layer_cost, atol=1e-9)

    def test_mean_lag_is_convex_combination_of_layer_lags(self):
        pair = random_pair(14, 25)
        l = build_landscape(pair)
        f = forward_weights(l, (0, 0), 2.0)
        b = backward_weights(l, (24, 24), 2.0)
        p = thermal_average(l, f, b)
        for tau, m in zip(p.taus, p.mean_lag):
            lo, hi = layer_bounds(25, int(tau))
            assert (int(tau) - 2 * hi) - 1e-9 <= m <= (int(tau) - 2 * lo) + 1e-9

    def test_partition_agrees_between_directions(self):
        # the total bridge weight must read the same from either anchor
        pair = random_pair(15, 20)
        l = build_landscape(pair)
        f = forward_weights(l, (0, 1), 2.0)
        b = backward_weights(l, (18, 19), 2.0)
        p = thermal_average(l, f, b)
        assert p.log_partition == pytest.approx(
            f.node_log_weight(18, 19), abs=1e-9
        )
        assert f.node_log_weight(18, 19) == pytest.approx(
            b.node_log_weight(0, 1), abs=1e-9
        )

    def test_mismatched_fields_rejected(self):
        pair = random_pair(17, 10)
        l = build_landscape(pair)
        f = forward_weights(l, (0, 0), 1.0)
        with pytest.raises(InvalidBoundaryError):
            thermal_average(l, f, f)


def _assert_same_layer(a, b):
    assert a.tau == b.tau
    assert a.lo1 == b.lo1
    assert np.array_equal(a.s1, b.s1)
    assert np.array_equal(a.log1, b.log1)


def _assert_sweep_matches_reference(l, seeds, T):
    ref = _ReferenceSweep(l, seeds, T)
    sweep = _StackedSweep(l, seeds, T)
    for tau in range(2 * l.n - 1):
        ref.step()
        sweep.step()
        _assert_same_layer(sweep, ref)
        assert np.array_equal(sweep.eps, l.layer(tau))


class TestStackedSweepMatchesReference:
    @pytest.mark.parametrize("T", [2.0, 0.01])
    def test_several_seeds_on_one_layer(self, T):
        l = build_landscape(random_pair(3, 12, scale=3.0))
        _assert_sweep_matches_reference(l, [(2, 0), (1, 1), (0, 2)], T)

    @pytest.mark.parametrize("T", [2.0, 0.01])
    def test_interior_seeds_and_corners(self, T):
        n = 15
        l = build_landscape(random_pair(4, n, scale=3.0))
        seeds = [(0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0), (4, 9), (7, 2)]
        _assert_sweep_matches_reference(l, seeds, T)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("T", [2.0, 0.01])
    def test_tiny_lattices(self, n, T):
        l = build_landscape(random_pair(5, n, scale=3.0))
        corners = [(0, 0), (n - 1, n - 1), (0, n - 1), (n - 1, 0)]
        _assert_sweep_matches_reference(l, corners, T)

    @pytest.mark.parametrize("T", [2.0, 0.01])
    def test_boundary_fan_on_reflected_landscape(self, T):
        n = 40
        l = build_landscape(random_pair(6, n, scale=3.0)).reflected()
        fan = [(i, 0) for i in range(6)] + [(0, i) for i in range(1, 6)]
        _assert_sweep_matches_reference(l, fan, T)

    @pytest.mark.parametrize("T", [2.0, 0.01])
    def test_restore_into_dirty_sweep(self, T):
        n = 20
        l = build_landscape(random_pair(7, n, scale=3.0))
        seeds = [(0, 0), (3, 0), (0, 5), (9, 9)]
        ref = _ReferenceSweep(l, seeds, T)
        a = _StackedSweep(l, seeds, T)
        for _ in range(13):
            ref.step()
            a.step()
        snap = a.snapshot()
        b = _StackedSweep(l, seeds, T)
        for _ in range(29):
            b.step()
        b.restore(snap)
        _assert_same_layer(b, ref)
        for _ in range(13, 2 * n - 1):
            ref.step()
            a.step()
            b.step()
            _assert_same_layer(a, ref)
            _assert_same_layer(b, a)

    def test_snapshot_holds_layer_extent_copies(self):
        n = 10
        l = build_landscape(random_pair(8, n))
        sweep = _StackedSweep(l, [(0, 0), (1, 0)], 2.0)
        assert sweep.snapshot()["s1"] is None
        sweep.step()
        assert sweep.snapshot()["s2"] is None
        for _ in range(6):
            sweep.step()
        snap = sweep.snapshot()
        assert snap["s1"].shape == (2, 7)
        assert snap["s2"].shape == (2, 6)
        held = snap["s1"].copy()
        assert np.array_equal(held, sweep.s1)
        for _ in range(3):  # the third step overwrites the layer's row
            sweep.step()
        assert np.array_equal(snap["s1"], held)


# Reference log-space sweep: the materializing APIs' own recursion before
# they became one-field log-domain runs of _StackedSweep. The new fields
# must reproduce its layers byte for byte.
def _log_accumulate(out, prev, lo_prev, lo, shift):
    """out[i] = logaddexp(out[i], prev[i - shift]) on the overlapping rows."""
    hi_prev = lo_prev + prev.size - 1
    i_first = max(lo, lo_prev + shift)
    i_last = min(lo + out.size - 1, hi_prev + shift)
    if i_first > i_last:
        return
    dst = slice(i_first - lo, i_last - lo + 1)
    src = slice(i_first - shift - lo_prev, i_last - shift - lo_prev + 1)
    np.logaddexp(out[dst], prev[src], out=out[dst])


def _log_sweep(l, seed, temperature):
    """Single-seed forward recursion carried entirely in log weights.

    Yields (tau, log_row) for every layer. Rows before the seed layer and
    nodes outside the seed's cone are -inf. Log space gives the recursion
    unbounded dynamic range: near the cold limit, within-layer weight
    ratios overwhelm any linear double, scaled or not.
    """
    n = l.n
    T = float(temperature)
    si, sj = seed
    tau0 = si + sj
    prev1 = prev2 = None
    lo1 = lo2 = 0
    for tau in range(2 * n - 1):
        lo, hi = layer_bounds(n, tau)
        row = np.full(hi - lo + 1, -np.inf)
        if tau > tau0:
            _log_accumulate(row, prev1, lo1, lo, 0)  # predecessor (i, j-1)
            _log_accumulate(row, prev1, lo1, lo, 1)  # predecessor (i-1, j)
            if prev2 is not None:
                _log_accumulate(row, prev2, lo2, lo, 1)  # predecessor (i-1, j-1)
            row -= np.asarray(l.layer(tau), dtype=np.float64) / T
        elif tau == tau0:
            row[si - lo] = -float(l.entry(si, sj)) / T
        prev2, lo2 = prev1, lo1
        prev1, lo1 = row, lo
        yield tau, row


def _reference_field(l, node, T, backward):
    """(vecs, logscale, tau_min, tau_max) as the reference APIs built them."""
    n = l.n
    i, j = node
    vecs = [None] * (2 * n - 1)
    logscale = np.full(2 * n - 1, -np.inf)
    if backward:
        for tau_r, row in _log_sweep(l.reflected(), (n - 1 - i, n - 1 - j), T):
            tau = 2 * n - 2 - tau_r
            if tau <= i + j:
                r = row[::-1]
                m = float(r.max())
                vecs[tau] = r - m
                logscale[tau] = m
        return vecs, logscale, 0, i + j
    for tau, row in _log_sweep(l, (i, j), T):
        if tau >= i + j:
            m = float(row.max())
            vecs[tau] = row - m
            logscale[tau] = m
    return vecs, logscale, i + j, 2 * n - 2


def _layer_bytes(vecs):
    return [None if v is None else v.tobytes() for v in vecs]


class TestWeightFieldsMatchReference:
    @pytest.mark.parametrize("T", [10.0, 2.0, 0.05, 0.004, 1e-4])
    @pytest.mark.parametrize("n", [2, 3, 7, 24, 60, 150])
    def test_fields_are_byte_identical(self, n, T):
        pair = random_pair(n, n, scale=2.0)
        nodes = [(0, 0), (n - 1, n - 1), (0, n - 1), (n // 2, n // 3)]
        for cost in ("minus", "plus", "mixed"):
            l = build_landscape(pair, mode=cost)
            for node in nodes:
                for backward, build in ((False, forward_weights), (True, backward_weights)):
                    got = build(l, node, T)
                    vecs, logscale, tau_min, tau_max = _reference_field(l, node, T, backward)
                    assert _layer_bytes(got.vecs) == _layer_bytes(vecs)
                    assert got.logscale.tobytes() == logscale.tobytes()
                    assert (got.tau_min, got.tau_max) == (tau_min, tau_max)

    @pytest.mark.parametrize("T", [2.0, 1e-3])
    def test_stacked_log_sweep_equals_its_one_field_runs(self, T):
        n = 30
        l = build_landscape(random_pair(9, n, scale=3.0))
        seeds = [(0, 0), (3, 0), (0, 5), (9, 9), (n - 1, 0), (n - 1, n - 1)]
        stacked = _StackedSweep(l, seeds, T, log_domain=True)
        singles = [_StackedSweep(l, [s], T, log_domain=True) for s in seeds]
        for _ in range(2 * n - 1):
            stacked.step()
            for f, single in enumerate(singles):
                single.step()
                assert stacked.s1[f].tobytes() == single.s1[0].tobytes()
