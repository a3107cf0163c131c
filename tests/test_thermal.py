"""Boltzmann weight propagation and thermally averaged trajectories.

Every numeric claim here is checked against the exhaustive enumeration
reference, which shares no code with the sweep engine.
"""

import math
import warnings

import numpy as np
import pytest

from toplag import boundary
from toplag.errors import CostOverflowError, EmptyLayerError, InvalidBoundaryError
from toplag.ingest import AlignedPair
from toplag.landscape import (
    MATERIALIZE_LIMIT,
    build_landscape,
    layer_bounds,
    layer_lags,
)
from toplag.synth import LagScenario, brute_force_thermal, generate
from toplag.thermal import (
    LagPath,
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


def _log_weight(l, start, node, T):
    """Log of the total weight of all paths from start into node: the log
    partition of their bridge."""
    f = forward_weights(l, start, T)
    return thermal_average(l, f, backward_weights(l, node, T)).log_partition


class TestForwardWeights:
    def test_seed_node_weight(self):
        pair = random_pair(0, 5)
        l = build_landscape(pair)
        T = 1.7
        assert _log_weight(l, (0, 0), (0, 0), T) == pytest.approx(-l.entry(0, 0) / T)

    def test_zero_cost_landscape_counts_paths(self):
        n = 5
        l = build_landscape(AlignedPair(x=np.zeros(n), y=np.zeros(n)))
        d = delannoy_table(n)
        for i in range(n):
            for j in range(n):
                got = _log_weight(l, (0, 0), (i, j), 2.0)
                assert got == pytest.approx(math.log(d[i, j]))
        assert d[2, 2] == 13

    def test_every_node_matches_enumerated_path_sum(self):
        pair = random_pair(12, 7)
        l = build_landscape(pair)
        T = 2.0
        for i in range(7):
            for j in range(7):
                ref = brute_force_thermal(l, (0, 0), end=(i, j), temperature=T)
                assert _log_weight(l, (0, 0), (i, j), T) == pytest.approx(
                    ref["log_partition"], abs=1e-9
                )

    def test_outside_cone_is_zero(self):
        pair = random_pair(3, 6)
        l = build_landscape(pair)
        f = forward_weights(l, (2, 2), 1.0)
        assert _log_weight(l, (2, 2), (2, 3), 1.0) > -np.inf
        # node (1, 4) sits on layer 5 but outside the cone of (2, 2)
        for kw in ({"backward": backward_weights(l, (1, 4), 1.0)}, {"end": (1, 4)}):
            with pytest.raises(InvalidBoundaryError, match="not reachable"):
                thermal_average(l, f, **kw)
        # The sweep holds no weight there, nor on the layers before (2, 2).
        sweep = _StackedSweep(l, [(2, 2)], 1.0, log_domain=True)
        for tau in range(6):
            sweep.step()
            lo, _ = layer_bounds(6, tau)
            assert (sweep.s1[0] == -np.inf).all() == (tau < 4)
        assert sweep.s1[0, 1 - lo] == -np.inf

    def test_rejects_bad_inputs(self):
        l = build_landscape(random_pair(0, 5))
        with pytest.raises(ValueError):
            forward_weights(l, (0, 0), 0.0)
        with pytest.raises(InvalidBoundaryError):
            forward_weights(l, (5, 0), 1.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf, 0.0])
    def test_temperature_must_be_finite_and_positive(self, t):
        l = build_landscape(random_pair(0, 5))
        for make in (
            lambda: forward_weights(l, (0, 0), t),
            lambda: backward_weights(l, (4, 4), t),
            lambda: _StackedSweep(l, [(0, 0)], t),
            lambda: _StackedSweep(l, [(0, 0)], t, log_domain=True),
        ):
            with pytest.raises(ValueError, match="finite and positive"):
                make()


class TestBackwardWeights:
    def test_palindromic_landscape_reflects_forward_field(self):
        rng = np.random.default_rng(7)
        half = rng.normal(size=4)
        x = np.concatenate([half, half[::-1]])
        y = rng.normal(size=8)
        y = np.concatenate([y[:4], y[:4][::-1]])
        l = build_landscape(AlignedPair(x=x, y=y))
        n = 8
        for i in range(n):
            for j in range(n):
                into_end = _log_weight(l, (i, j), (n - 1, n - 1), 1.5)
                from_start = _log_weight(l, (0, 0), (n - 1 - i, n - 1 - j), 1.5)
                assert into_end == pytest.approx(from_start, abs=1e-9)

    def test_matches_enumeration_from_each_node_to_end(self):
        pair = random_pair(21, 7)
        l = build_landscape(pair)
        T = 2.0
        for i in range(7):
            for j in range(7):
                ref = brute_force_thermal(l, (i, j), end=(6, 6), temperature=T)
                assert _log_weight(l, (i, j), (6, 6), T) == pytest.approx(
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
        # The total bridge weight must read the same from either anchor: the
        # time-reversed pair reads it from the mirrored end.
        pair = random_pair(15, 20)
        l = build_landscape(pair)
        r = l.reflected()
        p = _log_weight(l, (0, 1), (18, 19), 2.0)
        assert p == pytest.approx(_log_weight(r, (1, 0), (19, 18), 2.0), abs=1e-9)

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


def _steady_run(sweep, ref, layers):
    """Step a linear sweep and the reference together over `layers` layers,
    with numerical warnings as errors. Returns, per step, whether it began
    with all_live, whether some log2 then exceeded log1 (the factor
    shortcut's test fails), and all_live after it."""
    began, rose, after = [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(layers):
            began.append(sweep.all_live)
            rose.append(sweep.all_live and bool((sweep.log2 > sweep.log1).any()))
            ref.step()
            sweep.step()
            _assert_same_layer(sweep, ref)
            after.append(sweep.all_live)
    return began, rose, after


class TestSteadyStateShortcuts:
    """While every field has weight (all_live), the linear step skips the
    scale bookkeeping and zero-peak guards that cannot change a bit there;
    the reference sweep runs them on every step."""

    def test_field_dies_after_seeding(self):
        # At T = 0.005 one start of this depth-4 fan loses all weight ten
        # layers after the last seed: the flag drops and stays down.
        n = 24
        s = LagScenario(kind="constant", n=n, seed=0, k=3, noise_sigma=0.3)
        l = build_landscape(generate(s)[0])
        fan = [(i, 0) for i in range(4)] + [(0, i) for i in range(1, 4)]
        sweep = _StackedSweep(l, fan, 0.005)
        _, _, after = _steady_run(sweep, _ReferenceSweep(l, fan, 0.005), 2 * n - 1)
        up = after.index(True)
        down = after.index(False, up)
        assert up == 3 and down > up + 5
        assert not any(after[down:])
        assert np.isinf(sweep.log1).sum() == 1

    @pytest.mark.parametrize("T", [0.02, 2.0])
    def test_scale_rises_on_live_layers(self, T):
        # On this rough landscape most live steps find some field's larger
        # scale on the older predecessor layer (log2 > log1) and run the
        # full factor block; a few take the shortcut.
        n = 15
        l = build_landscape(random_pair(3, n, scale=3.0))
        seeds = [(0, 0), (2, 0), (0, 2)]
        sweep = _StackedSweep(l, seeds, T)
        began, rose, _ = _steady_run(sweep, _ReferenceSweep(l, seeds, T), 2 * n - 1)
        assert sum(rose) >= 20 and sum(began) - sum(rose) >= 2

    @pytest.mark.parametrize("T", [2.0, 0.01])
    def test_restore_into_steady_sweep(self, T):
        # The snapshot's last field is not seeded yet (log1 = log2 = -inf);
        # the sweep it goes into stands on a layer where every field lives.
        n = 20
        l = build_landscape(random_pair(7, n, scale=3.0))
        seeds = [(0, 0), (3, 0), (0, 5), (9, 9)]
        a = _StackedSweep(l, seeds, T)
        ref = _ReferenceSweep(l, seeds, T)
        for _ in range(13):
            a.step()
            ref.step()
        b = _StackedSweep(l, seeds, T)
        for _ in range(25):
            b.step()
        assert b.all_live
        b.restore(a.snapshot())
        assert not b.all_live
        _, _, after = _steady_run(b, ref, 2 * n - 1 - 13)
        assert after[-1]  # set again once the last field is in

    def test_log_scales_beyond_double_range(self):
        # Costs of 1 at T = 1e-310 put emin / T past the double range: both
        # fields, seeded on layer 1, keep weight there under a -inf log
        # scale. The factor shortcut needs finite scales (it would subtract
        # -inf from -inf), so it must not run on layer 2.
        n = 12
        l = build_landscape(AlignedPair(x=np.ones(n), y=np.zeros(n)))
        seeds = [(1, 0), (0, 1)]
        sweep = _StackedSweep(l, seeds, 1e-310)
        ref = _ReferenceSweep(l, seeds, 1e-310)
        _steady_run(sweep, ref, 2)
        assert (sweep.s1.max(axis=1) == 1.0).all() and np.isneginf(sweep.log1).all()
        began, _, _ = _steady_run(sweep, ref, 2 * n - 3)
        assert not any(began)


# Reference log-space sweep: the log-space API's own recursion before it
# ran on _StackedSweep. The log-domain sweep must reproduce its layers byte
# for byte.
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


class TestWeightFieldsMatchReference:
    @pytest.mark.parametrize("T", [10.0, 2.0, 0.05, 0.004, 1e-4])
    @pytest.mark.parametrize("n", [2, 3, 7, 24, 60, 150])
    def test_fields_are_byte_identical(self, n, T):
        # A forward field runs on the landscape, a backward one on the
        # time-reversed landscape from the mirrored node.
        pair = random_pair(n, n, scale=2.0)
        nodes = [(0, 0), (n - 1, n - 1), (0, n - 1), (n // 2, n // 3)]
        for cost in ("minus", "plus", "mixed"):
            l = build_landscape(pair, mode=cost)
            r = l.reflected()
            for i, j in nodes:
                for land, seed in ((l, (i, j)), (r, (n - 1 - i, n - 1 - j))):
                    sweep = _StackedSweep(land, [seed], T, log_domain=True)
                    for tau, row in _log_sweep(land, seed, T):
                        sweep.step()
                        assert sweep.s1[0].tobytes() == row.tobytes()

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


class _ReferenceField:
    """A weight field materialized as the log-space API once held it.

    vecs[tau] holds per-node log weights over the full extent of layer tau,
    shifted so the layer maximum is 0 (None outside the field's layer
    range); the true log weight at a node is vecs[tau][k] + logscale[tau].
    """

    def __init__(self, l, field):
        self.n = l.n
        self.temperature = field.temperature
        self.origin = field.origin
        backward = field.direction == "backward"
        self.vecs, self.logscale, self.tau_min, self.tau_max = _reference_field(
            l, field.origin, field.temperature, backward
        )

    def layer(self, tau):
        if not self.tau_min <= tau <= self.tau_max:
            raise EmptyLayerError(tau)
        return self.vecs[tau], float(self.logscale[tau])

    def node_log_weight(self, i, j):
        tau = i + j
        vec, scale = self.layer(tau)
        lo, hi = layer_bounds(self.n, tau)
        if not lo <= i <= hi:
            raise EmptyLayerError(tau)
        return float(vec[i - lo] + scale)


def _reference_thermal_average(l, forward, backward=None, end=None):
    """thermal_average as it was before it took its statistics from
    _layer_stats: one layer at a time, on _ReferenceField fields."""
    n = l.n
    T = forward.temperature
    si, sj = forward.origin
    tau_s = forward.tau_min
    if backward is not None:
        ei, ej = backward.origin
        tau_e = ei + ej
        end = (ei, ej)
        mode = "bridge"
    else:
        if end is not None:
            ei, ej = end
            tau_e = ei + ej
        else:
            tau_e = 2 * n - 2
        mode = "forward"

    taus = np.arange(tau_s, tau_e + 1)
    mean = np.empty(taus.size)
    cost = np.empty(taus.size)
    for k, tau in enumerate(taus):
        eps = l.layer(tau)
        x = layer_lags(n, tau)
        sf, _ = forward.layer(tau)
        if backward is not None:
            sb, _ = backward.layer(tau)
            lw = sf + sb + eps / T
            finite = np.isfinite(lw)
            if not finite.any():
                raise EmptyLayerError(tau)
            p = np.exp(lw - lw[finite].max())
        else:
            p = np.exp(sf)
        z = p.sum()
        if not z > 0:
            raise EmptyLayerError(tau)
        mean[k] = float((x * p).sum() / z)
        cost[k] = float((eps * p).sum() / z)

    if backward is not None:
        log_partition = forward.node_log_weight(ei, ej)
    else:
        sf, scale = forward.layer(tau_e)
        log_partition = float(np.log(np.exp(sf).sum()) + scale)

    return LagPath(
        taus=taus,
        mean_lag=mean,
        layer_cost=cost,
        energy=float(np.mean(cost)),
        log_partition=log_partition,
        temperature=T,
        mode=mode,
        start=(si, sj),
        end=end,
    )


def _path_bytes(p):
    return (
        p.taus.tobytes(),
        p.mean_lag.tobytes(),
        p.layer_cost.tobytes(),
        repr(p.energy),
        repr(p.log_partition),
        p.mode,
        p.start,
        p.end,
    )


def _assert_same_path_or_error(l, forward, backward=None, end=None):
    """thermal_average has the reference's bytes, or both raise
    EmptyLayerError on the same layer."""
    ref_b = None if backward is None else _ReferenceField(l, backward)
    try:
        want = _reference_thermal_average(l, _ReferenceField(l, forward), ref_b, end)
    except EmptyLayerError as exc:
        with pytest.raises(EmptyLayerError) as got:
            thermal_average(l, forward, backward, end)
        assert got.value.tau == exc.tau
        return
    assert _path_bytes(thermal_average(l, forward, backward, end)) == _path_bytes(want)


class TestThermalAverageMatchesReference:
    """thermal_average takes its statistics _WINNER_CHUNK layers at a time
    from the kernel the scan's winner path uses; the bytes are those of the
    layer-by-layer loop."""

    @staticmethod
    def _anchors(n):
        return [
            ((0, 0), (n - 1, n - 1)),
            ((0, 2), (n - 1, n - 3)),
            ((n // 3, 1), (n - 2, n - 1)),
        ]

    @pytest.mark.parametrize("case", ["bridge", "forward", "forward_end"])
    @pytest.mark.parametrize("T", [0.004, 0.05, 0.5, 2.0, 8.0])
    @pytest.mark.parametrize("n", [6, 20, 41, 97])
    def test_bytes(self, n, T, case):
        l = build_landscape(random_pair(n + 1, n, scale=2.0))
        for start, end in self._anchors(n):
            f = forward_weights(l, start, T)
            if case == "bridge":
                _assert_same_path_or_error(l, f, backward_weights(l, end, T))
            else:
                _assert_same_path_or_error(
                    l, f, end=end if case == "forward_end" else None
                )

    # A layer without weight, mid-chunk and in a later chunk; log-domain
    # fields never lose a whole layer, so the test empties one by hand: the
    # forward sweep publishes it as -inf, while the rows the next steps read
    # keep their weights, as the reference field's other layers do.
    @pytest.mark.parametrize("offset", [5, 70])
    @pytest.mark.parametrize("bridge", [True, False])
    def test_empty_layer(self, monkeypatch, offset, bridge):
        n = 50
        l = build_landscape(random_pair(3, n))
        f = forward_weights(l, (0, 1), 0.5)
        b = backward_weights(l, (n - 1, n - 2), 0.5) if bridge else None
        tau = 1 + offset
        emptied = (tau, tau + 3)

        class Emptying(_StackedSweep):
            def step(self, costs=None):
                super().step(costs)
                if self.l is l and self.tau in emptied:
                    self.s1 = np.full(self.s1.shape, -np.inf)

        with monkeypatch.context() as m:
            m.setattr(boundary, "_StackedSweep", Emptying)
            with pytest.raises(EmptyLayerError) as got:
                thermal_average(l, f, b)
        assert got.value.tau == tau
        ref_f = _ReferenceField(l, f)
        for t in emptied:
            ref_f.vecs[t] = np.full_like(ref_f.vecs[t], -np.inf)
        ref_b = None if b is None else _ReferenceField(l, b)
        with pytest.raises(EmptyLayerError) as want:
            _reference_thermal_average(l, ref_f, ref_b)
        assert want.value.tau == tau

    @pytest.mark.parametrize("T", [0.004, 2.0])
    @pytest.mark.parametrize("mode", ["bridge", "forward"])
    def test_checkpointed_replay_is_byte_identical(self, mode, T):
        # A budget of 48 bytes per node splits the one-field backward sweep
        # into replay blocks, with a log-domain scout and replay.
        n = 41
        l = build_landscape(random_pair(n + 1, n, scale=2.0))
        assert len(boundary._block_edges(2 * n - 1, n * 8, 48 * n)) > 3
        for start, end in self._anchors(n):
            whole, blocked = (
                boundary._bridge_pair_path(l, start, end, T, budget, mode)
                for budget in (boundary.DEFAULT_MEMORY_BUDGET, 48 * n)
            )
            assert _path_bytes(blocked) == _path_bytes(whole)

    def test_no_size_cap(self):
        # The fields were once materialized, n^2 doubles each, and refused
        # above the dense limit.
        n = MATERIALIZE_LIMIT + 1
        l = build_landscape(random_pair(1, n))
        p = thermal_average(l, forward_weights(l, (0, 0), 2.0), end=(40, 40))
        assert p.taus.size == 81 and np.isfinite(p.mean_lag).all()

    @pytest.mark.parametrize("bridge", [True, False])
    def test_cost_sums_that_overflow_are_refused(self, bridge):
        # Costs and T scaled by 1e307 keep every log weight finite, but the
        # layers' cost sums pass the double range.
        rng = np.random.default_rng(0)
        x = 1e307 * rng.standard_normal(40)
        y = 1e307 * rng.standard_normal(40)
        l = build_landscape(AlignedPair(x=x, y=y))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            f = forward_weights(l, (0, 0), 2e307)
            b = backward_weights(l, (39, 39), 2e307) if bridge else None
            with pytest.raises(CostOverflowError, match="could overflow the double range"):
                thermal_average(l, f, b)
