"""Node cost matrix: modes, accessors, and symmetry properties."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toplag.errors import InvalidBoundaryError, LatticeTooLargeError
from toplag.ingest import AlignedPair
from toplag.landscape import (
    MATERIALIZE_LIMIT,
    DistanceMode,
    EnergyLandscape,
    build_landscape,
    check_node,
    layer_bounds,
    layer_lags,
)
from toplag.sweep import _StackedSweep
from toplag.thermal import forward_weights
from toplag.zerotemp import optimal_path

from conftest import random_pair

finite_series = st.lists(
    st.floats(-50, 50, allow_nan=False), min_size=2, max_size=12
)


def pair_from(xs, ys):
    n = min(len(xs), len(ys))
    return AlignedPair(x=np.asarray(xs[:n]), y=np.asarray(ys[:n]))


class TestModes:
    def test_canonical_names_and_aliases(self):
        assert DistanceMode.canonical("minus") == DistanceMode.COMONOTONIC
        assert DistanceMode.canonical("plus") == DistanceMode.ANTIMONOTONIC
        assert DistanceMode.canonical("mixed") == DistanceMode.MIXED
        assert DistanceMode.canonical(DistanceMode.COMONOTONIC) == (
            DistanceMode.COMONOTONIC
        )
        with pytest.raises(ValueError):
            DistanceMode.canonical("manhattan")

    def test_pip_sized_difference(self):
        pair = pair_from([6.0488, 6.0], [6.0414, 6.0])
        l = build_landscape(pair)
        assert l.entry(0, 0) == pytest.approx(0.0074, abs=1e-12)

    def test_identical_series_zero_diagonal(self):
        pair = random_pair(0, 9)
        pair = AlignedPair(x=pair.x, y=pair.x.copy())
        l = build_landscape(pair, mode="minus")
        assert np.all(np.diag(l.full_matrix()) == 0.0)

    def test_negated_series_zero_diagonal_in_plus_mode(self):
        pair = random_pair(1, 9)
        pair = AlignedPair(x=pair.x, y=-pair.x)
        l = build_landscape(pair, mode="plus")
        assert np.all(np.diag(l.full_matrix()) == 0.0)

    def test_mixed_is_elementwise_minimum(self):
        pair = random_pair(2, 10)
        lm = build_landscape(pair, mode="minus").full_matrix()
        lp = build_landscape(pair, mode="plus").full_matrix()
        lx = build_landscape(pair, mode="mixed").full_matrix()
        assert np.array_equal(lx, np.minimum(lm, lp))

    @given(finite_series, finite_series)
    @settings(max_examples=60, deadline=None)
    def test_entries_nonnegative_all_modes(self, xs, ys):
        if min(len(xs), len(ys)) < 2:
            return
        pair = pair_from(xs, ys)
        for mode in ("minus", "plus", "mixed"):
            m = build_landscape(pair, mode=mode).full_matrix()
            assert np.all(m >= 0.0) and np.all(np.isfinite(m))

    @given(finite_series, finite_series)
    @settings(max_examples=60, deadline=None)
    def test_swapping_series_transposes(self, xs, ys):
        if min(len(xs), len(ys)) < 2:
            return
        pair = pair_from(xs, ys)
        swapped = AlignedPair(x=pair.y, y=pair.x)
        for mode in ("minus", "plus", "mixed"):
            a = build_landscape(pair, mode=mode).full_matrix()
            b = build_landscape(swapped, mode=mode).full_matrix()
            assert np.array_equal(a, b.T)

    @given(finite_series, finite_series, st.floats(-20, 20, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_common_shift_leaves_comonotonic_costs(self, xs, ys, c):
        if min(len(xs), len(ys)) < 2:
            return
        pair = pair_from(xs, ys)
        shifted = AlignedPair(x=pair.x + c, y=pair.y + c)
        a = build_landscape(pair, mode="minus").full_matrix()
        b = build_landscape(shifted, mode="minus").full_matrix()
        # exact in real arithmetic; float addition rounds each term
        assert np.allclose(a, b, rtol=0.0, atol=1e-9)


class TestAccessors:
    def test_layer_bounds_cover_the_lattice(self):
        n = 7
        seen = 0
        for tau in range(2 * n - 1):
            lo, hi = layer_bounds(n, tau)
            assert 0 <= lo <= hi <= n - 1
            seen += hi - lo + 1
        assert seen == n * n

    def test_layer_lags_match_bounds_and_parity(self):
        n = 9
        for tau in range(2 * n - 1):
            lo, hi = layer_bounds(n, tau)
            lags = layer_lags(n, tau)
            assert lags.size == hi - lo + 1
            # node (i, tau - i): lag = tau - 2i, decreasing in i
            assert lags[0] == tau - 2 * lo
            assert lags[-1] == tau - 2 * hi
            assert np.all((lags % 2) == (tau % 2))

    def test_layer_slices_agree_with_matrix(self):
        pair = random_pair(4, 11)
        l = build_landscape(pair, mode="mixed")
        m = l.full_matrix()
        n = l.n
        for tau in range(2 * n - 1):
            lo, hi = layer_bounds(n, tau)
            want = np.array([m[i, tau - i] for i in range(lo, hi + 1)])
            assert np.array_equal(l.layer(tau), want)

    def test_row_and_nodes_agree_with_matrix(self):
        pair = random_pair(5, 8)
        l = build_landscape(pair, mode="plus")
        m = l.full_matrix()
        ii, jj = np.meshgrid(np.arange(l.n), np.arange(l.n), indexing="ij")
        assert np.array_equal(l.nodes(ii.ravel(), jj.ravel()), m.ravel())

    def test_on_demand_matches_materialized(self):
        pair = random_pair(6, 10)
        dense = build_landscape(pair)
        lazy = EnergyLandscape(pair.x, pair.y, DistanceMode.COMONOTONIC)
        assert dense.eps is None and lazy.eps is None
        for tau in range(2 * 10 - 1):
            assert np.array_equal(dense.layer(tau), lazy.layer(tau))
        assert np.array_equal(dense.full_matrix(), lazy.full_matrix())

    def test_full_matrix_refused_above_dense_limit(self):
        n = MATERIALIZE_LIMIT + 1
        l = EnergyLandscape(np.zeros(n), np.zeros(n), "minus")
        with pytest.raises(LatticeTooLargeError):
            l.full_matrix()

    def test_reflection_reverses_both_axes(self):
        pair = random_pair(7, 9)
        l = build_landscape(pair)
        r = l.reflected()
        m = l.full_matrix()
        assert np.array_equal(r.full_matrix(), m[::-1, ::-1])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 400])
    @pytest.mark.parametrize("mode", DistanceMode.ALL)
    def test_layer_matches_reversed_slice_formula(self, n, mode):
        # The layer as it was read before the reversed copy of y existed:
        # a reversed slice of y itself.
        def reference(l, tau):
            lo, hi = layer_bounds(l.n, tau)
            ys = l.y[tau - hi : tau - lo + 1][::-1]
            return l._combine(l.x[lo : hi + 1], ys)

        rng = np.random.default_rng(30 + n)
        base = EnergyLandscape(rng.normal(size=n), rng.normal(size=n), mode)
        for l in (base, base.reflected()):
            for tau in range(2 * n - 1):
                got = l.layer(tau)
                assert got.dtype == np.float64
                assert got.tobytes() == reference(l, tau).tobytes()

    @pytest.mark.parametrize("mode", DistanceMode.ALL)
    def test_cost_bound_is_at_or_above_every_cost(self, mode):
        rng = np.random.default_rng(9)
        l = EnergyLandscape(rng.normal(size=9), 3.0 * rng.normal(size=9), mode)
        assert l.cost_bound == np.abs(l.x).max() + np.abs(l.y).max()
        assert l.full_matrix().max() <= l.cost_bound

    def test_default_materialization_threshold(self):
        # eps stays None at every size; full_matrix builds the matrix on
        # each call.
        pair = random_pair(8, 12)
        l = build_landscape(pair)
        assert l.eps is None
        want = np.abs(l.x[:, None] - l.y[None, :])
        assert l.full_matrix().tobytes() == want.tobytes()


class TestCheckNode:
    def test_returns_an_int_pair(self):
        i, j = check_node(5, (np.int64(1), 4.0))
        assert (i, j) == (1, 4) and type(i) is int and type(j) is int

    @pytest.mark.parametrize("node", [(-1, 0), (0, 5), (5, 5)])
    def test_every_engine_refuses_with_one_message(self, node):
        # The DP's anchors, the log-space API's nodes and the sweep's seeds
        # share one rule and one message.
        l = build_landscape(random_pair(0, 5))
        msg = re.escape(f"node {node} outside the 5 x 5 lattice")
        for call in (
            lambda: check_node(5, node),
            lambda: optimal_path(l, end=node),
            lambda: forward_weights(l, node, 2.0),
            lambda: _StackedSweep(l, [node], 2.0),
        ):
            with pytest.raises(InvalidBoundaryError, match=msg):
                call()
