"""Minimal-cost path DP against exhaustive enumeration."""

import tracemalloc

import numpy as np
import pytest

from toplag import zerotemp
from toplag.errors import CostOverflowError, InvalidBoundaryError
from toplag.ingest import AlignedPair
from toplag.landscape import DistanceMode, build_landscape, layer_bounds
from toplag.synth import LagScenario, enumerate_directed_paths, generate
from toplag.zerotemp import HardPath, optimal_path

from conftest import integer_pair, random_pair


def path_sums(l, paths):
    e = l.full_matrix()
    out = np.zeros(paths.shape[0])
    for r in range(paths.shape[0]):
        for tau in range(paths.shape[1]):
            x = paths[r, tau]
            if x < -100:
                continue
            out[r] += e[(tau - x) >> 1, (tau + x) >> 1]
    return out


class _Shifted:
    """Landscape proxy adding a constant to every node cost (test double)."""

    def __init__(self, base, c):
        self._base = base
        self._c = c
        self.n = base.n
        self.n_layers = base.n_layers
        self.mode = base.mode
        self.eps = None
        self.cost_bound = base.cost_bound + abs(c)

    def layer(self, tau):
        return self._base.layer(tau) + self._c

    def nodes(self, i, j):
        return self._base.nodes(i, j) + self._c

    def full_matrix(self):
        return self._base.full_matrix() + self._c

    def reflected(self):
        return _Shifted(self._base.reflected(), self._c)


class _Matrix:
    """Landscape double backed by an explicit cost matrix (test double)."""

    def __init__(self, e):
        self._e = np.asarray(e, dtype=np.float64)
        self.n = self._e.shape[0]
        self.cost_bound = float(np.abs(self._e).max())

    def layer(self, tau):
        lo, hi = layer_bounds(self.n, tau)
        i = np.arange(lo, hi + 1)
        return self._e[i, tau - i]

    def nodes(self, i, j):
        return self._e[np.asarray(i), np.asarray(j)]


# Reference recursion: optimal_path as it was written before the padded-row
# layer loop, with three fresh +inf-filled alignments per layer. The layer
# loop must reproduce its nodes, mapping and total energy bit for bit.
_DIAG, _UP, _LEFT, _SEED = 0, 1, 2, 3


def _aligned(prev, lo_prev, lo, width, shift):
    """Values of a previous layer at source index i - shift, aligned to the
    current layer's i = lo .. lo+width-1, +inf where the source is absent."""
    out = np.full(width, np.inf)
    if prev is None or prev.size == 0:
        return out
    hi_prev = lo_prev + prev.size - 1
    i_first = max(lo, lo_prev + shift)
    i_last = min(lo + width - 1, hi_prev + shift)
    if i_first > i_last:
        return out
    out[i_first - lo : i_last - lo + 1] = prev[i_first - shift - lo_prev : i_last - shift - lo_prev + 1]
    return out


def _reference_path(l, start, end):
    si, sj = start
    ei, ej = end
    tau0 = si + sj
    tau_end = ei + ej

    def bounds(tau):
        return max(si, tau - ej), min(ei, tau - sj)

    codes = {}
    lows = {}
    prev1 = prev2 = None
    lo1 = lo2 = 0
    for tau in range(tau0, tau_end + 1):
        lo, hi = bounds(tau)
        width = hi - lo + 1
        full = l.layer(tau)
        glo, _ = layer_bounds(l.n, tau)
        eps = full[lo - glo : hi - glo + 1]
        if tau == tau0:
            cur = eps.copy()
            code = np.full(width, _SEED, dtype=np.uint8)
        else:
            c_diag = _aligned(prev2, lo2, lo, width, 1)
            c_up = _aligned(prev1, lo1, lo, width, 1)
            c_left = _aligned(prev1, lo1, lo, width, 0)
            best = c_diag
            code = np.zeros(width, dtype=np.uint8)
            m = c_up < best
            best = np.where(m, c_up, best)
            code[m] = _UP
            m = c_left < best
            best = np.where(m, c_left, best)
            code[m] = _LEFT
            cur = eps + best
        codes[tau] = code
        lows[tau] = lo
        prev2, lo2 = prev1, lo1
        prev1, lo1 = cur, lo

    path = []
    tau, i = tau_end, ei
    while True:
        path.append((i, tau - i))
        c = codes[tau][i - lows[tau]]
        if c == _SEED:
            break
        if c == _DIAG:
            tau -= 2
            i -= 1
        elif c == _UP:
            tau -= 1
            i -= 1
        else:
            tau -= 1
    path.reverse()
    nodes = np.array(path, dtype=np.int64)
    total = float(np.sum(l.nodes(nodes[:, 0], nodes[:, 1])))
    mapping = np.empty(ei - si + 1, dtype=np.int64)
    for i, j in path:
        mapping[i - si] = j
    return nodes, mapping, total


# Second reference: optimal_path as it was written before the flat
# backpointer buffer, with padded rotating rows and a dict of per-layer
# predecessor codes.
def _padded_row_path(l, start, end):
    n = l.n
    si, sj = start
    ei, ej = end
    tau0 = si + sj
    tau_end = ei + ej

    def bounds(tau):
        return max(si, tau - ej), min(ei, tau - sj)

    rows = np.full((3, n + 2), np.inf)
    left = np.empty(n, dtype=bool)
    codes = {}
    lows = {}
    for k, tau in enumerate(range(tau0, tau_end + 1)):
        lo, hi = bounds(tau)
        full = l.layer(tau)
        glo, _ = layer_bounds(l.n, tau)
        eps = full[lo - glo : hi - glo + 1]
        cur = rows[k % 3]
        best = cur[lo + 1 : hi + 2]
        if tau == tau0:
            best[:] = eps
            code = np.full(hi - lo + 1, _SEED, dtype=np.uint8)
        else:
            p1 = rows[(k - 1) % 3]
            p2 = rows[(k - 2) % 3]
            c_diag = p2[lo : hi + 1]
            c_up = p1[lo : hi + 1]
            c_left = p1[lo + 1 : hi + 2]
            code = (c_up < c_diag).view(np.uint8)
            np.minimum(c_diag, c_up, out=best)
            m = np.less(c_left, best, out=left[: hi - lo + 1])
            np.putmask(code, m, _LEFT)
            np.minimum(best, c_left, out=best)
            best += eps
        cur[lo] = cur[hi + 2] = np.inf
        codes[tau] = code
        lows[tau] = lo

    path = []
    tau, i = tau_end, ei
    while True:
        path.append((i, tau - i))
        c = codes[tau][i - lows[tau]]
        if c == _SEED:
            break
        if c == _DIAG:
            tau -= 2
            i -= 1
        elif c == _UP:
            tau -= 1
            i -= 1
        else:
            tau -= 1
    path.reverse()
    nodes = np.array(path, dtype=np.int64)
    total = float(np.sum(l.nodes(nodes[:, 0], nodes[:, 1])))
    mapping = np.empty(ei - si + 1, dtype=np.int64)
    for i, j in path:
        mapping[i - si] = j
    return nodes, mapping, total


# Third reference: optimal_path as it was written before the packed
# bit-planes, with one uint8 backpointer per node in one flat buffer (bit 0:
# (i-1, j) beats the diagonal; bit 1: (i, j-1) beats both).
def _flat_layer_costs(l, tau, lo, hi, whole):
    layer = l.layer(tau)
    if whole:
        return layer
    glo, _ = layer_bounds(l.n, tau)
    return layer[lo - glo : hi - glo + 1]


def _flat_buffer_path(l, start, end):
    n = l.n
    si, sj = start
    ei, ej = end

    tau0 = si + sj
    tau_end = ei + ej
    taus = np.arange(tau0, tau_end + 1)
    los = np.maximum(si, taus - ej)
    his = np.minimum(ei, taus - sj)
    offs = np.zeros(taus.size + 1, dtype=np.int64)
    np.cumsum(his - los + 1, out=offs[1:])
    whole = (los == np.maximum(0, taus - (n - 1))) & (his == np.minimum(taus, n - 1))
    los, his, offs, whole = los.tolist(), his.tolist(), offs.tolist(), whole.tolist()

    rows = list(np.full((3, n + 2), np.inf))
    left = np.empty(n, dtype=np.uint8)
    left_bits = left.view(bool)
    codes = np.zeros(offs[-1], dtype=np.uint8)
    up_bits = codes.view(bool)
    for k, tau in enumerate(range(tau0, tau_end + 1)):
        lo, hi = los[k], his[k]
        eps = _flat_layer_costs(l, tau, lo, hi, whole[k])
        cur = rows[k % 3]
        best = cur[lo + 1 : hi + 2]
        if k == 0:
            best[:] = eps
        else:
            p1 = rows[(k - 1) % 3]
            c_diag = rows[(k - 2) % 3][lo : hi + 1]
            c_up = p1[lo : hi + 1]
            c_left = p1[lo + 1 : hi + 2]
            a, b = offs[k], offs[k + 1]
            np.less(c_up, c_diag, out=up_bits[a:b])
            np.minimum(c_diag, c_up, out=best)
            np.less(c_left, best, out=left_bits[: b - a])
            code, m = codes[a:b], left[: b - a]
            np.add(code, m, out=code)
            np.add(code, m, out=code)
            np.minimum(best, c_left, out=best)
            np.add(best, eps, out=best)
        cur[lo] = cur[hi + 2] = np.inf

    bits = memoryview(codes)
    path = []
    k, i = tau_end - tau0, ei
    while True:
        path.append((i, tau0 + k - i))
        if k == 0:
            break
        c = bits[offs[k] + i - los[k]]
        if c & _LEFT:
            k -= 1
        elif c & _UP:
            k -= 1
            i -= 1
        else:
            k -= 2
            i -= 1
    path.reverse()
    nodes = np.array(path, dtype=np.int64)
    total = float(np.sum(l.nodes(nodes[:, 0], nodes[:, 1])))

    mapping = np.empty(ei - si + 1, dtype=np.int64)
    for i, j in path:
        mapping[i - si] = j
    return nodes, mapping, total


def _assert_matches_reference(
    l, start=None, end=None, refs=(_reference_path, _padded_row_path, _flat_buffer_path)
):
    n = l.n
    start = (0, 0) if start is None else start
    end = (n - 1, n - 1) if end is None else end
    got = optimal_path(l, start=start, end=end)
    for ref in refs:
        nodes, mapping, total = ref(l, start, end)
        assert got.nodes.dtype == nodes.dtype and got.nodes.tobytes() == nodes.tobytes()
        assert got.mapping.dtype == mapping.dtype
        assert got.mapping.tobytes() == mapping.tobytes()
        assert np.float64(got.total_energy).tobytes() == np.float64(total).tobytes()


class TestOptimalPath:
    def test_zero_cost_corridor_is_found(self):
        s = LagScenario(kind="constant", n=64, seed=5, k=5)
        pair, _ = generate(s)
        l = build_landscape(pair)
        p = optimal_path(l, start=(0, 5), end=(64 - 6, 63))
        assert p.total_energy == 0.0
        assert np.all(p.lags == 5)

    def test_single_node_path(self):
        pair = random_pair(2, 4)
        l = build_landscape(pair)
        p = optimal_path(l, start=(2, 1), end=(2, 1))
        assert p.nodes.shape == (1, 2)
        assert p.total_energy == l.entry(2, 1)

    def test_matches_enumeration_minimum(self):
        for seed in range(25):
            pair = random_pair(seed, 8)
            l = build_landscape(pair, mode="mixed" if seed % 2 else "minus")
            best = optimal_path(l)
            ref = path_sums(l, enumerate_directed_paths(8, (0, 0), (7, 7))).min()
            assert best.total_energy == pytest.approx(ref, abs=1e-12)

    def test_asymmetric_anchors_match_enumeration(self):
        pair = random_pair(11, 7)
        l = build_landscape(pair)
        best = optimal_path(l, start=(1, 0), end=(6, 5))
        ref = path_sums(l, enumerate_directed_paths(7, (1, 0), (6, 5))).min()
        assert best.total_energy == pytest.approx(ref, abs=1e-12)

    def test_every_prefix_is_itself_optimal(self):
        pair = random_pair(13, 7)
        l = build_landscape(pair)
        p = optimal_path(l)
        e = l.full_matrix()
        run = 0.0
        for k, (i, j) in enumerate(p.nodes):
            run += e[i, j]
            sub = optimal_path(l, start=(0, 0), end=(int(i), int(j)))
            assert sub.total_energy == pytest.approx(run, abs=1e-12)

    def test_path_is_monotone_and_steps_admissible(self):
        pair = random_pair(17, 9)
        l = build_landscape(pair)
        p = optimal_path(l)
        d = np.diff(p.nodes, axis=0)
        legal = {(0, 1), (1, 0), (1, 1)}
        assert set(map(tuple, d)) <= legal

    def test_diagonal_preferred_on_exact_ties(self):
        pair = AlignedPair(x=np.zeros(6), y=np.zeros(6))
        l = build_landscape(pair)
        p = optimal_path(l)
        # all-zero cost: every path ties; the diagonal wins the tie-break
        assert np.all(p.lags == 0)
        assert p.nodes.shape[0] == 6

    def test_out_of_lattice_anchor_rejected(self):
        l = build_landscape(random_pair(0, 5))
        with pytest.raises(InvalidBoundaryError):
            optimal_path(l, start=(0, 0), end=(5, 5))

    def test_cost_sums_that_could_overflow_are_refused(self):
        # Path costs near 1e307 sum past the double range, where every
        # path's total ties at +inf.
        rng = np.random.default_rng(0)
        pair = AlignedPair(x=1e307 * rng.standard_normal(40),
                           y=1e307 * rng.standard_normal(40))
        with pytest.raises(CostOverflowError, match="could overflow"):
            optimal_path(build_landscape(pair))

    def test_unordered_anchors_rejected(self):
        l = build_landscape(random_pair(0, 5))
        with pytest.raises(InvalidBoundaryError):
            optimal_path(l, start=(3, 3), end=(2, 4))

    def test_mapping_reports_last_column_per_row(self):
        pair = random_pair(19, 8)
        l = build_landscape(pair)
        p = optimal_path(l)
        for r, (i, j) in enumerate(p.nodes):
            assert p.mapping[i] >= j
        assert p.mapping.size == 8

    def test_up_preferred_over_left_on_exact_ties(self):
        # (2, 2) is reached at cost 1 from both (1, 2) and (2, 1); the
        # (i-1, j) predecessor wins the tie, so the path runs above the
        # diagonal
        e = [[0, 1, 9], [1, 9, 0], [9, 0, 0]]
        p = optimal_path(_Matrix(e))
        assert p.nodes.tolist() == [[0, 0], [0, 1], [1, 2], [2, 2]]
        assert p.total_energy == 1.0


class TestMatchesReferenceRecursion:
    def test_random_pairs_in_every_mode(self):
        for mode in DistanceMode.ALL:
            for seed in range(12):
                n = 3 + seed * 5
                _assert_matches_reference(build_landscape(random_pair(seed, n), mode=mode))

    def test_small_integer_pairs_with_many_ties(self):
        for seed in range(20):
            for high in (2, 3, 10):
                l = build_landscape(integer_pair(seed, 7 + seed, high=high))
                _assert_matches_reference(l)

    def test_random_non_corner_anchors(self):
        rng = np.random.default_rng(7)
        for seed in range(60):
            n = int(rng.integers(2, 30))
            l = build_landscape(integer_pair(seed, n, high=4), mode="mixed")
            si, ei = np.sort(rng.integers(0, n, size=2))
            sj, ej = np.sort(rng.integers(0, n, size=2))
            _assert_matches_reference(l, (int(si), int(sj)), (int(ei), int(ej)))

    def test_degenerate_rectangles(self):
        l = build_landscape(random_pair(5, 9))
        for start, end in (
            ((4, 4), (4, 4)),  # start == end
            ((3, 0), (3, 8)),  # single row
            ((0, 6), (8, 6)),  # single column
            ((0, 8), (8, 8)),  # last column
            ((8, 0), (8, 8)),  # last row
            ((2, 7), (3, 8)),
        ):
            _assert_matches_reference(l, start, end)

    def test_two_by_two_lattice(self):
        for seed in range(10):
            _assert_matches_reference(build_landscape(integer_pair(seed, 2, high=3)))

    def test_long_series(self):
        _assert_matches_reference(build_landscape(random_pair(21, 700)))

    def test_proxy_returning_fresh_layers(self):
        for seed in range(5):
            l = build_landscape(integer_pair(seed, 11, high=3))
            _assert_matches_reference(_Shifted(l, 0.5))

    def test_matrix_proxy(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 9, 16):
            e = rng.integers(0, 3, size=(n, n)).astype(np.float64)
            _assert_matches_reference(_Matrix(e))
            _assert_matches_reference(_Matrix(e), (1, 0), (n - 1, n - 2))
        _assert_matches_reference(_Matrix([[0, 1, 9], [1, 9, 0], [9, 0, 0]]))

    def test_n5000_pair(self):
        rng = np.random.default_rng(23)
        x = np.cumsum(rng.normal(size=5000))
        y = np.roll(x, 4) + 0.3 * rng.normal(size=5000)
        l = build_landscape(AlignedPair(x=x, y=y))
        _assert_matches_reference(l, refs=(_padded_row_path, _flat_buffer_path))


@pytest.fixture(params=[None, 8, 64], ids=["default", "stage8", "stage64"])
def stage_bits(request, monkeypatch):
    """Run under the default staging chunk, then with the bit-planes packed
    after every layer (8 bits) and after every few layers (64 bits)."""
    if request.param is not None:
        monkeypatch.setattr(zerotemp, "_STAGE_BITS", request.param)
    return request.param


class TestPackedBackpointers:
    def test_random_non_corner_anchors(self, stage_bits):
        rng = np.random.default_rng(17)
        for seed in range(40):
            n = int(rng.integers(2, 40))
            mode = DistanceMode.ALL[seed % len(DistanceMode.ALL)]
            l = build_landscape(integer_pair(seed, n, high=3), mode=mode)
            si, ei = np.sort(rng.integers(0, n, size=2))
            sj, ej = np.sort(rng.integers(0, n, size=2))
            _assert_matches_reference(l, (int(si), int(sj)), (int(ei), int(ej)))

    def test_layer_widths_off_the_byte_grid(self, stage_bits):
        # rectangles h x w whose widest layer, min(h, w), is every width
        # from 1 to 19, so layer slots carry 0 to 7 padding bits
        l = build_landscape(integer_pair(3, 24, high=2), mode="mixed")
        for h in range(1, 20):
            for w in (h, h + 3, 24):
                _assert_matches_reference(l, (0, 24 - w), (h - 1, 23))
                _assert_matches_reference(l, (24 - w, 0), (23, h - 1))

    def test_degenerate_rectangles(self, stage_bits):
        _assert_matches_reference(_Matrix([[3.0]]))
        l = build_landscape(integer_pair(8, 13, high=2))
        for start, end in (
            ((5, 5), (5, 5)),  # start == end
            ((0, 0), (0, 0)),
            ((4, 0), (4, 12)),  # one row
            ((0, 9), (12, 9)),  # one column
            ((12, 3), (12, 12)),
            ((1, 11), (2, 12)),
        ):
            _assert_matches_reference(l, start, end)

    def test_tie_heavy_integer_pairs(self, stage_bits):
        # costs in {0, 1, 2}, all zero for high=1: most nodes see ties
        # between their predecessors
        for seed in range(12):
            for high in (1, 2, 3):
                l = build_landscape(integer_pair(seed, 9 + 4 * seed, high=high))
                _assert_matches_reference(l)

    def test_full_lattice_n900_crosses_default_stage(self):
        # 900^2 bits span about 12 default staging chunks
        assert 900 * 900 > 10 * zerotemp._STAGE_BITS
        _assert_matches_reference(build_landscape(random_pair(31, 900)))


def test_backpointer_memory_below_half_byte_per_node():
    # Two packed bits per node plus the fixed staging buffer and O(n) lists
    # stay under n^2 / 2 bytes; one byte per node would hold n^2.
    n = 2000
    rng = np.random.default_rng(29)
    x = np.cumsum(rng.normal(size=n))
    y = np.roll(x, 6) + 0.3 * rng.normal(size=n)
    l = build_landscape(AlignedPair(x=x, y=y))
    optimal_path(l, end=(20, 20))
    tracemalloc.start()
    try:
        optimal_path(l)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * n / 2


class TestConstantShift:
    def test_shifted_dp_equals_shifted_enumeration_minimum(self):
        # node counts differ across paths, so the argmin may legitimately
        # move; the DP must still find the exact shifted minimum
        paths = enumerate_directed_paths(7, (0, 0), (6, 6))
        lengths = (paths > -100).sum(axis=1)
        for seed in (0, 1, 2):
            l = build_landscape(random_pair(seed, 7))
            base = path_sums(l, paths)
            for c in (0.25, 1.0, 4.0):
                got = optimal_path(_Shifted(l, c)).total_energy
                want = (base + c * lengths).min()
                assert got == pytest.approx(want, abs=1e-12)

    def test_small_shift_keeps_argmin_and_adds_cost_per_node(self):
        paths = enumerate_directed_paths(7, (0, 0), (6, 6))
        lengths = (paths > -100).sum(axis=1)
        for seed in range(10):
            l = build_landscape(random_pair(seed, 7))
            base = path_sums(l, paths)
            best = base.argmin()
            # shift too small to let any shorter path overtake the optimum
            others = base + 1e-9
            others[lengths == lengths[best]] = np.inf
            room = (others - base[best]).min() / max(
                1, int(lengths.max() - lengths.min())
            )
            c = min(0.45 * room, 1.0)
            if not np.isfinite(c) or c <= 0:
                continue
            p0 = optimal_path(l)
            p1 = optimal_path(_Shifted(l, c))
            assert np.array_equal(p0.nodes, p1.nodes)
            assert p1.total_energy == pytest.approx(
                p0.total_energy + c * p0.nodes.shape[0], abs=1e-9
            )


class TestHardPathViews:
    def test_taus_and_lags_from_nodes(self):
        nodes = np.array([[0, 0], [0, 1], [1, 2], [2, 2]])
        p = HardPath(
            nodes=nodes, total_energy=0.0, mapping=np.array([1, 2, 2]),
            start=(0, 0), end=(2, 2),
        )
        assert p.taus.tolist() == [0, 1, 3, 4]
        assert p.lags.tolist() == [0, 1, 1, 0]
        assert p.lag_at_tau() == {0: 0, 1: 1, 3: 1, 4: 0}
