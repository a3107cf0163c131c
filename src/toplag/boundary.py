"""Boundary grid search: pick path anchors by minimal mean thermal cost.

The lag trajectory depends on where the path starts and ends. Instead of
pinning the lattice corners, a fan of candidate starts along the first row
and column (2*depth - 1 nodes) and the mirrored fan of ends is scanned; the
admissible (start, end) pair minimizing the mean per-layer thermal cost
(LagPath.energy) wins, ties resolved by node order so results are stable.

The scan dominates runtime at scale and is built around three ideas:

  * all start sweeps advance together as one stacked (fields x layer) array,
    sharing each layer's exponentials; likewise all end sweeps;
  * per layer, the cost contribution of every (start, end) pair reduces to
    two small matrix products between the stacked forward and backward layer
    arrays, so BLAS does the heavy lifting;
  * the backward sweep runs opposite to the forward one, so it is
    checkpointed every ~sqrt(layers) layers and replayed block by block
    against the live forward sweep; memory stays near two checkpoint sets
    instead of one full field per boundary node.

One generator, _layers, owns all sweeping: it steps the forward sweep layer
by layer and, when given ends, runs the backward scout, takes the
checkpoints and replays each block, handing every layer over as a
(forward, backward) pair. The score tables and the winner's trajectory only
do per-layer arithmetic on what it yields. The tables run the scaled linear
domain. The winner's trajectory runs the log domain and is one function for
both modes, shared with thermal.thermal_average: the winner's path is
thermal_average of the winning pair, and only its energy is the table entry.

Stored-scale factors cancel inside each layer's cost ratio, so the matrix
products need no log bookkeeping. Each layer's products are taken once,
lifted out of the subnormal range (slow on many CPUs) by an exact power of
two and, on layers whose costs span more than 700 T, a shift inside the
exponent; a pair whose lifted sum stays below a floor is evaluated in log
space on that layer instead.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DepthTooLargeError, NoAdmissiblePairError
from .landscape import check_cost_sums, layer_bounds
from .sweep import LagPath, _StackedSweep, _check_temperature
from .sweep import _WINNER_CHUNK, _finish_path, _layer_stats

DEFAULT_MEMORY_BUDGET = 2_000_000_000  # bytes of sweep state the scan may hold

# A layer's lifted bridge products stay at or below 2**_PRODUCT_TOP_EXP; a
# live pair takes its ratio from them only if its lifted den is at least
# _PRODUCT_FLOOR (see _bridge_table).
_PRODUCT_TOP_EXP = 1000
_PRODUCT_FLOOR = 2.0**-990


@dataclass(frozen=True)
class BoundarySpec:
    """Candidate start and end nodes for the grid search.

    Starts fan out from the (0, 0) corner along row 0 and column 0 to depth
    offsets; ends mirror them around the far corner. Node lists are sorted
    and duplicate-free, so each has 2*depth - 1 entries.
    """

    n: int
    depth: int
    start_nodes: tuple
    end_nodes: tuple


def enumerate_boundaries(n, depth=20):
    """Boundary fans of the given depth on an n x n lattice."""
    n = int(n)
    depth = int(depth)
    if depth < 1 or depth >= n:
        raise DepthTooLargeError(depth, n)
    starts = sorted({(i, 0) for i in range(depth)} | {(0, i) for i in range(depth)})
    ends = sorted(
        {(n - 1 - i, n - 1) for i in range(depth)}
        | {(n - 1, n - 1 - i) for i in range(depth)}
    )
    return BoundarySpec(
        n=n, depth=depth, start_nodes=tuple(starts), end_nodes=tuple(ends)
    )


@dataclass
class SelectionResult:
    """Outcome of the grid search.

    energy_table[s, e] is the mean per-layer cost for start s and end e
    (NaN where the pair is inadmissible, i.e. the end precedes the start in
    either coordinate; +inf where, and only where, the pair's weight
    underflowed out of double range relative to the field ridge). best is
    the winning pair's LagPath; its energy field is the winning table entry.
    runner_up_gap is the margin by which the winner beats the second-best
    admissible pair (0 on an exact tie, inf when every rival underflowed,
    NaN when only one pair is admissible). underflowed counts the +inf
    entries.
    """

    best: LagPath
    best_start: tuple
    best_end: tuple
    energy_table: np.ndarray
    start_nodes: tuple
    end_nodes: tuple
    runner_up_gap: float
    inadmissible: int
    underflowed: int
    temperature: float
    mode: str


def _admissibility(starts, ends):
    si = np.array([s[0] for s in starts])
    sj = np.array([s[1] for s in starts])
    ei = np.array([e[0] for e in ends])
    ej = np.array([e[1] for e in ends])
    adm = (si[:, None] <= ei[None, :]) & (sj[:, None] <= ej[None, :])
    tau_s = si + sj
    tau_e = ei + ej
    return adm, tau_s, tau_e


def _block_edges(n_layers, bytes_per_layer, budget):
    """Split layers into replay blocks that respect the memory budget.

    A single block (no checkpointing, one backward pass) is used whenever
    the whole backward field fits; otherwise block length ~ sqrt(2 * layers)
    minimizes buffer-plus-checkpoint memory.
    """
    if n_layers * bytes_per_layer <= budget:
        return [0, n_layers]
    block = max(4, int(round(math.sqrt(2.0 * n_layers))))
    edges = list(range(0, n_layers, block))
    if edges[-1] != n_layers:
        edges.append(n_layers)
    return edges


def _log_layer_cost(sf_row, sb_row, eps, T):
    """Mean layer cost for one pair, evaluated in log space.

    Returns inf when, and only when, the pair's weight underflowed on this
    layer, i.e. every stored weight in the pair's window is exactly zero
    (its mass is more than ~700 nats below the field ridge): such a pair is
    never competitive.
    """
    with np.errstate(divide="ignore"):
        lw = np.log(sf_row) + np.log(sb_row) + eps / T
    # Stored weights are finite and nonnegative, so lw is finite or -inf.
    m = lw.max()
    if m == -np.inf:
        return float("inf")
    p = np.exp(lw - m)
    return float((eps * p).sum() / p.sum())


def _layers(
    l, starts, T, ends=None, budget=DEFAULT_MEMORY_BUDGET, log_domain=False
):
    """Step a stacked forward sweep from starts over every layer.

    Yields (tau, fwd, sb) for tau = 0, 1, ..., 2n-2, with fwd the forward
    sweep standing on layer tau. With ends, sb is the stacked backward
    layer tau of the sweeps into those ends, in natural node order; without,
    sb is None. The backward sweeps run on the reflected landscape: a scout
    pass stores checkpoints at the replay block edges, and each block is
    replayed from its checkpoint just before the forward sweep enters it.
    The replay hands each layer's costs and weights on to the forward step,
    so with ends only backward steps compute them. A consumer that stops
    early never replays the later blocks. Every sweep runs in the log domain
    if log_domain, in the linear one otherwise. landscape.check_cost_sums
    runs before the first layer, so every consumer's cost sums are finite.
    """
    check_cost_sums(l)
    n = l.n
    n_layers = 2 * n - 1
    sweep = partial(_StackedSweep, log_domain=log_domain)
    edges = [0, n_layers]
    if ends is not None:
        reflected = l.reflected()
        seeds = [(n - 1 - i, n - 1 - j) for i, j in ends]
        edges = _block_edges(n_layers, len(ends) * n * 8, budget)
        keys = set(edges[1:-1])
        snaps = {}
        if keys:
            scout = sweep(reflected, seeds, T)
            for tau_nat in range(n_layers - 1, edges[1] - 1, -1):
                scout.step()
                if tau_nat in keys:
                    snaps[tau_nat] = scout.snapshot()
            del scout

    fwd = sweep(l, list(starts), T)
    for b0, b1 in zip(edges, edges[1:]):
        if ends is None:
            for tau in range(b0, b1):
                fwd.step()
                yield tau, fwd, None
            continue
        # (sb, costs) per layer, popped from the end: layer b0 first. The
        # replay's layer costs, reversed, are the forward layer's own (a
        # log-domain step has no emin or w).
        buf = [None] * (b1 - b0)
        rep = sweep(reflected, seeds, T)
        if b1 < n_layers:
            rep.restore(snaps.pop(b1))
        for k in range(b1 - b0):
            rep.step()
            eps, emin, w = rep.costs
            if w is not None:
                w = w[::-1]
            buf[k] = rep.s1[:, ::-1].copy(order="C"), (eps[::-1], emin, w)
        del rep
        for tau in range(b0, b1):
            sb, costs = buf.pop()
            fwd.step(costs)
            yield tau, fwd, sb


def _mean_table(sums, adm, tau_s, tau_e):
    """Summed layer costs over each admissible pair's layer count; NaN elsewhere."""
    lengths = tau_e[None, :] - tau_s[:, None] + 1
    with np.errstate(invalid="ignore"):
        table = np.where(adm, sums / lengths, np.nan)
    return table, adm


def _bridge_products(fu, eps, sb):
    """One layer's bridge sums for every (start, end) pair: den = fu . sb and
    num = (fu * eps) . sb over the layer's nodes."""
    return fu @ sb.T, (fu * eps[None, :]) @ sb.T


def _product_lift(eps, emin, T):
    """One layer's lifted bridge weights u and its product scale.

    u = exp((eps - emax) / T + c), c = min(709, max(0, (emax - emin) / T -
    700)): c is 0, and u keeps the unlifted bits, unless the costs span more
    than 700 T, where the smallest u would leave the normal range. Stored
    weights are at most 1, so the scale, an exact power of two, keeps den and
    num at or below 2**_PRODUCT_TOP_EXP, without taking u * scale below the
    unlifted weights; width * max(1, emax) is finite by check_cost_sums.
    """
    emax = float(eps.max())
    x = (eps - emax) / T  # bridge weight carries exp(+eps/T)
    c = min(709.0, max(0.0, (emax - emin) / T - 700.0))
    if c:
        x += c
    u = np.exp(x, out=x)
    top = eps.size * max(1.0, emax)
    c2 = c / math.log(2.0)  # log2(exp(c))
    shift = max(_PRODUCT_TOP_EXP - math.ceil(math.log2(top) + c2), -math.floor(c2))
    return u, 2.0**shift


def _bridge_table(l, starts, ends, T, budget):
    """Mean per-layer cost of every admissible (start, end) bridge.

    A pair's layer cost is num / den, both sums of products of stored
    weights and the lifted bridge weights of _product_lift, taken once per
    layer. A pair takes the ratio only if its lifted den is at least
    _PRODUCT_FLOOR = 2**-990: each term lost or rounded in the subnormal
    range is off by less than 2**-1073, and for widths below 2**31 their
    sum stays under one ulp of den, and the ratio is finite. Every other
    live pair is evaluated in log space (_log_layer_cost).

    A pair whose weight underflowed on some layer scores +inf, the only
    infinite entries: _layers has passed landscape.check_cost_sums.
    """
    adm, tau_s, tau_e = _admissibility(starts, ends)
    # Between the last start layer and the first end layer every admissible
    # pair is live.
    all_live_lo, all_live_hi = int(tau_s.max()), int(tau_e.min())
    esum = np.zeros((len(starts), len(ends)))
    for tau, fwd, sb in _layers(l, starts, T, ends, budget):
        if all_live_lo <= tau <= all_live_hi:
            live = adm
        else:
            live = (tau_s <= tau)[:, None] & (tau <= tau_e)[None, :] & adm
            if not live.any():
                continue
        eps, emin, _ = fwd.costs
        u, scale = _product_lift(eps, emin, T)
        # C order keeps BLAS on one summation order whatever s1's layout.
        fu = np.multiply(fwd.s1, u * scale, order="C")
        den, num = _bridge_products(fu, eps, sb)
        # A clear layer: den > 0 only where an admissible start and end both
        # have weight, so every pair is live, and with a lifted scale num <=
        # 2**1000, so every ratio (a weighted mean of eps) is finite.
        if scale > 1 and den.min() >= _PRODUCT_FLOOR:
            esum += num / den
            continue
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = num / den
        good = live & (den >= _PRODUCT_FLOOR)
        np.add(esum, ratio, out=esum, where=good)
        if good.all():
            continue
        # Pairs already at +inf have underflowed; their scores cannot change.
        for s_idx, e_idx in zip(*np.nonzero(live & ~good & (esum < np.inf))):
            esum[s_idx, e_idx] += _log_layer_cost(fwd.s1[s_idx], sb[e_idx], eps, T)
    return _mean_table(esum, adm, tau_s, tau_e)


def _forward_table(l, starts, ends, T):
    """Mean per-layer cost under forward-only weights, per (start, end).

    A pair whose start field has no weight left on one of its layers scores
    +inf (underflowed), the only infinite entries (check_cost_sums).
    """
    adm, tau_s, tau_e = _admissibility(starts, ends)
    q = np.zeros((len(starts), 2 * l.n - 1))
    for tau, fwd, _ in _layers(l, starts, T):
        s1 = np.ascontiguousarray(fwd.s1)  # fixes the summation order
        den = s1.sum(axis=1)
        num = s1 @ fwd.eps
        live = den > 0
        q[live, tau] = num[live] / den[live]
        # A started field that underflowed to zero has no distribution on
        # this layer: its pairs through it score +inf (underflowed).
        q[~live & (tau_s <= tau), tau] = np.inf
    # Sums of layers tau_s .. tau_e, per (start, end).
    c = np.concatenate([np.zeros((len(starts), 1)), np.cumsum(q, axis=1)], axis=1)
    sums = c[:, tau_e + 1] - c[np.arange(len(starts)), tau_s][:, None]
    return _mean_table(sums, adm, tau_s, tau_e)


def _peak_shifted(row):
    """A log-domain layer less its maximum (0 if the layer is all -inf), and
    that maximum."""
    m = row.max()
    if m == -np.inf:
        m = 0.0
    return row - m, m


def _bridge_pair_path(l, start, end, T, budget, mode="bridge"):
    """Full per-layer statistics for one (start, end) pair, streamed in the
    log domain.

    Serves both modes; only the layer weights and the log partition differ.
    Bridge weights come from the forward and backward sweeps; forward
    weights from the forward sweep alone, truncated at the end's layer (at
    the last layer if end is None). Each layer's log weights are shifted by
    the layer's own maximum, and the layers are handed to sweep._layer_stats
    _WINNER_CHUNK layers at a time.

    The scan's winner and thermal.thermal_average both run it, so the
    winner's trajectory is thermal_average of the winning pair. The name
    predates the forward mode; perfbench/spans.py traces it by name.
    """
    bridge = mode == "bridge"
    tau_0 = sum(start)
    tau_end = 2 * l.n - 2 if end is None else sum(end)
    taus = np.arange(tau_0, tau_end + 1)
    stats = np.empty((3, taus.size))
    sf, sb, eps = [], [], []
    for tau, fwd, sb_layer in _layers(
        l, [start], T, [end] if bridge else None, budget, log_domain=True
    ):
        if tau < tau_0:
            continue
        row, scale = _peak_shifted(fwd.s1[0])
        sf.append(row)
        if bridge:
            sb.append(_peak_shifted(sb_layer[0])[0])
        eps.append(fwd.eps)
        if len(sf) == _WINNER_CHUNK or tau == tau_end:
            k = tau - tau_0 + 1
            e, w = np.concatenate(eps), np.concatenate(sf)
            if bridge:
                w = w + np.concatenate(sb) + e / T
            stats[:, k - len(sf) : k] = _layer_stats(
                l.n, taus[k - len(sf) : k], e, w
            )
            if tau == tau_end:
                break
            sf, sb, eps = [], [], []
    # Paths into the end node (bridge) or onto its layer (forward).
    if bridge:
        v = sf[-1][end[0] - layer_bounds(l.n, tau_end)[0]]
    else:
        with np.errstate(divide="ignore"):  # an empty last layer is refused
            v = np.log(stats[0, -1])
    log_partition = float(v + scale)
    end = None if end is None else tuple(end)
    return _finish_path(taus, stats, log_partition, T, mode, tuple(start), end)


def select_optimal(
    l,
    temperature=2.0,
    mode="bridge",
    depth=20,
    spec=None,
    memory_budget=DEFAULT_MEMORY_BUDGET,
):
    """Scan the boundary grid and return the minimal-cost pair's trajectory.

    mode "bridge" conditions every path on both anchors; "forward" scores
    pairs by forward-only weights, the ends fixing the layer range alone.
    The returned result carries the full (start x end) cost table with NaN
    at inadmissible pairs and +inf where a pair's weight underflowed;
    CostOverflowError comes first if cost sums could overflow.
    """
    T = _check_temperature(temperature, "; zero routes to optimal_path")
    if mode not in ("bridge", "forward"):
        raise ValueError(f"unknown mode {mode!r}; expected 'bridge' or 'forward'")
    if spec is None:
        spec = enumerate_boundaries(l.n, depth)
    starts = tuple(tuple(map(int, s)) for s in spec.start_nodes)
    ends = tuple(tuple(map(int, e)) for e in spec.end_nodes)

    if mode == "bridge":
        table, adm = _bridge_table(l, starts, ends, T, memory_budget)
    else:
        table, adm = _forward_table(l, starts, ends, T)

    if not adm.any():
        raise NoAdmissiblePairError()
    # The first minimum in row-major order wins: ties go to the lower start,
    # then the lower end.
    best = int(np.argmin(np.where(adm, table, np.inf)))
    s_idx, e_idx = divmod(best, len(ends))
    if not table[s_idx, e_idx] < np.inf:
        # A depth-1 fan is one pair already; only a warmer scan can help.
        advice = "" if spec.depth == 1 else " or shrink the boundary depth"
        raise NoAdmissiblePairError(
            f"every admissible pair's {mode} weight underflowed; "
            f"raise the temperature{advice}"
        )

    vals = np.sort(table[adm])
    gap = float(vals[1] - vals[0]) if vals.size > 1 else float("nan")

    path = _bridge_pair_path(l, starts[s_idx], ends[e_idx], T, memory_budget, mode)
    # The table entry is the score the pairs were ranked by, so it stays the
    # winner's energy. The pair path's own mean agrees with it to rounding
    # at warm T; at cold T the linear table can lose mass that the log-domain
    # path keeps, and the two can differ (ROADMAP item 3).
    path.energy = float(table[s_idx, e_idx])

    return SelectionResult(
        best=path,
        best_start=starts[s_idx],
        best_end=ends[e_idx],
        energy_table=table,
        start_nodes=starts,
        end_nodes=ends,
        runner_up_gap=gap,
        inadmissible=int(adm.size - np.count_nonzero(adm)),
        underflowed=int(np.count_nonzero(np.isinf(table[adm]))),
        temperature=T,
        mode=mode,
    )
