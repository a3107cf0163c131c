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

Stored-scale factors cancel inside each layer's cost ratio, so the matrix
products need no log bookkeeping; pairs whose products underflow fall back
to an explicit log-space evaluation of that layer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DepthTooLargeError,
    EmptyLayerError,
    NoAdmissiblePairError,
)
from .landscape import layer_bounds, layer_lags
from .thermal import LagPath, _StackedSweep

DEFAULT_MEMORY_BUDGET = 2_000_000_000  # bytes of sweep state the scan may hold


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
    either coordinate; +inf where the pair's bridge weight underflowed out
    of double range relative to the field ridge). best is the winning pair's
    LagPath; its energy field is the winning table entry itself.
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

    Returns inf when every stored weight in the pair's window is exactly
    zero: the pair's mass is more than ~700 nats below the field ridge at
    this layer, unrepresentable in double precision and never competitive.
    """
    with np.errstate(divide="ignore"):
        lw = np.log(sf_row) + np.log(sb_row) + eps / T
    finite = np.isfinite(lw)
    if not finite.any():
        return float("inf")
    p = np.exp(lw - lw[finite].max())
    return float((eps * p).sum() / p.sum())


def _bridge_table(l, starts, ends, T, budget):
    """Mean per-layer cost of every admissible (start, end) bridge."""
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

    # Between the last start layer and the first end layer every admissible
    # pair is live.
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
            u = np.exp((eps - emax) / T)  # bridge weight carries exp(+eps/T)
            fu = fwd.s1 * u[None, :]
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
                esum[s_idx, e_idx] += _log_layer_cost(
                    fwd.s1[s_idx], sb[e_idx], eps, T
                )
    lengths = tau_e[None, :] - tau_s[:, None] + 1
    with np.errstate(invalid="ignore"):
        table = np.where(adm, esum / lengths, np.nan)
    return table, adm


def _forward_table(l, starts, ends, T):
    """Mean per-layer cost under forward-only weights, per (start, end)."""
    n_layers = 2 * l.n - 1
    adm, tau_s, tau_e = _admissibility(starts, ends)
    fwd = _StackedSweep(l, list(starts), T)
    q = np.zeros((len(starts), n_layers))
    for tau in range(n_layers):
        fwd.step()
        eps = fwd.eps
        den = fwd.s1.sum(axis=1)
        num = fwd.s1 @ eps
        alive = den > 0
        q[alive, tau] = num[alive] / den[alive]
        # A started field that underflowed to zero carries no weight on
        # this layer or any later one: its pairs score +inf (underflowed).
        q[~alive & (tau_s <= tau), tau] = np.inf
    csum = np.concatenate(
        [np.zeros((len(starts), 1)), np.cumsum(q, axis=1)], axis=1
    )
    sums = csum[:, tau_e + 1] - csum[np.arange(len(starts)), tau_s][:, None]
    lengths = tau_e[None, :] - tau_s[:, None] + 1
    with np.errstate(invalid="ignore"):
        table = np.where(adm, sums / lengths, np.nan)
    return table, adm


def _bridge_pair_path(l, start, end, T, budget):
    """Full per-layer statistics for one (start, end) bridge, streamed."""
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
    return LagPath(
        taus=taus,
        mean_lag=mean,
        layer_cost=cost,
        energy=float(np.mean(cost)),
        log_partition=log_partition,
        temperature=T,
        mode="bridge",
        start=tuple(start),
        end=tuple(end),
    )


def _forward_pair_path(l, start, end, T):
    """Per-layer statistics under forward-only weights, truncated at end."""
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
    return LagPath(
        taus=taus,
        mean_lag=mean,
        layer_cost=cost,
        energy=float(np.mean(cost)),
        log_partition=log_partition,
        temperature=T,
        mode="forward",
        start=tuple(start),
        end=tuple(end),
    )


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
    at inadmissible pairs.
    """
    T = float(temperature)
    if T <= 0:
        raise ValueError("temperature must be positive; zero routes to optimal_path")
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

    best_val = np.inf
    best_pair = None
    for s_idx in range(len(starts)):
        for e_idx in range(len(ends)):
            if adm[s_idx, e_idx] and table[s_idx, e_idx] < best_val:
                best_val = table[s_idx, e_idx]
                best_pair = (s_idx, e_idx)
    if best_pair is None:
        if adm.any():
            raise NoAdmissiblePairError(
                "every admissible pair's bridge weight underflowed; "
                "raise the temperature or shrink the boundary depth"
            )
        raise NoAdmissiblePairError()
    s_idx, e_idx = best_pair

    vals = np.sort(table[adm])
    gap = float(vals[1] - vals[0]) if vals.size > 1 else float("nan")

    if mode == "bridge":
        path = _bridge_pair_path(l, starts[s_idx], ends[e_idx], T, memory_budget)
    else:
        path = _forward_pair_path(l, starts[s_idx], ends[e_idx], T)
    # The table entry is the authoritative score; the per-layer recomputation
    # agrees to rounding but would not compare exactly equal.
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
