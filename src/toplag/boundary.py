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
do per-layer arithmetic on what it yields; the winner's trajectory is one
function for both modes.

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


def _log_bridge_weights(sf_row, sb_row, eps, T):
    """One layer's bridge weights for one pair, rebuilt in log space.

    Scaled to a peak of 1; all zero when every stored weight in the pair's
    window is exactly zero, i.e. the pair's mass is more than ~700 nats
    below the field ridge at this layer, unrepresentable in double precision.
    """
    with np.errstate(divide="ignore"):
        lw = np.log(sf_row) + np.log(sb_row) + eps / T
    finite = np.isfinite(lw)
    if not finite.any():
        return np.zeros_like(lw)
    return np.exp(lw - lw[finite].max())


def _log_layer_cost(sf_row, sb_row, eps, T):
    """Mean layer cost for one pair, evaluated in log space.

    Returns inf when the pair's weight underflowed on this layer: such a
    pair is never competitive.
    """
    p = _log_bridge_weights(sf_row, sb_row, eps, T)
    z = p.sum()
    return float((eps * p).sum() / z) if z > 0 else float("inf")


def _layers(l, starts, T, ends=None, budget=DEFAULT_MEMORY_BUDGET):
    """Step a stacked forward sweep from starts over every layer.

    Yields (tau, fwd, sb) for tau = 0, 1, ..., 2n-2, with fwd the forward
    sweep standing on layer tau. With ends, sb is the stacked backward
    layer tau of the sweeps into those ends, in natural node order; without,
    sb is None. The backward sweeps run on the reflected landscape: a scout
    pass stores checkpoints at the replay block edges, and each block is
    replayed from its checkpoint just before the forward sweep enters it.
    A consumer that stops early never replays the later blocks.
    """
    n = l.n
    n_layers = 2 * n - 1
    edges = [0, n_layers]
    if ends is not None:
        reflected = l.reflected()
        seeds = [(n - 1 - i, n - 1 - j) for i, j in ends]
        edges = _block_edges(n_layers, len(ends) * n * 8, budget)
        keys = set(edges[1:-1])
        snaps = {}
        if keys:
            scout = _StackedSweep(reflected, seeds, T)
            for tau_nat in range(n_layers - 1, edges[1] - 1, -1):
                scout.step()
                if tau_nat in keys:
                    snaps[tau_nat] = scout.snapshot()
            del scout

    fwd = _StackedSweep(l, list(starts), T)
    for b0, b1 in zip(edges, edges[1:]):
        buf = [None] * (b1 - b0)  # popped from the end: layer b0 first
        if ends is not None:
            rep = _StackedSweep(reflected, seeds, T)
            if b1 < n_layers:
                rep.restore(snaps.pop(b1))
            for k in range(b1 - b0):
                rep.step()
                buf[k] = rep.s1[:, ::-1].copy(order="C")
            del rep
        for tau in range(b0, b1):
            fwd.step()
            yield tau, fwd, buf.pop()


def _mean_table(sums, adm, tau_s, tau_e):
    """Summed layer costs over each admissible pair's layer count; NaN elsewhere."""
    lengths = tau_e[None, :] - tau_s[:, None] + 1
    with np.errstate(invalid="ignore"):
        table = np.where(adm, sums / lengths, np.nan)
    return table, adm


def _bridge_table(l, starts, ends, T, budget):
    """Mean per-layer cost of every admissible (start, end) bridge."""
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
        eps = fwd.eps
        emax = float(eps.max())
        u = np.exp((eps - emax) / T)  # bridge weight carries exp(+eps/T)
        # C order keeps BLAS on one summation order whatever s1's layout.
        fu = np.multiply(fwd.s1, u[None, :], order="C")
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
            esum[s_idx, e_idx] += _log_layer_cost(fwd.s1[s_idx], sb[e_idx], eps, T)
    return _mean_table(esum, adm, tau_s, tau_e)


def _forward_table(l, starts, ends, T):
    """Mean per-layer cost under forward-only weights, per (start, end)."""
    adm, tau_s, tau_e = _admissibility(starts, ends)
    q = np.zeros((len(starts), 2 * l.n - 1))
    for tau, fwd, _ in _layers(l, starts, T):
        s1 = np.ascontiguousarray(fwd.s1)  # fixes the summation order
        den = s1.sum(axis=1)
        num = s1 @ fwd.eps
        alive = den > 0
        q[alive, tau] = num[alive] / den[alive]
        # A started field that underflowed to zero carries no weight on
        # this layer or any later one: its pairs score +inf (underflowed).
        q[~alive & (tau_s <= tau), tau] = np.inf
    csum = np.concatenate(
        [np.zeros((len(starts), 1)), np.cumsum(q, axis=1)], axis=1
    )
    sums = csum[:, tau_e + 1] - csum[np.arange(len(starts)), tau_s][:, None]
    return _mean_table(sums, adm, tau_s, tau_e)


def _bridge_pair_path(l, start, end, T, budget, mode="bridge"):
    """Full per-layer statistics for the winning (start, end) pair, streamed.

    Serves both modes; only the layer weights and the log partition differ.
    Bridge weights come from the forward and backward sweeps; forward
    weights from the forward sweep alone, truncated at the end's layer. The
    name predates the forward mode; perfbench/spans.py traces it by name.
    """
    n = l.n
    bridge = mode == "bridge"
    tau_0, tau_end = sum(start), sum(end)
    taus = np.arange(tau_0, tau_end + 1)
    mean = np.zeros(taus.size)
    cost = np.zeros(taus.size)
    for tau, fwd, sb in _layers(l, [start], T, [end] if bridge else None, budget):
        if tau < tau_0:
            continue
        sf = fwd.s1[0]
        eps = fwd.eps
        p = _log_bridge_weights(sf, sb[0], eps, T) if bridge else sf
        z = p.sum()
        if not z > 0:
            raise EmptyLayerError(tau)
        x = layer_lags(n, tau)
        idx = tau - tau_0
        mean[idx] = float((x * p).sum() / z)
        cost[idx] = float((eps * p).sum() / z)
        if tau == tau_end:
            # Paths into the end node (bridge) or onto its layer (forward).
            v = sf[end[0] - layer_bounds(n, tau)[0]] if bridge else z
            log_partition = float(np.log(v) + fwd.log1[0]) if v > 0 else -np.inf
            break
    return LagPath(
        taus=taus,
        mean_lag=mean,
        layer_cost=cost,
        energy=float(np.mean(cost)),
        log_partition=log_partition,
        temperature=T,
        mode=mode,
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
