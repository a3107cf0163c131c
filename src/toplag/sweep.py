"""The stacked transfer-matrix sweep and the per-layer statistics kernel.

Every monotone lattice path (steps (i+1, j), (i, j+1), (i+1, j+1)) carries a
Boltzmann weight exp(-cost/T). A transfer-matrix sweep accumulates, layer by
layer along anti-diagonals tau = i + j, the total weight of all paths from a
seed node to each lattice node:

    G(node) = [G(i, j-1) + G(i-1, j) + G(i-1, j-1)] * exp(-eps(node)/T)

One sweep, _StackedSweep, runs this recursion in either of two number
domains. The linear domain, which the boundary scan's score tables stream,
renormalizes each layer to a unit maximum and keeps the exact log of the
scale per field; ratios are reconstructed from the bookkeeping. The log
domain carries true log weights through logaddexp, which gives the
recursion unbounded dynamic range: near the cold limit, within-layer weight
ratios overwhelm any linear double, scaled or not. boundary's pair path,
which serves both the scan's winner and thermal.thermal_average, streams
one-field log-domain runs.

One kernel, _layer_stats, turns a pair's per-layer log weights into its lag
and cost statistics, and _finish_path into a LagPath.

The backward sweep is the forward sweep on the time-reversed pair, so one
sweep implementation serves both directions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyLayerError
from .landscape import check_node, layer_bounds

_WINNER_CHUNK = 64  # layers per _layer_stats call on a pair's path


def _check_temperature(temperature, hint=""):
    """temperature as a float; ValueError unless it is finite and positive."""
    T = float(temperature)
    if not 0.0 < T < np.inf:
        raise ValueError(f"temperature must be finite and positive, got {T!r}{hint}")
    return T


class _StackedSweep:
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
    node-major (n + 2, fields) rows with node i at row i + 1, so a layer and
    each predecessor slice a step reads are single contiguous blocks; s1 is
    a (fields, width) transposed view of its layer. A layer writes its
    weights at rows lo+1 .. hi+1 and nothing else. The predecessor slices a
    step reads (rows lo .. hi+1 of the previous layer's block, lo .. hi of
    the one before) hold that layer's nodes, or cells no layer has written
    since the rows were filled: row 0, and while layers grow, the row past a
    predecessor's last node, which no shorter layer before it in the block
    reached. That fill, the domain's zero weight (0 or -inf) in fresh and
    restored rows, stands for the nodes outside a layer's extent. This
    holds for the full lattice's bounds; bounds whose edges can also move
    inward, such as a lag band, would need zero-weight sentinels written at
    rows lo and hi+2 of each layer.

    s1 is not C-contiguous. Reductions and matrix products round by memory
    order, so a consumer that needs the bytes of a (fields, width) array
    must copy it to C order first.
    """

    def __init__(self, l, seeds, temperature, log_domain=False):
        self.T = _check_temperature(temperature)
        self.l = l
        self.n = l.n
        self.log_domain = log_domain
        self.zero = -np.inf if log_domain else 0.0
        self.n_fields = len(seeds)
        self.seed_by_tau = {}
        for f, seed in enumerate(seeds):
            i, j = check_node(self.n, seed)
            self.seed_by_tau.setdefault(i + j, []).append((f, i))
        # np.zeros leaves the pages of a linear sweep's rows unmapped until a
        # step writes them, which keeps the scan's peak memory down.
        shape = (3, self.n + 2, self.n_fields)
        self.rows = np.full(shape, -np.inf) if log_domain else np.zeros(shape)
        self.tau = -1
        self.s1 = None  # stored weights on layer tau, full layer extent
        self.lo1 = 0
        self.log1 = np.full(self.n_fields, -np.inf)
        self.log2 = np.full(self.n_fields, -np.inf)  # layer tau - 1
        # Linear domain: all_live says every field has weight on layer tau
        # and a finite log scale, which step()'s shortcuts need. A log scale
        # falls by at most emin / T + 745 per layer (a positive peak is at
        # least 2**-1074) and costs are at most cost_bound; when 2n such falls
        # fit the double range, a field with weight has a finite scale.
        self.all_live = False
        self.bounded_scales = 2 * self.n * (l.cost_bound / self.T + 745) < 2.0**1000
        self.eps = None  # landscape costs on layer tau
        self.costs = None  # (eps, emin, w) on layer tau; see step()

    def _layer(self, tau):
        """Stored weights on a retained layer, over its full extent, as a
        (fields, width) view."""
        lo, hi = layer_bounds(self.n, tau)
        return self.rows[tau % 3, lo + 1 : hi + 2].T

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
        self.s1, self.lo1, self.eps, self.costs = None, 0, None, None
        self.all_live = False
        if snap["s2"] is not None:
            self._layer(tau - 1)[:] = snap["s2"]
        if snap["s1"] is not None:
            self.s1 = self._layer(tau)
            self.s1[:] = snap["s1"]
            self.lo1 = layer_bounds(self.n, tau)[0]
        self.log1 = snap["log1"].copy()
        self.log2 = snap["log2"].copy()

    def step(self, costs=None):
        """Produce the next layer; afterwards s1/log1/lo1/eps/costs describe it.

        costs is the layer's (eps, emin, w), as self.costs holds them after
        a step: its landscape costs, their minimum and the weights
        exp((emin - eps) / T) (emin and w are None in the log domain). If
        given, the step uses them instead of computing them.
        boundary._layers hands over a backward replay's costs as reversed
        views: the reflected landscape holds the same operands in reverse
        order, so the bits are the same.
        """
        tau = self.tau + 1
        if tau > 2 * self.n - 2:
            raise EmptyLayerError(tau)
        lo, hi = layer_bounds(self.n, tau)
        if costs is None:
            eps = self.l.layer(tau)
            if self.log_domain:
                emin = w = None
            else:
                emin = float(eps.min())
                w = np.exp((emin - eps) / self.T)  # in (0, 1]
        else:
            eps, emin, w = costs
        # A field's whole mass at its seed layer is the seed's own weight.
        # Seeds are inside the lattice, so each lies on its layer's extent.
        seeds = self.seed_by_tau.get(tau, ())

        p1 = self.rows[(tau - 1) % 3]
        p2 = self.rows[(tau - 2) % 3]
        raw = self.rows[tau % 3, lo + 1 : hi + 2]
        # predecessors (i, j-1) and (i-1, j) on layer tau-1, (i-1, j-1) on tau-2
        if self.log_domain:
            np.logaddexp(p1[lo + 1 : hi + 2], p1[lo : hi + 1], out=raw)
            np.logaddexp(raw, p2[lo : hi + 1], out=raw)
            cost = eps / self.T
            raw -= cost[:, None]
            for f, i_seed in seeds:
                raw[i_seed - lo, f] = -cost[i_seed - lo]
        else:
            # f1 is at most 1. Once every field is seeded, the previous layer
            # usually holds each field's larger scale and f1 is exactly 1,
            # where the rescale changes no bit (x * 1.0 == x). While log1 is
            # finite (all_live) and no log2 exceeds it, the general block's
            # base is log1 and its f1 is exp(0) == 1, so the shortcut
            # computes the same bits.
            shortcut = False
            if self.all_live:
                d = self.log2 - self.log1
                shortcut = d.max() <= 0
            if shortcut:
                base, f2 = self.log1, np.exp(d)
            else:
                log_max = np.maximum(self.log1, self.log2)
                base = np.where(np.isfinite(log_max), log_max, 0.0)
                f1 = np.exp(self.log1 - base)
                f2 = np.exp(self.log2 - base)

            np.add(p1[lo + 1 : hi + 2], p1[lo : hi + 1], out=raw)
            if not shortcut and f1.min() != 1.0:
                raw *= f1
            raw += p2[lo : hi + 1] * f2
            raw *= w[:, None]

            log_pre = base - emin / self.T
            for f, i_seed in seeds:
                raw[i_seed - lo, f] = w[i_seed - lo]

            # A field with no weight left keeps zeros and a -inf log scale;
            # while every peak is positive the guards change nothing.
            peak = raw.max(axis=0)
            peak_min = peak.min()
            if peak_min > 0:
                raw /= peak
                log_new = log_pre + np.log(peak)
            else:
                raw /= np.where(peak > 0, peak, 1.0)
                with np.errstate(divide="ignore"):
                    log_new = log_pre + np.log(peak)
            self.all_live = peak_min > 0 and self.bounded_scales
            self.log2, self.log1 = self.log1, log_new

        self.s1, self.lo1 = raw.T, lo
        self.eps = eps
        self.costs = (eps, emin, w)
        self.tau = tau


@dataclass
class LagPath:
    """Thermally averaged lag trajectory over a range of layers.

    taus spans the layer range inclusive; mean_lag[k] and layer_cost[k] are
    the weighted mean lag and mean landscape cost on layer taus[k]. energy is
    the mean of layer_cost over the range (the score the boundary grid search
    minimizes) and log_partition the log of the total path weight.
    """

    taus: np.ndarray
    mean_lag: np.ndarray
    layer_cost: np.ndarray
    energy: float
    log_partition: float
    temperature: float
    mode: str
    start: tuple
    end: tuple | None


def _layer_stats(n, taus, eps, w):
    """Per-layer sum(p), sum(x p) and sum(eps p), x the lag, over the
    consecutive layers taus, as a (3, layers) array.

    eps and w hold the layers' costs and log weights, concatenated; p is
    exp(w) after each layer's w is shifted by its peak. A layer's peak comes
    from an exact maximum.reduceat and its sums from its own contiguous
    slice, so every number has the bits of a layer-by-layer evaluation.
    """
    los = np.maximum(0, taus - (n - 1))
    widths = np.minimum(taus, n - 1) - los + 1
    offs = np.zeros(taus.size + 1, dtype=np.int64)
    np.cumsum(widths, out=offs[1:])
    prod = np.empty((3, offs[-1]))
    p = prod[0]
    # A layer all at -inf gets a peak of 0, hence zero weights.
    peak = np.maximum.reduceat(w, offs[:-1])
    peak[peak == -np.inf] = 0.0
    np.exp(w - np.repeat(peak, widths), out=p)
    # lag x = tau - 2i at position offs[k] + i - lo of layer k
    x = np.repeat(taus - 2 * los + 2 * offs[:-1], widths)
    x -= 2 * np.arange(offs[-1])
    np.multiply(x, p, out=prod[1])
    np.multiply(eps, p, out=prod[2])
    out = np.empty((3, taus.size))
    for k in range(taus.size):
        out[:, k] = prod[:, offs[k] : offs[k + 1]].sum(axis=1)
    return out


def _finish_path(taus, stats, log_partition, T, mode, start, end):
    """The LagPath of per-layer sums from _layer_stats.

    Raises EmptyLayerError at the first layer without weight.
    """
    z, xsum, esum = stats
    empty = ~(z > 0)
    if empty.any():
        raise EmptyLayerError(int(taus[np.argmax(empty)]))
    cost = esum / z
    return LagPath(
        taus=taus,
        mean_lag=xsum / z,
        layer_cost=cost,
        energy=float(np.mean(cost)),
        log_partition=log_partition,
        temperature=T,
        mode=mode,
        start=start,
        end=end,
    )
