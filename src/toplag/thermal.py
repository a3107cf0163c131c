"""Finite-temperature path statistics over the mismatch lattice.

Every monotone lattice path (steps (i+1, j), (i, j+1), (i+1, j+1)) carries a
Boltzmann weight exp(-cost/T). A transfer-matrix sweep accumulates, layer by
layer along anti-diagonals tau = i + j, the total weight of all paths from a
seed node to each lattice node:

    G(node) = [G(i, j-1) + G(i-1, j) + G(i-1, j-1)] * exp(-eps(node)/T)

One sweep, _StackedSweep, runs this recursion in either of two number
domains. The linear domain, which the boundary scan streams, renormalizes
each layer to a unit maximum and keeps the exact log of the scale per
field; ratios and log partition functions are reconstructed from the
bookkeeping. The log domain carries true log weights through logaddexp,
which gives the recursion unbounded dynamic range: near the cold limit,
within-layer weight ratios overwhelm any linear double, scaled or not. The
materializing APIs (forward_weights, backward_weights, thermal_average) are
one-field log-domain runs.

Per-layer lag distributions come in two flavors. Bridge mode conditions on
both a start and an end: the weight of passing through a node is
G_fwd * G_bwd * exp(+eps/T), where the positive factor undoes the node cost
counted by both sweeps. Forward mode uses the forward weights alone, i.e. a
distribution over growing-path endpoints.

The backward sweep is the forward sweep on the time-reversed pair, so one
sweep implementation serves both directions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyLayerError,
    InvalidBoundaryError,
    LatticeTooLargeError,
)
from .landscape import MATERIALIZE_LIMIT, layer_bounds, layer_lags

FORWARD = "forward"
BACKWARD = "backward"


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
    weights at rows lo+1 .. hi+1 and sentinels of the domain's zero weight
    (0 or -inf) at lo and hi+2. Layer bounds move by at most one per layer,
    so the predecessor slices a step reads (rows lo .. hi+1 of the previous
    layer's block, lo .. hi of the one before) stay inside what those layers
    wrote and never read a weight left from the layer a block held three
    layers earlier; the sentinels stand for the nodes outside a layer's
    extent. (With the full-lattice bounds the zero-weight fill of fresh or
    restored rows already covers those cells; the sentinels keep the step
    right for any bounds that step by at most one, such as a lag band.)

    s1 is not C-contiguous. Reductions and matrix products round by memory
    order, so a consumer that needs the bytes of a (fields, width) array
    must copy it to C order first.
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
        shape = (3, self.n + 2, self.n_fields)
        self.rows = np.full(shape, -np.inf) if log_domain else np.zeros(shape)
        self.tau = -1
        self.s1 = None  # stored weights on layer tau, full layer extent
        self.lo1 = 0
        self.log1 = np.full(self.n_fields, -np.inf)
        self.log2 = np.full(self.n_fields, -np.inf)  # layer tau - 1
        self.eps = None  # landscape costs on layer tau

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
        raw = cur[lo + 1 : hi + 2]
        # predecessors (i, j-1) and (i-1, j) on layer tau-1, (i-1, j-1) on tau-2
        if self.log_domain:
            np.logaddexp(p1[lo + 1 : hi + 2], p1[lo : hi + 1], out=raw)
            np.logaddexp(raw, p2[lo : hi + 1], out=raw)
            cost = eps / self.T
            raw -= cost[:, None]
            for f, i_seed in seeds:
                raw[i_seed - lo, f] = -cost[i_seed - lo]
        else:
            emin = float(eps.min())
            w = np.exp((emin - eps) / self.T)  # in (0, 1]

            log_max = np.maximum(self.log1, self.log2)
            base = np.where(np.isfinite(log_max), log_max, 0.0)
            f1 = np.exp(self.log1 - base)
            f2 = np.exp(self.log2 - base)

            np.add(p1[lo + 1 : hi + 2], p1[lo : hi + 1], out=raw)
            # f1 is at most 1. Once every field is seeded, the previous layer
            # usually holds each field's larger scale and f1 is exactly 1,
            # where the rescale changes no bit (x * 1.0 == x).
            if f1.min() != 1.0:
                raw *= f1
            raw += p2[lo : hi + 1] * f2
            raw *= w[:, None]

            log_pre = base - emin / self.T
            for f, i_seed in seeds:
                raw[i_seed - lo, f] = w[i_seed - lo]

            # A field with no weight left keeps zeros and a -inf log scale.
            peak = raw.max(axis=0)
            raw /= np.where(peak > 0, peak, 1.0)
            with np.errstate(divide="ignore"):
                log_new = log_pre + np.log(peak)
            self.log2, self.log1 = self.log1, log_new
        cur[lo] = self.zero
        cur[hi + 2] = self.zero

        self.s1, self.lo1 = raw.T, lo
        self.eps = eps
        self.tau = tau


@dataclass
class WeightField:
    """Materialized path-weight field for one seed node.

    vecs[tau] holds per-node log weights over the full extent of layer tau,
    shifted so the layer maximum is 0 (None outside the field's layer
    range); the true log weight at a node is vecs[tau][k] + logscale[tau],
    and -inf marks nodes the seed cannot reach. Materialization is
    quadratic in n and is refused above the landscape's dense limit; the
    boundary-grid search streams sweeps instead and never builds these.
    """

    n: int
    temperature: float
    origin: tuple
    direction: str
    tau_min: int
    tau_max: int
    vecs: list
    logscale: np.ndarray

    def layer(self, tau):
        if not self.tau_min <= tau <= self.tau_max:
            raise EmptyLayerError(tau)
        return self.vecs[tau], float(self.logscale[tau])

    def node_log_weight(self, i, j):
        """log of the true path weight at node (i, j); -inf if unreachable."""
        tau = i + j
        vec, scale = self.layer(tau)
        lo, hi = layer_bounds(self.n, tau)
        if not lo <= i <= hi:
            raise EmptyLayerError(tau)
        return float(vec[i - lo] + scale)


def _check_node(n, node):
    i, j = int(node[0]), int(node[1])
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidBoundaryError(f"node ({i}, {j}) outside the {n} x {n} lattice")
    return i, j


def _weight_field(l, node, temperature, direction):
    """Materialize one node's field from a one-field log-domain sweep.

    A backward field is the forward field of the time-reversed pair from the
    mirrored node, restated in the original orientation.
    """
    n = l.n
    if n > MATERIALIZE_LIMIT:
        raise LatticeTooLargeError(n, MATERIALIZE_LIMIT)
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    i, j = _check_node(n, node)
    backward = direction == BACKWARD
    seed = (n - 1 - i, n - 1 - j) if backward else (i, j)
    sweep = _StackedSweep(
        l.reflected() if backward else l, [seed], temperature, log_domain=True
    )
    vecs = [None] * (2 * n - 1)
    logscale = np.full(2 * n - 1, -np.inf)
    for tau in range(2 * n - 1):
        sweep.step()
        if tau < sum(seed):
            continue
        row = sweep.s1[0]
        if backward:
            row, tau = row[::-1], 2 * n - 2 - tau
        m = float(row.max())
        vecs[tau] = row - m
        logscale[tau] = m
    return WeightField(
        n=n,
        temperature=float(temperature),
        origin=(i, j),
        direction=direction,
        tau_min=0 if backward else i + j,
        tau_max=i + j if backward else 2 * n - 2,
        vecs=vecs,
        logscale=logscale,
    )


def forward_weights(l, start, temperature):
    """Log weights of all paths from start to every node at or after it."""
    return _weight_field(l, start, temperature, FORWARD)


def backward_weights(l, end, temperature):
    """Weights of all paths from every node at or before end, into end.

    Runs the forward sweep on the time-reversed pair and restates the result
    in the original orientation.
    """
    return _weight_field(l, end, temperature, BACKWARD)


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


def thermal_average(l, forward, backward=None, end=None):
    """Per-layer thermal lag statistics from materialized weight fields.

    With a backward field: bridge mode between forward.origin and
    backward.origin. Without: forward mode, optionally truncated at the
    layer of `end` (otherwise running to the last layer).
    """
    n = l.n
    if forward.direction != FORWARD:
        raise InvalidBoundaryError("first field must be a forward field")
    if forward.n != n:
        raise InvalidBoundaryError("field and landscape sizes differ")
    T = forward.temperature
    si, sj = forward.origin
    tau_s = forward.tau_min
    if backward is not None:
        if backward.direction != BACKWARD:
            raise InvalidBoundaryError("second field must be a backward field")
        if backward.n != n or backward.temperature != T:
            raise InvalidBoundaryError("fields disagree on lattice or temperature")
        ei, ej = backward.origin
        if ei < si or ej < sj:
            raise InvalidBoundaryError(
                f"end ({ei}, {ej}) not reachable from start ({si}, {sj})"
            )
        tau_e = ei + ej
        end = (ei, ej)
        mode = "bridge"
    else:
        if end is not None:
            ei, ej = _check_node(n, end)
            if ei < si or ej < sj:
                raise InvalidBoundaryError(
                    f"end ({ei}, {ej}) not reachable from start ({si}, {sj})"
                )
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

