"""Mismatch landscape over the (t1, t2) lattice.

Each node (i, j) of the n x n lattice pairs observation i of the first series
with observation j of the second and carries a nonnegative mismatch cost.
Three cost modes are supported:

  comonotonic      |x_i - y_j|   (series move together)
  antimonotonic    |x_i + y_j|   (series mirror each other)
  mixed            min of the two, agnostic to the sign of the coupling

Anti-diagonal layers tau = i + j are the natural sweep order for the path
engines, so the landscape exposes per-layer cost vectors that are generated
on demand, one at a time or as a stream; the full n x n matrix is built only when asked for, and only for
small lattices.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CostOverflowError, InvalidBoundaryError, LatticeTooLargeError

# Above this size the full cost matrix is refused; layers are generated
# inside sweeps (n = 4096 is 128 MB of float64, the last comfortable size).
MATERIALIZE_LIMIT = 4096


class DistanceMode:
    """Names for the three mismatch modes."""

    COMONOTONIC = "comonotonic"
    ANTIMONOTONIC = "antimonotonic"
    MIXED = "mixed"

    ALL = (COMONOTONIC, ANTIMONOTONIC, MIXED)

    # CLI spelling -> canonical name
    ALIASES = {
        "minus": COMONOTONIC,
        "plus": ANTIMONOTONIC,
        "mixed": MIXED,
        COMONOTONIC: COMONOTONIC,
        ANTIMONOTONIC: ANTIMONOTONIC,
        MIXED: MIXED,
    }

    @classmethod
    def canonical(cls, name):
        try:
            return cls.ALIASES[name]
        except KeyError:
            raise ValueError(
                f"unknown distance mode {name!r}; expected one of {sorted(cls.ALIASES)}"
            ) from None


def layer_bounds(n, tau):
    """Index range of lattice nodes on anti-diagonal tau.

    Returns (lo, hi) such that nodes (i, tau - i) for i in lo..hi inclusive
    are exactly the nodes of the layer. tau runs 0 .. 2n-2.
    """
    lo = max(0, tau - (n - 1))
    hi = min(tau, n - 1)
    return lo, hi


def check_node(n, node):
    """node as an (i, j) pair of ints; InvalidBoundaryError unless it lies
    on the n x n lattice."""
    i, j = int(node[0]), int(node[1])
    if not (0 <= i < n and 0 <= j < n):
        raise InvalidBoundaryError(f"node ({i}, {j}) outside the {n} x {n} lattice")
    return i, j


def check_cost_sums(l):
    """CostOverflowError unless (2n - 1) * l.cost_bound is finite.

    Every cost sum the engines take (weighted layer costs, summed layer
    means, path costs) has at most 2n - 1 terms of at most cost_bound. The
    path engines call this before their first layer, so a +inf score means
    an underflowed path weight. A Python float product overflows silently.
    """
    if not math.isfinite((2 * l.n - 1) * l.cost_bound):
        raise CostOverflowError()


def layer_lags(n, tau):
    """Lag values x = j - i = tau - 2i for the nodes of layer tau, i ascending."""
    lo, hi = layer_bounds(n, tau)
    return tau - 2 * np.arange(lo, hi + 1, dtype=np.int64)


@dataclass
class EnergyLandscape:
    """Mismatch costs over the lattice, with on-demand layer access.

    Entries are generated from the stored series; a reversed copy of y
    (n doubles) makes each layer two forward slices. layer(tau) returns a
    fresh array. layers(start, stop) yields views of one n-double buffer
    that each next layer overwrites, so a caller that keeps a layer past the
    next iteration must copy it. eps is always None: no dense matrix is
    kept. The field stays only because perfbench/spans.py reads it to count
    dense-cache bytes.
    """

    x: np.ndarray
    y: np.ndarray
    mode: str
    eps: None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.y = np.ascontiguousarray(self.y, dtype=np.float64)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("landscape needs two 1-d series of equal length")
        self.mode = DistanceMode.canonical(self.mode)
        self._y_rev = self.y[::-1].copy()

    @property
    def n(self):
        return self.x.size

    @property
    def n_layers(self):
        return 2 * self.n - 1

    @property
    def cost_bound(self):
        """max|x| + max|y|, at or above every node cost in every mode."""
        return sum(float(np.abs(v).max(initial=0.0)) for v in (self.x, self.y))

    def _combine(self, xs, ys, out=None):
        """Costs of the pairs xs, ys, written into out when it is given:
        layer() and layers() share this kernel, so they give the same bits."""
        if self.mode == DistanceMode.ANTIMONOTONIC:
            return np.abs(np.add(xs, ys, out=out), out=out)
        d = np.abs(np.subtract(xs, ys, out=out), out=out)
        if self.mode == DistanceMode.COMONOTONIC:
            return d
        return np.minimum(d, np.abs(xs + ys), out=out)

    def entry(self, i, j):
        """Cost at node (i, j)."""
        return float(self._combine(self.x[i], self.y[j]))

    def nodes(self, i, j):
        """Costs at arrays of node coordinates (vectorized entry)."""
        return self._combine(self.x[np.asarray(i)], self.y[np.asarray(j)])

    def layer(self, tau):
        """Costs on anti-diagonal tau, ordered by i ascending (lag descending)."""
        n = self.n
        lo, hi = layer_bounds(n, tau)
        # i = lo..hi pairs with j = tau-lo down to tau-hi, which sit at
        # n-1-tau+lo .. n-1-tau+hi of the reversed copy
        r = n - 1 - tau
        return self._combine(self.x[lo : hi + 1], self._y_rev[r + lo : r + hi + 1])

    def layers(self, start, stop):
        """Costs on anti-diagonals start .. stop-1 in turn, each as layer()
        would return it, but written into one buffer that the next layer
        overwrites: copy a layer that must outlive the next iteration."""
        n, x, y_rev, combine = self.n, self.x, self._y_rev, self._combine
        buf = np.empty(n)
        for tau in range(start, stop):
            # layer_bounds inline: i = lo..hi sits at n-1-tau+i of y_rev
            if tau < n:
                w = tau + 1
                yield combine(x[:w], y_rev[n - w :], buf[:w])
            else:
                w = 2 * n - 1 - tau
                yield combine(x[n - w :], y_rev[:w], buf[:w])

    def full_matrix(self):
        """Dense n x n cost matrix, built on each call; refuses on lattices
        too large to hold."""
        if self.n > MATERIALIZE_LIMIT:
            raise LatticeTooLargeError(self.n, MATERIALIZE_LIMIT)
        return self._combine(self.x[:, None], self.y[None, :])

    def reflected(self):
        """Landscape of the time-reversed pair.

        Node (i, j) of the reflection costs the same as node (n-1-i, n-1-j)
        here, which lets a backward sweep run as a forward sweep.
        """
        return EnergyLandscape(self.x[::-1].copy(), self.y[::-1].copy(), self.mode)


def build_landscape(pair, mode=DistanceMode.COMONOTONIC):
    """Build the mismatch landscape for an aligned pair.

    pair may be an AlignedPair or any object with 1-d .x and .y arrays.
    """
    return EnergyLandscape(np.asarray(pair.x), np.asarray(pair.y), mode)
