"""Zero-temperature limit: the single minimal-cost lattice path.

The path walks the (i, j) lattice from a start to an end corner using steps
(i+1, j), (i, j+1), (i+1, j+1), accumulating landscape costs. Dynamic
programming over anti-diagonal layers finds the minimum; on cost ties the
predecessor preference is diagonal, then the (i-1, j) step, then (i, j-1),
which keeps results deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBoundaryError
from .landscape import layer_bounds

_DIAG, _UP, _LEFT, _SEED = 0, 1, 2, 3


@dataclass
class HardPath:
    """A minimal-cost lattice path.

    nodes is an (L, 2) array of (i, j) pairs, strictly nondecreasing in both
    coordinates, from start to end. mapping[i - start_i] is the last j the
    path assigns to row i. total_energy is the sum of landscape costs over
    the nodes, recomputed from the landscape (not the DP accumulator).
    """

    nodes: np.ndarray
    total_energy: float
    mapping: np.ndarray
    start: tuple
    end: tuple

    @property
    def taus(self):
        return self.nodes[:, 0] + self.nodes[:, 1]

    @property
    def lags(self):
        return self.nodes[:, 1] - self.nodes[:, 0]

    def lag_at_tau(self):
        """Dict layer -> lag for the layers the path visits."""
        return {int(t): int(x) for t, x in zip(self.taus, self.lags)}


def optimal_path(l, start=None, end=None):
    """Minimal-cost path between two lattice nodes (corners by default)."""
    n = l.n
    if start is None:
        start = (0, 0)
    if end is None:
        end = (n - 1, n - 1)
    si, sj = map(int, start)
    ei, ej = map(int, end)
    for i, j in ((si, sj), (ei, ej)):
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidBoundaryError(f"node ({i}, {j}) outside the {n} x {n} lattice")
    if ei < si or ej < sj:
        raise InvalidBoundaryError(
            f"end ({ei}, {ej}) not reachable from start ({si}, {sj})"
        )

    tau0 = si + sj
    tau_end = ei + ej

    def bounds(tau):
        return max(si, tau - ej), min(ei, tau - sj)

    # Accumulated costs live in three rotating rows of length n + 2, node i
    # at index i + 1. A layer writes its costs at lo+1 .. hi+1 and +inf
    # sentinels at lo and hi+2. Layer bounds move by at most one per layer,
    # so the predecessor slices (lo .. hi+1 of the previous row, lo .. hi of
    # the one before) stay inside what those layers wrote and never read a
    # cost left from the layer a row held three layers earlier. The rows
    # start at +inf, which stands for the absent layers before tau0. (With
    # the rectangle bounds used here no stale cost reaches those slices
    # even without sentinels; they keep the loop right for any bounds that
    # step by at most one, such as a lag band.)
    rows = np.full((3, n + 2), np.inf)
    left = np.empty(n, dtype=bool)
    codes = {}
    lows = {}
    for k, tau in enumerate(range(tau0, tau_end + 1)):
        lo, hi = bounds(tau)
        eps = _layer_costs(l, tau, lo, hi)
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
            # Strict compares keep the diagonal, then (i-1, j), on ties.
            code = (c_up < c_diag).view(np.uint8)  # _UP (1) or _DIAG (0)
            np.minimum(c_diag, c_up, out=best)
            m = np.less(c_left, best, out=left[: hi - lo + 1])
            np.putmask(code, m, _LEFT)
            np.minimum(best, c_left, out=best)
            best += eps
        cur[lo] = cur[hi + 2] = np.inf
        codes[tau] = code
        lows[tau] = lo

    # Walk back from the end following stored predecessor codes.
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
    return HardPath(
        nodes=nodes,
        total_energy=total,
        mapping=mapping,
        start=(si, sj),
        end=(ei, ej),
    )


def _layer_costs(l, tau, lo, hi):
    """Landscape costs for layer tau restricted to i in [lo, hi]."""
    full = l.layer(tau)
    glo, _ = layer_bounds(l.n, tau)
    return full[lo - glo : hi - glo + 1]
