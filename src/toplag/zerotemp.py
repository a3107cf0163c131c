"""Zero-temperature limit: the single minimal-cost lattice path.

The path walks the (i, j) lattice from a start to an end corner using steps
(i+1, j), (i, j+1), (i+1, j+1), accumulating landscape costs. Dynamic
programming over anti-diagonal layers finds the minimum; on cost ties the
predecessor preference is diagonal, then the (i-1, j) step, then (i, j-1),
which keeps results deterministic.

Backpointers take two bits per node of the anchor rectangle, kept as two
bit-planes in the rows of one (2, bytes) uint8 array. Layer k (tau = tau0 + k)
holds its nodes i = lo_k .. hi_k at bits offs[k] .. offs[k] + hi_k - lo_k;
each layer's slot is rounded up to a multiple of 8 bits, so every layer
starts on a byte boundary. Plane 0 has the bit set when the (i-1, j) step
beats the diagonal, plane 1 when the (i, j-1) step beats both; bit b of a
plane is bit b & 7 (least significant first) of byte b >> 3. The layer loop
writes the bits as bools into a staging buffer and packs it into the planes
whenever _STAGE_BITS bits have gathered, and once more after the last layer.
The backtrack follows (i, j-1) if its bit is set, else (i-1, j) if its bit is
set, else the diagonal. The start layer's bits and the padding bits are never
read.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBoundaryError
from .landscape import check_cost_sums, check_node, layer_bounds

# Staged bits per plane between two packs into the bit-planes.
_STAGE_BITS = 1 << 16


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
    """Minimal-cost path between two lattice nodes (corners by default);
    CostOverflowError first if path costs could overflow (check_cost_sums)."""
    check_cost_sums(l)
    n = l.n
    if start is None:
        start = (0, 0)
    if end is None:
        end = (n - 1, n - 1)
    si, sj = check_node(n, start)
    ei, ej = check_node(n, end)
    if ei < si or ej < sj:
        raise InvalidBoundaryError(
            f"end ({ei}, {ej}) not reachable from start ({si}, {sj})"
        )

    tau0 = si + sj
    tau_end = ei + ej
    taus = np.arange(tau0, tau_end + 1)
    los = np.maximum(si, taus - ej)
    his = np.minimum(ei, taus - sj)
    offs = np.zeros(taus.size + 1, dtype=np.int64)
    np.cumsum((his - los + 8) & -8, out=offs[1:])
    whole = (los == np.maximum(0, taus - (n - 1))) & (his == np.minimum(taus, n - 1))
    los, his, offs, whole = los.tolist(), his.tolist(), offs.tolist(), whole.tolist()

    # Accumulated costs live in three rotating rows of length n + 2, node i
    # at index i + 1, which start at +inf; a layer writes its costs at
    # lo+1 .. hi+1 and nothing else. The predecessor slices (lo .. hi+1 of
    # the previous row, lo .. hi of the one before) hold that layer's nodes
    # or cells no layer has written: index si while lo stays at si, and
    # while hi grows, the index past a predecessor's last node, which no
    # shorter layer before it in the row reached. Their +inf stands for the
    # nodes outside a layer and the absent layers before tau0. This holds
    # for the rectangle bounds used here; bounds whose edges can also move
    # inward, such as a lag band, would need +inf sentinels written at lo
    # and hi+2 of each layer.
    rows = list(np.full((3, n + 2), np.inf))
    # The stage holds the bits from offs index base on, as bools; it is
    # packed into the planes once it holds _STAGE_BITS of them, so it needs
    # room for fewer than that plus one layer's slot of at most n + 7 bits.
    planes = np.empty((2, offs[-1] >> 3), dtype=np.uint8)
    stage = np.zeros((2, min(offs[-1], _STAGE_BITS + n + 7)), dtype=bool)
    up_bits, left_bits = stage
    base = 0
    last = tau_end - tau0
    for k, tau in enumerate(range(tau0, tau_end + 1)):
        lo, hi = los[k], his[k]
        eps = _layer_costs(l, tau, lo, hi, whole[k])
        best = rows[k % 3][lo + 1 : hi + 2]
        if k == 0:
            best[:] = eps
        else:
            p1 = rows[(k - 1) % 3]
            c_diag = rows[(k - 2) % 3][lo : hi + 1]
            c_up = p1[lo : hi + 1]
            c_left = p1[lo + 1 : hi + 2]
            # Strict compares keep the diagonal, then (i-1, j), on ties.
            a = offs[k] - base
            b = a + hi - lo + 1
            np.less(c_up, c_diag, out=up_bits[a:b])
            np.minimum(c_diag, c_up, out=best)
            np.less(c_left, best, out=left_bits[a:b])
            np.minimum(best, c_left, out=best)
            np.add(best, eps, out=best)
        stop = offs[k + 1]
        if stop - base >= _STAGE_BITS or k == last:
            planes[:, base >> 3 : stop >> 3] = np.packbits(
                stage[:, : stop - base], axis=1, bitorder="little"
            )
            base = stop
    del stage, up_bits, left_bits  # the walk reads only the planes

    # Walk back from the end following the stored predecessor bits.
    up, left = map(memoryview, planes)
    path = []
    k, i = last, ei
    while True:
        path.append((i, tau0 + k - i))
        if k == 0:
            break
        b = offs[k] + i - los[k]
        byte, bit = b >> 3, b & 7
        if (left[byte] >> bit) & 1:
            k -= 1
        elif (up[byte] >> bit) & 1:
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
    return HardPath(
        nodes=nodes,
        total_energy=total,
        mapping=mapping,
        start=(si, sj),
        end=(ei, ej),
    )


def _layer_costs(l, tau, lo, hi, whole):
    """Landscape costs for layer tau restricted to i in [lo, hi]; whole says
    that [lo, hi] is the entire layer, which is then returned as it is."""
    layer = l.layer(tau)
    if whole:
        return layer
    glo, _ = layer_bounds(l.n, tau)
    return layer[lo - glo : hi - glo + 1]
