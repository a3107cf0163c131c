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

Besides the planes, the DP holds only typed arrays: the per-layer bounds and
bit offsets as int64 arrays, which the loops read through memoryviews, the
three rows of running costs, and the walk-back's layers and rows, written
into two preallocated int64 arrays. No Python object is kept per layer or
per node.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidBoundaryError
from .landscape import check_cost_sums, check_node

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


def _backpointers(l, tau0, los, his, glos, offs):
    """The DP over layers tau0 .. tau0 + len(los) - 1 of the rectangle whose
    layer k holds nodes los[k] .. his[k] (glos[k] being the layer's own lo)
    at bits offs[k] .. of the returned (2, offs[-1] // 8) bit-planes. Its
    cost rows and staging buffer are freed on return, before the walk-back
    allocates."""
    n = l.n
    # Accumulated costs live in three rotating rows of length n + 2, node i
    # at index i + 1, which start at +inf; a layer writes its costs at
    # lo+1 .. hi+1 and nothing else. The predecessor slices (lo .. hi+1 of
    # the previous row, lo .. hi of the one before) hold that layer's nodes
    # or cells no layer has written: index los[0] while lo stays there, and
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
    last = len(los) - 1
    layers = zip(los, his, glos, offs, offs[1:], l.layers(tau0, tau0 + last + 1))
    for k, (lo, hi, glo, off, stop, eps) in enumerate(layers):
        eps = eps[lo - glo : hi - glo + 1]
        best = rows[k % 3][lo + 1 : hi + 2]
        if k == 0:
            best[:] = eps
        else:
            p1 = rows[(k - 1) % 3]
            c_diag = rows[(k - 2) % 3][lo : hi + 1]
            c_up = p1[lo : hi + 1]
            c_left = p1[lo + 1 : hi + 2]
            # Strict compares keep the diagonal, then (i-1, j), on ties.
            a = off - base
            b = a + hi - lo + 1
            np.less(c_up, c_diag, out=up_bits[a:b])
            np.minimum(c_diag, c_up, out=best)
            np.less(c_left, best, out=left_bits[a:b])
            np.minimum(best, c_left, out=best)
            np.add(best, eps, out=best)
        if stop - base >= _STAGE_BITS or k == last:
            planes[:, base >> 3 : stop >> 3] = np.packbits(
                stage[:, : stop - base], axis=1, bitorder="little"
            )
            base = stop
    return planes


def optimal_path(l, start=None, end=None):
    """Minimal-cost path between two lattice nodes (corners by default);
    CostOverflowError first if path costs could overflow (check_cost_sums).

    Above its bit-planes and staging buffer the call holds O(n) int64 and
    float64 arrays: a traced peak of 128 to 142 bytes per lattice row at
    n = 1000, 2000 and 4000. nodes and mapping are built by numpy from the
    walk-back's arrays.
    """
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
    # each layer's costs arrive whole from the stream and are cut to the
    # rectangle at lo - glo .. hi - glo, glo being the layer's own lo
    glos = np.maximum(0, taus - (n - 1))
    # memoryviews hand the loops Python ints without a list of them
    los, his, glos, offs = map(memoryview, (los, his, glos, offs))

    planes = _backpointers(l, tau0, los, his, glos, offs)

    # Walk back from the end following the stored predecessor bits,
    # writing each node's layer k and row i from the end of two arrays.
    up, left = map(memoryview, planes)
    last = tau_end - tau0
    ks = np.empty(last + 1, dtype=np.int64)
    rows_i = np.empty(last + 1, dtype=np.int64)
    kv, iv = memoryview(ks), memoryview(rows_i)
    m = last
    k, i = last, ei
    while True:
        kv[m], iv[m] = k, i
        if k == 0:
            break
        m -= 1
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
    i_path = rows_i[m:]
    nodes = np.column_stack((i_path, ks[m:] + tau0 - i_path))
    total = float(np.sum(l.nodes(nodes[:, 0], nodes[:, 1])))

    # Each row's last node is where the next node's row is one higher.
    last_in_row = np.ones(nodes.shape[0], dtype=bool)
    np.not_equal(nodes[1:, 0], nodes[:-1, 0], out=last_in_row[:-1])
    mapping = nodes[last_in_row, 1]
    return HardPath(
        nodes=nodes,
        total_energy=total,
        mapping=mapping,
        start=(si, sj),
        end=(ei, ej),
    )
