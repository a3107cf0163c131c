"""Arbitrary-precision reference for the thermal path statistics.

The forward and backward recursions run as plain nested loops over the
lattice in mpmath at 60 significant digits. mpmath numbers carry their own
exponent, so no weight underflows however cold the temperature, and nothing
here shares code with the engine: the only input taken from the package is
the landscape's float64 cost matrix, which converts to mpmath exactly.
"""

from dataclasses import dataclass

import mpmath
import numpy as np

DIGITS = 60


@dataclass
class ReferenceStats:
    """Per-layer statistics over layers taus, as floats."""

    taus: np.ndarray
    mean_lag: np.ndarray
    layer_cost: np.ndarray
    log_partition: float


def _sweep(w, n, seed, step):
    """Path weights from seed to every node it reaches, stepping by +step.

    With step = +1 these are forward weights (paths from seed), with
    step = -1 backward weights (paths into seed); both include the seed's
    and the node's own Boltzmann factors.
    """
    si, sj = seed
    rows = range(si, n) if step > 0 else range(si, -1, -1)
    cols = range(sj, n) if step > 0 else range(sj, -1, -1)
    g = {}
    for i in rows:
        for j in cols:
            if (i, j) == (si, sj):
                total = mpmath.mpf(1)
            else:
                total = mpmath.mpf(0)
                for di, dj in ((0, step), (step, 0), (step, step)):
                    total += g.get((i - di, j - dj), 0)
            g[i, j] = total * w[i][j]
    return g


def thermal_reference(l, start, end, temperature, mode="bridge"):
    """Mean lag, mean cost and log partition between start and end.

    mode "bridge" weighs each node by the paths from start through it to
    end; mode "forward" by the paths from start to it alone, over the layers
    from start's to end's, with the log partition taken on end's layer.
    """
    n = l.n
    cost = l.full_matrix()
    (si, sj), (ei, ej) = start, end
    with mpmath.workdps(DIGITS):
        T = mpmath.mpf(float(temperature))
        eps = [[mpmath.mpf(float(cost[i, j])) for j in range(n)] for i in range(n)]
        w = [[mpmath.exp(-e / T) for e in row] for row in eps]
        fwd = _sweep(w, n, (si, sj), 1)
        bwd = _sweep(w, n, (ei, ej), -1) if mode == "bridge" else None

        taus = np.arange(si + sj, ei + ej + 1)
        mean = np.empty(taus.size)
        layer_cost = np.empty(taus.size)
        z = None
        for k, tau in enumerate(taus):
            z = mpmath.mpf(0)
            lag_sum = mpmath.mpf(0)
            cost_sum = mpmath.mpf(0)
            for i in range(max(0, tau - (n - 1)), min(tau, n - 1) + 1):
                j = tau - i
                p = fwd.get((i, j), 0)
                if bwd is not None:
                    p = p * bwd.get((i, j), 0) / w[i][j]
                z += p
                lag_sum += (j - i) * p
                cost_sum += eps[i][j] * p
            mean[k] = float(lag_sum / z)
            layer_cost[k] = float(cost_sum / z)
        log_z = mpmath.log(fwd[ei, ej] if bwd is not None else z)
        return ReferenceStats(
            taus=taus, mean_lag=mean, layer_cost=layer_cost, log_partition=float(log_z)
        )
