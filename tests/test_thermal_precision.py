"""The log-space API against a 60-digit reference, from warm to near T = 0.

The reference (mp_reference.py) runs the same recursions in mpmath, so it
holds at any temperature; the brute-force enumeration in synth.py stops at
n = 10. Tolerances: mean lag and layer cost within 1e-10 absolute, log
partition within 1e-14 relative.
"""

import functools

import numpy as np
import pytest

from toplag.ingest import AlignedPair
from toplag.landscape import build_landscape
from toplag.thermal import backward_weights, forward_weights, thermal_average

from mp_reference import thermal_reference

TEMPERATURES = [1e-4, 1e-3, 0.01, 0.1, 2.0, 10.0]


def _standardize(v):
    return (v - v.mean()) / v.std()


@functools.lru_cache(maxsize=None)
def _landscape(n, cost):
    """A pair where y trails x by 3 samples under 0.3 noise."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(n)
    y = np.roll(x, 3) + 0.3 * rng.standard_normal(n)
    return build_landscape(AlignedPair(x=_standardize(x), y=_standardize(y)), mode=cost)


@pytest.mark.parametrize("T", TEMPERATURES)
@pytest.mark.parametrize("cost", ["minus", "plus", "mixed"])
@pytest.mark.parametrize("n", [20, 40, 60])
def test_log_space_api_matches_60_digit_reference(n, cost, T):
    l = _landscape(n, cost)
    start, end = (0, 2), (n - 3, n - 1)
    fwd = forward_weights(l, start, T)
    got = {
        "bridge": thermal_average(l, fwd, backward_weights(l, end, T)),
        "forward": thermal_average(l, fwd, end=end),
    }
    for mode, path in got.items():
        want = thermal_reference(l, start, end, T, mode)
        assert np.array_equal(path.taus, want.taus)
        np.testing.assert_allclose(path.mean_lag, want.mean_lag, rtol=0, atol=1e-10)
        np.testing.assert_allclose(path.layer_cost, want.layer_cost, rtol=0, atol=1e-10)
        assert path.log_partition == pytest.approx(want.log_partition, rel=1e-14, abs=0)
