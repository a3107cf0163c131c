"""toplag: time-dependent lead-lag detection between two time series.

The package aligns two series on a common clock, builds a mismatch landscape
over the (t1, t2) lattice, and extracts the lag trajectory x(tau) = t2 - t1
either as the single minimal-cost lattice path (zero temperature) or as a
thermal average over all admissible paths (finite temperature), with the
start/end corners chosen by a grid search over boundary points. A rolling
regression of Y_t on X_{t - lag(t)} then scores how consistent the detected
lag structure is with the data.
"""

import os as _os

# BLAS picks its thread count at first numpy import, so the cap must be set
# before numpy loads anywhere in this process.
_threads = _os.environ.get("TOPLAG_THREADS")
if _threads:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

from .errors import (
    ToplagError,
    IngestError,
    ColumnMissingError,
    MalformedRowError,
    NonMonotoneTimestampsError,
    EmptySeriesError,
    EmptyIntersectionError,
    ZeroVarianceError,
    LatticeError,
    LatticeTooLargeError,
    InvalidBoundaryError,
    DepthTooLargeError,
    NoAdmissiblePairError,
    EmptyLayerError,
    CostOverflowError,
    ScenarioError,
    LagOutOfRangeError,
)
from .ingest import (
    RawSeries,
    AlignedPair,
    parse_csv,
    synchronize,
    standardize,
    slice_pair,
)
from .landscape import DistanceMode, EnergyLandscape, build_landscape
from .zerotemp import HardPath, optimal_path
from .thermal import (
    WeightField,
    LagPath,
    forward_weights,
    backward_weights,
    thermal_average,
)
from .boundary import (
    BoundarySpec,
    SelectionResult,
    enumerate_boundaries,
    select_optimal,
)
from .consistency import (
    SyncedSamples,
    ConsistencyReport,
    make_synced,
    resample_lag_to_time,
    round_half_away,
    run_consistency,
    regularized_incomplete_beta,
    student_t_two_sided_pvalue,
)
from .synth import LagScenario, generate, enumerate_directed_paths, brute_force_thermal

__version__ = "0.1.0"

__all__ = [
    "ToplagError",
    "IngestError",
    "ColumnMissingError",
    "MalformedRowError",
    "NonMonotoneTimestampsError",
    "EmptySeriesError",
    "EmptyIntersectionError",
    "ZeroVarianceError",
    "LatticeError",
    "LatticeTooLargeError",
    "InvalidBoundaryError",
    "DepthTooLargeError",
    "NoAdmissiblePairError",
    "EmptyLayerError",
    "CostOverflowError",
    "ScenarioError",
    "LagOutOfRangeError",
    "RawSeries",
    "AlignedPair",
    "parse_csv",
    "synchronize",
    "standardize",
    "slice_pair",
    "DistanceMode",
    "EnergyLandscape",
    "build_landscape",
    "HardPath",
    "optimal_path",
    "WeightField",
    "LagPath",
    "forward_weights",
    "backward_weights",
    "thermal_average",
    "BoundarySpec",
    "SelectionResult",
    "enumerate_boundaries",
    "select_optimal",
    "SyncedSamples",
    "ConsistencyReport",
    "make_synced",
    "resample_lag_to_time",
    "round_half_away",
    "run_consistency",
    "regularized_incomplete_beta",
    "student_t_two_sided_pvalue",
    "LagScenario",
    "generate",
    "enumerate_directed_paths",
    "brute_force_thermal",
    "__version__",
]
