"""Exception hierarchy for toplag.

Every error raised by the library derives from ToplagError so callers can
catch one type at the boundary. The CLI maps subtrees to exit codes.
"""


class ToplagError(Exception):
    """Base class for all toplag errors."""


# --- ingest ---------------------------------------------------------------


class IngestError(ToplagError):
    """Base class for errors raised while reading or aligning input series."""


class ColumnMissingError(IngestError):
    def __init__(self, column, path=""):
        self.column = column
        self.path = path
        where = f" in {path}" if path else ""
        super().__init__(f"required column {column!r} not found{where}")


class MalformedRowError(IngestError):
    """A data row could not be parsed and skipping was not requested."""

    def __init__(self, row, detail, path=""):
        self.row = row
        self.path = path
        where = f" of {path}" if path else ""
        super().__init__(f"row {row}{where}: {detail}")


class NonMonotoneTimestampsError(IngestError):
    def __init__(self, row, detail="timestamp not strictly increasing", path=""):
        self.row = row
        self.path = path
        where = f" of {path}" if path else ""
        super().__init__(f"row {row}{where}: {detail}")


class EmptySeriesError(IngestError):
    def __init__(self, detail="fewer than two usable rows"):
        super().__init__(detail)


class EmptyIntersectionError(IngestError):
    def __init__(self, detail="aligned series share no usable time instants"):
        super().__init__(detail)


class ZeroVarianceError(IngestError):
    def __init__(self, label="series"):
        self.label = label
        super().__init__(f"{label} has zero variance, cannot standardize")


# --- lattice / path engine ------------------------------------------------


class LatticeError(ToplagError):
    """Base class for errors raised by the lattice path machinery."""


class LatticeTooLargeError(LatticeError):
    def __init__(self, n, limit):
        self.n = n
        self.limit = limit
        super().__init__(f"lattice size {n} exceeds limit {limit} for this operation")


class InvalidBoundaryError(LatticeError):
    def __init__(self, detail):
        super().__init__(detail)


class DepthTooLargeError(LatticeError):
    def __init__(self, depth, n):
        self.depth = depth
        self.n = n
        super().__init__(f"boundary depth {depth} must satisfy 1 <= depth < n (n={n})")


class NoAdmissiblePairError(LatticeError):
    def __init__(self, detail="no admissible start/end pair on the boundary grid"):
        super().__init__(detail)


class CostOverflowError(LatticeError):
    """Sums of landscape costs could leave the double range; raised before
    any layer is computed (landscape.check_cost_sums)."""

    def __init__(self):
        super().__init__(
            "sums of landscape costs could overflow the double range; "
            "rescale the series, e.g. by standardizing them"
        )


class EmptyLayerError(LatticeError):
    def __init__(self, tau):
        self.tau = tau
        super().__init__(f"no path weight on layer tau={tau}")


# --- scenario generation ---------------------------------------------------


class ScenarioError(ToplagError):
    """Invalid synthetic-scenario parameters."""


class LagOutOfRangeError(ScenarioError):
    def __init__(self, max_lag, n):
        self.max_lag = max_lag
        self.n = n
        super().__init__(
            f"scenario lag magnitude {max_lag} too large for length {n}; need |lag| < n/4"
        )
