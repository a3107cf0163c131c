"""Thermally averaged lag trajectories between two anchors, in log space.

forward_weights and backward_weights describe one node's weight field.
thermal_average streams the pair they name through the scan's own pair
path, boundary._bridge_pair_path, with every sweep in the log domain, whose
unbounded dynamic range makes it the reference for the scan's linear-domain
score tables. The scan's winner trajectory is its output for the winning
pair.
Its memory follows the scan's memory-budget plan, which is sized for the
scan's many fields, so for one field it is quadratic in n: while
(2n - 1)·8n bytes fit DEFAULT_MEMORY_BUDGET (2 GB, up to n of about 11,000),
the backward sweep is held whole, every layer's weights and costs, about
16·n² bytes (273.7 MB traced at n = 4096, about 1.9 GB near n = 11,000).
Above that it is replayed in blocks. ROADMAP item 6 would plan it by what
is stored.

Bridge mode conditions on both anchors: the weight of passing through a node
is G_fwd * G_bwd * exp(+eps/T), where the positive factor undoes the node
cost counted by both sweeps. Forward mode uses the forward weights alone,
i.e. a distribution over growing-path endpoints.
"""

from dataclasses import dataclass

from .boundary import DEFAULT_MEMORY_BUDGET, _bridge_pair_path
from .errors import InvalidBoundaryError
from .landscape import check_node

# Re-exported: LagPath and _StackedSweep have always been importable from here.
from .sweep import LagPath, _StackedSweep, _check_temperature  # noqa: F401

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class WeightField:
    """Description of one node's path-weight field.

    A forward field holds the weights of all paths from origin to every node
    at or after it; a backward field those of all paths from every node at
    or before origin into it. No weight is materialized: thermal_average
    streams the layers it needs.
    """

    n: int
    temperature: float
    origin: tuple
    direction: str


def _field(l, node, temperature, direction):
    T = _check_temperature(temperature)
    return WeightField(l.n, T, check_node(l.n, node), direction)


def forward_weights(l, start, temperature):
    """The field of all paths from start to every node at or after it."""
    return _field(l, start, temperature, FORWARD)


def backward_weights(l, end, temperature):
    """The field of all paths from every node at or before end, into end."""
    return _field(l, end, temperature, BACKWARD)


def thermal_average(l, forward, backward=None, end=None):
    """Per-layer thermal lag statistics between weight fields' origins.

    With a backward field: bridge mode between forward.origin and
    backward.origin. Without: forward mode, optionally truncated at the
    layer of `end` (otherwise running to the last layer). Raises
    CostOverflowError before the first layer if cost sums could overflow.
    """
    n = l.n
    if forward.direction != FORWARD:
        raise InvalidBoundaryError("first field must be a forward field")
    if forward.n != n:
        raise InvalidBoundaryError("field and landscape sizes differ")
    T = forward.temperature
    si, sj = forward.origin
    bridge = backward is not None
    if bridge:
        if backward.direction != BACKWARD:
            raise InvalidBoundaryError("second field must be a backward field")
        if backward.n != n or backward.temperature != T:
            raise InvalidBoundaryError("fields disagree on lattice or temperature")
        end = backward.origin
    if end is not None:
        ei, ej = end = check_node(n, end)
        if ei < si or ej < sj:
            raise InvalidBoundaryError(
                f"end ({ei}, {ej}) not reachable from start ({si}, {sj})"
            )
    mode = "bridge" if bridge else "forward"
    return _bridge_pair_path(l, (si, sj), end, T, DEFAULT_MEMORY_BUDGET, mode)
