"""Default resource limits, overridable via environment variables; the
vertex cap and the psi node budget also take a per-call override.  The
vertex cap guards every search exponential in the vertex count: faces,
minimal transversals, dominating sets and homology."""

import os

from .errors import CapacityExceeded, ValidationError

DEFAULT_VERTEX_CAP = 25
DEFAULT_PSI_BUDGET = 1_000_000
DEFAULT_TRIANGULATED_CAP = 16
DEFAULT_COMBINATION_CAP = 10_000_000


def _limit(override: int | None, name: str, default: int) -> int:
    """The override if given, else the environment variable, else the
    default; a variable that is not a nonnegative integer is rejected."""
    if override is not None:
        return override
    raw = os.environ.get(name, str(default))
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{name}={raw!r} is not an integer") from None
    if value < 0:
        raise ValidationError(f"{name}={raw!r} is negative")
    return value


def _check_vertex_cap(n: int, cap: int | None) -> None:
    """Raise CapacityExceeded when n vertices are more than the cap."""
    if n > _limit(cap, "HYPERCONN_VERTEX_CAP", DEFAULT_VERTEX_CAP):
        raise CapacityExceeded(f"{n} vertices exceeds the enumeration cap")


def psi_budget(override: int | None = None) -> int:
    return _limit(override, "HYPERCONN_PSI_BUDGET", DEFAULT_PSI_BUDGET)


def triangulated_cap() -> int:
    """Vertex cap of is_triangulated; set only by the environment."""
    return _limit(None, "HYPERCONN_TRIANGULATED_CAP", DEFAULT_TRIANGULATED_CAP)
