"""Extended natural numbers: exact ints plus a single infinite value.

Finite values are always Python ints, so ordering and arithmetic stay exact.
INF is math.inf, which compares and adds correctly against ints; it is the
only float that ever appears in an ExtNat.  Connectivity values reuse the
same scheme but may be as small as -2.
"""

import math

INF = math.inf

ExtNat = int | float


def ceil_half(x: ExtNat) -> ExtNat:
    """Ceiling of x/2, infinity-aware."""
    if x == INF:
        return INF
    return (x + 1) // 2


def fmt(x: ExtNat) -> str:
    """Render a value for reports: 'inf' or the plain integer."""
    return "inf" if x == INF else str(int(x))


def parse_ext(s: str) -> ExtNat:
    return INF if s == "inf" else int(s)
