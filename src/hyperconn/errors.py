"""Exception types shared across the package.

Validation errors subclass ValueError so that callers doing broad input
checking can catch one base. Resource errors (budget, capacity) subclass
RuntimeError: the input was fine, the computation was cut off.
"""


class ValidationError(ValueError):
    """Base for all input-validation failures."""


class EdgeTooSmall(ValidationError):
    """An edge with fewer than two vertices was supplied."""


class ComparableEdges(ValidationError):
    """Two supplied edges are comparable (one contains the other)."""


class EdgeOutsideVertexSet(ValidationError):
    """An edge mentions a vertex outside the declared vertex set."""


class EdgeNotPresent(ValidationError):
    """An operation referenced an edge that is not in the hypergraph."""


class VertexNotPresent(ValidationError):
    """An operation referenced a vertex that is not in the vertex set."""


class NotASubset(ValidationError):
    """A set argument was required to be a subset of the vertex set."""


class OverlappingVertexSets(ValidationError):
    """Disjoint union was asked of hypergraphs with shared vertices."""


class NotAFace(ValidationError):
    """A face argument does not belong to the simplicial complex."""


class NotUniform(ValidationError):
    """The operation requires a d-uniform hypergraph."""


class NotProperlyConnected(ValidationError):
    """The operation requires a properly-connected hypergraph."""


class NotSubfamily(ValidationError):
    """A family argument contains edges that are not edges of the hypergraph."""


class NotTriangulated(ValidationError):
    """The homotopy-type recursion found no decomposition vertex."""


class ParseError(ValidationError):
    """A document could not be parsed; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownFixture(ValidationError):
    """The fixture registry has no entry under the requested name."""


class ResourceError(RuntimeError):
    """Base for budget and capacity cutoffs."""


class BudgetExceeded(ResourceError):
    """A recursion node budget was exhausted before the value was determined.

    A cut-off psi query sets bounds to the (lo, hi) it had proven."""

    bounds: tuple | None = None


class CapacityExceeded(ResourceError):
    """An enumeration would exceed the configured size cap."""


class DepthExceeded(ResourceError):
    """Python's recursion limit was reached before the value was determined."""
