"""Exception types shared across the package."""


class ReluFlowError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(ReluFlowError):
    """Malformed inputs: shape mismatches, wrong-length patterns, bad JSON."""


class SizeError(ReluFlowError):
    """Combinatorial guard exceeded (too many cells to enumerate)."""


class GeometryError(ReluFlowError):
    """Request is geometrically meaningless (e.g. infeasible pattern)."""


class DegenerateDirectionError(ReluFlowError):
    """A denominator or direction is numerically zero."""


class PreconditionError(ReluFlowError):
    """A documented precondition does not hold for the given arguments."""


class NumericalError(ReluFlowError):
    """A numerical routine produced NaN/Inf or failed to converge."""
