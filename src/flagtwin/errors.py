"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A sampler or operation was called with out-of-range parameters."""


class FormatError(ValueError):
    """A text file does not conform to its documented format."""


class FaceNotFoundError(KeyError):
    """The requested face is not part of the complex."""


class DimensionError(ValueError):
    """A dimension argument is outside the range the operation supports."""


class TruncatedComplexError(ValueError):
    """The complex was built with too small a max_dim for the request."""


class QuotientError(ValueError):
    """The involution does not admit a well-behaved simplicial quotient."""


class StructureError(ValueError):
    """A graph lacks the structure (connectivity, bipartition) an operation needs."""


class EmptyGraphError(ValueError):
    """The operation needs at least one non-isolated vertex."""


class LiftBlockedError(ValueError):
    """The lifted collapse sequence is not performable on this instance."""


class CertificateError(RuntimeError):
    """An exact certificate failed its own re-verification (an internal fault)."""


class ResourceCapError(RuntimeError):
    """A per-trial resource cap (faces, nonzeros, wall time) was exceeded."""
