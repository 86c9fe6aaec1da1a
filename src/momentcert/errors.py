"""Exception types shared across the package."""


class MomentcertError(Exception):
    """Base class for every domain error raised by this package."""


# --- polytope ---

class PolytopeError(MomentcertError):
    pass


class EmptyInteriorError(PolytopeError):
    pass


# --- floer ---

class DimensionLimitError(MomentcertError):
    pass


class OddPolytopeError(MomentcertError):
    pass


class NonSquareInvariantError(MomentcertError):
    pass


# --- reduction ---

class SliceError(MomentcertError):
    pass


class SliceOutsidePolytopeError(SliceError):
    pass


class NonPrimitiveImageError(SliceError):
    pass


class NotDelzantError(MomentcertError):
    pass


class NotCompactError(MomentcertError):
    pass


class NotMonotoneError(MomentcertError):
    pass


# --- certificate verification ---

class VerificationError(MomentcertError):
    """A certificate failed to verify; subclasses say why."""


class ModelMismatchError(VerificationError):
    pass


class MarkedPointMismatchError(VerificationError):
    pass


class ReducedPolytopeMismatchError(VerificationError):
    pass


class BoundNotIntegralError(VerificationError):
    pass


class UnsupportedClaimError(VerificationError):
    pass


# --- probes ---

class ProbeError(MomentcertError):
    pass


class UnboundedProbeError(ProbeError):
    pass


class NotOnFacetError(ProbeError):
    pass


class NotTransverseError(ProbeError):
    pass


# --- documents / CLI ---

class DocumentError(MomentcertError):
    """Malformed input file (bad JSON, bad schema, inexact numbers)."""
