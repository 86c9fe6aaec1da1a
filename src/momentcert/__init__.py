"""Exact invariants, reductions and non-displaceability certificates for
moment polytopes."""

from .certificate import (
    BaseFact,
    Certificate,
    Product,
    Reduction,
    VerifiedClaim,
    auto_certify_monotone,
    verify,
)
from .floer import BoundaryOp, boundary_op, hf, hf_even, rank_gf2
from .polytope import (
    Facet,
    Polytope,
    Vertex,
    equidistant_point,
    product,
    prune_redundant,
)
from .probes import Probe, is_displaceable_by_probe, probe_reach, probe_scan
from .reduction import (
    AffineReduction,
    WeightVector,
    cp1,
    cube,
    monotone_weights,
    o_minus_one,
    reduce_polytope,
    section,
    simplex,
    weighted_projective,
)

__version__ = "0.1.0"

__all__ = [
    "AffineReduction",
    "BaseFact",
    "BoundaryOp",
    "Certificate",
    "Facet",
    "Polytope",
    "Probe",
    "Product",
    "Reduction",
    "VerifiedClaim",
    "Vertex",
    "WeightVector",
    "auto_certify_monotone",
    "boundary_op",
    "cp1",
    "cube",
    "equidistant_point",
    "hf",
    "hf_even",
    "is_displaceable_by_probe",
    "monotone_weights",
    "o_minus_one",
    "probe_reach",
    "probe_scan",
    "product",
    "prune_redundant",
    "rank_gf2",
    "reduce_polytope",
    "section",
    "simplex",
    "verify",
    "weighted_projective",
]
