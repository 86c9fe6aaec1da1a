"""Exact invariants, reductions and non-displaceability certificates for
moment polytopes."""

from .certificate import (
    BaseFact,
    Certificate,
    Product,
    Reduction,
    VerifiedClaim,
    auto_certify_monotone,
    hf_lower_bound_tr,
    verify,
)
from .floer import BoundaryOp, boundary_op, hf, hf_even, rank_gf2
from .polytope import (
    Facet,
    Polytope,
    Vertex,
    equidistant_point,
    match_dilate_translate,
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
    vertex_cone_coords,
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
    "hf_lower_bound_tr",
    "is_displaceable_by_probe",
    "match_dilate_translate",
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
    "vertex_cone_coords",
    "weighted_projective",
]
