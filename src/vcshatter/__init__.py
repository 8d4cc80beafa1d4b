"""Exact constructions and verification of VC-dimension lower bounds.

Two pipelines, both verified end-to-end in exact rational arithmetic:

* Theorem 1: point sets in R^d shattered by k-fold unions of origin-side
  half-spaces, built by lifting a verified axis-parallel box family.
* Theorem 2: the dual hyperplane sets, shattered by open simplices of
  dimension at most k.

Plus a general finite set-system engine (projection, shattering,
VC-dimension, k-fold union/intersection, growth function) and exact
geometry with no floating point anywhere.
"""

from .boxgadget import BoxGadget, GadgetReport, nominal_box_count, search, verify, witness_for
from .constructions import (
    ConstructionError,
    Theorem1Instance,
    Theorem2Instance,
    VerificationReport,
    build_theorem1,
    build_theorem2,
    lift_box,
    required_gadget_n,
    rescale,
    simplex_witness,
    snap,
    union_witness,
    verify_theorem1,
    verify_theorem2,
)
from .geometry import (
    AxisBox,
    DegenerateSimplexError,
    DualHyperplane,
    OpenSimplex,
    Point,
    RestrictedHalfspace,
    as_scalar,
    dual_halfspace_to_point,
    dual_point_to_hyperplane,
    realizable_halfspace_subsets,
)
from .setsystem import (
    SetSystem,
    complement_system,
    growth_function,
    k_fold_intersection,
    k_fold_union,
    project,
    sauer_shelah_bound,
    shattered_sets,
    shatters,
    vc_dim,
)

__version__ = "0.1.0"
