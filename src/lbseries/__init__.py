"""Exact-arithmetic computer algebra for series over rooted trees.

The package implements the tree and forest Hopf-algebraic machinery behind
composition and substitution of Butcher series (non-planar trees) and
Lie-Butcher series (planar trees): grafting products, the vertex-replacement
operads, the cut / extraction-contraction / left-cut / partition-contraction
coproducts, characters and their convolutions, and an exact polynomial
vector-field realization.
"""

from .trees import (
    Forest,
    ForestParseError,
    NonPlanarTree,
    OrderedForest,
    PlanarTree,
    canonicalize,
    enumerate_forests,
    enumerate_nonplanar_trees,
    enumerate_ordered_forests,
    enumerate_planar_trees,
    forget_planarity,
    mirror_forest,
    mirror_tree,
    parse_forest,
    parse_nonplanar_forest,
    parse_tree,
    symmetry_factor,
)
from .coeffalg import (
    CharacterMap,
    LinComb,
    Rational,
    SymWord,
    bilinear,
    convolve_through,
    evaluate,
    format_basis,
    format_lincomb,
    is_exponential,
    is_logarithmic,
    is_primitive_shuffle,
    pairing,
    parse_lincomb,
    tensor,
)
from .postlie import (
    LiePoly,
    b_minus,
    b_plus,
    bracket,
    concat,
    delta_n,
    delta_shuffle,
    gl_product,
    left_graft,
    lie_graft,
    shuffle,
)
from .prelie import (
    check_h_operad_duality,
    check_prelie_identity,
    compose_prelie_operad,
    convolve,
    delta_ck,
    delta_h,
    graft,
    graft_comb,
)
from .subst import (
    AdmissiblePartition,
    Bracket,
    Concat,
    Graft,
    Leaf,
    SymLieWord,
    admissible_partitions,
    check_pi_morphism,
    compose_module,
    compose_postlie_operad,
    delta_w,
    forest_expr,
    rho_oracle,
    star_rho,
    star_w,
    tree_expr,
)
from .seriesmorph import (
    TruncatedSeries,
    a_alpha,
    a_alpha_dagger,
    check_adjoint,
    compose_lb,
    series_of,
    substitute_lb,
)
from .laws import check_cointeraction
from .numericdemo import (
    Poly,
    PolyVectorField,
    bseries_eval,
    elementary_differential,
    verify_bseries_substitution,
)

__all__ = [name for name in dir() if not name.startswith("_")]
