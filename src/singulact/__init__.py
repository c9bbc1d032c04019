"""Exact-arithmetic singularity invariants of hypersurfaces at the origin.

Library layout:

- ``poly`` / ``ideals``: sparse rational polynomials and monomial ideals.
- ``parsing``: the text grammar of polynomial and ideal inputs.
- ``simplex``: exact rational two-phase simplex.
- ``newton``: Newton polyhedra: membership, facets, covolume, multiplicity.
- ``invariants``: thresholds, minimal exponents, Milnor numbers, and the
  inequality checkers.
- ``cli``: the ``singulact`` command-line tool.
"""

from .errors import (
    CapsExceededError,
    InputError,
    InternalInvariantError,
    ParseError,
    SingulactError,
    UnsupportedClassError,
)
from .rational import INF, Rat, format_rat, parse_rat
from .poly import (
    Poly,
    Weights,
    euler_check,
    jacobian_generators,
    order_at_origin,
    partial_derivative,
    quasi_homogeneous_weights,
    restrict_to_coordinate_hyperplane,
)
from .ideals import (
    MonomialIdeal,
    contains_monomial,
    ideal_contains,
    ideal_power,
    ideal_product,
    is_zero_dimensional,
    maximal_ideal,
    maximal_ideal_power,
    monomialize,
    poly_in_ideal,
)
from .parsing import VarTable, parse_monomial_ideal, parse_polynomial, poly_to_string
from .newton import (
    DEFAULT_CAPS,
    FacetNormal,
    NewtonPolyhedron,
    PolyhedronCaps,
    build,
    contains,
    covolume,
    diagonal_threshold,
    facets,
    integral_closure_member,
    multiplicity,
    vertices,
)
from .invariants import (
    CheckOutcome,
    InvariantReport,
    alpha,
    beta,
    check_dfem,
    check_madic,
    check_milnor_bound,
    check_minkowski,
    check_question1,
    check_restriction,
    check_thm_alpha_le_lct,
    known_values,
    lct_monomial,
    lct_monomial_dual,
    milnor,
    ord_u,
)

__version__ = "0.1.0"
