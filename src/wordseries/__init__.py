"""Rational series on free monoids.

Exact calculus for noncommutative series viewed as functions on words:
shuffle and quasi-shuffle products with their coproducts, Lyndon-indexed
dual bases and diagonal-series factorizations, linear representations
(weighted automata) with closure constructions and exact minimization, and
the numeric layer of hyperlogarithms, harmonic sums, polyzetas and Chen
iterated integrals that those series encode.
"""

from .words import (
    Alphabet,
    Word,
    grading,
    is_lyndon,
    lyndon_factorization,
    lyndon_words,
    standard_factorization,
    words_up_to_grading,
)
from .ncpoly import (
    NCPoly,
    PhiTable,
    TensorPoly,
    TruncSeries,
    conc,
    coproduct,
    delta_conc,
    delta_phi,
    delta_shuffle,
    is_character,
    is_infinitesimal_character,
    phi_shuffle,
    pi1,
    shuffle,
)
from .hopf import DualBases, diagonal_factorization_check, duality_check
from .linrep import (
    LieDiagnostics,
    LinRep,
    SweedlerVerdict,
    delta_conc_decompose,
    exp_trunc,
    is_grouplike,
    is_primitive,
    left_shift,
    lie_diagnostics,
    log_trunc,
    minimize,
    mxstar_factorization_check,
    rat_conc,
    rat_phi_shuffle,
    rat_shuffle,
    rat_star,
    rat_sum,
    right_shift,
    sweedler_membership,
    triangular_decompose,
)
from .hyperlog import (
    ComplexVal,
    CycloRational,
    FormFamily,
    QuadratureConfig,
    SingularitySet,
    chen_series,
    colored_alphabets,
    generating_relation_check,
    harmonic_sum,
    harmonic_sum_exact,
    hypergeometric_system,
    linear_independence_rank,
    pi_X,
    pi_Y,
    polylog,
    polyzeta,
    system_output,
)

__version__ = "0.1.0"
