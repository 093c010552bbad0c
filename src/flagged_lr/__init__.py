"""Exact computation of flagged skew Littlewood-Richardson coefficients.

Three independent routes (tableau/crystal counting, hive lattice points,
Demazure polynomial expansion) with cross-check tooling and a CLI.
"""

from .core import (
    as_composition,
    as_partition,
    partial_sums,
    reduced_word,
    sort_to_partition,
    validate_flag,
)
from .tableaux import (
    SkewShape,
    SkewTableau,
    dominant_tableau,
    enumerate_tableaux,
    reading_word_and_weight,
    rectify,
)
from .crystal import (
    apply_operator,
    coefficient_by_tableaux,
    decompose,
    epsilon_phi,
    flagged_word_set,
    generate_demazure,
    is_dominant,
    is_lambda_dominant,
)
from .polynomials import (
    IntPolynomial,
    coefficient_by_demazure,
    demazure_Ti,
    demazure_Tw,
    expand_in_key,
    flagged_skew_schur,
    key_polynomial,
)
from .hives import (
    SkewGTPattern,
    SkewHive,
    TriHive,
    count_skew_hive_points,
    enumerate_flagged_gt_points,
    enumerate_skew_hive_points,
    enumerate_tri_hive_points,
    lift_tilde,
    psi,
    psi_inverse,
    upsilon,
    upsilon_inverse,
    validate_skew_hive,
)
from .burge import (
    Biword,
    insertion_decomposition,
    biword_from_matrix,
    essential_subword,
    is_j_phi_compatible,
    key_tableau,
    left_key,
)

__version__ = "0.1.0"
