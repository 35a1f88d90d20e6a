"""Strictly Hermitian positive definite dot-product kernels.

Build kernels f(z) = sum b(k, l) z^k conj(z)^l from structured exponent
sets, decide strictness by a finite residue-coverage reduction, construct
explicit degenerate configurations when it fails, and verify everything
against brute-force numerical oracles.
"""

from .exponents import (
    CriterionVerdict,
    DifferenceProfile,
    ExponentFamily,
    ExponentPair,
    ExponentSetSpec,
    check_strict_criterion,
    diagonal_spec,
    difference_profile,
    effective_modulus,
    even_difference_spec,
    full_grid_spec,
    members_upto,
    membership,
    mixed_stride_spec,
    residue_coverage,
    residue_coverage_bruteforce,
    spec_from_json,
    spec_to_json,
)
from .kernel import (
    CoefficientModel,
    ComplexPointSet,
    FamilyWeight,
    GramMatrix,
    WeightRule,
    conjugate_model,
    diagonal_factorial_model,
    eval_kernel,
    grid_factorial_model,
    inner_gram,
    kernel_gram,
    model_from_json,
    model_to_json,
    scalar_points,
    schur_product,
    truncation_tail_mass,
    unit_weights,
)
from .linalg import (
    HermitianSpectrum,
    RankFactorization,
    closest_pair,
    hermitian_eigen,
    nullspace_vector,
    rank_factor,
    row_sum_scale,
    unitary_complete,
)
from .construction import (
    AnnihilationWitness,
    DecompositionResult,
    OriginWitnessNeeded,
    block_extend,
    build_counterexample,
    character_coefficients,
    origin_counterexample,
    split_gram,
    witness_to_json,
)
from .oracle import (
    CollocationMatrix,
    RecurrenceWindow,
    StrictnessResult,
    TruncationGuardError,
    collocation,
    modulus_class_sums,
    power_sum_window,
    quadratic_form,
    strictness_oracle,
)

__version__ = "0.1.0"
