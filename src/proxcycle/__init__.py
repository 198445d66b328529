"""Coupled Picard iteration for cyclic maps on convex set pairs.

The library computes and certifies coupled best proximity points: pairs
(x, y) in A x B whose residuals ||x - T(x, y)|| and ||y - T(y, x)|| both
equal dist(A, B).  It ships sampled checkers for the contraction-style
inequalities that guarantee convergence, trajectory diagnostics for the
iteration itself, and a small CLI driving everything from JSON configs.
"""
from .certify import (
    CERT_TOL,
    VERDICT_BPP,
    VERDICT_FIXED,
    VERDICT_REJECTED,
    Certificate,
    CertifyError,
    PremiseNotMet,
    SolveRecord,
    UniquenessReport,
    certify,
    proximal_squeeze_check,
    second_iterate_check,
    solve_and_certify,
)
from .iterate import (
    STOP_BUDGET,
    STOP_CONVERGED_GAP,
    STOP_CONVERGED_T,
    STOP_DOMAIN_ERROR,
    StopRule,
    Trajectory,
    diagnose_cauchy,
    diagnose_even_gaps,
    diagnose_interleaved,
    diagnose_monotone_t,
    diagnose_t_limit,
    run,
    trajectory_to_csv,
)
from .maps import (
    BUILTIN_MAPS,
    SIDE_AB,
    SIDE_BA,
    SIDES,
    CyclicMapSpec,
    DomainError,
    MapsError,
    PhiSpec,
    builtin,
    check_cyclic_invariance,
    check_kannan,
    check_kannan_strict_hypothesis,
    check_phi_contraction,
    coupled,
    eval_map,
)
from .report import CheckReport, Violation
from .sets import (
    Box,
    DeclaredSet,
    DistResult,
    Hull,
    ProximalWitness,
    SetsError,
    contains,
    dist,
    l1_example_sets,
    paired_block_hull,
    sample,
)
from .space import (
    TOL_NUM,
    DimensionMismatch,
    ModulusUnavailable,
    NormedSpaceSpec,
    ProductPoint,
    SpaceError,
    Vector,
    basis,
    convexity_modulus,
    norm,
    pair_distance,
)

__version__ = "0.1.0"
