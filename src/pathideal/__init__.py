"""Exact monomial-ideal algebra with closed-form verification for path independence ideals."""

__version__ = "0.1.0"

from .closedform import (
    predicted_ass,
    predicted_astab,
    predicted_decomposition_2t,
    predicted_ntf,
    predicted_stable_set,
    witness_monomial,
)
from .decomposition import (
    DecompositionCache,
    IrreducibleComponent,
    VarPrime,
    WitnessCheck,
    associated_primes,
    intersect_components,
    irreducible_decomposition,
    minimal_primes_squarefree,
    verify_witness,
)
from .ideal import ImproperIdeal, MonomialIdeal
from .monomial import DimensionMismatch, ExponentOverflow, Monomial
from .pathfamily import (
    ComplementChecks,
    PathCase,
    ZeroIdealError,
    classify,
    complement_components,
    ind_ideal,
    independent_sets,
    parity_complement_checks,
)
from .verify import (
    AstabResult,
    VerificationReport,
    empirical_astab,
    grid_scan,
    persistence_scan,
    verify_cell,
)

__all__ = [
    "__version__",
    "Monomial",
    "MonomialIdeal",
    "DimensionMismatch",
    "ExponentOverflow",
    "ImproperIdeal",
    "VarPrime",
    "IrreducibleComponent",
    "DecompositionCache",
    "WitnessCheck",
    "irreducible_decomposition",
    "intersect_components",
    "associated_primes",
    "verify_witness",
    "minimal_primes_squarefree",
    "PathCase",
    "ZeroIdealError",
    "classify",
    "independent_sets",
    "ind_ideal",
    "complement_components",
    "parity_complement_checks",
    "ComplementChecks",
    "predicted_ass",
    "predicted_astab",
    "predicted_stable_set",
    "predicted_ntf",
    "predicted_decomposition_2t",
    "witness_monomial",
    "VerificationReport",
    "AstabResult",
    "verify_cell",
    "persistence_scan",
    "empirical_astab",
    "grid_scan",
]
