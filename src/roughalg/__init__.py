"""Verification toolkit for small finite algebras and rough-set approximations.

Check axiom systems (B, BH, BO, Z) against operation tables, enumerate
ideals and congruences, compute lower/upper approximations of set-valued
maps (a partition is its class map x -> [x]), evaluate the standard
approximation laws, and exhaustively search small orders for models and
counterexamples.  Everything reports concrete witnesses and is
deterministic: identical inputs give identical outputs.
"""

from .algebra import (
    AxiomId,
    AxiomReport,
    FiniteAlgebra,
    IdentityReport,
    LABEL_AXIOMS,
    Z_AXIOM_VARIANTS,
    check_axiom,
    classify,
    find_identities,
    product_set,
)
from .errors import (
    ParseError,
    PreconditionError,
    RoughAlgError,
    SearchLimitError,
    ValidationError,
)
from .generalized import is_strong_sv_morphism, is_sv_morphism, lower, upper
from .ideals import IdealReport, enumerate_ideals, is_ideal, is_strong_ideal
from .relations import (
    CheckResult,
    EquivalenceReport,
    Partition,
    SetValuedMap,
    is_complete_congruence,
    is_congruence,
    is_equivalence,
    relation_from_ideal,
    to_partition,
)
from .rough import (
    LAWS,
    LawResult,
    check_approx_laws,
    check_basic_laws,
    check_congruence_product_laws,
    sweep_laws,
)
from .search import (
    Finding,
    SearchSpec,
    TARGETS,
    all_partitions,
    enumerate_algebras,
    enumerate_congruences,
    find_counterexample,
)
from .sets import Subset, all_subsets, canonical_subsets

__version__ = "0.1.0"

__all__ = [
    "AxiomId", "AxiomReport", "FiniteAlgebra", "IdentityReport", "LABEL_AXIOMS",
    "Z_AXIOM_VARIANTS", "check_axiom", "classify", "find_identities", "product_set",
    "ParseError", "PreconditionError", "RoughAlgError", "SearchLimitError",
    "ValidationError",
    "is_strong_sv_morphism", "is_sv_morphism", "lower", "upper",
    "IdealReport", "enumerate_ideals", "is_ideal", "is_strong_ideal",
    "CheckResult", "EquivalenceReport", "Partition", "SetValuedMap", "is_complete_congruence",
    "is_congruence", "is_equivalence", "relation_from_ideal", "to_partition",
    "LAWS", "LawResult", "check_approx_laws", "check_basic_laws", "check_congruence_product_laws",
    "sweep_laws",
    "Finding", "SearchSpec", "TARGETS", "all_partitions",
    "enumerate_algebras", "enumerate_congruences", "find_counterexample",
    "Subset", "all_subsets", "canonical_subsets",
    "__version__",
]
