"""Exact computations in finite-dimensional alternative algebras.

The central object is an algebra given by structure constants over the
rationals or a prime field (characteristic not 2 or 3).  On top of that:
Peirce decompositions along idempotents, center and nucleus computation,
alternativity checking with witnesses, and the machinery for commuting
additive maps, including the constructive decomposition phi = L_z + xi
and the lemma-by-lemma checks behind it.
"""

from .algebra import (Algebra, Element, Subspace, associator, commutator, direct_sum,
                      find_unit, is_alternative, is_associative, load_algebra,
                      save_algebra)
from .commuting import (Decomposition, LinearMap, check_decomposition, decompose,
                        decompose_oracle, exhaustive_commuting_check, is_anti_commuting,
                        is_commuting, load_map, map_from_dict, map_to_dict,
                        random_commuting_map, random_map_parts, save_map)
from .constructions import cayley_dickson_algebra, matrix_algebra, scalar_algebra, zorn
from .errors import (BudgetExceededError, DecompositionError, HypothesisError,
                     NotCommutingError, PreconditionError)
from .fields import PrimeField, RationalField, field_from_dict
from .lemmas import LEMMA_IDS, LemmaReport, run_all, run_lemma
from .linalg import Matrix
from .peirce import (DEFAULT_BUDGET, PeirceData, center, center_via_peirce,
                     check_peirce_relations, hypothesis_check, is_central, lift_central,
                     nucleus, peirce_decompose, prime_check_exhaustive, verify_idempotent)

__all__ = [
    "Algebra", "Element", "Subspace", "Matrix", "LinearMap", "Decomposition",
    "PeirceData", "LemmaReport",
    "RationalField", "PrimeField", "field_from_dict",
    "commutator", "associator", "is_alternative", "is_associative",
    "find_unit", "direct_sum", "save_algebra", "load_algebra",
    "matrix_algebra", "zorn", "scalar_algebra", "cayley_dickson_algebra",
    "peirce_decompose", "check_peirce_relations", "center", "center_via_peirce",
    "is_central", "nucleus", "hypothesis_check", "lift_central",
    "prime_check_exhaustive", "verify_idempotent", "DEFAULT_BUDGET",
    "is_commuting", "is_anti_commuting", "decompose", "decompose_oracle",
    "check_decomposition", "random_commuting_map", "random_map_parts",
    "exhaustive_commuting_check", "map_to_dict", "map_from_dict",
    "save_map", "load_map",
    "run_lemma", "run_all", "LEMMA_IDS",
    "PreconditionError", "BudgetExceededError", "DecompositionError",
    "NotCommutingError", "HypothesisError",
]

__version__ = "0.1.0"
