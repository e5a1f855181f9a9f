"""Exact arithmetic for the algebra spanned by multiple divisor sum
generating functions: q-series, quasi-shuffle products, the derivation
q d/dq, dimension and relation tables, the modular subalgebra, and the
bridge to multiple zeta values."""

from .numbers import (bernoulli, eulerian_number, eulerian_polynomial,
                      lambda_coeff, count_generators, compositions,
                      compositions_up_to, canonical_key)
from .series import QSeries, eta24
from .brackets import (multiple_divisor_sum, bracket_series,
                       bracket_series_many, bracket_series_oracle,
                       bracket_series_oracle_many, partition_counts,
                       partition_identity_check)
from .words import (WordSum, word, diamond, quasi_shuffle, evaluate,
                    OnePolynomial, decompose_in_one)
from .derivation import (Relation, d_len1, d_len2, d_general, d_word_sum,
                         split_relations, leibniz_relations,
                         proven_relation_corpus)
from .linalg import (SPACES, TABLE_KINDS, ExactMatrix, IntEchelon,
                     ModEchelon, generators, DimensionTable,
                     dimension_table, relation_search,
                     homogeneous_relation_search, relation_in_span,
                     graded_relation_counts, conjecture_series_expansion)
from .modular import (DELTA_PAIRS, DELTA_SCALE, eisenstein,
                      verify_quasi_modular_identities, delta_representation,
                      delta_representations, representation_span_rank,
                      deltal2_word_sum)
from .zeta import (MzvValue, mzv, ZImage, Z_k_symbolic, ZPolynomial,
                   Z_k_alg)
from .config import Config, ResourceCap, load_config, get_config, set_config
from .checks import REGISTRY, CheckResult, first_failure, run_suite

__all__ = [
    "bernoulli", "eulerian_number", "eulerian_polynomial", "lambda_coeff",
    "count_generators", "compositions", "compositions_up_to",
    "QSeries", "eta24",
    "canonical_key", "multiple_divisor_sum",
    "bracket_series", "bracket_series_many",
    "bracket_series_oracle", "bracket_series_oracle_many",
    "partition_counts", "partition_identity_check",
    "WordSum", "word", "diamond", "quasi_shuffle", "evaluate",
    "OnePolynomial", "decompose_in_one",
    "Relation", "d_len1", "d_len2", "d_general",
    "d_word_sum", "split_relations", "leibniz_relations",
    "proven_relation_corpus",
    "SPACES", "TABLE_KINDS", "ExactMatrix", "IntEchelon", "ModEchelon",
    "generators", "DimensionTable",
    "dimension_table", "relation_search", "homogeneous_relation_search",
    "relation_in_span", "graded_relation_counts",
    "conjecture_series_expansion",
    "DELTA_PAIRS", "DELTA_SCALE", "eisenstein",
    "verify_quasi_modular_identities", "delta_representation",
    "delta_representations", "representation_span_rank", "deltal2_word_sum",
    "MzvValue", "mzv", "ZImage", "Z_k_symbolic", "ZPolynomial", "Z_k_alg",
    "Config", "ResourceCap", "load_config", "get_config", "set_config",
    "REGISTRY", "CheckResult", "first_failure", "run_suite",
]
