"""Exact arithmetic for the algebra spanned by multiple divisor sum
generating functions: q-series, quasi-shuffle products, the derivation
q d/dq, dimension and relation tables, the modular subalgebra, and the
bridge to multiple zeta values.

Each public name is imported from its layer on first use, so a process
loads only the layers it touches: `series` needs three of the nine."""

import importlib

# Every public name with the module that defines it, in the order of
# __all__.
_LAYERS = (
    ("numbers", ("bernoulli", "eulerian_number", "eulerian_polynomial",
                 "lambda_coeff", "count_generators", "compositions",
                 "compositions_up_to")),
    ("series", ("QSeries", "eta24")),
    ("numbers", ("canonical_key",)),
    ("brackets", ("multiple_divisor_sum", "bracket_series",
                  "bracket_series_many", "bracket_series_oracle",
                  "bracket_series_oracle_many", "partition_counts",
                  "partition_identity_check")),
    ("words", ("WordSum", "word", "diamond", "quasi_shuffle", "evaluate",
               "OnePolynomial", "decompose_in_one")),
    ("derivation", ("Relation", "d_len1", "d_len2", "d_general",
                    "d_word_sum", "split_relations", "leibniz_relations",
                    "proven_relation_corpus")),
    ("config", ("SPACES", "TABLE_KINDS")),
    ("linalg", ("ExactMatrix", "IntEchelon", "ModEchelon", "generators",
                "DimensionTable", "dimension_table", "relation_search",
                "homogeneous_relation_search", "relation_in_span",
                "graded_relation_counts", "conjecture_series_expansion")),
    ("modular", ("DELTA_PAIRS", "DELTA_SCALE", "eisenstein",
                 "verify_quasi_modular_identities", "delta_representation",
                 "delta_representations", "representation_span_rank",
                 "deltal2_word_sum")),
    ("zeta", ("MzvValue", "mzv", "ZImage", "Z_k_symbolic", "ZPolynomial",
              "Z_k_alg")),
    ("config", ("Config", "ResourceCap", "load_config", "get_config",
                "set_config")),
    ("checks", ("REGISTRY", "CheckResult", "first_failure", "run_suite")),
)

_HOME = {name: layer for layer, names in _LAYERS for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    # import_module, not `from . import layer`: the latter asks this hook
    # for the layer again through the import system's fromlist handling.
    if name in _HOME:
        value = getattr(importlib.import_module("." + _HOME[name], __name__),
                        name)
        globals()[name] = value
        return value
    if name in _HOME.values():
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
