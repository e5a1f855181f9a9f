"""The zeta layer, and mpmath with it, is imported on first use of one of
its names.  Each import check runs in a fresh interpreter, since this
suite's own process has long since loaded both."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qbrackets

ROOT = Path(__file__).resolve().parent.parent

ZETA_NAMES = ("MzvValue", "mzv", "mzv_oracle", "ZImage", "Z_k_symbolic",
              "ZPolynomial", "Z_k_alg", "modified_qzeta")

# The package's public API: the names it had when the zeta names became
# lazy, less those the modular layer and dim_lower_bound no longer have.
PUBLIC_API = (
    "bernoulli", "eulerian_number", "eulerian_polynomial", "lambda_coeff",
    "count_generators", "compositions", "compositions_up_to", "QSeries",
    "eta24", "canonical_key", "multiple_divisor_sum", "bracket_series",
    "bracket_series_many", "bracket_series_oracle",
    "bracket_series_oracle_many", "EulerianKernel", "partition_counts",
    "partition_identity_check", "WordSum", "word", "diamond",
    "quasi_shuffle", "evaluate", "OnePolynomial", "decompose_in_one",
    "Relation", "d_len1", "d_len2", "d_general", "d_word_sum",
    "split_relations", "leibniz_relations", "proven_relation_corpus",
    "SPACES", "TABLE_KINDS", "ExactMatrix", "IntEchelon", "ModEchelon",
    "solve_unique", "generators", "DimensionTable",
    "dimension_table", "relation_search", "homogeneous_relation_search",
    "relation_in_span", "graded_relation_counts",
    "conjecture_series_expansion", "DELTA_PAIRS", "DELTA_SCALE",
    "eisenstein", "verify_quasi_modular_identities",
    "delta_representation", "delta_representations",
    "representation_span_rank", "deltal2_word_sum", "MzvValue",
    "mzv", "mzv_oracle", "ZImage", "Z_k_symbolic", "ZPolynomial",
    "Z_k_alg", "modified_qzeta", "Config", "ResourceCap", "load_config",
    "get_config", "set_config", "REGISTRY", "CheckResult", "first_failure",
    "run_suite",
)

EXACT_COMMANDS = (
    ["series", "4,2", "--order", "40"],
    ["dims", "--space", "mda", "--max-weight", "5"],
    ["relations", "--weight", "5", "--length", "5"],
    ["product", "1", "2,1", "--order", "20"],
    ["derive", "2,1,1", "--order", "20"],
    ["decompose", "2,1,1"],
)


def fresh(script: str, *args: str) -> str:
    """Run `script` in a new interpreter with the package on its path and
    return its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path[:0] = [sys.argv[1]]\n"
         + script, str(ROOT / "src"), *args],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = ("print(json.dumps(['mpmath' in sys.modules, "
          "'qbrackets.zeta' in sys.modules]))")


def test_exact_commands_never_load_mpmath():
    script = ("import io, json, contextlib, qbrackets, qbrackets.cli\n"
              "def run(argv):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert qbrackets.cli.main(argv) == 0, argv\n"
              "for argv in json.loads(sys.argv[2]):\n"
              "    run(argv)\n"
              + LOADED + "\n"
              "run(['verify', '--quick'])\n"
              + LOADED)
    lines = fresh(script, json.dumps(EXACT_COMMANDS)).splitlines()
    assert [json.loads(line) for line in lines] == [[False, False],
                                                    [True, True]]


def test_zeta_names_are_imported_from_the_package_on_demand():
    script = ("import json, qbrackets\n"
              + LOADED + "\n"
              "from qbrackets import mzv, Z_k_alg\n"
              "assert mzv is qbrackets.zeta.mzv\n"
              "assert Z_k_alg is qbrackets.zeta.Z_k_alg\n"
              + LOADED)
    lines = fresh(script).splitlines()
    assert [json.loads(line) for line in lines] == [[False, False],
                                                    [True, True]]


@pytest.mark.parametrize("name", ZETA_NAMES)
def test_zeta_names_resolve_to_the_zeta_layer(name):
    assert name in qbrackets.__all__
    assert getattr(qbrackets, name) is getattr(qbrackets.zeta, name)


def test_package_namespace_still_lists_the_public_api():
    assert list(qbrackets.__all__) == list(PUBLIC_API)
    assert set(qbrackets.__all__) <= set(dir(qbrackets))
    assert all(hasattr(qbrackets, name) for name in qbrackets.__all__)


def test_unknown_package_attribute_names_the_module():
    with pytest.raises(AttributeError, match="'qbrackets'.*'no_such_name'"):
        qbrackets.no_such_name
