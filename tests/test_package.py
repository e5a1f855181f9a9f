"""The package namespace, and the promise that the package needs nothing
beyond the standard library: mpmath, a test extra, is never loaded.  Each
import check runs in a fresh interpreter, since this suite's own process
has long since loaded mpmath for the tests that compare against it.

The namespace is lazy: importing the package or its command line loads no
layer, and each command loads the layers it runs."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import qbrackets

ROOT = Path(__file__).resolve().parent.parent

ZETA_NAMES = ("MzvValue", "mzv", "ZImage", "Z_k_symbolic", "ZPolynomial",
              "Z_k_alg")

# The package's public API, in the order of __all__.
PUBLIC_API = (
    "bernoulli", "eulerian_number", "eulerian_polynomial", "lambda_coeff",
    "count_generators", "compositions", "compositions_up_to", "QSeries",
    "eta24", "canonical_key", "multiple_divisor_sum", "bracket_series",
    "bracket_series_many", "bracket_series_oracle",
    "bracket_series_oracle_many", "partition_counts",
    "partition_identity_check", "WordSum", "word", "diamond",
    "quasi_shuffle", "evaluate", "OnePolynomial", "decompose_in_one",
    "Relation", "d_len1", "d_len2", "d_general", "d_word_sum",
    "split_relations", "leibniz_relations", "proven_relation_corpus",
    "SPACES", "TABLE_KINDS", "ExactMatrix", "IntEchelon", "ModEchelon",
    "generators", "DimensionTable",
    "dimension_table", "relation_search", "homogeneous_relation_search",
    "relation_in_span", "graded_relation_counts",
    "conjecture_series_expansion", "DELTA_PAIRS", "DELTA_SCALE",
    "eisenstein", "verify_quasi_modular_identities",
    "delta_representation", "delta_representations",
    "representation_span_rank", "deltal2_word_sum", "MzvValue",
    "mzv", "ZImage", "Z_k_symbolic", "ZPolynomial",
    "Z_k_alg", "Config", "ResourceCap", "load_config",
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


LOADED = "print(json.dumps('mpmath' in sys.modules))"


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
    assert [json.loads(line) for line in lines] == [False, False]


def test_exact_commands_load_only_the_standard_library():
    script = ("before = set(sys.modules)\n"
              "import io, json, contextlib, qbrackets, qbrackets.cli\n"
              "commands = json.loads(sys.argv[2]) + [['verify', '--quick']]\n"
              "for argv in commands:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert qbrackets.cli.main(argv) == 0, argv\n"
              "new = set(sys.modules) - before\n"
              "top = {name.partition('.')[0] for name in new}\n"
              "print(json.dumps(sorted(top - sys.stdlib_module_names)))")
    assert json.loads(fresh(script, json.dumps(EXACT_COMMANDS))) == \
        ["qbrackets"]


# Modules the package must not load: dataclasses pulls in inspect, and
# through it ast, dis and tokenize, which together cost every command a
# noticeable share of its start-up.
STARTUP_EXCLUDED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_package_loads_no_introspection_modules():
    script = ("import qbrackets, qbrackets.cli\n"
              "print(sorted(set(sys.argv[2:]) & set(sys.modules)))")
    assert fresh(script, *STARTUP_EXCLUDED) == "[]\n"


# The modules that hold the package's objects; config and the command line
# are loaded by every command.
LAYERS = ("numbers", "series", "brackets", "words", "derivation", "linalg",
          "modular", "zeta", "checks")

LAYERS_LOADED = ("def loaded():\n"
                 "    return [l for l in layers "
                 "if 'qbrackets.' + l in sys.modules]\n")


def test_each_command_loads_only_the_layers_it_runs():
    script = ("import io, json, contextlib, qbrackets, qbrackets.cli\n"
              "layers = json.loads(sys.argv[2])\n"
              + LAYERS_LOADED +
              "print(json.dumps(loaded()))\n"
              "for argv in json.loads(sys.argv[3]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert qbrackets.cli.main(argv) == 0, argv\n"
              "    print(json.dumps(loaded()))")
    commands = [["series", "4,2"],
                ["dims", "--space", "mda", "--max-weight", "5"],
                ["relations", "--weight", "5", "--length", "5"],
                ["verify", "--quick"]]
    out = fresh(script, json.dumps(LAYERS), json.dumps(commands))
    imported, series, dims, relations, verify = \
        [json.loads(line) for line in out.splitlines()]
    assert imported == []
    assert series == ["numbers", "series", "brackets"]
    for loaded in (dims, relations):
        assert not {"modular", "zeta", "checks"} & set(loaded)
    assert verify == list(LAYERS)


def test_only_the_commands_import_and_only_layers():
    # a function body imports only in cli's commands, `from . import layer`
    found = []
    for path in sorted((ROOT / "src" / "qbrackets").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    found.append((path.stem, function.name, node))
    assert found
    for module, function, node in found:
        assert module == "cli" and function.startswith("cmd_"), function
        assert isinstance(node, ast.ImportFrom)
        assert (node.level, node.module) == (1, None), ast.dump(node)
        assert {alias.name for alias in node.names} <= set(LAYERS)


def test_the_zeta_layer_runs_where_mpmath_cannot_be_imported():
    script = ("import io, contextlib, importlib.abc\n"
              "class Refuse(importlib.abc.MetaPathFinder):\n"
              "    def find_spec(self, name, path=None, target=None):\n"
              "        if name.partition('.')[0] == 'mpmath':\n"
              "            raise ImportError('mpmath is refused')\n"
              "sys.meta_path.insert(0, Refuse())\n"
              "sys.modules.pop('mpmath', None)\n"
              "from qbrackets import Z_k_alg, d_general, mzv\n"
              "from qbrackets.cli import main\n"
              "assert mzv((2, 1)).error_bound <= 1e-10\n"
              "poly = Z_k_alg(d_general((1, 1)), 4)\n"
              "assert all(abs(v) <= e for v, e in poly.coefficients)\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    assert main(['verify', '--quick']) == 0\n"
              "assert 'mpmath' not in sys.modules\n"
              "print('ok')")
    assert fresh(script) == "ok\n"


@pytest.mark.parametrize("name", ZETA_NAMES)
def test_zeta_names_resolve_to_the_zeta_layer(name):
    assert name in qbrackets.__all__
    assert getattr(qbrackets, name) is getattr(qbrackets.zeta, name)


@pytest.mark.parametrize("name", PUBLIC_API)
def test_public_names_are_the_objects_of_their_home_layers(name):
    home = importlib.import_module(f"qbrackets.{qbrackets._HOME[name]}")
    value = getattr(qbrackets, name)
    assert value is getattr(home, name)
    if callable(value):
        assert value.__module__ == home.__name__


def test_a_layer_is_imported_on_first_use_of_a_name():
    script = ("import json, qbrackets\n"
              "layers = json.loads(sys.argv[2])\n"
              + LAYERS_LOADED +
              "from qbrackets import bracket_series\n"
              "print(json.dumps(loaded()))\n"
              "print(json.dumps(vars(qbrackets)['bracket_series'] is "
              "bracket_series))\n"
              "print(json.dumps([getattr(qbrackets, l).__name__ "
              "for l in layers]))")
    lines = fresh(script, json.dumps(LAYERS)).splitlines()
    assert [json.loads(line) for line in lines] == [
        ["numbers", "series", "brackets"], True,
        [f"qbrackets.{layer}" for layer in LAYERS]]


def test_package_namespace_still_lists_the_public_api():
    assert list(qbrackets.__all__) == list(PUBLIC_API)
    assert set(qbrackets.__all__) <= set(dir(qbrackets))
    assert all(hasattr(qbrackets, name) for name in qbrackets.__all__)


def test_unknown_package_attribute_names_the_module():
    with pytest.raises(AttributeError, match="'qbrackets'.*'no_such_name'"):
        qbrackets.no_such_name
