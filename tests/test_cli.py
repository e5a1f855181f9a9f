import csv
import functools
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbrackets import (SPACES, Config, QSeries, Relation, WordSum,
                       bracket_series, brackets, checks, derivation,
                       get_config, linalg, modular, set_config, word)
from qbrackets.checks import REGISTRY, REL4, Check, CheckFailure, run_suite
from qbrackets.cli import EXIT_PIPE, main
from qbrackets.config import ENV_PREFIX, _ENV_FIELDS

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


@pytest.fixture(autouse=True)
def restore_active_config():
    before = get_config()
    yield
    set_config(before)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty sweep cache and an empty cache of verified derivatives, so
    a cap test sees every row it asks for."""
    monkeypatch.setattr(brackets, "_SERIES_CACHE", {})
    monkeypatch.setattr(derivation, "_d_general_cached", functools.lru_cache(
        derivation._d_general_cached.__wrapped__))
    return brackets._SERIES_CACHE


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "1", "--order", "3")
    assert code == 0
    assert out.strip() == "q + 2*q^2 + 2*q^3 + O(q^4)"


def test_series_json_round_trips(capsys):
    code, out, _ = run(capsys, "--format", "json", "series", "4,2",
                       "--order", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["composition"] == [4, 2]
    series = doc["series"]
    assert series["order"] == 12
    want = bracket_series((4, 2), 12)
    assert [Fraction(series["constant"]), *map(Fraction, series["coeffs"])] \
        == [want.coefficient(n) for n in range(13)]


def test_series_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "series", "2", "--order", "3")
    assert code == 0
    assert out.splitlines() == ["n,coefficient", "0,0", "1,1", "2,3", "3,4"]


def test_series_parse_errors(capsys):
    for bad in ("0", "x", "2,,3", "-1", "2,0"):
        code, _, err = run(capsys, "series", bad)
        assert code == 2, bad
        assert "error:" in err


def test_series_negative_order_rejected(capsys):
    code, _, err = run(capsys, "series", "2", "--order", "-5")
    assert code == 2
    assert "order" in err


def test_product_golden(capsys):
    code, out, _ = run(capsys, "product", "1", "2,1", "--order", "50")
    assert code == 0
    lines = out.splitlines()
    assert "[1,2,1]" in lines[0] and "2*[2,1,1]" in lines[0]
    assert lines[1].startswith("check:")
    assert lines[1].endswith("pass")


def test_derive_golden(capsys):
    code, out, _ = run(capsys, "derive", "2,1,1", "--order", "40")
    assert code == 0
    assert "[4,1,1]" in out
    assert "- 8*[3,1,1,1]" in out
    assert "pass" in out.splitlines()[1]


def test_decompose_golden(capsys):
    code, out, _ = run(capsys, "decompose", "1,2", "--order", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1/2*[2] - [3] - [2,1] + ([2])*T"
    assert lines[1].startswith("check:") and lines[1].endswith("pass")


def test_decompose_csv(capsys):
    code, out, _ = run(capsys, "--format", "csv", "decompose", "1,2",
                       "--order", "30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "power,word,coefficient"
    assert "1,2,1" in lines  # power 1, word "2", coefficient 1
    assert lines[-1] == "check,30,pass"


def test_dims_text(capsys):
    code, out, _ = run(capsys, "dims", "--space", "mda", "--max-weight", "4",
                       "--order", "60")
    assert code == 0
    rows = out.splitlines()
    assert rows[0].startswith("k\\l")
    assert rows[-1].split()[0] == "4"


def test_dims_csv_and_json_agree(capsys):
    code, csv_out, _ = run(capsys, "--format", "csv", "dims", "--space",
                           "mda", "--max-weight", "3", "--order", "40")
    assert code == 0
    code, json_out, _ = run(capsys, "--format", "json", "dims", "--space",
                            "mda", "--max-weight", "3", "--order", "40")
    assert code == 0
    doc = json.loads(json_out)
    by_cell = {(c["k"], c["l"]): c["value"] for c in doc["cells"]}
    for line in csv_out.splitlines()[1:]:
        space, kind, k, l, value, certainty = line.split(",")
        assert by_cell[(int(k), int(l))] == int(value)


def test_dims_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(capsys, "--format", "csv", "dims", "--space", "mda",
                       "--max-weight", "3", "--order", "40",
                       "--out", str(target))
    assert code == 0
    assert str(target) in out
    content = target.read_text()
    assert content.startswith("space,kind,k,l,value,certainty")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_dims_out_holds_the_stdout_bytes(tmp_path, capsys, fmt):
    argv = ["--format", fmt, "dims", "--space", "md", "--max-weight", "5",
            "--kind", "gr"]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / f"table.{fmt}"
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (0, f"wrote {target}\n")
    assert target.read_bytes() == stdout.encode()


def test_dims_out_into_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "table.txt"
    code, out, err = run(capsys, "dims", "--max-weight", "2",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error: cannot write {target}")
    assert len(err.splitlines()) == 1


def test_dims_resource_cap(capsys, cold_cache):
    code, _, err = run(capsys, "--max-cells", "50", "dims", "--space", "mda",
                       "--max-weight", "6")
    assert code == 4
    assert "exceed" in err


def test_dims_refuses_before_listing_its_generators(capsys, monkeypatch):
    # 2047 admissible generators of weight <= 12 need more than 100 cells
    listed = []
    monkeypatch.setattr(linalg, "compositions_up_to",
                        lambda *args, **kwargs: listed.append(args) or [])
    code, out, err = run(capsys, "--max-cells", "100", "dims", "--space",
                         "mda", "--max-weight", "12")
    assert code == 4
    assert out == ""
    assert "exceed the cap of 100" in err
    assert listed == []


def test_series_resource_cap(capsys, cold_cache):
    # 3 prefix rows x order 1000 = 3000 cells, refused before any series work
    code, out, err = run(capsys, "--max-cells", "2999", "series", "4,4,4",
                         "--order", "1000")
    assert code == 4
    assert out == ""
    assert "3000 coefficient cells exceed" in err
    assert cold_cache == {}


@pytest.mark.parametrize("argv", [
    ("product", "1", "2", "--order", "50"),
    ("derive", "2,1,1", "--order", "40"),
    ("decompose", "1,2", "--order", "30"),
    ("verify", "--only", "rank-example"),
])
def test_every_sweeping_command_is_capped(capsys, cold_cache, argv):
    code, out, err = run(capsys, "--max-cells", "1", *argv)
    assert code == 4
    assert out == ""
    assert "coefficient cells exceed the cap of 1" in err


# order 2046 = 2 x the generator count of both tables, the order the
# generator rule would pick; a prefix of a generator is a generator, so
# both sweep 1023 prefix rows
@pytest.mark.parametrize("space, weight, cells", [
    ("mda", 11, 2_093_058), ("md", 10, 2_093_058)])
def test_default_cap_refuses_the_large_tables(capsys, monkeypatch,
                                              cold_cache, space, weight,
                                              cells):
    monkeypatch.delenv("QBRACKETS_MAX_CELLS", raising=False)
    code, out, err = run(capsys, "dims", "--space", space, "--max-weight",
                         str(weight), "--order", "2046")
    assert code == 4
    assert out == ""
    assert f"{cells} coefficient cells exceed the cap of 2000000" in err
    assert cold_cache == {}


def test_series_high_order_under_default_cap(capsys, monkeypatch):
    monkeypatch.delenv("QBRACKETS_MAX_CELLS", raising=False)
    code, out, _ = run(capsys, "--format", "json", "series", "4,4,4",
                       "--order", "1000")
    assert code == 0
    assert len(json.loads(out)["series"]["coeffs"]) == 1000


@pytest.mark.parametrize("argv", [
    *[(command, *rest, "--order", order)
      for command, *rest in [("series", "2"), ("product", "1", "2"),
                             ("derive", "2,1"), ("decompose", "1,2"),
                             ("dims", "--max-weight", "3"),
                             ("relations", "--weight", "4", "--length", "2")]
      for order in ("-1", "0")],
    ("dims", "--max-weight", "-1"),
    ("relations", "--weight", "0", "--length", "1"),
    ("dims", "--max-weight", "0", "--order", "-1"),
    ("relations", "--weight", "1", "--length", "1", "--order", "-1"),
])
def test_out_of_range_bounds_exit_2(capsys, argv):
    # the library refuses these; the command line only reports it
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err
    if "--order" in argv:
        assert "order must be at least 1" in err


def test_derive_verifies_at_the_requested_order(capsys, cold_cache):
    # 25 prefix rows fit the cap at order 10 (250 cells), not at 120
    code, out, err = run(capsys, "--max-cells", "500", "derive", "2,2,2",
                         "--order", "10")
    assert code == 0, err
    assert out.splitlines()[-1] == (
        "check: expression matches q d/dq of the series through q^10: pass")


def test_derive_relies_on_the_library_gate(capsys, monkeypatch, cold_cache):
    # the command has no check of its own: a failed self-verification in
    # d_general is the whole verdict
    monkeypatch.setattr(derivation, "evaluate",
                        lambda w, order: QSeries.zero(order))
    code, out, err = run(capsys, "derive", "2,1", "--order", "30")
    assert code == 3
    assert out == ""
    assert "fails against q d/dq at order 30" in err


def test_dims_bad_weight(capsys):
    code, _, _ = run(capsys, "dims", "--max-weight", "-2")
    assert code == 2


def test_dims_order_too_low_for_the_longest_generator(capsys):
    # (2,1,1,1,1) first appears at q^15
    code, out, err = run(capsys, "dims", "--space", "mda", "--max-weight",
                         "6", "--order", "5")
    assert code == 2
    assert out == ""
    assert "cannot see a length-5 generator" in err


def test_relations_golden(capsys):
    code, out, _ = run(capsys, "relations", "--weight", "4", "--length", "2",
                       "--order", "200")
    assert code == 0
    line = out.splitlines()[0]
    assert line.startswith("0 = 1/6*[2] - 1/2*[3] + 1/2*[4] - [2,2] + [3,1]")
    assert "candidate" in line


def test_relations_empty(capsys):
    code, out, _ = run(capsys, "relations", "--weight", "3", "--length", "3",
                       "--order", "120")
    assert code == 0
    assert "no relations" in out


def test_relations_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "relations", "--weight",
                       "4", "--length", "2", "--order", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["weight"] == 4
    assert len(doc["relations"]) == 1
    assert doc["relations"][0]["verified_order"] == 200


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--only",
                       "rank-example,tau-congruence")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("ok   rank-example")
    assert lines[1].startswith("ok   tau-congruence")


def test_verify_unknown_name(capsys):
    code, _, err = run(capsys, "verify", "--only", "nope")
    assert code == 2
    assert "unknown check" in err


@pytest.mark.parametrize("only", ["", "series-examples,"])
def test_verify_empty_check_name_is_refused(capsys, only):
    code, out, err = run(capsys, "verify", "--only", only)
    assert (code, out) == (2, "")
    assert "unknown check name(s): ''" in err


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    assert "series-examples" in out
    assert "dims-admissible" in out
    assert len(out.splitlines()) == len(REGISTRY)


def test_verify_list_follows_the_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--list")
    assert code == 0
    listed = json.loads(out)
    assert listed == [{"name": c.name, "quick": c.quick,
                       "description": c.description} for c in REGISTRY]
    code, out, _ = run(capsys, "--format", "csv", "verify", "--list")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "quick", "description"]
    assert rows[1:] == [[c["name"], str(c["quick"]).lower(),
                         c["description"]] for c in listed]


def test_csv_free_text_keeps_three_fields(capsys, monkeypatch):
    # a description (verify --list) and a detail (verify) follow one rule
    fake = (Check("commas", "one, two, three", True, lambda: "a, b, c"),)
    monkeypatch.setattr(checks, "REGISTRY", fake)
    for argv, row in [(["--list"], ["commas", "true", "one; two; three"]),
                      ([], ["commas", "true", "a; b; c"])]:
        code, out, _ = run(capsys, "--format", "csv", "verify", *argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(r) == 3 for r in rows)
        assert rows[1:] == [row]


def test_a_reader_that_closed_early_gets_exit_5_and_no_traceback():
    # the read end is closed before the command starts, so its first write
    # to stdout, or the final flush, fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qbrackets.cli", "--format", "json",
             "verify", "--list"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path})
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE == 5
    assert proc.stderr == ""


def test_verify_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--only",
                       "series-examples")
    assert code == 0
    doc = json.loads(out)
    assert doc == [{"name": "series-examples", "pass": True,
                    "detail": doc[0]["detail"]}]


def test_verify_reports_first_failure(capsys, monkeypatch):
    def boom():
        raise CheckFailure("intentional break")

    fake = (Check("always-fails", "test double", True, boom),
            Check("never-runs-red", "test double", True, lambda: "fine"))
    monkeypatch.setattr("qbrackets.checks.REGISTRY", fake)
    code, out, err = run(capsys, "verify")
    assert code == 3
    assert "FAIL always-fails" in out
    assert "first failure: always-fails" in err


def test_failed_self_verification_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(Relation, "check", lambda self, order: False)
    code, out, err = run(capsys, "relations", "--weight", "4", "--length", "2")
    assert code == 3
    assert out == ""
    assert "numeric-kernel relation fails to vanish at order 120" in err


def test_relation_checks_rely_on_the_library_gate(monkeypatch):
    # split4 and leibniz5 re-evaluate nothing: a gate that refuses every
    # body is the whole verdict of both
    monkeypatch.setattr(Relation, "check", lambda self, order: False)
    results = run_suite(["relation-split4", "relation-leibniz5"])
    assert [r.name for r in results] == ["relation-split4", "relation-leibniz5"]
    for r in results:
        assert not r.passed
        assert "fails to vanish at order 200" in r.detail


def test_failed_identity_is_one_fail_line(capsys, monkeypatch):
    real = modular.eisenstein

    def g8_off_by_one_bracket(k):
        w = real(k)
        return w + word(1) if k == 8 else w

    monkeypatch.setattr(modular, "eisenstein", g8_off_by_one_bracket)
    code, out, err = run(capsys, "verify", "--only",
                         "quasi-modular,tau-congruence")
    assert code == 3
    assert len(re.findall(r"^FAIL quasi-modular", out, re.MULTILINE)) == 1
    assert re.search(r"^FAIL quasi-modular .*modular relation fails to "
                     r"vanish at order 100", out, re.MULTILINE)
    assert re.search(r"^ok   tau-congruence", out, re.MULTILINE)
    assert "first failure: quasi-modular" in err


def _one_fail_line(capsys, name):
    code, out, err = run(capsys, "verify", "--only", name)
    assert code == 3
    assert len(out.splitlines()) == 1
    assert out.startswith(f"FAIL {name} ")
    assert f"first failure: {name}" in err
    return out


def test_failed_delta_length2_is_one_fail_line(capsys, monkeypatch):
    # adding the weight-4 relation keeps the series exact, but the sum is
    # no longer an affine combination of the standard representations
    real = checks.deltal2_word_sum
    monkeypatch.setattr(checks, "deltal2_word_sum",
                        lambda: real() + WordSum(REL4))
    out = _one_fail_line(capsys, "delta-length2")
    assert "length-2 discriminant representation fails (exact=True)" in out


def test_failed_tau_congruence_is_one_fail_line(capsys, monkeypatch):
    real = checks.multiple_divisor_sum
    monkeypatch.setattr(checks, "multiple_divisor_sum",
                        lambda parts, n: real(parts, n) + (n in (5, 7)))
    out = _one_fail_line(capsys, "tau-congruence")
    assert "tau(n) = sigma_11(n) mod 691 fails at n = [5, 7]" in out


def test_failed_delta_representations_is_one_fail_line(capsys, monkeypatch):
    # a repeated representation leaves the differences one rank short
    real = checks.delta_representations

    def first_one_twice():
        reps = real()
        return [*reps[:5], reps[0]]

    monkeypatch.setattr(checks, "delta_representations", first_one_twice)
    out = _one_fail_line(capsys, "delta-representations")
    assert ("affine span rank of discriminant representations: got 4, "
            "expected 5") in out


def test_failed_mzv_relation_is_one_fail_line(capsys, monkeypatch):
    # off by 1e-30 zeta(3,1): far inside any float tolerance, far outside
    # the bound of the image
    almost = {(4,): 1, (3, 1): -4 - Fraction(1, 10**30)}
    monkeypatch.setattr(checks, "MZV_RELATIONS", (("almost", almost),))
    out = _one_fail_line(capsys, "mzv-relations")
    assert "almost: residual -2.706e-31 exceeds its bound" in out


def test_environment_format_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("QBRACKETS_FORMAT", "csv")
    code, out, _ = run(capsys, "series", "1", "--order", "2")
    assert code == 0
    assert out.splitlines()[0] == "n,coefficient"
    code, out, _ = run(capsys, "--format", "text", "series", "1",
                       "--order", "2")
    assert code == 0
    assert out.startswith("q + 2*q^2")


def test_environment_order_out_of_range_exits_2(capsys, monkeypatch):
    # the error names the variable the user set, not only the Config field
    for variable, value, reason in [
            ("ORDER", "-5", "default_order must be at least 1, got -5"),
            ("MAX_CELLS", "0", "max_cells must be at least 1, got 0")]:
        with monkeypatch.context() as env:
            env.setenv(ENV_PREFIX + variable, value)
            code, out, err = run(capsys, "dims", "--max-weight", "2")
        assert code == 2
        assert out == ""
        assert reason in err
        assert f"bad value for {ENV_PREFIX}{variable}: '{value}'" in err


def test_environment_order_default(capsys, monkeypatch):
    monkeypatch.setenv("QBRACKETS_ORDER", "4")
    code, out, _ = run(capsys, "series", "1")
    assert code == 0
    assert out.strip().endswith("O(q^5)")


@pytest.mark.parametrize("flag, variable, value", [
    ("--max-cells", "MAX_CELLS", "0"),
    ("--max-cells", "MAX_CELLS", "-3"),
    ("--format", "FORMAT", "yaml"),
])
@pytest.mark.parametrize("source", ["flag", "environment"])
def test_bad_values_exit_2_from_either_source(capsys, monkeypatch, flag,
                                              variable, value, source):
    argv = ["verify", "--only", "mzv-relations"]
    if source == "flag":
        argv = [flag, value] + argv
    else:
        monkeypatch.setenv(ENV_PREFIX + variable, value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error" in err


def test_readme_documents_exactly_the_knobs(capsys):
    readme = README.read_text(encoding="utf-8")
    flags = readme.split("Global flags (before the subcommand):")[1]
    documented = set(re.findall(r"^- `(--[a-z-]+)", flags.split("###")[0],
                                re.M))
    table = set(re.findall(rf"^\| `{ENV_PREFIX}(\w+)`", readme, re.M))
    assert table == set(_ENV_FIELDS)
    assert sorted(f for f, _ in _ENV_FIELDS.values()) == \
        sorted(Config.__slots__)
    code, out, _ = run(capsys, "--help")
    assert code == 0
    shown = set(re.findall(r"^ +(--[a-z-]+)", out, re.M)) - {"--help"}
    assert shown == documented


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "series", "--help")[0] == 0


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


PART_TOKENS = ("1", "2", "3", "4", "0", "-1", "2.5", "a", "")


@st.composite
def fuzzed_argv(draw):
    parts = st.lists(st.sampled_from(PART_TOKENS), min_size=1,
                     max_size=3).map(",".join)
    weight = st.integers(-1, 5).map(str)
    command = draw(st.sampled_from(("series", "product", "derive",
                                    "decompose", "dims", "relations",
                                    "verify")))
    if command == "verify":
        return ["verify", "--list"]
    if command == "dims":
        rest = ["--space", draw(st.sampled_from(SPACES)),
                "--max-weight", draw(weight)]
    elif command == "relations":
        rest = ["--space", draw(st.sampled_from(SPACES)),
                "--weight", draw(weight), "--length", draw(weight)]
    else:
        rest = [draw(parts) for _ in range(2 if command == "product" else 1)]
    if draw(st.booleans()):
        rest += ["--order", str(draw(st.integers(-3, 40)))]
    return ["--max-cells", "20000", command, *rest]


@pytest.mark.filterwarnings("ignore:.*below the recommended:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:.*rank reached the order:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(argv=fuzzed_argv())
def test_fuzzed_command_lines_end_in_an_exit_code(argv):
    # any input ends in a documented exit code, never a traceback
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3, 4)


# sha256 of the complete stdout; any change to these bytes is a change in
# what users see and must be deliberate
GOLDEN_SHA256 = {
    "--format json series 4,4,4 --order 200":
        "52994913ce77c3d78071ab68c44f4ff7a2fa084d0b7e4a4b3d3b5f83eecc6efb",
    "--format json relations --weight 6 --length 6":
        "e639a69214d969020225a435b378d9edddddd727009c4e9a00b0e57d95fa6041",
    "--format json dims --space mda --max-weight 6":
        "6db8d9ece93715f33ae97061474e768107346a2765a4c3312affb12ec9edd695",
    "--format csv series 1,2,3 --order 60":
        "fe7f76a9c3884075c355ebd692153d84085518ed0210d1129e039b46593d6be4",
    "series 4,2 --order 40":
        "bfd2136da9f013c36a7ddda79508dce2cda9d84a547be255a6e2264b1a1938ca",
    "verify --quick":
        "1c203e4f89241de2916eda9d05f0e05599ec8d55788f062f597aedb71e0ea197",
    "--format json verify --quick":
        "aedecb47632ea312149dcb1d678342ce75abd120c863c9e3cece28cb1aa90da2",
    "--format csv verify --quick":
        "5c93d55fcaf1199b01b394a2df0b9c1bab32e10670f269f3f6b5d9a44cc1eb75",
    "--format json verify":
        "ed5ebd51567e371db5a354b60b1474d95f74c75e51a7184717b4067cd47b13a9",
    "--format json dims --space mda --max-weight 8":
        "3e196a1128a28e83e0acb14c2626d817c065c952c219f48e293eb66c0adb5575",
    "dims --space md --max-weight 7 --kind gr":
        "d5bf3e511c45bdb039b34ad6306719b65c83289d07348b657f22ef3cbdbfc3ac",
    "--format csv dims --space mda --max-weight 7":
        "0fe8477aa8d4b34d3e16a9b57a28b066d01239c86652095d7c364e49b4c29186",
    "--format json relations --weight 7 --length 7":
        "7421a16e36ee5da999fb9b7153f49429dd87e9e9f524a9dd5c92cb9440efb83f",
    "product 1 2,1 --order 50":
        "c016d82e5e7aefacf829bfe5b6676f5c845aba025e2ffe5e48edc3c456a30711",
    "--format json product 1 2,1 --order 50":
        "9189fcaab89ca85f6d6e8f6f6261551480b3692ced4f2048519a4cc20a8f3caf",
    "--format csv product 1 2,1 --order 50":
        "20381c145d162123ff383ee0d74fb98f39b8740d3faf5b420383fbeef57e6031",
    "derive 2,1,1 --order 40":
        "b47888642f72f67d38bbc78bb41eb8babc4d64f82c4717f73d342a14fb49bc48",
    "--format json derive 2,1,1 --order 40":
        "708c8ea4c52132f846b1b38f8e592411b3a27b36cd9fb2a9877e0db1121a75ae",
    "--format csv derive 2,1,1 --order 40":
        "f9a8d2c189ca5879889f2bd52ef3198c97598a6b0ae7941a1148735442aab1c0",
    "decompose 1,2 --order 30":
        "adb3c339c397568cc0f382d284a8cdeae798484374b9b48c2a1f9980669fe3b4",
    "--format json decompose 1,2 --order 30":
        "7b6241d4ec706ca38e6bc654a79372d8d5265fd7d2dc10677717dfa2c0dcd237",
    "--format csv decompose 1,2 --order 30":
        "902ae573f75087bd7ec4ddd612f0dbf26901d9809beb9d3001cee02322628870",
    "decompose 1,1,1,2 --order 30":
        "2d8d578d42307be8f55d421d16def8508944942d2e8e404c52a1fff6e70eebfd",
    "--format json decompose 1,1,1,2 --order 30":
        "cf179330a53ea7973c5107c9129de52b2a1edededbc6881d19d23816234c80be",
    "--format csv decompose 1,1,1,2 --order 30":
        "1b62169a59393aae09555cb42ed66fbdb5c57b670a0407b543433958640541ca",
    "relations --weight 4 --length 2 --order 200":
        "030846ff30d8257c5887b1a2b754cf5eace4eb4934ce44f83c65454caeafb674",
    "relations --weight 3 --length 1":
        "d9ec42ab67af3484754a78a0ac71b41e8da24d571823c0969b5d9e35a68eb86a",
    "--format csv relations --weight 6 --length 6":
        "1dfed60d1f74b9faf757e8df8d20165a6c4cbbbc5cedd2d120ab7f0521a1d0b9",
    "verify --list":
        "0c052a875906a93762534fa3eed628a8e6b43b09e622fdec8d4dfd0eea42d7a0",
    "--format json verify --list":
        "1b7d1d6cbc9e1f22baceec64fc8cce48d24bb7958942a3a95232bd2b40f73dfd",
    "--format csv verify --list":
        "24d900ac1653f3f23b6c1722f31f6fb7e010abd684095713984b5b28db29ec16",
    "dims --space mda --max-weight 6":
        "1492cfe6c2395fef8b78ef07d9855302b32451f0c18cba1f20afd28e764a3fe5",
    "--format json dims --space md --max-weight 5 --kind gr":
        "8ff7c669365bb8d037afe8ffdb56eb974872e2d3cde81553c318d1572e965d34",
    "--format csv dims --space md --max-weight 5 --kind gr":
        "e4fe259e71b304171ade46439684b91da2796bbb65ec950b681d4d85f44ef4c5",
    # a length-5 chain; the first coefficient at q^order; the first table
    # weight not hashed above
    "--format json series 4,1,1,2,2 --order 600":
        "ceb091dc9e74005f5f72951fc34670be352c051bc2c81732778125cbcaebb807",
    "--format json series 1,1,1,1,1,1 --order 21":
        "ac500d34a2d1f203f172c88d6f136bb0112871b43d77f1a0eaba9c4663a0d362",
    "--format json dims --space mda --max-weight 9":
        "e937d7eac94afe1d8c4ee745105bb0a747da7996568a9b814ba75099392b87b5",
    # the largest series job of the benchmark's deep workload, and a job of
    # its tables workload
    "--format json series 4,4,4 --order 1000":
        "2d5fe22bdcc56cb040cd4844931528a85066566fd0bb90be31fab951b9b48962",
    "--format json dims --space md --max-weight 6":
        "682293dae54f25c11e0d32fa5cf0fdb59c31db22867adb96cd2bceb2e434691a",
    # a sweep in 8-byte slots, the widest that brackets._unpack reads as
    # machine words; the mda weight-9 table above sweeps in 9-byte slots,
    # one past that switch
    "--format json series 2,2,2,2 --order 300":
        "201da799c34a8138c0c8dd46f0326b36934021acc9756208ba1cf0c8fe6654c9",
}


@pytest.mark.parametrize("command", GOLDEN_SHA256)
def test_golden_bytes(capsys, monkeypatch, command):
    for name in list(os.environ):
        if name.startswith("QBRACKETS_"):
            monkeypatch.delenv(name)
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[command]
