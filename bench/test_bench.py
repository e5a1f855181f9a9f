"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench
"""

import json
import math
import os
import subprocess
import sys
import tempfile
import time

import pytest

import jobs as workloads
import run
import speed
import tracer

sys.path.insert(0, run.SRC)
import qbrackets  # noqa: E402


@pytest.fixture
def tmp():
    with tempfile.TemporaryDirectory(prefix=".bench_test-", dir=run.ROOT) as path:
        yield path


def cli_job(name, argv, check=None):
    return workloads.Job(name, {"kind": "cli",
                                "argv": ["--format", "json"] + argv}, check)


# ---------------------------------------------------------------------------
# self time


def test_self_time_of_a_nested_call_tree():
    # cli.main 0..100 calls linalg.f 10..70, which calls brackets.g 20..50
    # and series.h 55..60; after linalg returns, cli calls brackets.g 80..90
    b, s, l, c = (tracer.LAYERS.index(x)
                  for x in ("brackets", "series", "linalg", "cli"))
    spans = [[c, 0, -1, 0, 100], [l, 1, 0, 10, 70], [b, 2, 1, 20, 50],
             [s, 3, 1, 55, 60], [b, 2, 0, 80, 90]]
    assert tracer.self_times(spans) == [30, 25, 30, 5, 10]
    doc = {"layers": tracer.LAYERS, "names": ["main", "f", "g", "h"],
           "spans": spans, "counters": {"comps": 2}}
    out = tracer.summarize(doc)
    ns = 1e-9
    assert out["cli.self_s"] == pytest.approx(30 * ns)
    assert out["linalg.self_s"] == pytest.approx(25 * ns)
    assert out["brackets.self_s"] == pytest.approx(40 * ns)
    assert out["series.self_s"] == pytest.approx(5 * ns)
    assert out["covered_s"] == pytest.approx(100 * ns)
    assert out["calls:g"] == 2 and out["calls:brackets"] == 2
    assert out["counter:comps"] == 2
    layer_total = sum(out[f"{x}.self_s"] for x in tracer.LAYERS)
    assert layer_total == pytest.approx(out["covered_s"])


# ---------------------------------------------------------------------------
# error rate


def test_error_rate_counts_a_corrupted_expected_value(tmp, monkeypatch):
    # every cell of the admissible table through weight 4 is published
    published = workloads.expected()["published_dims"]["mda"]
    recorded = {cell: v for cell, v in published.items()
                if int(cell.split(",")[0]) <= 4}
    job = cli_job("dims-mda-4", ["dims", "--space", "mda", "--max-weight", "4"],
                  workloads.check_dims("mda", 4))
    runs = [run.run_round([job], tmp, traced=False) for _ in range(2)]

    base = json.dumps(workloads.expected())

    def reference(corrupt):
        ref = json.loads(base)
        ref["dims"] = {"mda-4": dict(recorded)}
        if corrupt:
            ref["published_dims"]["mda"]["4,2"] += 1
        return ref

    monkeypatch.setattr(workloads, "expected", lambda: reference(False))
    assert run.count_failures([job], runs, qbrackets) == 0
    monkeypatch.setattr(workloads, "expected", lambda: reference(True))
    assert run.count_failures([job], runs, qbrackets) == 2


def test_a_failing_exit_code_and_a_changed_output_fail(tmp):
    good = cli_job("series", ["series", "2", "--order", "5"],
                   workloads.check_series((2,), 5, [1, 5]))
    bad = cli_job("bad", ["series", "0"], None)
    first = run.run_round([good, bad], tmp, traced=False)
    assert first[0].exit_code == 0 and first[1].exit_code == 2
    second = run.run_round([good, bad], tmp, traced=False)
    second[0].output += " "
    assert run.count_failures([good, bad], [first, second], qbrackets) == 3


# ---------------------------------------------------------------------------
# per-job measurements


def test_peak_rss_belongs_to_the_job_that_used_it(tmp):
    big = cli_job("big", ["series", "4,4,4", "--order", "800"])
    small = cli_job("small", ["series", "1", "--order", "10"])
    runs = run.run_round([big, small], tmp, traced=False)
    assert runs[0].rss_mb > 100
    assert runs[1].rss_mb < 50
    assert all(r.setup < r.wall for r in runs)
    assert all(0 < r.norm_setup < r.norm_wall for r in runs)


def test_traced_output_is_identical_and_spans_cover_the_layers(tmp):
    job = cli_job("relations", ["relations", "--weight", "4", "--length", "3"])
    plain = run.run_job(job, tmp, traced=False)
    traced = run.run_job(job, tmp, traced=True)
    assert plain.exit_code == traced.exit_code == 0
    assert traced.output == plain.output
    # only the untraced child runs the speed probe
    assert plain.speed != 1.0 and traced.speed == 1.0
    assert traced.norm_wall == traced.wall
    metrics = run.per_layer([traced], 0.0, plain.speed)
    assert metrics["linalg.kernel_cells"]["value"] > 0
    assert metrics["derivation.relation_checks"]["value"] > 0
    assert metrics["cli.self_s"]["value"] > 0
    layers = sum(metrics[f"{x}.self_s"]["value"] for x in tracer.LAYERS)
    assert layers + metrics["trace.unattributed_s"]["value"] == \
        pytest.approx(metrics["trace.wall_s"]["value"])


# ---------------------------------------------------------------------------
# host-speed normalization


def test_speed_is_the_mean_relative_speed_of_the_samples():
    nominal = speed.NOMINAL_S
    assert speed.speed([]) == 1.0
    assert speed.speed([nominal] * 4) == pytest.approx(1.0)
    # half the time at full speed, half at half speed
    assert speed.speed([nominal, 2 * nominal]) == pytest.approx(0.75)


def test_normalize_removes_the_probe_and_scales_to_nominal_speed():
    nominal = speed.NOMINAL_S
    # 1 s of work at nominal speed, done at half speed: 2 s, plus the
    # probe's 100 samples of 2 x nominal each
    samples = [2 * nominal] * 100
    assert speed.normalize(2.0 + sum(samples), samples) == pytest.approx(1.0)
    assert speed.normalize(1.5, []) == 1.5


def test_the_probe_samples_once_per_interval():
    probe = speed.Probe()
    probe.start()
    deadline = time.monotonic() + 0.5
    while time.monotonic() < deadline:
        pass
    probe.stop()
    expected = 0.5 / speed.INTERVAL_S
    assert 0.5 * expected <= len(probe.samples) <= 1.2 * expected


# ---------------------------------------------------------------------------
# tracing completeness


def test_install_wraps_every_binding_and_notices_a_missed_one():
    code = """
import sys
sys.path[:0] = [{bench!r}, {src!r}]
import qbrackets, qbrackets.cli, tracer
original = qbrackets.words.bracket_series
tracer.install(qbrackets)
assert qbrackets.words.bracket_series is not original
assert qbrackets.bracket_series is qbrackets.brackets.bracket_series
qbrackets.words.bracket_series = original
try:
    tracer.check_complete(qbrackets)
except tracer.IncompleteTrace as exc:
    print("caught", exc)
"""
    done = subprocess.run(
        [sys.executable, "-c", code.format(bench=run.HERE, src=run.SRC)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "caught qbrackets.words.bracket_series" in done.stdout


# ---------------------------------------------------------------------------
# seeded inputs and references


def test_inputs_follow_the_seed():
    def inputs(name, seed):
        return [job.spec for job in workloads.workload(name, seed)]

    for name in workloads.WORKLOADS:
        assert inputs(name, 5) == inputs(name, 5)
    assert inputs("identities", 5) != inputs("identities", 6)
    assert inputs("deep", 5) != inputs("deep", 6)


def test_homomorphism_pairs_keep_the_shapes_of_the_full_family():
    import random
    from itertools import combinations_with_replacement

    shape = lambda c: (sum(c), len(c))  # noqa: E731
    full = list(combinations_with_replacement(
        qbrackets.compositions_up_to(workloads.HOMOMORPHISM_MAX_WEIGHT), 2))
    drawn = workloads.homomorphism_pairs(random.Random(3))
    assert len(drawn) == len(full) == 120
    assert sorted((shape(a), shape(b)) for a, b in drawn) == \
        sorted((shape(a), shape(b)) for a, b in full)


def test_expected_values_agree_with_the_published_constants():
    from qbrackets.checks import (DIMS_ADMISSIBLE_EXACT, DIMS_FULL_EXACT,
                                  RELATION_COUNTS_LOW, REGISTRY)
    ref = workloads.expected()
    for space, table in (("mda", DIMS_ADMISSIBLE_EXACT),
                         ("md", DIMS_FULL_EXACT)):
        cells = {f"{k},{l}": v for k, row in table.items()
                 for l, v in enumerate(row)}
        assert ref["published_dims"][space] == cells
        recorded = ref["dims"]["mda-8" if space == "mda" else "md-6"]
        assert all(recorded[c] == v for c, v in cells.items() if c in recorded)
    assert ref["published_relation_counts"] == \
        {f"{k},{l}": v for (k, l), v in RELATION_COUNTS_LOW.items()}
    assert ref["verify_quick"] == [c.name for c in REGISTRY if c.quick]


def test_recorded_relation_count_matches_the_oracle_rank():
    gens = qbrackets.generators("mda", 7, 7)
    order = 2 * len(gens)
    series = qbrackets.bracket_series_oracle_many(gens, order)
    ech = qbrackets.IntEchelon()
    for c in gens:
        den = 1
        for x in series[c].coeffs:
            den = math.lcm(den, x.denominator)
        ech.add([int(x * den) for x in series[c].coeffs])
    want = workloads.expected()["relation_counts"]["mda-7-7"]
    assert len(gens) - ech.rank == want


def test_a_directory_without_the_package_is_refused(tmp):
    bench = os.path.join(tmp, "bench")
    os.makedirs(bench)
    for name in ("run.py", "jobs.py", "tracer.py", "child.py", "expected.json"):
        with open(os.path.join(run.HERE, name), "rb") as src, \
                open(os.path.join(bench, name), "wb") as dst:
            dst.write(src.read())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_children_get_package_defaults(monkeypatch):
    monkeypatch.setenv("QBRACKETS_FORMAT", "csv")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    env = run._child_env()
    assert "QBRACKETS_FORMAT" not in env
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["PYTHONHASHSEED"] == "0"
