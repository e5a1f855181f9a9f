"""qbrackets benchmark: one workload, run as a closed loop with one client.

    python3 bench/run.py --workload tables --seed 1 --seconds 20 --trace 0

Run from the repository root.  A round runs the workload's jobs one after
another, each in a fresh child interpreter that imports the package from
src/ (so it starts with cold module caches, like a CLI invocation).
Rounds repeat for about --seconds seconds.  Outputs are checked against
their references after the timed rounds.

--trace 0 prints the end-to-end metrics: times at the nominal host speed,
from the speed probe each untraced child runs (speed.py).
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of the traced round with the median wall time.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Progress and failures go to stderr.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import jobs as workloads
import speed
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 2   # whole untraced rounds
SETUP_IMPORTS = 20   # import-only children per untraced run, for setup_s
JOB_TIME_LIMIT = 120.0   # seconds; a job past it is killed and counts failed


@dataclass
class JobRun:
    name: str
    exit_code: int
    wall: float         # seconds as measured
    cpu: float
    setup: float
    rss_mb: float
    output: str
    error: str
    spans: Optional[dict]
    # the same times without the probe's own time, scaled to the nominal
    # host speed (speed.py); equal to the measured ones in traced rounds
    norm_wall: float
    norm_cpu: float
    norm_setup: float
    speed: float        # host speed during the job, relative to nominal


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def _wait(pid: int):
    """wait4 on the child; kill it once JOB_TIME_LIMIT has passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_TIME_LIMIT)
    try:
        try:
            return os.wait4(pid, 0)[1:]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        signal.signal(signal.SIGALRM, previous)


def _child_env() -> Dict[str, str]:
    # Package defaults only: QBRACKETS_* settings of the caller must not leak
    # in.  Bytecode caching stays on whatever the caller's setting, so the
    # untimed first import compiles src/ once, as an installed package would.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("QBRACKETS_") and k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = "0"
    return env


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return handle.read()
    except FileNotFoundError:
        return ""


def run_job(job: workloads.Job, tmp: str, traced: bool) -> JobRun:
    """Run one job in a child process and measure it from spawn to exit."""
    paths = {k: os.path.join(tmp, k) for k in ("out", "err", "meta", "spans")}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    spec = dict(job.spec, src=SRC, meta=paths["meta"], probe=not traced,
                spans=paths["spans"] if traced else None)
    argv = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, paths["out"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, paths["err"], flags, 0o644)]
    start = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, _child_env(),
                         file_actions=actions)
    try:
        status, usage = _wait(pid)
        exit_code = os.waitstatus_to_exitcode(status)
    except _Timeout:
        exit_code, usage = -signal.SIGKILL, None
    wall = time.monotonic() - start
    cpu = usage.ru_utime + usage.ru_stime if usage else wall
    meta = _read(paths["meta"])
    meta = json.loads(meta) if meta else {}
    setup = meta["import_done"] - start if meta else wall
    samples = meta.get("samples", [])
    early = samples[:meta.get("setup_samples", 0)]
    spans = None
    if traced and os.path.exists(paths["spans"]):
        with open(paths["spans"], encoding="utf-8") as handle:
            spans = tracer.summarize(json.load(handle))
    return JobRun(job.name, exit_code, wall, cpu, setup,
                  usage.ru_maxrss / 1024 if usage else 0.0,
                  _read(paths["out"]), _read(paths["err"]), spans,
                  speed.normalize(wall, samples), speed.normalize(cpu, samples),
                  speed.normalize(setup, early), speed.speed(samples))


def run_round(jobs: List[workloads.Job], tmp: str, traced: bool) -> List[JobRun]:
    return [run_job(job, tmp, traced) for job in jobs]


def _wall(runs: List[JobRun]) -> float:
    return sum(r.wall for r in runs)


# ---------------------------------------------------------------------------
# correctness


def count_failures(jobs: List[workloads.Job], rounds: List[List[JobRun]],
                   qb) -> int:
    """Failed job runs: non-zero exit, a failed output check, or output
    that differs from the job's first untraced output (so traced output
    must be byte-identical to untraced output)."""
    verdicts: Dict[tuple, Optional[str]] = {}
    failed = 0
    for runs in rounds:
        for index, (job, run) in enumerate(zip(jobs, runs)):
            first = rounds[0][index].output
            problem = None
            if run.exit_code != 0:
                problem = f"exit code {run.exit_code}: {run.error[-2000:]}"
            elif run.output != first:
                problem = "output differs from the first round"
            else:
                key = (index, run.output)
                if key not in verdicts:
                    try:
                        job.check(run.output, qb)
                        verdicts[key] = None
                    except Exception as exc:  # malformed output is a failure
                        verdicts[key] = f"{type(exc).__name__}: {exc}"
                problem = verdicts[key]
            if problem is not None:
                failed += 1
                print(f"FAILED {job.name}: {problem}", file=sys.stderr)
    return failed


# ---------------------------------------------------------------------------
# metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: List[List[JobRun]],
               imports: List[JobRun]) -> Dict[str, dict]:
    """Wall and CPU time are each job's median over the rounds, summed
    over the jobs, at the nominal host speed; see README.md for why.
    Set-up time is jobs x the median of all imports in the run, those of
    the jobs and of the import-only children (every job imports the same
    package).  Peak RSS is the largest of the jobs' medians."""
    med = statistics.median

    def per_job(field: str) -> List[float]:
        return [med(getattr(p[j], field) for p in rounds if len(p) > j)
                for j in range(len(rounds[0]))]

    return {
        "wall_s": _metric(sum(per_job("norm_wall")), "s"),
        "cpu_s": _metric(sum(per_job("norm_cpu")), "s"),
        "setup_s": _metric(len(rounds[0])
                           * med(r.norm_setup
                                 for r in imports + sum(rounds, [])), "s"),
        "peak_rss_mb": _metric(max(per_job("rss_mb")), "MB"),
    }


def per_layer(traced: List[JobRun], overhead: float,
              host_speed: float) -> Dict[str, dict]:
    """Per-layer metrics of one traced round, summed over its jobs."""
    total: Dict[str, float] = {}
    max_bits = 0
    for run in traced:
        for key, value in (run.spans or {}).items():
            if key == "counter:max_entry_bits":
                max_bits = max(max_bits, value)
            else:
                total[key] = total.get(key, 0) + value

    def get(key: str) -> float:
        return total.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    series_ops = sum(get(f"calls:QSeries.{m}")
                     for m in tracer.METHODS["series"]["QSeries"])
    wall = _wall(traced)
    out = {f"{layer}.self_s": _metric(get(f"{layer}.self_s"), "s")
           for layer in tracer.LAYERS}
    out.update({
        "brackets.calls": _metric(get("calls:brackets"), "count"),
        "brackets.comps": _metric(get("counter:comps"), "count"),
        "brackets.cells": _metric(get("counter:cells"), "count"),
        "brackets.cells_per_s": _metric(
            ratio(get("counter:cells"), get("brackets.self_s")), "1/s"),
        "brackets.repeat_ratio": _metric(
            ratio(get("counter:repeats"), get("counter:comps")), "ratio"),
        "series.ops": _metric(series_ops, "count"),
        "series.mul_calls": _metric(get("calls:QSeries.__mul__"), "count"),
        "words.quasi_shuffle_calls": _metric(get("calls:quasi_shuffle"),
                                             "count"),
        "words.evaluate_calls": _metric(get("calls:evaluate"), "count"),
        "words.evaluate_terms": _metric(get("counter:evaluate_terms"),
                                        "count"),
        "derivation.d_general_calls": _metric(get("calls:d_general"), "count"),
        "derivation.relation_checks": _metric(get("calls:Relation.check"),
                                              "count"),
        "linalg.rank_rows": _metric(get("calls:IntEchelon.add"), "count"),
        "linalg.rank_independent_ratio": _metric(
            ratio(get("counter:rank_independent"), get("calls:IntEchelon.add")),
            "ratio"),
        "linalg.kernel_cells": _metric(get("counter:kernel_cells"), "count"),
        "linalg.max_entry_bits": _metric(max_bits, "bits"),
        "zeta.mzv_calls": _metric(get("calls:mzv"), "count"),
        "zeta.mzv_repeat_ratio": _metric(
            ratio(get("counter:mzv_repeats"), get("calls:mzv")), "ratio"),
        "trace.overhead_ratio": _metric(overhead, "ratio"),
        "trace.unattributed_s": _metric(wall - get("covered_s"), "s"),
        "trace.wall_s": _metric(wall, "s"),
        "host.speed": _metric(host_speed, "ratio"),
    })
    return out


# ---------------------------------------------------------------------------
# measurement loop and entry point


def measure(jobs, tmp: str, seconds: float, trace: bool):
    """Untraced, the workload's jobs run in turn, round after round, until
    the next job would end past `seconds` (at least MIN_ROUNDS whole
    rounds); the last round may be partial.  Traced, an untraced and a
    traced round alternate until the next pair would end past `seconds`
    (at least one pair)."""
    plain: List[List[JobRun]] = []
    traced: List[List[JobRun]] = []
    start = time.monotonic()
    if not trace:
        longest = [0.0] * len(jobs)
        while True:
            runs: List[JobRun] = []
            for index, job in enumerate(jobs):
                if len(plain) >= MIN_ROUNDS and \
                        time.monotonic() - start + longest[index] > seconds:
                    break
                runs.append(run_job(job, tmp, traced=False))
                longest[index] = max(longest[index], runs[-1].wall)
            if runs:
                plain.append(runs)
                print(f"round {len(plain)}: "
                      + " ".join(f"{r.name} {r.wall:.3f} ({r.norm_wall:.3f})"
                                 for r in runs), file=sys.stderr)
            if len(runs) < len(jobs):
                return plain, traced
    longest_pair = 0.0
    while True:
        t0 = time.monotonic()
        plain.append(run_round(jobs, tmp, traced=False))
        traced.append(run_round(jobs, tmp, traced=True))
        longest_pair = max(longest_pair, time.monotonic() - t0)
        print(f"round {len(plain)}: "
              + " ".join(f"{r.name} {r.wall:.3f}" for r in plain[-1])
              + f"; traced {_wall(traced[-1]):.3f} s", file=sys.stderr)
        if time.monotonic() - start + longest_pair > seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qbrackets", "__init__.py")):
        print(f"error: no qbrackets package under {SRC}", file=sys.stderr)
        return 2

    # a terminated benchmark still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    jobs = workloads.workload(args.workload, args.seed)
    tmp = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT)
    importer = workloads.Job("import", {"kind": "import"}, None)
    try:
        # compile the package once, untimed: users do not pay for that on
        # every run
        run_job(importer, tmp, False)
        imports = [] if args.trace else \
            [run_job(importer, tmp, False) for _ in range(SETUP_IMPORTS)]
        plain, traced = measure(jobs, tmp, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    sys.path.insert(0, SRC)
    import qbrackets
    failed = count_failures(jobs, plain + traced, qbrackets)
    attempted = sum(len(p) for p in plain + traced)
    if args.trace:
        by_wall = sorted(traced, key=_wall)
        middle = by_wall[(len(by_wall) - 1) // 2]
        overhead = statistics.median(_wall(p) for p in traced) / \
            statistics.median(_wall(p) for p in plain) - 1
        metrics = per_layer(middle, overhead, statistics.median(
            r.speed for p in plain for r in p))
    else:
        metrics = end_to_end(plain, imports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
