"""The benchmark's tracer wraps every public function of the package's
layers and refuses a binding it did not wrap.  Installing it here keeps a
renamed method or a new cross-module import from breaking traced runs
unnoticed, since the benchmark's own tests are not part of this suite.
The zeta names the package re-exports must reach the wrappers too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracer_installs_on_the_package():
    script = ("import sys; sys.path[:0] = sys.argv[1:]; "
              "import qbrackets, qbrackets.cli, tracer; "
              "tracer.install(qbrackets); "
              "assert qbrackets.Z_k_alg.__bench_original__; "
              "assert qbrackets.zeta.mzv.__bench_original__")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
