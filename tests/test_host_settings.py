"""The golden comparison and the pins that a CPU kernel could move, rerun under other kernels.

Each setting makes one environment variable of a child process pick another
kernel: OpenBLAS's Haswell or Prescott kernel, or numpy's SIMD dispatch cut
back to its baseline.  The child must pass.  Its arithmetic key
(``regen.arithmetic``) must differ from this process's, so that the pass shows
the 1e-12 fallback at work and is not luck; where a setting leaves the key
as it is, the rerun would show nothing and is skipped.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from golden import regen

ROOT = Path(__file__).resolve().parents[1]

#: Every test that compares what the battery printed, or a value whose last bits or
#: overflow follow the CPU kernel.
RERUN = [
    "tests/test_golden.py",
    "tests/test_core.py::test_pure_state_rejects_a_norm_that_overflows_to_inf",
    "tests/test_cli.py::test_check_pure_file_whose_norm_overflows_exits_2",
    "tests/test_cli.py::test_a_residual_equal_to_the_tolerance_passes",
]

#: Prints the child's arithmetic key on its first line, then runs pytest on its arguments.
CHILD = "import sys, pytest; from golden import regen; print(regen.arithmetic()); sys.exit(pytest.main(sys.argv[1:]))"


def _numpy_config() -> dict:
    try:
        return np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.25 has no ``mode``
        return {}


CONFIG = _numpy_config()
BLAS = CONFIG.get("Build Dependencies", {}).get("blas", {}).get("name", "")
#: SIMD features numpy dispatches to on this CPU beyond its baseline; naming a
#: baseline feature in NPY_DISABLE_CPU_FEATURES makes numpy refuse to import.
DISPATCHED = CONFIG.get("SIMD Extensions", {}).get("found", [])

OPENBLAS = pytest.mark.skipif("openblas" not in BLAS, reason=f"numpy's BLAS is {BLAS or 'not named'}, not OpenBLAS")
SETTINGS = [
    pytest.param("OPENBLAS_CORETYPE", "Haswell", marks=OPENBLAS, id="openblas-haswell"),
    pytest.param("OPENBLAS_CORETYPE", "Prescott", marks=OPENBLAS, id="openblas-prescott"),
    pytest.param(
        "NPY_DISABLE_CPU_FEATURES", " ".join(DISPATCHED), id="numpy-baseline-simd",
        marks=pytest.mark.skipif(not DISPATCHED, reason="numpy names no SIMD feature dispatched beyond its baseline"),
    ),
]


@pytest.mark.parametrize("name, value", SETTINGS)
def test_pins_hold_under_another_cpu_kernel(name, value):
    path = filter(None, [str(ROOT / "src"), str(ROOT / "tests"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, name: value, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "-q", "-rs", "-p", "no:cacheprovider", *RERUN],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    child, _, report = proc.stdout.partition("\n")
    here = regen.arithmetic()
    if child == here:
        pytest.skip(f"{name}={value} leaves the arithmetic key at {here} on this host")
    if child != json.loads(regen.GOLDEN.read_text(encoding="utf-8"))["arithmetic"]:
        # The child compared numbers to 1e-12 and listed the skipped byte comparison.
        assert f"here numpy {np.__version__} arithmetic {child}\n" in report, report
