"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

It writes the three input state files into ``tests/golden/inputs/`` and,
for every command of ``BATTERY``, the argv, exit code, stdout and stderr
into ``tests/golden/golden.json``, together with the numpy version that
made them.  Commands name their input files by relative path, so they run
in a directory that holds a copy of ``inputs/``.  Regenerate only in a
change whose CHANGES.md entry lists which outputs moved and why.
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from ccrkit import partial_trace
from ccrkit.cli import TOLERANCE_ENV, main
from ccrkit.states import haar_random_pure

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
GOLDEN = HERE / "golden.json"
README = HERE.parents[1] / "README.md"

AUDITS = [((2, 2, 2), 20, 42), ((3, 3), 10, 7), ((2,) * 5, 8, 5)]
FLAVORS = ("hs", "vn", "mixedness")


def _battery() -> list[list[str]]:
    commands = []
    for dims, count, seed in AUDITS:
        for flavor in FLAVORS:
            commands.append(["audit", "--dims", ",".join(map(str, dims)), "--count", str(count),
                             "--seed", str(seed), "--flavor", flavor])
    for name, n in (("bell.json", 2), ("haar_324.json", 3)):
        for flavor in FLAVORS:
            for target in range(n):
                commands.append(["check", "--file", f"inputs/{name}", "--flavor", flavor,
                                 "--target", str(target), "--json"])
    for target in range(2):
        commands.append(["check", "--file", "inputs/mixed_23.json", "--flavor", "mixedness",
                         "--target", str(target), "--json"])
    return commands


BATTERY = _battery()


def run(argv: list[str]) -> dict:
    """Run one command through ``cli.main`` in-process and capture what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _pairs(values: np.ndarray) -> list:
    if values.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in values]
    return [_pairs(row) for row in values]


def _state_doc(dims, kind: str, data: np.ndarray) -> str:
    return json.dumps({"dims": list(dims), "kind": kind, "data": _pairs(data)}) + "\n"


def write_inputs() -> None:
    """The README's bell.json, a Haar (3, 2, 4) pure state and a mixed (2, 3) density."""
    INPUTS.mkdir(exist_ok=True)
    (bell,) = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    (INPUTS / "bell.json").write_text(bell, encoding="utf-8")
    (psi,) = haar_random_pure((3, 2, 4), 1, 324)
    (INPUTS / "haar_324.json").write_text(_state_doc(psi.dims, "pure", psi.amplitudes), encoding="utf-8")
    (psi,) = haar_random_pure((2, 3, 2), 1, 23)
    rho = partial_trace(psi, [0, 1])
    (INPUTS / "mixed_23.json").write_text(_state_doc(rho.dims, "density", rho.matrix), encoding="utf-8")


def main_regen() -> None:
    os.environ.pop(TOLERANCE_ENV, None)
    write_inputs()
    with tempfile.TemporaryDirectory() as work:
        shutil.copytree(INPUTS, Path(work) / "inputs")
        cwd = os.getcwd()
        os.chdir(work)
        try:
            commands = [run(argv) for argv in BATTERY]
        finally:
            os.chdir(cwd)
    doc = {"numpy": np.__version__, "python": sys.version.split()[0], "commands": commands}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(commands)} commands to {GOLDEN.relative_to(HERE.parents[1])}")


if __name__ == "__main__":
    main_regen()
