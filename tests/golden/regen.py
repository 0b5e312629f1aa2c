"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

It writes the three input state files into ``tests/golden/inputs/`` and,
for every command of ``BATTERY``, the argv, exit code, stdout and stderr
into ``tests/golden/golden.json``, together with the numpy version that
made them; a sweep also records the CSV text it wrote, or null when it
wrote none.  Commands name their files by relative path, so they run in a
directory that ``stage`` has filled with ``inputs/`` and the malformed
state files of ``BAD_FILES``.  Regenerate only in a change whose
CHANGES.md entry lists which outputs moved and why.
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
from ccrkit.cli import MEASURES, _parse_param, main
from ccrkit.states import FACTORY_PARAMS, build, haar_random_pure

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
GOLDEN = HERE / "golden.json"
README = HERE.parents[1] / "README.md"

AUDITS = [((2, 2, 2), 20, 42), ((3, 3), 10, 7), ((2,) * 5, 8, 5)]
FLAVORS = ("hs", "vn", "mixedness")

#: The point at which ``check`` evaluates each factory, and the fixed flags of
#: its sweeps.  A negative re:im value needs the ``--name=value`` form.
FACTORY_POINTS = {
    "werner": {"w": "0.5", "x": "0.6"},
    "bipartite-x": {"x": "0.6"},
    "qutrit-jb": {"x": "0.7"},
    "ghz": {"a000": "0.6", "a111": "0.8"},
    "w": {"p": "0.4"},
    "five-term": {"lambda1": "0.3", "lambda2": "0.4", "lambda3": "0.5", "lambda4": "0.2", "lambda5": "0.6"},
    "acin": {"lambda1": "0.6:0.2", "lambda2": "0.1", "lambda3": "-0.3:0.5", "lambda4": "0.2"},
}
UNIT_PARAMS = ("w", "x", "p")  # probabilities, swept over [0, 1]; amplitudes over [-1, 1]
SWEEP_POINTS = 21
#: Sweep columns that need a partner subsystem, so a one-subsystem state cannot take them.
PARTNER_COLUMNS = ("C_nl_hs", "C_corr_hs", "C_corr_l1", "C_corr_re", "C_corr_hs_pairsum", "C_corr_l1_pairsum")

#: Malformed state files, each refused with its own exit-2 message.
BAD_FILES = {
    "not_json.json": "not json\n",
    "not_object.json": "[2, 2]\n",
    "missing_keys.json": '{"dims": [2], "kind": "pure"}\n',
    "bad_dims.json": '{"dims": [2, true], "kind": "pure", "data": []}\n',
    "zero_dim.json": '{"dims": [2, 0], "kind": "pure", "data": []}\n',
    "over_cap.json": '{"dims": [4097], "kind": "pure", "data": []}\n',
    "bad_kind.json": '{"dims": [2], "kind": "ket", "data": [[1, 0], [0, 0]]}\n',
    "short_vector.json": '{"dims": [2], "kind": "pure", "data": [[1, 0]]}\n',
    "bool_entry.json": '{"dims": [2], "kind": "pure", "data": [[1, 0], [true, 0]]}\n',
    "huge_int.json": '{"dims": [2], "kind": "pure", "data": [[1' + "0" * 400 + ', 0], [0, 0]]}\n',
    "nan_amplitude.json": '{"dims": [2], "kind": "pure", "data": [[NaN, 0], [0, 0]]}\n',
    "unnormalized.json": '{"dims": [2], "kind": "pure", "data": [[1, 0], [1, 0]]}\n',
    "short_rows.json": '{"dims": [2], "kind": "density", "data": [[[1, 0], [0, 0]]]}\n',
    "ragged_row.json": '{"dims": [2], "kind": "density", "data": [[[1, 0]], [[0, 0], [0, 0]]]}\n',
    "nan_density.json": '{"dims": [2], "kind": "density", "data": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}\n',
    "not_hermitian.json": '{"dims": [2], "kind": "density", "data": [[[0.5, 0], [0.25, 0]], [[0, 0], [0.5, 0]]]}\n',
    "bad_trace.json": '{"dims": [2], "kind": "density", "data": [[[0.75, 0], [0, 0]], [[0, 0], [0.75, 0]]]}\n',
    "not_psd.json": '{"dims": [2], "kind": "density", "data": [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]}\n',
}

_SWEEP = "sweep --points 3 --out bad.csv --factory"
#: Commands that ccrkit itself refuses, one per message: exit 3 for a mixed
#: state given to a pure-only flavor, exit 2 for the rest.  Messages worded
#: by argparse (unknown flags, malformed numbers, bad choices) are pinned in
#: ``tests/test_cli.py`` instead.
BAD_COMMANDS = [
    "check --file inputs/mixed_23.json --flavor hs",
    "check --file inputs/mixed_23.json --flavor vn",
    f"{_SWEEP} werner --w 0.5 --param p --start 0 --stop 1 --measures P_hs",
    f"{_SWEEP} werner --w 0.5 --x 0.6 --param x --start 0 --stop 1 --measures P_hs",
    f"{_SWEEP} werner --param x --start 0 --stop 1 --measures P_hs",
    f"{_SWEEP} w --x 0.5 --param p --start 0 --stop 1 --measures P_hs",
    f"{_SWEEP} werner --w abc --param x --start 0 --stop 1 --measures P_hs",
    f"{_SWEEP} werner --w 0.5:0.1 --param x --start 0 --stop 1 --measures P_hs",
    f"{_SWEEP} ghz --a111 1e400 --param a000 --start 0 --stop 1 --measures P_hs",
    f"{_SWEEP} ghz --a111 0 --param a000 --start 0 --stop 0 --measures P_hs",
    f"{_SWEEP} werner --w 0.5 --param x --start 0 --stop inf --measures P_hs",
    f"{_SWEEP} w --param p --start 0 --stop 2 --measures P_hs",
    f"{_SWEEP} w --param p --start 0 --stop 1 --measures P_hs,bogus",
    f"{_SWEEP} w --param p --start 0 --stop 1 --measures ,",
    "sweep --points 1 --out bad.csv --factory w --param p --start 0 --stop 1 --measures P_hs",
    "check --factory ghz --a000 0.6 --a111 0.8 --flavor hs --target 3",
    "check --factory ghz --a000 0.6 --a111 0.8 --flavor hs --tolerance nan",
    "check --factory ghz --a000 0.6 --a111 0.8 --flavor hs --tolerance -1",
    "check --file inputs/bell.json --x 0.5 --flavor hs",
    "audit --dims 2,2 --count 5 --flavor hs --tolerance inf",
    "audit --dims 2,banana --count 5 --flavor hs",
    "audit --dims 2 --count 5 --flavor hs",
    "audit --dims 64,65 --count 5 --flavor hs",
    "audit --dims 2,2 --count 0 --flavor hs",
    "audit --dims 2,2 --count 5 --seed -1 --flavor hs",
]


def subsystems(factory: str) -> int:
    """The number of subsystems of ``factory``'s state at its ``FACTORY_POINTS`` point."""
    params = {name: _parse_param(name, text) for name, text in FACTORY_POINTS[factory].items()}
    return len(build(factory, **params).signature.dims)


def _flags(values: dict) -> list[str]:
    return [f"--{name}={text}" for name, text in values.items()]


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
    # The 26 commands above were the first battery; new ones go below, and a
    # factory ``check --json`` stays last.
    commands.append("check --factory ghz --a000 0.6 --a111 0.8 --flavor hs --tolerance 0".split())
    commands.append("audit --dims 2,2,2 --count 20 --seed 42 --flavor hs --tolerance 0".split())
    for name in BAD_FILES:
        commands.append(["check", "--file", f"inputs/{name}", "--flavor", "hs"])
    commands.extend(argv.split() for argv in BAD_COMMANDS)
    for factory, params in FACTORY_PARAMS.items():
        n = subsystems(factory)
        columns = [m for m in MEASURES if n > 1 or m not in PARTNER_COLUMNS] + ["sum"]
        for param in params:
            fixed = {k: v for k, v in FACTORY_POINTS[factory].items() if k != param}
            start = "0" if param in UNIT_PARAMS else "-1"
            commands.append(["sweep", "--factory", factory, *_flags(fixed), "--param", param,
                             f"--start={start}", "--stop", "1", "--points", str(SWEEP_POINTS),
                             "--measures", ",".join(columns), "--out", f"{factory}-{param}.csv"])
    for factory in FACTORY_PARAMS:
        for flavor in FLAVORS:
            for target in range(subsystems(factory)):
                commands.append(["check", "--factory", factory, *_flags(FACTORY_POINTS[factory]),
                                 "--flavor", flavor, "--target", str(target), "--json"])
    return commands


BATTERY = _battery()


def stage(directory: Path) -> None:
    """Fill ``directory`` with a copy of ``inputs/`` and the ``BAD_FILES`` beside them."""
    shutil.copytree(INPUTS, directory / "inputs")
    for name, text in BAD_FILES.items():
        (directory / "inputs" / name).write_text(text, encoding="utf-8")


def run(argv: list[str]) -> dict:
    """Run one command through ``cli.main`` in-process and capture what it printed.

    A sweep also yields the text of its ``--out`` file (None if it wrote
    none), and the file is removed so that no later command can find it.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    result = {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if argv[0] == "sweep":
        path = Path(argv[argv.index("--out") + 1])
        result["csv"] = path.read_text(encoding="utf-8") if path.exists() else None
        path.unlink(missing_ok=True)
    return result


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
    write_inputs()
    with tempfile.TemporaryDirectory() as work:
        stage(Path(work))
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
