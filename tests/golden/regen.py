"""Regenerate the golden outputs that ``tests/test_golden.py`` compares against.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py [--check]

It writes the three input state files into ``tests/golden/inputs/`` and,
for every command of ``BATTERY``, the argv, exit code, stdout and stderr
into ``tests/golden/golden.json``, together with the key of the arithmetic
that made them: the numpy version and ``arithmetic()``, a digest of what
numpy's complex matmul, abs, log, eigvalsh, vdot and norm and the real-square
sums of a state's norm give on this CPU.  ``--check`` regenerates everything
in a temporary directory instead, writes nothing, prints each input file,
command argv, library state or factory whose bytes differ from what is
committed, each command, library state or factory with the largest absolute
move of its numbers (and "text differs" if anything else differs too), and
exits 1 if any does.
``tests/test_golden.py`` compares bytes only under that same key.  A sweep
also records the CSV text it wrote, or null when it wrote none.  Commands
name their files by relative path, so they run in a
directory that ``stage`` has filled with ``inputs/`` and the malformed
state files of ``BAD_FILES``.  The ``library`` section holds what the CLI
cannot print: for each state of ``library_states``, the ``repr`` of the
inequality gap on every target and the amplitudes of its purification.  The
``factories`` section holds, for each pure family at its ``FACTORY_POINTS``
point, the ``repr`` of every amplitude's real and imaginary part, so that a
flipped sign of zero shows too.
Regenerate only in a change whose CHANGES.md entry lists which outputs
moved and why.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from ccrkit import PureState, ccr_inequality_gap, partial_trace, purify
from ccrkit.core import _squared_norms
from ccrkit.cli import MEASURES, PARTNER_COLUMNS, _parse_param, main, parse_state_file
from ccrkit.states import FACTORY_PARAMS, build, haar_random_pure

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
GOLDEN = HERE / "golden.json"
README = HERE.parents[1] / "README.md"

#: A number as it prints: an int, a decimal or exponent float, nan or inf.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")

AUDITS = [((2, 2, 2), 20, 42), ((3, 3), 10, 7), ((2,) * 5, 8, 5)]
FLAVORS = ("hs", "vn", "mixedness")

#: The point at which ``check`` evaluates each factory, and the fixed flags of
#: its sweeps, passed as ``--name=value``; a negative value parses the same
#: way without the ``=``.
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
    f"{_SWEEP} w --param p --start 0 --stop 1 --measures P_hs,P_hs,sum",
    f"{_SWEEP} w --param p --start 0 --stop 1 --measures sum",
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
    f"{_SWEEP} werner --w 0.5 --param x --start -inf --stop 1 --measures P_hs",
    "audit --dims 2,2 --count 5 --flavor hs --tolerance -Infinity",
    "check --factory werner --w -inf:0 --x 0.5 --flavor mixedness",
    "check --factory w --p -nan --flavor hs",
]


def at_point(factory: str):
    """``factory``'s state at its ``FACTORY_POINTS`` point."""
    return build(factory, **{name: _parse_param(name, text) for name, text in FACTORY_POINTS[factory].items()})


def subsystems(factory: str) -> int:
    """The number of subsystems of ``factory``'s state at its ``FACTORY_POINTS`` point."""
    return len(at_point(factory).signature.dims)


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


def stage(directory: Path, inputs: Path = INPUTS) -> None:
    """Fill ``directory`` with a copy of ``inputs`` as ``inputs/`` and the ``BAD_FILES`` beside them."""
    shutil.copytree(inputs, directory / "inputs")
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


def battery(directory: Path, inputs: Path = INPUTS) -> list[dict]:
    """``run`` every command of ``BATTERY`` in ``directory``, once ``stage`` has filled it from ``inputs``."""
    stage(directory, inputs)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [run(argv) for argv in BATTERY]
    finally:
        os.chdir(cwd)


def arithmetic() -> str:
    """A digest of the bytes that the numpy operations the battery rests on give here.

    The bits of complex ``matmul`` follow the BLAS kernel, and those of complex
    ``abs`` and ``log`` numpy's SIMD dispatch; ``eigvalsh``, ``vdot`` and
    ``linalg.norm`` follow both.  So the digest covers each of them, on exact
    inputs, with the k x rest blocks of a pure state's reduction M M^dag, and
    the two reductions that normalize a state: ``linalg.norm`` of the short
    vectors that the factories normalize, and the per-row sums of real
    squares that the Haar sampler and ``PureState`` take.
    ``tests/test_golden.py`` compares bytes only where the numpy version and
    this digest are golden's.
    """
    n = 4 * 2048
    grid = ((np.arange(2 * n) * 7919) % 1013 - 506) / 1013.0
    z = grid[:n] + 1j * grid[n:]
    digest = hashlib.sha256()
    for k in (1, 2, 3, 4):
        for rest in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 64, 128, 512, 2048):
            m = z[: k * rest].reshape(k, rest)
            digest.update((m @ m.conj().T).tobytes())
    magnitudes = np.abs(z)
    digest.update(magnitudes.tobytes())
    digest.update(np.log(magnitudes[magnitudes > 0]).tobytes())
    for d in (2, 3, 4, 6, 8, 9, 12, 16, 32):
        m = z[: d * d].reshape(d, d)
        digest.update(np.linalg.eigvalsh(m @ m.conj().T).tobytes())
    digest.update(np.vdot(z, z).tobytes())
    for size in (2, 4, 5, 8):
        digest.update(np.array([np.linalg.norm(z[i : i + size]) for i in range(0, 512, size)]).tobytes())
    for d in (8, 9, 12, 16, 24, 32, 72, 4096):
        digest.update(_squared_norms(z[: n // d * d].reshape(-1, d)).tobytes())
    return digest.hexdigest()[:16]


def _pairs(values: np.ndarray) -> list:
    if values.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in values]
    return [_pairs(row) for row in values]


def _state_doc(dims, kind: str, data: np.ndarray) -> str:
    return json.dumps({"dims": list(dims), "kind": kind, "data": _pairs(data)}) + "\n"


#: Haar states on ``dims + (ancilla,)``, drawn with ``seed``, whose reduction onto
#: ``dims`` the library part pins beside the density file.
ANCILLA_STATES = [((2, 2, 2), 2, 11), ((3, 2, 4), 3, 12)]


def library_states(inputs: Path = INPUTS):
    """(name, mixed state) pairs: ``inputs/mixed_23.json``, then each ``ANCILLA_STATES`` reduction."""
    yield "inputs/mixed_23.json", parse_state_file((inputs / "mixed_23.json").read_bytes())
    for dims, ancilla, seed in ANCILLA_STATES:
        (psi,) = haar_random_pure(dims + (ancilla,), 1, seed)
        yield f"haar {dims}+{ancilla} seed {seed}", partial_trace(psi, range(len(dims)))


def library(inputs: Path = INPUTS) -> list[dict]:
    """Per state: the gap's ``repr`` on every target and ``purify``'s amplitudes as [re, im] pairs."""
    return [
        {
            "state": name,
            "gaps": [repr(ccr_inequality_gap(rho, target)) for target in range(len(rho.dims))],
            "purify": _pairs(purify(rho).amplitudes),
        }
        for name, rho in library_states(inputs)
    ]


def factories() -> dict:
    """Per pure family: its amplitudes at its ``FACTORY_POINTS`` point as [repr(re), repr(im)] pairs."""
    states = {factory: at_point(factory) for factory in FACTORY_POINTS}
    return {
        factory: [[repr(re), repr(im)] for re, im in _pairs(state.amplitudes)]
        for factory, state in states.items()
        if isinstance(state, PureState)
    }


def write_inputs(inputs: Path = INPUTS) -> None:
    """The README's bell.json, a Haar (3, 2, 4) pure state and a mixed (2, 3) density."""
    inputs.mkdir(exist_ok=True)
    (bell,) = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    (inputs / "bell.json").write_text(bell, encoding="utf-8")
    (psi,) = haar_random_pure((3, 2, 4), 1, 324)
    (inputs / "haar_324.json").write_text(_state_doc(psi.dims, "pure", psi.amplitudes), encoding="utf-8")
    (psi,) = haar_random_pure((2, 3, 2), 1, 23)
    rho = partial_trace(psi, [0, 1])
    (inputs / "mixed_23.json").write_text(_state_doc(rho.dims, "density", rho.matrix), encoding="utf-8")


def regenerate(work: Path) -> dict:
    """The golden document, made in the empty directory ``work`` from input files that it writes there."""
    inputs = work / "inputs"
    write_inputs(inputs)
    commands = battery(work / "battery", inputs)
    return {"numpy": np.__version__, "arithmetic": arithmetic(), "python": sys.version.split()[0],
            "commands": commands, "library": library(inputs), "factories": factories()}


def movement(have, want) -> str:
    """How far golden entry ``have`` is from ``want``: the largest absolute change of a number, the
    numbers of each paired in the order they print, and "text differs" if anything else differs."""
    got, was = json.dumps(have), json.dumps(want)
    move = max((abs(float(a) - float(b)) for a, b in zip(NUMBER.findall(got), NUMBER.findall(was)) if a != b),
               default=0.0)
    text = "" if NUMBER.sub("#", got) == NUMBER.sub("#", was) else ", text differs"
    return f"max |move| {move:.2g}{text}"


def differences(doc: dict, inputs: Path) -> list[str]:
    """What ``doc`` and the files in ``inputs`` hold that differ, byte for byte, from the committed golden files.

    Each differing command, library state or factory is followed by its ``movement``."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    moved = [f"{key}: {golden[key]} -> {doc[key]}" for key in ("numpy", "arithmetic") if golden[key] != doc[key]]
    moved += [f"inputs/{path.name}" for path in sorted(inputs.iterdir())
              if not (INPUTS / path.name).is_file() or (INPUTS / path.name).read_bytes() != path.read_bytes()]
    if [c["argv"] for c in golden["commands"]] != [c["argv"] for c in doc["commands"]]:
        moved.append("commands: the battery's argv list")
    else:
        moved += [f"{' '.join(have['argv'])}  ({movement(have, want)})"
                  for have, want in zip(doc["commands"], golden["commands"]) if have != want]
    want = {entry["state"]: entry for entry in golden["library"]}
    moved += [f"library: {entry['state']}  ({movement(entry, want.get(entry['state']))})"
              for entry in doc["library"] if want.get(entry["state"]) != entry]
    moved += [f"factories: {name}  ({movement(amps, golden['factories'].get(name))})"
              for name, amps in doc["factories"].items() if golden["factories"].get(name) != amps]
    return moved


def main_regen(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="write nothing; list what would move and exit 1 if any")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        doc = regenerate(Path(work))
        if args.check:
            moved = differences(doc, Path(work) / "inputs")
            for entry in moved:
                print(entry)
            return 1 if moved else 0
        shutil.copytree(Path(work) / "inputs", INPUTS, dirs_exist_ok=True)
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(doc['commands'])} commands, {len(doc['library'])} library states and "
          f"{len(doc['factories'])} factory states to {GOLDEN.relative_to(HERE.parents[1])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main_regen())
