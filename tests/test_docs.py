"""The README and the demos, run as tests so that their text cannot drift.

Every ``ccrkit ...`` line of the README's ``sh`` blocks runs through
``cli.main`` in a temporary directory that holds the README's ``bell.json``.
The "Library tour" block runs with ``exec``, and each number written in a
comment after one of its expressions is checked.  Each script in ``demos/``
runs in its own interpreter with RuntimeWarnings turned into errors.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ccrkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def fenced_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.S | re.M)


def readme_cli_commands():
    """Argument lists of the README's ``ccrkit`` lines, with ``\\`` continuations joined."""
    commands = []
    for block in fenced_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["ccrkit"]:
                commands.append(words[1:])
    return commands


def test_readme_cli_commands_exit_0(tmp_path, monkeypatch, capsys):
    (state_file,) = fenced_blocks("json")
    (tmp_path / "bell.json").write_text(state_file, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = readme_cli_commands()
    assert {argv[0] for argv in commands} == {"check", "sweep", "audit"}
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr())
        if "--out" in argv:
            points = int(argv[argv.index("--points") + 1])
            csv = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
            assert len(csv.splitlines()) == 1 + points


def test_readme_library_tour_values():
    (tour,) = fenced_blocks("python")
    namespace = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    # "<expression>   # <number>" or "# ~<number>": the value the README promises.
    promised = {
        expr: float(number)
        for expr, number in re.findall(r"^(\S[^#\n]*?)\s+# ~?([-+0-9.e]+)\b", tour, flags=re.M)
    }
    assert promised["report.predictability.value"] == 0.125
    assert promised["report.correlation_term.value"] == 0.375
    for expr, number in promised.items():
        assert eval(expr, namespace) == pytest.approx(number, abs=1e-12), expr


def test_readme_lists_every_demo():
    listed = re.findall(r"python3 (demos/\S+\.py)", README)
    assert listed == [str(demo.relative_to(ROOT)) for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_runs_without_warnings(demo, tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
