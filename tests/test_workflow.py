"""The CI workflow's "CLI entry point" step, run as a test.

The step's ``run`` script and ``env`` are read from
``.github/workflows/tests.yml`` and run with ``bash`` from the repository
root, as the workflow runs them, so the script is checked wherever the
suite runs and not only on the CI host.
"""

import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def workflow_step(name):
    (job,) = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"].values()
    (step,) = [s for s in job["steps"] if s.get("name") == name]
    return step


def test_cli_entry_point_step_exits_0(tmp_path):
    step = workflow_step("CLI entry point")
    # The script's `python` is this interpreter, and its mktemp directory lands in tmp_path.
    path = os.pathsep.join([str(Path(sys.executable).parent), os.environ.get("PATH", "")])
    env = {**os.environ, "PATH": path, "TMPDIR": str(tmp_path)}
    env.update({key: str(value) for key, value in step.get("env", {}).items()})
    proc = subprocess.run(
        ["bash", "-c", step["run"]], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
