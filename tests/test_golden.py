"""CLI outputs pinned against golden files made by ``tests/golden/regen.py``.

Every command of the battery (audits on three signatures for every flavor,
``check --json`` on pure and density files) runs through ``cli.main`` in a
temporary directory that holds a copy of ``tests/golden/inputs/``.  Under
the numpy version that made the golden file, exit code, stdout and stderr
must match byte for byte.  Under another version, exit codes and the text
of every line must still match exactly, and every number to 1e-12.
"""

import json
import re
import shutil

import numpy as np
from golden import regen

from ccrkit.cli import TOLERANCE_ENV

GOLDEN = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")
ATOL = 1e-12


def roundoff_mismatch(got: str, want: str) -> str | None:
    """The first line on which ``got`` differs from ``want`` beyond ``ATOL`` per number, or None."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, golden has {len(want_lines)}"
    for g, w in zip(got_lines, want_lines):
        if NUMBER.sub("#", g) != NUMBER.sub("#", w):
            return f"{g!r} != {w!r}"
        for a, b in zip(NUMBER.findall(g), NUMBER.findall(w)):
            if not abs(float(a) - float(b)) <= ATOL:
                return f"{a} != {b} in {w!r}"
    return None


def test_battery_matches_golden(tmp_path, monkeypatch):
    shutil.copytree(regen.INPUTS, tmp_path / "inputs")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(TOLERANCE_ENV, raising=False)
    assert [c["argv"] for c in GOLDEN["commands"]] == regen.BATTERY
    same_numpy = GOLDEN["numpy"] == np.__version__
    versions = f"golden numpy {GOLDEN['numpy']}, running numpy {np.__version__}"
    for want in GOLDEN["commands"]:
        got = regen.run(want["argv"])
        assert got["exit"] == want["exit"], (want["argv"], got["stderr"])
        for stream in ("stdout", "stderr"):
            if same_numpy:
                assert got[stream] == want[stream], (want["argv"], stream)
            else:
                assert roundoff_mismatch(got[stream], want[stream]) is None, (want["argv"], stream, versions)


def test_battery_covers_every_flavor_and_input():
    commands = [c["argv"] for c in GOLDEN["commands"]]
    audits = {(a[a.index("--dims") + 1], a[a.index("--flavor") + 1]) for a in commands if a[0] == "audit"}
    assert audits == {(d, f) for d in ("2,2,2", "3,3", "2,2,2,2,2") for f in regen.FLAVORS}
    checks = {(a[a.index("--file") + 1], a[a.index("--flavor") + 1]) for a in commands if a[0] == "check"}
    pure = {(f"inputs/{name}", f) for name in ("bell.json", "haar_324.json") for f in regen.FLAVORS}
    assert checks == pure | {("inputs/mixed_23.json", "mixedness")}
    assert all(c["exit"] == 0 and c["stderr"] == "" for c in GOLDEN["commands"])


def test_roundoff_comparison_used_under_another_numpy():
    want = GOLDEN["commands"][-1]["stdout"]
    first = NUMBER.search(want.split('"value": ')[1]).group()
    nudged = float(first) + 1e-13
    assert roundoff_mismatch(want.replace(first, repr(nudged), 1), want) is None
    assert roundoff_mismatch(want.replace(first, repr(float(first) + 1e-11), 1), want) is not None
    assert roundoff_mismatch(want.replace('"sum"', '"total"'), want) is not None
    assert roundoff_mismatch(want + "extra\n", want) is not None
