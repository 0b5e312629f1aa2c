"""CLI outputs pinned against golden files made by ``tests/golden/regen.py``.

Every command of the battery (audits on three signatures for every flavor,
``check --json`` on pure and density files and on every factory, a sweep
per factory parameter, and the commands ccrkit refuses) runs through
``cli.main`` in a temporary directory that ``regen.stage`` filled.  Under
the numpy version that made the golden file, exit code, stdout, stderr and
the CSV a sweep wrote must match byte for byte.  Under another version,
exit codes and the text of every line must still match exactly, and every
number to 1e-12.
"""

import json
import re

import numpy as np
from golden import regen

from ccrkit.cli import MEASURES, main
from ccrkit.states import FACTORY_PARAMS

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
    regen.stage(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert [c["argv"] for c in GOLDEN["commands"]] == regen.BATTERY
    same_numpy = GOLDEN["numpy"] == np.__version__
    versions = f"golden numpy {GOLDEN['numpy']}, running numpy {np.__version__}"
    for want in GOLDEN["commands"]:
        got = regen.run(want["argv"])
        assert got["exit"] == want["exit"], (want["argv"], got["stderr"])
        assert got.keys() == want.keys(), want["argv"]
        for stream in want.keys() & {"stdout", "stderr", "csv"}:
            if same_numpy or want[stream] is None:
                assert got[stream] == want[stream], (want["argv"], stream)
            else:
                assert roundoff_mismatch(got[stream], want[stream]) is None, (want["argv"], stream, versions)


def _value(argv, flag):
    return argv[argv.index(flag) + 1]


def test_battery_covers_every_flavor_and_input(tmp_path, monkeypatch):
    commands = GOLDEN["commands"]
    passed = [c["argv"] for c in commands if c["exit"] == 0]
    assert all(c["stderr"] == "" for c in commands if c["exit"] == 0)

    audits = {(_value(a, "--dims"), _value(a, "--flavor")) for a in passed if a[0] == "audit"}
    assert audits == {(d, f) for d in ("2,2,2", "3,3", "2,2,2,2,2") for f in regen.FLAVORS}
    files = {(_value(a, "--file"), _value(a, "--flavor")) for a in passed if "--file" in a}
    pure = {(f"inputs/{name}", f) for name in ("bell.json", "haar_324.json") for f in regen.FLAVORS}
    assert files == pure | {("inputs/mixed_23.json", "mixedness")}

    factory_checks = {
        (_value(c["argv"], "--factory"), _value(c["argv"], "--flavor"), int(_value(c["argv"], "--target"))): c
        for c in commands if c["argv"][0] == "check" and "--factory" in c["argv"] and "--json" in c["argv"]
    }
    assert factory_checks.keys() == {
        (factory, flavor, target)
        for factory in FACTORY_PARAMS for flavor in regen.FLAVORS for target in range(regen.subsystems(factory))
    }
    # werner is one qubit: the pure-state balances need a partner subsystem.
    assert {key for key, c in factory_checks.items() if c["exit"]} == {("werner", "hs", 0), ("werner", "vn", 0)}

    sweeps = {(_value(a, "--factory"), _value(a, "--param")): a for a in passed if a[0] == "sweep"}
    assert sweeps.keys() == {(factory, param) for factory, params in FACTORY_PARAMS.items() for param in params}
    for (factory, _), argv in sweeps.items():
        partnered = regen.subsystems(factory) > 1
        columns = [m for m in MEASURES if partnered or m not in regen.PARTNER_COLUMNS] + ["sum"]
        assert _value(argv, "--measures").split(",") == columns
        assert int(_value(argv, "--points")) <= 21
    assert all(c["csv"] for c in commands if c["argv"][0] == "sweep" and c["exit"] == 0)
    # The columns left out of the one-subsystem sweeps are refused there.
    monkeypatch.chdir(tmp_path)
    for column in regen.PARTNER_COLUMNS:
        argv = f"sweep --factory werner --w 0.5 --param x --start 0 --stop 1 --points 2 --measures {column} --out x.csv"
        assert main(argv.split()) == 2, column

    assert {c["argv"][0] for c in commands if c["exit"] == 1} == {"check", "audit"}
    assert all(_value(c["argv"], "--tolerance") == "0" for c in commands if c["exit"] == 1)

    refused = [c for c in commands if c["exit"] in (2, 3) and "--json" not in c["argv"]]
    assert {_value(c["argv"], "--file") for c in refused if "--file" in c["argv"]} >= {
        f"inputs/{name}" for name in regen.BAD_FILES
    }
    messages = [c["stderr"] for c in refused]
    assert len(set(messages)) == len(messages) == len(regen.BAD_FILES) + len(regen.BAD_COMMANDS)
    assert all(m.startswith("error: ") and m.count("\n") == 1 for m in messages)
    assert all(c["stdout"] == "" and c.get("csv") is None for c in refused)
    assert {c["exit"] for c in commands} == {0, 1, 2, 3}
    assert regen.GOLDEN.stat().st_size < 1_000_000


def test_roundoff_comparison_used_under_another_numpy():
    want = GOLDEN["commands"][-1]["stdout"]
    first = NUMBER.search(want.split('"value": ')[1]).group()
    nudged = float(first) + 1e-13
    assert roundoff_mismatch(want.replace(first, repr(nudged), 1), want) is None
    assert roundoff_mismatch(want.replace(first, repr(float(first) + 1e-11), 1), want) is not None
    assert roundoff_mismatch(want.replace('"sum"', '"total"'), want) is not None
    assert roundoff_mismatch(want + "extra\n", want) is not None
