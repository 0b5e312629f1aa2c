"""CLI outputs pinned against golden files made by ``tests/golden/regen.py``.

Every command of the battery (audits on three signatures for every flavor,
``check --json`` on pure and density files and on every factory, a sweep
per factory parameter, and the commands ccrkit refuses) runs through
``cli.main`` in a temporary directory that ``regen.stage`` filled.  Exit
codes and the text of every line must match exactly, and every number to
1e-12.  The library part (the inequality gap on every target and the
``purify`` amplitudes of three mixed states) and the amplitudes of every
pure factory state at its ``check`` point must match to 1e-12 as well.

Bytes hold only where the arithmetic that made them is the same.  Its key is
the numpy version and ``regen.arithmetic()``, a digest of what numpy's complex
matmul, abs, log, eigvalsh and vdot give on this CPU, and regenerating writes
both into ``golden.json``.  Under the golden key, stdout, stderr, every CSV
and every library and factory value must also match byte for byte; under
another key that comparison is reported as a skip that names both keys.
"""

import json

import numpy as np
import pytest
from golden import regen
from golden.regen import NUMBER

from ccrkit.cli import MEASURES, main
from ccrkit.states import FACTORY_PARAMS

GOLDEN = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
ATOL = 1e-12

ARITHMETIC = regen.arithmetic()
BYTES_HOLD = (GOLDEN["numpy"], GOLDEN["arithmetic"]) == (np.__version__, ARITHMETIC)
KEYS = (f"golden numpy {GOLDEN['numpy']} arithmetic {GOLDEN['arithmetic']}, "
        f"here numpy {np.__version__} arithmetic {ARITHMETIC}")


def roundoff_mismatch(got: str, want: str) -> str | None:
    """The first line on which ``got`` differs from ``want`` beyond ``ATOL`` per number, or None."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return f"{len(got_lines)} lines, golden has {len(want_lines)}"
    for g, w in zip(got_lines, want_lines):
        if NUMBER.sub("#", g) != NUMBER.sub("#", w):
            return f"{g!r} != {w!r}"
        for a, b in zip(NUMBER.findall(g), NUMBER.findall(w)):
            if a != b and not abs(float(a) - float(b)) <= ATOL:
                return f"{a} != {b} in {w!r}"
    return None


@pytest.fixture(scope="module")
def got(tmp_path_factory):
    """What the battery printed and the library and factory values, made once for the tests below."""
    return {
        "commands": regen.battery(tmp_path_factory.mktemp("battery")),
        "library": regen.library(),
        "factories": regen.factories(),
    }


def test_battery_matches_golden(got):
    assert [c["argv"] for c in GOLDEN["commands"]] == regen.BATTERY
    for have, want in zip(got["commands"], GOLDEN["commands"], strict=True):
        assert have["exit"] == want["exit"], (want["argv"], have["stderr"])
        assert have.keys() == want.keys(), want["argv"]
        for stream in want.keys() & {"stdout", "stderr", "csv"}:
            if want[stream] is None or have[stream] is None:
                assert have[stream] == want[stream], (want["argv"], stream)
            else:
                assert roundoff_mismatch(have[stream], want[stream]) is None, (want["argv"], stream, KEYS)


def assert_numbers_match(have, want, where):
    """Equal shapes and every number within ``ATOL``."""
    a, b = np.array(have, dtype=float), np.array(want, dtype=float)
    assert a.shape == b.shape, where
    assert np.abs(a - b).max() <= ATOL, (where, KEYS)


def test_library_values_match_golden(got):
    have, want = got["library"], GOLDEN["library"]
    assert [(e["state"], e.keys()) for e in have] == [(e["state"], e.keys()) for e in want]
    for h, w in zip(have, want):
        for key in ("gaps", "purify"):
            assert_numbers_match(h[key], w[key], (w["state"], key))


def test_factory_amplitudes_match_golden(got):
    have, want = got["factories"], GOLDEN["factories"]
    assert list(have) == list(want) == [f for f in FACTORY_PARAMS if f != "werner"]
    for factory in want:
        assert_numbers_match(have[factory], want[factory], factory)


@pytest.mark.skipif(not BYTES_HOLD, reason=f"golden bytes are compared only under their own key: {KEYS}")
def test_golden_bytes_hold_under_the_golden_key(got):
    for have, want in zip(got["commands"], GOLDEN["commands"], strict=True):
        assert have == want, want["argv"]
    assert got["library"] == GOLDEN["library"]
    assert got["factories"] == GOLDEN["factories"]


def test_check_says_how_far_each_entry_moved(tmp_path, monkeypatch):
    golden = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
    nudged = json.loads(regen.GOLDEN.read_text(encoding="utf-8"))
    state = nudged["library"][-1]
    state["gaps"][1] = repr(float(state["gaps"][1]) + 5.6e-17)
    command = nudged["commands"][-1]
    command["stdout"] = command["stdout"].replace('"sum"', '"total"')
    (tmp_path / "golden.json").write_text(json.dumps(nudged), encoding="utf-8")
    monkeypatch.setattr(regen, "GOLDEN", tmp_path / "golden.json")
    assert regen.differences(golden, regen.INPUTS) == [
        f"{' '.join(command['argv'])}  (max |move| 0, text differs)",
        f"library: {state['state']}  (max |move| 5.6e-17)",
    ]


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
    assert roundoff_mismatch("inf, nan, infinite\n", "inf, nan, infinite\n") is None
    assert roundoff_mismatch("inf\n", "nan\n") is not None
