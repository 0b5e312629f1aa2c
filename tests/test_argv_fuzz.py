"""Fuzzed command lines: ``cli.main`` ends in an exit code, never a traceback.

Each subcommand's argv starts from a valid skeleton; Hypothesis replaces flag
values with numbers, ``inf``, ``-inf``, ``nan``, ``-nan``, ``-0``, empty
strings, ``re:im`` pairs holding NaN, malformed dims lists and integers up to
2**70 in magnitude.  Every run must return an exit code in {0, 1, 2, 3, 4},
and an exit 2 must print an ``error:`` line first.  ``--points`` and
``--count`` are drawn only at or below 5 or above ``MAX_COUNT``, so that no
run allocates a large grid or ensemble, and ``--dims`` lists have entries of
at most 3 (or are refused), so that no audit solves a large spectrum.  Runs
are derandomized so the suite is reproducible.
"""

import contextlib
import io
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccrkit.cli import MAX_COUNT, MEASURES, main
from ccrkit.states import FACTORY_PARAMS

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

EXIT_CODES = {0, 1, 2, 3, 4}

SPECIAL = ["inf", "-inf", "nan", "-nan", "-0", "", "Infinity", "-0.0", "1e308", "-1e-320", "abc"]
NUMBERS = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-(2**70), 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-2.0, 2.0).map(repr),
)
PAIRS = st.tuples(NUMBERS, st.sampled_from(["nan", "-nan", "0", "1", "inf"])).map(lambda p: f"{p[0]}:{p[1]}")
DIMS = st.one_of(
    st.sampled_from(["0,2", "2,-1", "4096,2", "2,2,2", "3", "", ",", "2,,2"]),
    st.lists(
        st.sampled_from(["-1", "0", "-0", "1", "2", "3", "nan", "inf", "", "2.5", str(2**70), str(-(2**70))]),
        min_size=1,
        max_size=3,
    ).map(",".join),
)
#: Counts that never start a large grid or ensemble: at most 5, or over the cap.
COUNTS = st.one_of(
    st.integers(-(2**70), 5).map(str),
    st.integers(MAX_COUNT + 1, 2**70).map(str),
    st.sampled_from(SPECIAL),
)
VALUES = st.one_of(NUMBERS, PAIRS, DIMS)
FLAVORS = ["hs", "vn", "mixedness"]
FACTORIES = sorted(FACTORY_PARAMS)


def _factory_flags(factory, skip=()):
    return [item for name in FACTORY_PARAMS[factory] if name not in skip for item in (f"--{name}", "0.5")]


#: Flags that name a path, a factory, a parameter, measures or a flavor; their values stay as given.
NAMES = ("--out", "--factory", "--param", "--measures", "--flavor")


def _fuzz(draw, argv):
    """``argv`` with each flag's value kept or replaced by a draw of its kind."""
    out = list(argv)
    for i, word in enumerate(argv[:-1]):
        if word in NAMES or not word.startswith("--") or argv[i + 1].startswith("--") or not draw(st.booleans()):
            continue
        out[i + 1] = draw(COUNTS if word in ("--points", "--count") else DIMS if word == "--dims" else VALUES)
    return out


@st.composite
def check_argv(draw):
    factory = draw(st.sampled_from(FACTORIES))
    argv = ["check", "--factory", factory, *_factory_flags(factory), "--flavor", draw(st.sampled_from(FLAVORS)),
            "--target", "0", "--tolerance", "1e-10"]
    if draw(st.booleans()):
        argv.append("--json")
    return _fuzz(draw, argv)


@st.composite
def sweep_argv(draw, out):
    factory = draw(st.sampled_from(FACTORIES))
    param = draw(st.sampled_from(FACTORY_PARAMS[factory]))
    measures = draw(st.lists(st.sampled_from([*sorted(MEASURES), "sum"]), min_size=1, max_size=3, unique=True))
    argv = ["sweep", "--factory", factory, *_factory_flags(factory, skip=(param,)), "--param", param,
            "--start", "0", "--stop", "1", "--points", "3", "--measures", ",".join(measures),
            "--target", "0", "--out", str(out)]
    return _fuzz(draw, argv)


@st.composite
def audit_argv(draw):
    argv = ["audit", "--dims", "2,2", "--count", "3", "--seed", "0", "--flavor", draw(st.sampled_from(FLAVORS)),
            "--tolerance", "1e-10"]
    return _fuzz(draw, argv)


@pytest.fixture(scope="module")
def new_path(tmp_path_factory):
    """A fresh ``--out`` per sweep: truncating one file over and over can wait on its writeback."""
    directory = tmp_path_factory.mktemp("argv")
    names = itertools.count()
    return lambda: directory / f"{next(names)}.csv"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_skeletons_pass(new_path):
    # The unfuzzed command lines are valid, so a fuzzed one differs from a passing run only by its draws.
    for factory in FACTORIES:
        param = FACTORY_PARAMS[factory][0]
        assert run(["check", "--factory", factory, *_factory_flags(factory), "--flavor", "mixedness"])[0] == 0
        sweep = ["sweep", "--factory", factory, *_factory_flags(factory, skip=(param,)), "--param", param,
                 "--start", "0", "--stop", "1", "--points", "3", "--measures", "purity", "--out", str(new_path())]
        assert run(sweep)[0] == 0
    assert run(["audit", "--dims", "2,2", "--count", "3", "--seed", "0", "--flavor", "hs"])[0] == 0


#: Stands for a sweep's ``--out`` until the run gives it a fresh path.
OUT = "<out>"
ARGVS = st.sampled_from(["check", "sweep", "audit"]).flatmap(
    lambda command: {"check": check_argv(), "sweep": sweep_argv(OUT), "audit": audit_argv()}[command]
)
#: 71 subsystems, past numpy's 64 array axes: the dims strategy draws at most 3, and this once ended in a traceback.
WIDE_AUDIT = ["audit", "--dims", ",".join(["1"] * 70 + ["2"]), "--count", "3", "--seed", "0", "--flavor", "hs"]


@FUZZ
@given(argv=ARGVS)
@example(argv=WIDE_AUDIT)
def test_argv_ends_in_an_exit_code(new_path, argv):
    argv = [str(new_path()) if word == OUT else word for word in argv]
    code, err = run(argv)
    assert code in EXIT_CODES, argv
    if code == 2:
        assert err.startswith("error:"), (argv, err)
