"""Fuzzed state files: ``check --file`` ends in an exit code, never a traceback.

Hypothesis draws malformed documents (any JSON, or the right keys holding
anything) and near-valid ones (the right shapes, with entries across the whole
float range, both signs, integers past 2**53, and vectors or matrices scaled
to unit norm or trace so that some are valid).  Every run must return an exit
code in {0, 1, 2, 3, 4}; an exit 2 prints an ``error:`` line; and an exit 0
means the file passes a validity check written here, independent of ccrkit's
constructors.  Runs are derandomized so the suite is reproducible.
"""

import contextlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccrkit.cli import main
from ccrkit.core import NORM_ATOL

FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

EXIT_CODES = {0, 1, 2, 3, 4}

#: The file whose squared norm overflows; it once passed ``--flavor vn``.
OVERFLOW_NORM_FILE = b'{"dims":[2,2],"kind":"pure","data":[[1e200,1e200],[0,0],[0,0],[0,0]]}'
#: A ``data`` nested past Python's recursion limit, and an entry past its 4300-digit integer limit:
#: the strategies below draw neither, and each once ended in a traceback.
DEEP_FILE = b'{"dims":[2],"kind":"pure","data":' + b"[" * 5000 + b"]" * 5000 + b"}"
LONG_INTEGER_FILE = b'{"dims":[2],"kind":"pure","data":[[1' + b"0" * 4999 + b',0],[0,0]]}'

# Entries across the float range: 1e-320 to 1e308 in magnitude, both signs, plus
# exact small values, signed zeros and integers past 2**53 (to about 1e21).
MAGNITUDES = st.builds(
    lambda mantissa, exponent: float(f"{mantissa}e{exponent}"),
    st.integers(1, 9),
    st.integers(-320, 308),
)
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2**-0.5, 0, 1]),
    MAGNITUDES,
    MAGNITUDES.map(lambda x: -x),
    st.integers(-(2**70), 2**70),
    st.floats(-1.0, 1.0),
)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(allow_nan=False), st.text(max_size=4)
)
ANY_JSON = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=12,
)
DIMS = st.lists(st.integers(1, 3), min_size=1, max_size=3)


def _unit(values, power):
    """``values`` divided by their overflow-safe (sum |v|^power)^(1/power), when that is finite and nonzero."""
    scale = float(np.max(np.abs(values), initial=0.0))
    if not math.isfinite(scale) or scale == 0.0:
        return values
    scaled = values / scale
    return scaled / float(np.sum(np.abs(scaled) ** power)) ** (1.0 / power)


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


@st.composite
def near_valid_documents(draw):
    """A document with the right keys and shapes; its entries may or may not make a state."""
    dims = draw(DIMS)
    total = math.prod(dims)
    kind = draw(st.sampled_from(["pure", "density"]))
    raw = draw(st.lists(st.tuples(ENTRIES, ENTRIES), min_size=total, max_size=total))
    normalize = draw(st.booleans())
    with np.errstate(all="ignore"):
        return {"dims": dims, "kind": kind, "data": _data(draw, kind, raw, normalize)}


def _data(draw, kind, raw, normalize):
    total = len(raw)
    if normalize:
        # Python ints past the float range raise OverflowError; such an entry stays unscaled.
        try:
            amps = np.array([complex(re, im) for re, im in raw])
        except OverflowError:
            normalize = False
    if kind == "pure":
        data = _pairs(_unit(amps, 2)) if normalize else [list(pair) for pair in raw]
    elif normalize:
        # A rank-one density from the unit vector, or a diagonal one with unit trace.
        vector = _unit(amps, 2)
        matrix = np.outer(vector, vector.conj()) if draw(st.booleans()) else np.diag(_unit(np.abs(amps), 1))
        data = [_pairs(row) for row in matrix]
    else:
        data = [[list(raw[(i + j) % total]) for j in range(total)] for i in range(total)]
    return data


@st.composite
def malformed_documents(draw):
    """Any JSON value, or an object with the three keys holding anything."""
    if draw(st.booleans()):
        return draw(ANY_JSON)
    return {
        "dims": draw(st.one_of(DIMS, ANY_JSON)),
        "kind": draw(st.one_of(st.sampled_from(["pure", "density", "mixed"]), ANY_JSON)),
        "data": draw(ANY_JSON),
    }


FILES = st.one_of(
    near_valid_documents().map(lambda doc: json.dumps(doc).encode("utf-8")),
    malformed_documents().map(lambda doc: json.dumps(doc).encode("utf-8")),
    st.binary(max_size=16),
)


def passes_independent_check(text):
    """Whether a state file is valid by checks written apart from ccrkit's constructors."""
    doc = json.loads(text)
    with np.errstate(all="ignore"):
        if doc["kind"] == "pure":
            amps = np.array([complex(re, im) for re, im in doc["data"]])
            if not np.all(np.isfinite(amps)):
                return False
            scale = float(np.max(np.abs(amps)))
            # Scaling first keeps the norm finite for entries near the float limit.
            return scale > 0.0 and abs(scale * np.linalg.norm(amps / scale) - 1.0) <= NORM_ATOL
        matrix = np.array([[complex(re, im) for re, im in row] for row in doc["data"]])
        return bool(
            np.all(np.isfinite(matrix))
            and np.max(np.abs(matrix - matrix.conj().T)) <= NORM_ATOL
            and abs(np.trace(matrix) - 1.0) <= NORM_ATOL
        )


@pytest.fixture(scope="module")
def new_path(tmp_path_factory):
    """A fresh file name per call: truncating one file over and over can wait on its writeback."""
    directory = tmp_path_factory.mktemp("fuzz")
    names = itertools.count()
    return lambda: directory / f"{next(names)}.json"


@FUZZ
@given(data=FILES, flavor=st.sampled_from(["hs", "vn", "mixedness"]), target=st.integers(0, 2))
@example(data=OVERFLOW_NORM_FILE, flavor="vn", target=0)
@example(data=OVERFLOW_NORM_FILE, flavor="hs", target=1)
@example(data=DEEP_FILE, flavor="hs", target=0)
@example(data=LONG_INTEGER_FILE, flavor="mixedness", target=0)
def test_check_file_ends_in_an_exit_code(new_path, data, flavor, target):
    state_path = new_path()
    state_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--file", str(state_path), "--flavor", flavor, "--target", str(target)])
    assert code in EXIT_CODES
    if code == 2:
        assert err.getvalue().startswith("error:")
    if code == 0:
        assert passes_independent_check(data.decode("utf-8")), data
