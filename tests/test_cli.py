"""CLI surface: state files, check/sweep/audit commands, exit codes."""

import dataclasses
import gc
import inspect
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import ccrkit.cli
import ccrkit.core
import ccrkit.measures
from ccrkit import (
    CapacityError,
    CcrkitError,
    DensityOperator,
    NumericError,
    PreconditionError,
    PureState,
    ValidationError,
    ccr_hs,
    density_from_pure,
    nonlocal_coherence_hs_direct,
    partial_trace,
    purity,
)
from ccrkit.cli import (
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PRECONDITION,
    MEASURES,
    SweepConfig,
    _print_report,
    main,
    parse_state_file,
    render_sweep_csv,
)
from ccrkit.states import FACTORY_PARAMS, acin, build, haar_random_pure, w_state
from helpers import complex_from_pairs, random_pure_vector, serialize_state, tensor_product


BELL_DOC = {
    "dims": [2, 2],
    "kind": "pure",
    "data": [[2 ** -0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [2 ** -0.5, 0.0]],
}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# state files


def test_parse_single_qubit_pure():
    doc = {"dims": [2], "kind": "pure", "data": [[1, 0], [0, 0]]}
    state = parse_state_file(json.dumps(doc).encode())
    assert isinstance(state, PureState)
    assert np.allclose(state.amplitudes, [1.0, 0.0])


def test_parse_bell_file_is_pure():
    state = parse_state_file(json.dumps(BELL_DOC).encode())
    assert abs(purity(density_from_pure(state)) - 1.0) < 1e-12


def test_parse_density_rechecks_trace():
    doc = {
        "dims": [2],
        "kind": "density",
        "data": [[[0.45, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.45, 0.0]]],
    }
    with pytest.raises(ValidationError, match="trace"):
        parse_state_file(json.dumps(doc).encode())


def test_parse_rejects_missing_keys_and_bad_kind():
    with pytest.raises(ValidationError, match="missing keys"):
        parse_state_file(b'{"dims": [2], "kind": "pure"}')
    with pytest.raises(ValidationError, match="kind"):
        parse_state_file(json.dumps({"dims": [2], "kind": "ket", "data": [[1, 0], [0, 0]]}).encode())


def test_parse_rejects_shape_mismatch():
    doc = {"dims": [2], "kind": "pure", "data": [[1, 0]]}
    with pytest.raises(ValidationError, match="pairs"):
        parse_state_file(json.dumps(doc).encode())


def test_parse_rejects_non_json():
    with pytest.raises(ValidationError, match="JSON"):
        parse_state_file(b"\xff\xfenot json")


@pytest.mark.parametrize("doc, message", [
    (b"[2, 2]", "state file must be a JSON object"),
    (b'{"dims": [], "kind": "pure", "data": []}', "dims must be a nonempty array of integers"),
    (b'{"dims": [2, "3"], "kind": "pure", "data": []}', "dims must be a nonempty array of integers"),
    (b'{"dims": [2], "kind": "density", "data": [[[1, 0], [0, 0]]]}', "data must be an array of 2 rows for dims [2]"),
], ids=["not-an-object", "empty-dims", "string-dim", "missing-row"])
def test_check_malformed_state_document_exits_2(doc, message, tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_bytes(doc)
    assert main(["check", "--file", str(path), "--flavor", "hs"]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parse_rejects_bad_pair_entries():
    doc = {"dims": [2], "kind": "pure", "data": [[1, 0], "oops"]}
    with pytest.raises(ValidationError, match="pair"):
        parse_state_file(json.dumps(doc).encode())


def test_serialize_parse_roundtrip_pure():
    psi = next(iter(haar_random_pure((2, 3), 1, seed=17)))
    back = parse_state_file(serialize_state(psi))
    assert isinstance(back, PureState)
    assert back.signature.dims == (2, 3)
    assert np.array_equal(back.amplitudes, psi.amplitudes)


def test_serialize_parse_roundtrip_density():
    rho = density_from_pure(w_state(0.3))
    back = parse_state_file(serialize_state(rho))
    assert isinstance(back, DensityOperator)
    assert np.array_equal(back.matrix, rho.matrix)


# Entries that a per-pair complex(re, im) reads exactly: signed zeros,
# subnormals, JSON integers and the float extremes.
EDGE_NUMBERS = [-0.0, 0, 5e-324, -5e-324, 2.5e-320, 1e308, -1e308, 2**53 + 1, -(10**300), 3]


def pairs_of(values):
    return [[float(z.real), float(z.imag)] for z in values]


@pytest.mark.parametrize("kind", ["pure", "density"])
def test_parse_matches_per_pair_conversion_bit_for_bit(kind):
    rng = np.random.default_rng(23)
    for dims in [(3,), (2, 3), (2, 2, 2)]:
        n = math.prod(dims)
        # Basis states 0 and 1 carry no weight, so the edge-case entries
        # written there (an integer, signed zeros, subnormals) keep the state valid.
        vectors = [np.concatenate([[0, 0], random_pure_vector(n - 2, rng)]) for _ in range(2)]
        if kind == "pure":
            data = [[0, -0.0], [-0.0, 5e-324]] + pairs_of(vectors[0][2:])
            expected = complex_from_pairs(data)
        else:
            data = [pairs_of(row) for row in sum(0.5 * np.outer(v, v.conj()) for v in vectors)]
            data[0][:2] = [[0, 0], [-0.0, 5e-324]]
            data[1][:2] = [[0, -5e-324], [-0.0, 0]]
            expected = np.array([complex_from_pairs(row) for row in data])
        state = parse_state_file(json.dumps({"dims": list(dims), "kind": kind, "data": data}).encode())
        values = state.amplitudes if kind == "pure" else state.matrix
        assert values.tobytes() == expected.tobytes()


def test_pair_conversion_matches_per_pair_conversion_at_float_extremes():
    rng = np.random.default_rng(29)
    pairs = [[a, b] for a in EDGE_NUMBERS for b in EDGE_NUMBERS] + pairs_of(rng.standard_normal(7) * 1e300)
    got = ccrkit.cli._complex_entries(pairs, (len(pairs),))
    assert got.tobytes() == complex_from_pairs(pairs).tobytes()
    rows = [pairs[k : k + 10] for k in range(0, 100, 10)]
    got = ccrkit.cli._complex_entries(rows, (10, 10))
    assert got.tobytes() == np.array([complex_from_pairs(row) for row in rows]).tobytes()


def density_doc(rows):
    return {"dims": [2, 2], "kind": "density", "data": rows}


def diagonal_rows():
    return [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize(
    "bad", [[True, 0], ["1", 0], [1, 0, 0], [1, [0]], [None, 0]], ids=["bool", "string", "three", "nested", "null"]
)
def test_check_file_with_non_number_pair_exits_2(tmp_path, capsys, kind, bad):
    if kind == "pure":
        doc = {**BELL_DOC, "data": BELL_DOC["data"][:2] + [bad] + BELL_DOC["data"][3:]}
        where = "data[2]"
    else:
        rows = diagonal_rows()
        rows[1][2] = bad
        doc = density_doc(rows)
        where = "data[1][2]"
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["check", "--file", path, "--flavor", "mixedness"]) == EXIT_INPUT
    assert f"{where} must be a [re, im] pair of numbers" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["pure", "density"])
@pytest.mark.parametrize("bad_row", ["ragged", "not a list"])
def test_check_file_with_bad_row_exits_2(tmp_path, capsys, kind, bad_row):
    if kind == "pure":
        data = BELL_DOC["data"][:3] if bad_row == "ragged" else 5
        doc, where, count = {**BELL_DOC, "data": data}, "data", 4
    else:
        rows = diagonal_rows()
        rows[3] = rows[3][:3] if bad_row == "ragged" else 5
        doc, where, count = density_doc(rows), "data[3]", 4
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["check", "--file", path, "--flavor", "mixedness"]) == EXIT_INPUT
    assert f"{where} must be an array of {count} [re, im] pairs" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_leaves_the_garbage_collector_as_it_found_it(enabled):
    good = json.dumps(BELL_DOC).encode()
    bad = json.dumps({**BELL_DOC, "data": [[True, 0]] * 4}).encode()
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        parse_state_file(good)
        assert gc.isenabled() is enabled
        with pytest.raises(ValidationError):
            parse_state_file(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_parse_of_a_cap_file_runs_no_collection():
    raw = json.dumps(qubit_doc(12)).encode()
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        state = parse_state_file(raw)
    finally:
        gc.callbacks.remove(record)
    assert state.amplitudes.shape == (4096,)
    # The 4097 lists of the parsed JSON are freed by reference counting.
    assert collections == []


# ---------------------------------------------------------------------------
# check command


def test_check_ghz_factory_passes():
    code = main(
        "check --factory ghz --a000 0.7071 --a111 0.7071 --target 0 --flavor hs".split()
    )
    assert code == EXIT_OK


def test_check_bell_file_vn_sum_is_ln2(tmp_path, capsys):
    path = write_json(tmp_path / "bell.json", BELL_DOC)
    code = main(["check", "--file", path, "--target", "1", "--flavor", "vn", "--json"])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["sum"] == pytest.approx(math.log(2), abs=1e-10)
    assert report["flavor"] == "vn_pure_bipartite"


def test_check_werner_mixedness_identity(capsys):
    code = main("check --factory werner --w 0.5 --x 0.6 --flavor mixedness".split())
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "residual" in out and "hs_mixedness" in out


def test_check_mixed_state_with_pure_flavor_exits_3(tmp_path):
    doc = {
        "dims": [2, 2],
        "kind": "density",
        "data": [
            [[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)
        ],
    }
    path = write_json(tmp_path / "mixed.json", doc)
    assert main(["check", "--file", path, "--flavor", "hs"]) == EXIT_PRECONDITION
    assert main(["check", "--file", path, "--flavor", "vn"]) == EXIT_PRECONDITION
    assert main(["check", "--file", path, "--flavor", "mixedness"]) == EXIT_OK


@pytest.mark.parametrize("flavor", ["hs", "vn", "mixedness"])
@pytest.mark.parametrize("kind, bad", [("pure", math.nan), ("density", math.nan), ("density", math.inf)])
def test_check_non_finite_file_exits_2(tmp_path, capsys, flavor, kind, bad):
    if kind == "pure":
        doc = {**BELL_DOC, "data": [[bad, 0.0]] + BELL_DOC["data"][1:]}
    else:
        rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        rows[0][1] = rows[1][0] = [bad, 0.0]
        doc = {"dims": [2, 2], "kind": "density", "data": rows}
    path = write_json(tmp_path / "bad.json", doc)
    assert main(["check", "--file", path, "--flavor", flavor, "--json"]) == EXIT_INPUT
    assert "NaN or infinite" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["pure", "density"])
def test_check_oversized_integer_in_file_exits_2(tmp_path, capsys, kind):
    # JSON keeps 10**400 as an integer; float() of it overflows.
    if kind == "pure":
        doc = {**BELL_DOC, "data": [[10**400, 0]] + BELL_DOC["data"][1:]}
    else:
        rows = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        rows[2][3] = [10**400, 0]
        doc = {"dims": [2, 2], "kind": "density", "data": rows}
    path = write_json(tmp_path / "huge.json", doc)
    assert main(["check", "--file", path, "--flavor", "mixedness"]) == EXIT_INPUT
    assert "too large for a float" in capsys.readouterr().err


def qubit_doc(n):
    """|0...0> on n qubits as a pure state file document."""
    return {"dims": [2] * n, "kind": "pure", "data": [[1.0, 0.0]] + [[0.0, 0.0]] * (2**n - 1)}


def test_check_over_cap_pure_file_exits_2(tmp_path, capsys):
    path = write_json(tmp_path / "q13.json", qubit_doc(13))
    tracemalloc.start()
    try:
        code = main(["check", "--file", path, "--flavor", "hs"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INPUT
    assert "exceeds the configured maximum 4096" in capsys.readouterr().err
    # Well under one 8192 x 8192 complex density (1 GiB).
    assert peak < 32 * 2**20


def test_check_at_cap_pure_file_passes(tmp_path):
    path = write_json(tmp_path / "q12.json", qubit_doc(12))
    for flavor in ("hs", "vn", "mixedness"):
        assert main(["check", "--file", path, "--flavor", flavor, "--target", "5"]) == EXIT_OK


def test_one_cap_governs_tensor_product_state_files_and_audits(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(ccrkit.core, "MAX_TOTAL_DIM", 8)
    qubit = DensityOperator((2,), np.eye(2) / 2)
    with pytest.raises(CapacityError, match="maximum 8"):
        tensor_product([qubit] * 4)
    path = write_json(tmp_path / "q4.json", qubit_doc(4))
    assert main(["check", "--file", path, "--flavor", "hs"]) == EXIT_INPUT
    assert "exceeds the configured maximum 8" in capsys.readouterr().err
    with pytest.raises(CapacityError, match="maximum 8"):
        next(haar_random_pure((2,) * 4, 1, 0))
    assert main("audit --dims 2,2,2,2 --count 1 --flavor hs".split()) == EXIT_INPUT
    assert "exceeds the configured maximum 8" in capsys.readouterr().err


#: One past the subsystem limit; 27, whose density has 54 axes; past numpy's 64 axes.
WIDE_SIGNATURES = [(2,) * 17, (1,) * 26 + (2,), (1,) * 70 + (2,)]


@pytest.mark.parametrize("dims", WIDE_SIGNATURES, ids=["17", "27", "71"])
@pytest.mark.parametrize("route", ["constructor", "state-file", "audit"])
def test_a_signature_over_16_subsystems_is_refused(tmp_path, capsys, route, dims):
    message = f"{len(dims)} subsystems exceed the configured maximum 16"
    if route == "constructor":
        with pytest.raises(CapacityError, match=f"^{message}$"):
            DensityOperator(dims, np.eye(2) / 2)
        with pytest.raises(CapacityError, match=f"^{message}$"):
            PureState(dims, [1, 0])
        return
    if route == "state-file":
        doc = {"dims": list(dims), "kind": "density", "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
        argv = ["check", "--file", write_json(tmp_path / "wide.json", doc), "--flavor", "mixedness"]
    else:
        argv = ["audit", "--dims", ",".join(map(str, dims)), "--count", "1", "--flavor", "hs"]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_density_of_16_subsystems_reduces():
    rho = DensityOperator((1,) * 14 + (2, 2), np.eye(4) / 4)
    assert np.array_equal(partial_trace(rho, [15]).matrix, np.eye(2) / 2)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]], "positive semidefinite"),
        ([[[0.5, 0], [1e308, 0]], [[-1e308, 0], [0.5, 0]]], "Hermitian"),
        ([[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]], "unit trace"),
    ],
)
def test_check_density_file_with_huge_entries_exits_2(tmp_path, capsys, rows, message):
    # The suite turns RuntimeWarning into an error, so an overflow warning fails here too.
    path = write_json(tmp_path / "huge.json", {"dims": [2], "kind": "density", "data": rows})
    assert main(["check", "--file", path, "--flavor", "mixedness"]) == EXIT_INPUT
    assert message in capsys.readouterr().err


#: A pure file whose squared norm overflows; it once passed ``--flavor vn``.
OVERFLOW_NORM_DOC = {"dims": [2, 2], "kind": "pure", "data": [[1e200, 1e200], [0, 0], [0, 0], [0, 0]]}


@pytest.mark.parametrize("flavor", ["hs", "vn", "mixedness"])
def test_check_pure_file_whose_norm_overflows_exits_2(tmp_path, capsys, flavor):
    path = write_json(tmp_path / "overflow_norm.json", OVERFLOW_NORM_DOC)
    assert main(["check", "--file", path, "--flavor", flavor]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: state vector is not normalized: sum |a|^2 = inf\n"


def test_check_and_audit_never_build_the_density_of_a_pure_state(tmp_path, monkeypatch):
    def refuse(psi):
        raise AssertionError("density_from_pure called on a pure input")

    monkeypatch.setattr(ccrkit.core, "density_from_pure", refuse)
    monkeypatch.setattr(ccrkit.cli, "density_from_pure", refuse)
    path = write_json(tmp_path / "bell.json", BELL_DOC)
    for flavor in ("hs", "vn", "mixedness"):
        assert main(["check", "--file", path, "--flavor", flavor, "--target", "1"]) == EXIT_OK
        assert main(["check", "--factory", "w", "--p", "0.3", "--flavor", flavor]) == EXIT_OK
        assert main(f"audit --dims 3,2,4 --count 5 --seed 1 --flavor {flavor}".split()) == EXIT_OK


@pytest.mark.parametrize("error, code", [
    (CcrkitError, EXIT_INPUT),
    (ValidationError, EXIT_INPUT),
    (CapacityError, EXIT_INPUT),
    (PreconditionError, EXIT_PRECONDITION),
    (NumericError, EXIT_NUMERIC),
    (FileNotFoundError, EXIT_INPUT),
])
def test_main_maps_each_error_class_to_its_exit_code(monkeypatch, capsys, error, code):
    def fail(state, target):
        raise error("refused")

    monkeypatch.setitem(ccrkit.cli._FLAVOR_FUNCS, "hs", fail)
    assert main("check --factory bipartite-x --x 0.5 --flavor hs".split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: refused\n"


def test_a_residual_equal_to_the_tolerance_passes(capsys):
    assert main("check --factory bipartite-x --x 0 --flavor hs --tolerance 0".split()) == EXIT_OK
    assert "residual  0.0\n" in capsys.readouterr().out
    assert main("audit --dims 2,2 --count 3 --flavor mixedness --tolerance 0".split()) == EXIT_FAIL
    # The worst residual is roundoff whose last digits follow the CPU kernel.
    worst = re.search(r"^max\|residual\|=(\S+) .* tolerance=0\.000e\+00\nFAIL\n\Z", capsys.readouterr().out, re.M)
    assert worst is not None and 0.0 < float(worst.group(1)) <= 1e-15


@pytest.mark.parametrize(
    "command", ["check --factory bipartite-x --x 0 --flavor hs", "audit --dims 2,2 --count 3 --flavor hs"],
    ids=["check", "audit"],
)
def test_a_negative_zero_tolerance_reads_as_zero(command, capsys):
    assert math.copysign(1.0, ccrkit.cli._check_tolerance(-0.0)) == 1.0
    plus = main(f"{command} --tolerance 0".split()), capsys.readouterr()
    minus = main(f"{command} --tolerance -0".split()), capsys.readouterr()
    assert minus == plus
    assert "-0.000" not in minus[1].out


def test_numeric_failure_exits_4(monkeypatch, capsys):
    def diverge(state, target):
        raise NumericError("eigensolver did not converge")

    monkeypatch.setitem(ccrkit.cli._FLAVOR_FUNCS, "vn", diverge)
    assert main("check --factory ghz --a000 0.6 --a111 0.8 --flavor vn".split()) == EXIT_NUMERIC
    assert main("audit --dims 2,2 --count 1 --seed 1 --flavor vn".split()) == EXIT_NUMERIC
    assert "did not converge" in capsys.readouterr().err


def test_eigenvalue_solve_failure_exits_4(monkeypatch, capsys):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(ccrkit.core.np.linalg, "eigvalsh", fail)
    assert main("check --factory ghz --a000 0.6 --a111 0.8 --flavor vn".split()) == EXIT_NUMERIC
    assert "eigenvalue solve failed" in capsys.readouterr().err


def test_density_validation_solve_failure_exits_4(tmp_path, monkeypatch, capsys):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    path = tmp_path / "mixed.json"
    path.write_bytes(serialize_state(DensityOperator((2, 2), np.eye(4) / 4)))
    monkeypatch.setattr(ccrkit.core.np.linalg, "eigvalsh", fail)
    assert main(["check", "--file", str(path), "--flavor", "mixedness"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "eigenvalue solve failed" in captured.err


def test_json_report_refuses_nan():
    psi = parse_state_file(json.dumps(BELL_DOC).encode())
    report = dataclasses.replace(ccr_hs(psi, 0), residual=math.nan)
    with pytest.raises(ValueError):
        _print_report(report, as_json=True)


def test_check_malformed_file_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["check", "--file", str(path), "--flavor", "hs"]) == EXIT_INPUT


def test_check_missing_file_exits_2(tmp_path):
    assert main(["check", "--file", str(tmp_path / "nope.json"), "--flavor", "hs"]) == EXIT_INPUT


def test_check_missing_factory_param_exits_2():
    assert main("check --factory ghz --a000 0.7 --flavor hs".split()) == EXIT_INPUT


def test_check_tolerance_flag_can_force_failure():
    code = main(
        "check --factory ghz --a000 0.6 --a111 0.8 --flavor hs --tolerance 0".split()
    )
    assert code == EXIT_FAIL


def test_check_amplitude_re_im_syntax():
    code = main(
        "check --factory acin --lambda1 0.5:0.1 --lambda2 0.4:-0.2 --lambda3 0.5 "
        "--lambda4 0.3:0.3 --flavor hs".split()
    )
    assert code == EXIT_OK


@pytest.mark.parametrize(
    "argv, flag, value, code, err",
    [
        ("sweep --factory w --param p --stop 1 --points 3 --measures P_hs --out {out}", "--start", "-1e-3",
         EXIT_INPUT, "error: parameter p must lie in [0, 1], got -0.001\n"),
        ("check --factory acin --lambda1 0.6:0.2 --lambda2 0.1 --lambda4 0.2 --flavor hs", "--lambda3", "-0.3:0.5",
         EXIT_OK, ""),
        ("check --factory ghz --a000 0.6 --a111 0.8 --flavor hs", "--tolerance", "-1e-3",
         EXIT_INPUT, "error: tolerance must be a finite number >= 0, got -0.001\n"),
        ("sweep --factory w --param p --stop 1 --points 3 --measures P_hs --out {out}", "--start", "-Infinity",
         EXIT_INPUT, "error: sweep grid edges must be finite with a finite span, got -inf and 1.0\n"),
        ("audit --dims 2,2 --count 5 --flavor hs", "--tolerance", "-NaN",
         EXIT_INPUT, "error: tolerance must be a finite number >= 0, got nan\n"),
        ("check --factory acin --lambda2 0.1 --lambda3 0.1 --lambda4 0.2 --flavor hs", "--lambda1", "-inf:0",
         EXIT_INPUT, "error: amplitude parameters must be finite, with a sum of squares that fits in a float\n"),
    ],
    ids=["scientific", "re-im", "tolerance", "infinity", "nan", "inf-re-im"],
)
def test_negative_flag_values_need_no_equals_sign(argv, flag, value, code, err, tmp_path, capsys):
    # Read as a flag, the value would leave ``flag`` with "expected one argument".
    base = argv.format(out=tmp_path / "x.csv").split()
    assert main(base + [flag, value]) == code
    separate = capsys.readouterr()
    assert separate.err == err
    assert main(base + [f"{flag}={value}"]) == code
    assert capsys.readouterr() == separate


@pytest.mark.parametrize("a000", ["1e400", "nan", "1:-1e400", "1e200"])
def test_check_non_finite_amplitude_exits_2(a000, capsys):
    argv = ["check", "--factory", "ghz", f"--a000={a000}", "--a111", "1", "--flavor", "hs"]
    assert main(argv) == EXIT_INPUT
    assert "amplitude parameters must be finite" in capsys.readouterr().err


def test_check_tiny_amplitudes_match_their_ratios(capsys):
    base = "check --factory ghz --flavor hs --json".split()
    assert main(base + ["--a000", "1", "--a111", "1"]) == EXIT_OK
    want = capsys.readouterr().out
    for tiny in ("1e-200", "5e-324"):
        assert main(base + ["--a000", tiny, "--a111", tiny]) == EXIT_OK
        assert capsys.readouterr().out == want
    assert main(base + ["--a000", "0", "--a111", "0:0"]) == EXIT_INPUT
    assert "all zero" in capsys.readouterr().err


def test_warm_check_leaves_no_cyclic_garbage(capsys):
    argv = "check --factory ghz --a000 0.6 --a111 0.8 --flavor hs".split()
    assert main(argv) == EXIT_OK
    gc.collect()
    assert main(argv) == EXIT_OK
    assert gc.collect() == 0


def test_check_bad_amplitude_syntax_exits_2():
    code = main("check --factory ghz --a000 abc --a111 0.7 --flavor hs".split())
    assert code == EXIT_INPUT


def test_parse_error_names_the_flag(capsys):
    assert main("check --factory werner --w 0.5 --x abc --flavor mixedness".split()) == EXIT_INPUT
    assert "cannot parse --x 'abc'; expected 're' or 're:im'" in capsys.readouterr().err


def test_probability_flags_must_be_real(capsys):
    assert main("check --factory werner --w 0.5:0.1 --x 0.6 --flavor mixedness".split()) == EXIT_INPUT
    assert "parameter w must be real" in capsys.readouterr().err
    # A zero imaginary part is still a real value, with the same report.
    assert main("check --factory werner --w 0.5 --x 0.6 --flavor mixedness --json".split()) == EXIT_OK
    want = capsys.readouterr().out
    assert main("check --factory werner --w 0.5:0 --x 0.6:-0 --flavor mixedness --json".split()) == EXIT_OK
    assert capsys.readouterr().out == want


def test_check_refuses_a_flag_its_factory_does_not_take(capsys):
    assert main("check --factory w --p 0.5 --x 0.9 --flavor hs".split()) == EXIT_INPUT
    assert "unexpected parameters ['x']" in capsys.readouterr().err


def test_check_file_refuses_factory_flags(tmp_path, capsys):
    path = write_json(tmp_path / "bell.json", BELL_DOC)
    assert main(["check", "--file", path, "--flavor", "hs"]) == EXIT_OK
    capsys.readouterr()
    assert main(["check", "--file", path, "--w", "0.5", "--flavor", "hs"]) == EXIT_INPUT
    assert "--file takes no factory parameters, got ['w']" in capsys.readouterr().err
    assert main(["check", "--file", path, "--lambda3", "1", "--flavor", "hs"]) == EXIT_INPUT


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_factory_flags_come_from_the_factory_schema(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    names = sorted({name for names in FACTORY_PARAMS.values() for name in names})
    assert len(names) == 10
    for name in names:
        takers = ", ".join(v for v, params in FACTORY_PARAMS.items() if name in params)
        assert f"--{name} {name.upper()} 're' or 're:im' ({takers})" in help_text


# ---------------------------------------------------------------------------
# sweep command


def test_sweep_writes_expected_header_and_rows(tmp_path):
    out = tmp_path / "fig1.csv"
    code = main(
        [
            "sweep", "--factory", "werner", "--w", "1.0",
            "--param", "x", "--start", "0", "--stop", "1", "--points", "101",
            "--measures", "C_hs,P_hs,sum", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_bytes().decode().split("\n")
    assert lines[0] == "param,C_hs,P_hs,sum"
    assert len(lines) == 103 and lines[-1] == ""
    # pure (w=1) family keeps the sum column at exactly (d-1)/d
    for line in lines[1:-1]:
        assert abs(float(line.split(",")[3]) - 0.5) < 1e-10


def test_sweep_value_at_balanced_point(tmp_path):
    out = tmp_path / "point.csv"
    code = main(
        [
            "sweep", "--factory", "werner", "--w", "1.0",
            "--param", "x", "--start", "0.5", "--stop", repr(1 / math.sqrt(2)),
            "--points", "2", "--measures", "C_hs,P_hs", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    last = out.read_text().strip().split("\n")[-1].split(",")
    assert float(last[1]) == pytest.approx(0.5, abs=1e-12)   # C_hs at x = 1/sqrt(2)
    assert float(last[2]) == pytest.approx(0.0, abs=1e-12)   # P_hs at x = 1/sqrt(2)


def test_sweep_output_is_byte_stable(tmp_path):
    config = SweepConfig(
        variant="qutrit-jb",
        param="x",
        start=0.0,
        stop=1.0,
        points=21,
        measures=("P_jb_sq", "C_jb_sq", "P_l1", "C_corr_l1", "P_vn", "S_vn"),
    )
    first = render_sweep_csv(config)
    second = render_sweep_csv(config)
    assert first.encode() == second.encode()
    assert "\r" not in first


def test_sweep_qutrit_invariant_columns(tmp_path):
    config = SweepConfig(
        variant="qutrit-jb",
        param="x",
        start=0.0,
        stop=1.0,
        points=101,
        measures=("P_jb_sq", "C_jb_sq", "P_l1", "C_corr_l1", "P_vn", "S_vn"),
    )
    rows = [line.split(",") for line in render_sweep_csv(config).strip().split("\n")[1:]]
    for row in rows:
        values = [float(v) for v in row[1:]]
        assert abs(values[0] + values[1] - 4 / 3) < 1e-10
        assert abs(values[2] + values[3] - 2.0) < 1e-10


def test_sweep_w_state_pairsum_constant(tmp_path):
    config = SweepConfig(
        variant="w",
        param="p",
        start=0.0,
        stop=1.0,
        points=51,
        measures=("P_hs", "C_corr_hs_pairsum", "sum"),
    )
    rows = [line.split(",") for line in render_sweep_csv(config).strip().split("\n")[1:]]
    for row in rows:
        assert abs(float(row[3]) - 0.5) < 1e-10


def test_sweep_unwritable_path_exits_2(tmp_path):
    out = tmp_path / "missing" / "dir" / "out.csv"
    code = main(
        [
            "sweep", "--factory", "w", "--param", "p", "--start", "0", "--stop", "1",
            "--points", "3", "--measures", "P_hs", "--out", str(out),
        ]
    )
    assert code == EXIT_INPUT


def test_sweep_validation_errors_exit_2(tmp_path):
    base = [
        "sweep", "--factory", "w", "--param", "p", "--measures", "P_hs",
        "--out", str(tmp_path / "x.csv"),
    ]
    assert main(base + ["--start", "0", "--stop", "2", "--points", "3"]) == EXIT_INPUT
    assert main(base + ["--start", "0", "--stop", "1", "--points", "1"]) == EXIT_INPUT
    assert (
        main(
            [
                "sweep", "--factory", "w", "--param", "q", "--measures", "P_hs",
                "--start", "0", "--stop", "1", "--points", "3",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        == EXIT_INPUT
    )
    assert (
        main(
            [
                "sweep", "--factory", "w", "--param", "p", "--measures", "nope",
                "--start", "0", "--stop", "1", "--points", "3",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        == EXIT_INPUT
    )


def test_sweep_needs_a_column_and_a_known_variant(tmp_path, capsys):
    argv = f"sweep --factory w --param p --start 0 --stop 1 --points 3 --measures , --out {tmp_path / 'x.csv'}"
    assert main(argv.split()) == EXIT_INPUT
    assert capsys.readouterr().err == "error: sweep needs at least one measure column\n"
    assert not (tmp_path / "x.csv").exists()
    with pytest.raises(ValidationError, match=r"^unknown state variant 'nope'; expected one of \['acin', "):
        render_sweep_csv(SweepConfig("nope", "x", 0.0, 1.0, 3, ("P_hs",)))


def test_sweep_non_finite_grid_edges_exit_2(tmp_path, capsys):
    base = [
        "sweep", "--factory", "acin", "--param", "lambda1", "--points", "3",
        "--lambda2", "1", "--lambda3", "1", "--lambda4", "1", "--measures", "P_hs",
        "--out", str(tmp_path / "x.csv"),
    ]
    for edges in (["--start", "0", "--stop", "1e400"], ["--start", "nan", "--stop", "1"],
                  ["--start=-1e308", "--stop", "1e308"]):
        assert main(base + edges) == EXIT_INPUT
        assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("change, message", [
    ({"points": 3.5}, "sweep grid point count must be an integer, got 3.5"),
    ({"start": "0"}, "sweep grid edges must be real numbers, got '0' and 1.0"),
], ids=["float-points", "str-start"])
def test_library_sweep_refuses_a_non_integer_count_and_a_non_real_edge(change, message):
    # argparse types these flags on the CLI; a library caller gets ValidationError, not TypeError.
    config = dataclasses.replace(SweepConfig("w", "p", 0.0, 1.0, 3, ("P_hs",)), **change)
    with pytest.raises(ValidationError) as exc:
        render_sweep_csv(config)
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    (lambda: render_sweep_csv(SweepConfig(["w"], "p", 0.0, 1.0, 3, ("P_hs",))), "unknown state variant ['w']; "),
    (lambda: build(["w"], p=0.5), "unknown state variant ['w']; "),
    (lambda: build(None, p=0.5), "unknown state variant None; "),
    (lambda: render_sweep_csv(SweepConfig("w", "p", 0.0, 1.0, 3, ("P_hs",), None)),
     "sweep fixed parameters must be a dict keyed by parameter name, got None"),
    (lambda: render_sweep_csv(SweepConfig("w", "p", 0.0, 1.0, 3, ("P_hs",), {1: 0.5})),
     "sweep fixed parameters must be a dict keyed by parameter name, got {1: 0.5}"),
    (lambda: render_sweep_csv(SweepConfig("w", "p", 0.0, 1.0, 3, "P_hs")),
     "sweep measures must be a tuple of column names, got 'P_hs'"),
    (lambda: render_sweep_csv(SweepConfig("w", "p", 0.0, 1.0, 3, (["P_hs"],))),
     "sweep measures must be a tuple of column names, got (['P_hs'],)"),
], ids=["sweep-list-variant", "build-list-variant", "build-none-variant", "fixed-none", "fixed-int-key",
        "measures-str", "measures-list-entry"])
def test_library_sweep_refuses_malformed_variant_fixed_and_measures(call, message):
    # The CLI builds these fields itself; a library caller gets ValidationError, not TypeError.
    with pytest.raises(ValidationError) as exc:
        call()
    assert str(exc.value).startswith(message)


def _neumaier_sum(values, start=0):
    """sum() of floats as Python 3.12 and later compute it, with Neumaier's compensation."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_sweep_and_audit_totals_do_not_depend_on_the_python_version(monkeypatch, capsys):
    fixed = {"lambda2": 0.4, "lambda3": 0.5, "lambda4": 0.2, "lambda5": 0.6}
    config = SweepConfig("five-term", "lambda1", -1.0, 1.0, 11, (*MEASURES, "sum"), fixed)
    assert len(config.measures) == 19
    audit = "audit --dims 3,2,4 --count 50 --seed 9 --flavor hs".split()
    csv = render_sweep_csv(config)
    assert main(audit) == EXIT_OK
    printed = capsys.readouterr().out
    monkeypatch.setattr(ccrkit.cli, "sum", _neumaier_sum, raising=False)
    assert render_sweep_csv(config) == csv
    assert main(audit) == EXIT_OK
    assert capsys.readouterr().out == printed


def test_sweep_reduces_once_per_row(tmp_path, monkeypatch):
    calls = []
    reduce = ccrkit.cli.partial_trace

    def counting(rho, keep):
        calls.append(list(keep))
        return reduce(rho, keep)

    monkeypatch.setattr(ccrkit.cli, "partial_trace", counting)
    monkeypatch.setattr(ccrkit.measures, "partial_trace", counting)
    code = main(
        [
            "sweep", "--factory", "w", "--param", "p", "--start", "0", "--stop", "1",
            "--points", "5", "--measures", "P_hs,C_hs,S_vn,purity,C_nl_hs", "--target", "1",
            "--out", str(tmp_path / "w.csv"),
        ]
    )
    assert code == EXIT_OK
    assert calls == [[1]] * 5
    # A C_corr_* column reduces only onto the rest; the target side is the row's reduction.
    calls.clear()
    code = main(
        [
            "sweep", "--factory", "qutrit-jb", "--param", "x", "--start", "0", "--stop", "1",
            "--points", "5", "--measures", "P_l1,C_corr_l1", "--target", "1",
            "--out", str(tmp_path / "qutrit.csv"),
        ]
    )
    assert code == EXIT_OK
    assert calls == [[1], [0]] * 5


def test_sweep_looks_up_the_coherence_functions_when_a_column_runs(tmp_path, monkeypatch):
    # A C_corr_* column reaches its coherence through the cli name at call time, so a
    # wrapper put there (a counter here, a tracer elsewhere) sees every call.
    calls = {"coherence_l1": 0, "coherence_hs": 0}

    def counted(name):
        coherence = getattr(ccrkit.cli, name)

        def counting(rho):
            calls[name] += 1
            return coherence(rho)

        return counting

    for name in calls:
        monkeypatch.setattr(ccrkit.cli, name, counted(name))
    code = main(
        [
            "sweep", "--factory", "w", "--param", "p", "--start", "0", "--stop", "1",
            "--points", "3", "--measures", "C_corr_l1,C_corr_hs_pairsum", "--target", "0",
            "--out", str(tmp_path / "w.csv"),
        ]
    )
    assert code == EXIT_OK
    # Per row: joint, target and rest for C_corr_l1; joint and both halves of each of two pairs.
    assert calls == {"coherence_l1": 9, "coherence_hs": 18}


@pytest.mark.parametrize("column", ["C_corr_l1", "C_corr_hs_pairsum"])
def test_sweep_correlated_column_refuses_a_function_that_is_not_a_coherence(column, tmp_path, capsys, monkeypatch):
    # Both C_corr_* routes run measures._correlated_coherence, which checks the kind of its first result.
    name = "coherence_l1" if column.endswith("l1") else "coherence_hs"
    monkeypatch.setattr(ccrkit.cli, name, ccrkit.measures.predictability_hs)
    code = main(
        [
            "sweep", "--factory", "w", "--param", "p", "--start", "0", "--stop", "1",
            "--points", "3", "--measures", column, "--target", "0", "--out", str(tmp_path / "w.csv"),
        ]
    )
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: coherence must be coherence_hs, coherence_l1 or coherence_re")


def test_sweep_nonlocal_column_checks_like_the_public_measure(capsys, tmp_path):
    psi = density_from_pure(acin(0.5, 0.3j, -0.4, 0.2 + 0.1j))
    for target in range(3):
        reduced = partial_trace(psi, [target])
        assert MEASURES["C_nl_hs"](psi, reduced, target) == nonlocal_coherence_hs_direct(psi, target).value
    mixed = DensityOperator((2, 2), np.eye(4) / 4)
    with pytest.raises(PreconditionError, match="global purity"):
        MEASURES["C_nl_hs"](mixed, partial_trace(mixed, [0]), 0)
    # The werner family is one qubit, so it fails the partner check first.
    argv = ["sweep", "--factory", "werner", "--x", "0.6", "--param", "w", "--start", "0.5", "--stop", "1",
            "--points", "2", "--measures", "C_nl_hs", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == EXIT_INPUT
    assert "at least 2 subsystems" in capsys.readouterr().err


@pytest.mark.parametrize("flavor", ["hs", "vn"])
def test_check_pure_only_flavor_on_one_subsystem_pure_state_exits_2(flavor, capsys, tmp_path):
    # The mixed one-qubit case (werner) is pinned in the golden battery.
    path = write_json(tmp_path / "pure.json", {"dims": [2], "kind": "pure", "data": [[0.6, 0], [0.8, 0]]})
    assert main(["check", "--file", path, "--flavor", flavor]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: a correlation term needs at least 2 subsystems\n"


@pytest.mark.parametrize(
    "measure", ["C_corr_hs", "C_corr_l1", "C_corr_re", "C_corr_hs_pairsum", "C_corr_l1_pairsum"]
)
def test_sweep_correlation_columns_need_a_partner(measure, capsys, tmp_path):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--factory", "werner", "--x", "0.6", "--param", "w", "--start", "0.5", "--stop", "1",
            "--points", "2", "--measures", measure, "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert "at least 2 subsystems" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_partner_columns_are_the_ones_a_one_subsystem_state_refuses(capsys, tmp_path):
    partner_columns = ccrkit.cli.PARTNER_COLUMNS
    assert partner_columns < MEASURES.keys()
    for name in MEASURES:
        out = tmp_path / f"{name}.csv"
        argv = ["sweep", "--factory", "werner", "--x", "0.6", "--param", "w", "--start", "0.5", "--stop", "1",
                "--points", "2", "--measures", name, "--out", str(out)]
        if name in partner_columns:
            assert main(argv) == EXIT_INPUT, name
            assert capsys.readouterr().err == "error: a correlation term needs at least 2 subsystems\n"
            assert not out.exists()
        else:
            assert main(argv) == EXIT_OK, name
            assert out.exists()


@pytest.mark.parametrize("target", ["3", "-1"])
def test_sweep_target_out_of_range_has_the_check_message(target, capsys, tmp_path):
    out = tmp_path / "t.csv"
    argv = ["sweep", "--factory", "w", "--param", "p", "--start", "0", "--stop", "1", "--points", "3",
            "--measures", "P_hs", "--target", target, "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    sweep_err = capsys.readouterr().err
    assert main(["check", "--factory", "w", "--p", "0.5", "--flavor", "hs", "--target", target]) == EXIT_INPUT
    assert sweep_err == capsys.readouterr().err == f"error: target subsystem {target} out of range for 3 subsystems\n"
    assert not out.exists()


def test_sweep_refuses_a_swept_parameter_also_fixed(capsys, tmp_path):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--factory", "w", "--param", "p", "--p", "0.3", "--start", "0", "--stop", "1",
            "--points", "3", "--measures", "P_hs", "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert "'p' is swept" in capsys.readouterr().err
    assert not out.exists()
    config = SweepConfig(variant="w", param="p", start=0.0, stop=1.0, points=3, measures=("P_hs",),
                         fixed={"p": 0.3})
    with pytest.raises(ValidationError, match="'p' is swept"):
        render_sweep_csv(config)


def test_sweep_refuses_a_flag_its_factory_does_not_take(capsys, tmp_path):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--factory", "w", "--param", "p", "--x", "0.3", "--start", "0", "--stop", "1",
            "--points", "3", "--measures", "P_hs", "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert "unexpected parameters ['x']" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_out_of_range_edge_writes_no_file(capsys, tmp_path):
    out = tmp_path / "x.csv"
    argv = ["sweep", "--factory", "werner", "--x", "0.6", "--param", "w", "--start", "0", "--stop", "1.5",
            "--points", "4", "--measures", "P_hs", "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert "parameter w must lie in [0, 1], got 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_measure_registry_names_cover_figures():
    for name in ("P_hs", "C_hs", "P_vn", "S_vn", "P_l1", "C_l1", "C_nl_hs",
                 "C_corr_hs", "C_corr_l1", "C_corr_hs_pairsum", "P_jb_sq", "C_jb_sq"):
        assert name in MEASURES


# ---------------------------------------------------------------------------
# audit command


def test_audit_hs_passes(capsys):
    code = main("audit --dims 2,2,2 --count 1000 --seed 42 --flavor hs --tolerance 1e-12".split())
    assert code == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_audit_vn_passes():
    code = main("audit --dims 3,3 --count 500 --seed 7 --flavor vn --tolerance 1e-10".split())
    assert code == EXIT_OK


def test_audit_over_cap_dims_exits_2(capsys):
    tracemalloc.start()
    try:
        code = main("audit --dims 2,2,2,2,2,2,2,2,2,2,2,2,2 --count 1 --flavor hs".split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_INPUT
    assert "exceeds the configured maximum 4096" in capsys.readouterr().err
    assert peak < 2**20


def test_audit_negative_seed_exits_2(capsys):
    assert main("audit --dims 2,2 --count 3 --seed -1 --flavor hs".split()) == EXIT_INPUT
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_audit_single_subsystem_rejected():
    assert main("audit --dims 2 --count 1 --seed 1 --flavor hs".split()) == EXIT_INPUT


def test_audit_bad_dims_string():
    assert main("audit --dims 2,banana --count 1 --seed 1 --flavor hs".split()) == EXIT_INPUT


def test_audit_passes_at_the_default_tolerance_flag():
    assert (
        main("audit --dims 2,2 --count 5 --seed 3 --flavor hs --tolerance 1e-10".split())
        == EXIT_OK
    )


@pytest.mark.parametrize("raw", ["nan", "inf", "-1"], ids=lambda raw: f"{raw}-flag")
def test_audit_invalid_tolerance_flag_exits_2(raw):
    assert main(f"audit --dims 2,2 --count 5 --seed 3 --flavor hs --tolerance={raw}".split()) == EXIT_INPUT


@pytest.mark.parametrize("argv", [
    "check --factory ghz --a000 0.7071 --a111 0.7071 --target 0 --flavor hs",
    "audit --dims 2,2,2 --count 1000 --seed 42 --flavor hs",
], ids=["check", "audit"])
def test_tolerance_environment_variable_changes_nothing(argv, monkeypatch, capsys):
    monkeypatch.delenv("CCRKIT_TOLERANCE", raising=False)
    assert main(argv.split()) == EXIT_OK
    plain = capsys.readouterr()
    monkeypatch.setenv("CCRKIT_TOLERANCE", "0")
    assert main(argv.split()) == EXIT_OK
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("flavor", sorted(ccrkit.cli._FLAVOR_FUNCS))
def test_audit_calls_its_balance_once_per_state_and_target(flavor, monkeypatch):
    # The traced benchmark run checks these counts against its audit inputs; it
    # counts states through haar_random_pure, which must stay a generator function.
    assert inspect.isgeneratorfunction(haar_random_pure)
    balance = ccrkit.cli._FLAVOR_FUNCS[flavor]
    targets, drawn = [], []

    def counted_balance(state, target):
        targets.append(target)
        return balance(state, target)

    def counted_states(*args):
        for psi in haar_random_pure(*args):
            drawn.append(psi)
            yield psi

    monkeypatch.setitem(ccrkit.cli._FLAVOR_FUNCS, flavor, counted_balance)
    monkeypatch.setattr(ccrkit.ccr, "haar_random_pure", counted_states)
    assert main(f"audit --dims 2,3,2 --count 7 --seed 5 --flavor {flavor}".split()) == EXIT_OK
    assert targets == [0, 1, 2] * 7
    assert len(drawn) == 7


@pytest.mark.parametrize("flavor", ["hs", "vn", "mixedness"])
def test_audit_wraps_no_reduced_state_per_check(flavor, monkeypatch):
    # The balances read the reduced matrix as a plain ndarray: the one signature
    # an audit builds is the one it parses from --dims.
    calls = {"density": 0, "signature": 0}
    density_unchecked = ccrkit.core._density_unchecked
    post_init = ccrkit.core.DimensionSignature.__post_init__

    def counted_density(*args):
        calls["density"] += 1
        return density_unchecked(*args)

    def counted_signature(self):
        calls["signature"] += 1
        post_init(self)

    monkeypatch.setattr(ccrkit.core, "_density_unchecked", counted_density)
    monkeypatch.setattr(ccrkit.core.DimensionSignature, "__post_init__", counted_signature)
    assert main(f"audit --dims 2,2,2 --count 5 --seed 3 --flavor {flavor}".split()) == EXIT_OK
    assert calls == {"density": 0, "signature": 1}


@pytest.mark.parametrize("argv", [
    "sweep --factory werner --w 1.0 --param x --start 0 --stop 1 --points {n} --measures P_hs --out big.csv",
    "audit --dims 2,2 --count {n} --flavor hs",
])
def test_over_cap_points_and_count_exit_2_before_allocating(argv, monkeypatch, capsys, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated")

    monkeypatch.setattr(ccrkit.cli.np, "linspace", refuse)
    monkeypatch.setattr(ccrkit.ccr, "haar_random_pure", refuse)
    monkeypatch.chdir(tmp_path)
    assert main(argv.format(n=ccrkit.cli.MAX_COUNT + 1).split()) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "1000000" in err
    assert not (tmp_path / "big.csv").exists()
    # At the cap itself the command gets past its checks to the first allocation.
    with pytest.raises(AssertionError, match="allocated"):
        main(argv.format(n=ccrkit.cli.MAX_COUNT).split())


# ---------------------------------------------------------------------------
# flag errors


_GHZ_CHECK = "check --factory ghz --a000 1 --a111 1 --flavor hs"
_WERNER_SWEEP = "sweep --factory werner --w 1 --param x --stop 1 --measures P_hs --out {out}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (f"{_GHZ_CHECK} --tolerance abc", "argument --tolerance: invalid float value: 'abc'"),
        (f"{_GHZ_CHECK} --target x", "argument --target: invalid int value: 'x'"),
        (f"{_WERNER_SWEEP} --start 0 --points abc", "argument --points: invalid int value: 'abc'"),
        (f"{_WERNER_SWEEP} --start abc --points 3", "argument --start: invalid float value: 'abc'"),
        ("audit --dims 2,2 --count x --flavor hs", "argument --count: invalid int value: 'x'"),
        ("audit --dims 2,2 --count 2 --seed x --flavor hs", "argument --seed: invalid int value: 'x'"),
        ("audit --dims 2,2 --count 2 --flavor hs --bogus", "unrecognized arguments: --bogus"),
    ],
    ids=["tolerance", "target", "points", "start", "count", "seed", "unknown-flag"],
)
def test_flag_errors_return_exit_2_with_one_error_line(argv, message, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(argv.format(out=out).split()) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()
