"""CLI surface: state files, check/sweep/audit commands, exit codes."""

import json
import math

import numpy as np
import pytest

from ccrkit import DensityOperator, PureState, ValidationError, density_from_pure, purity
from ccrkit.cli import (
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PRECONDITION,
    MEASURES,
    SweepConfig,
    main,
    parse_state_file,
    render_sweep_csv,
    serialize_state,
)
from ccrkit.states import haar_random_pure, w_state


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


def test_check_bad_amplitude_syntax_exits_2():
    code = main("check --factory ghz --a000 abc --a111 0.7 --flavor hs".split())
    assert code == EXIT_INPUT


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


def test_audit_single_subsystem_rejected():
    assert main("audit --dims 2 --count 1 --seed 1 --flavor hs".split()) == EXIT_INPUT


def test_audit_bad_dims_string():
    assert main("audit --dims 2,banana --count 1 --seed 1 --flavor hs".split()) == EXIT_INPUT


def test_audit_env_tolerance_default(monkeypatch):
    monkeypatch.setenv("CCRKIT_TOLERANCE", "0")
    assert main("audit --dims 2,2 --count 5 --seed 3 --flavor hs".split()) == EXIT_FAIL
    # explicit flag overrides the environment default
    assert (
        main("audit --dims 2,2 --count 5 --seed 3 --flavor hs --tolerance 1e-10".split())
        == EXIT_OK
    )


@pytest.mark.parametrize(
    "raw, via",
    [("lots", "env")] + [(raw, via) for raw in ("nan", "inf", "-1") for via in ("env", "flag")],
)
def test_audit_invalid_env_tolerance(monkeypatch, raw, via):
    argv = "audit --dims 2,2 --count 5 --seed 3 --flavor hs".split()
    if via == "env":
        monkeypatch.setenv("CCRKIT_TOLERANCE", raw)
    else:
        argv.append(f"--tolerance={raw}")
    assert main(argv) == EXIT_INPUT
