"""Tensor-core layer: types, partial trace, spectra, purification."""

import itertools
import math

import numpy as np
import pytest
from helpers import brute_partial_trace, dephased, random_density_matrix, random_pure_vector

import ccrkit.core
from ccrkit import (
    CapacityError,
    DensityOperator,
    DimensionSignature,
    NumericError,
    PureState,
    ValidationError,
    density_from_pure,
    hermitian_spectrum,
    linear_entropy,
    partial_trace,
    purify,
    purity,
    tensor_product,
    von_neumann_entropy,
)
from ccrkit.core import _entropy
from ccrkit.states import acin, bipartite_x, ghz, w_state, werner_like


def qubit_zero():
    return DensityOperator((2,), np.diag([1.0, 0.0]))


def plus_state():
    return DensityOperator((2,), np.full((2, 2), 0.5))


def maximally_mixed(d):
    return DensityOperator((d,), np.eye(d) / d)


# ---------------------------------------------------------------------------
# types


def test_signature_requires_nonempty():
    with pytest.raises(ValidationError):
        DimensionSignature(())


def test_signature_rejects_nonpositive_dims():
    with pytest.raises(ValidationError):
        DimensionSignature((2, 0))
    with pytest.raises(ValidationError):
        DimensionSignature((2, -1))


def test_signature_total():
    assert DimensionSignature((2, 3, 4)).total == 24
    assert len(DimensionSignature((2, 3))) == 2


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValidationError, match="normalized"):
        PureState((2,), [1.0, 1.0])


def test_pure_state_rejects_shape_mismatch():
    with pytest.raises(ValidationError, match="shape"):
        PureState((2, 2), [1.0, 0.0])


def test_density_rejects_shape_mismatch():
    with pytest.raises(ValidationError, match=r"^matrix has shape \(2, 2\), expected \(4, 4\) for signature \(2, 2\)$"):
        DensityOperator((2, 2), np.eye(2) / 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pure_state_rejects_non_finite(bad):
    with pytest.raises(ValidationError, match="NaN or infinite"):
        PureState((2,), [bad, 0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_rejects_non_finite(bad):
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = bad
    with pytest.raises(ValidationError, match="NaN or infinite"):
        DensityOperator((2,), m)


def test_pure_state_is_immutable():
    psi = PureState((2,), [1.0, 0.0])
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_density_rejects_non_hermitian():
    m = np.array([[0.5, 0.5], [0.0, 0.5]])
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityOperator((2,), m)


def test_density_rejects_wrong_trace():
    with pytest.raises(ValidationError, match="trace"):
        DensityOperator((2,), np.diag([0.45, 0.45]))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(ValidationError, match="positive semidefinite"):
        DensityOperator((2,), np.diag([1.5, -0.5]))


def test_density_accepts_tiny_negative_eigenvalue():
    rho = DensityOperator((2,), np.diag([1.0 + 5e-11, -5e-11]))
    assert rho.signature.dims == (2,)


# ---------------------------------------------------------------------------
# tensor_product / density_from_pure


def test_tensor_product_projectors():
    out = tensor_product([qubit_zero(), qubit_zero()])
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert out.signature.dims == (2, 2)
    assert np.allclose(out.matrix, expected)


def test_tensor_product_maximally_mixed():
    out = tensor_product([maximally_mixed(2), maximally_mixed(2)])
    assert out.signature.dims == (2, 2)
    assert np.allclose(out.matrix, np.eye(4) / 4)


def test_tensor_product_signature_concatenates():
    out = tensor_product([maximally_mixed(2), maximally_mixed(3), qubit_zero()])
    assert out.signature.dims == (2, 3, 2)


def test_tensor_product_needs_input():
    with pytest.raises(ValidationError):
        tensor_product([])


def test_tensor_product_capacity_cap(monkeypatch):
    big = DensityOperator((64,), np.eye(64) / 64)
    bigger = DensityOperator((128,), np.eye(128) / 128)
    with pytest.raises(CapacityError):
        tensor_product([big, bigger])
    qubits = [maximally_mixed(2)] * 3
    monkeypatch.setattr(ccrkit.core, "MAX_TOTAL_DIM", 4)
    with pytest.raises(CapacityError):
        tensor_product(qubits)
    monkeypatch.setattr(ccrkit.core, "MAX_TOTAL_DIM", 8)
    assert tensor_product(qubits).signature.total == 8


def test_density_from_pure_basis_state():
    rho = density_from_pure(PureState((2,), [1.0, 0.0]))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))
    assert abs(purity(rho) - 1.0) < 1e-12


def test_density_from_pure_bell_entries():
    psi = PureState((2, 2), np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2))
    rho = density_from_pure(psi)
    nonzero = np.abs(rho.matrix) > 1e-15
    assert nonzero.sum() == 4
    assert np.allclose(np.abs(rho.matrix[nonzero]), 0.5)


def test_x_state_at_balanced_point_matches_bell():
    psi = PureState((2, 2), np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2))
    assert np.allclose(
        density_from_pure(bipartite_x(1 / math.sqrt(2))).matrix,
        density_from_pure(psi).matrix,
    )


# ---------------------------------------------------------------------------
# partial trace


def test_partial_trace_bell_is_maximally_mixed():
    psi = PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))
    reduced = partial_trace(density_from_pure(psi), [0])
    assert reduced.signature.dims == (2,)
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_state():
    psi = PureState((2, 2), [0.0, 1.0, 0.0, 0.0])  # |0> x |1>
    reduced = partial_trace(density_from_pure(psi), [0])
    assert np.allclose(reduced.matrix, np.diag([1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.3, 0.5, 1.0])
def test_partial_trace_w_state_reduced(p):
    rho = density_from_pure(w_state(p))
    reduced = partial_trace(rho, [0])
    oracle = brute_partial_trace(rho.matrix, (2, 2, 2), [0])
    assert np.allclose(reduced.matrix, oracle, atol=1e-12)
    assert np.allclose(reduced.matrix, np.diag([1 - p / 2, p / 2]), atol=1e-12)


def test_partial_trace_matches_bruteforce_on_random_states():
    rng = np.random.default_rng(7)
    dims = (2, 3, 2)
    for _ in range(5):
        rho = DensityOperator(dims, random_density_matrix(12, rng))
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            got = partial_trace(rho, keep)
            assert np.allclose(got.matrix, brute_partial_trace(rho.matrix, dims, keep), atol=1e-12)
            assert abs(np.trace(got.matrix) - 1.0) < 1e-12


def test_partial_trace_order_commutes():
    rng = np.random.default_rng(8)
    dims = (2, 2, 3)
    rho = DensityOperator(dims, random_density_matrix(12, rng))
    direct = partial_trace(rho, [1])
    via_02 = partial_trace(partial_trace(rho, [1, 2]), [0])
    via_20 = partial_trace(partial_trace(rho, [0, 1]), [1])
    assert np.allclose(direct.matrix, via_02.matrix, atol=1e-12)
    assert np.allclose(direct.matrix, via_20.matrix, atol=1e-12)


def test_partial_trace_keep_all_is_identity():
    rho = density_from_pure(w_state(0.4))
    assert partial_trace(rho, [0, 1, 2]) is rho


def test_partial_trace_rejects_bad_keep():
    rho = density_from_pure(w_state(0.4))
    with pytest.raises(ValidationError, match="nonempty"):
        partial_trace(rho, [])
    with pytest.raises(ValidationError, match="out of range"):
        partial_trace(rho, [3])
    with pytest.raises(ValidationError, match="out of range"):
        partial_trace(rho, [-1])


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 2, 4)])
def test_partial_trace_of_pure_state_matches_density_route(dims):
    rng = np.random.default_rng(math.prod(dims))
    psi = PureState(dims, random_pure_vector(math.prod(dims), rng))
    rho = density_from_pure(psi)
    keeps = [list(c) for r in range(1, 4) for c in itertools.combinations(range(3), r)]
    assert [0, 2] in keeps and [0, 1, 2] in keeps
    for keep in keeps + [[2, 0]]:
        got = partial_trace(psi, keep)
        want = partial_trace(rho, keep)
        assert got.signature == want.signature
        assert np.allclose(got.matrix, want.matrix, rtol=0.0, atol=1e-12)


def test_partial_trace_of_pure_state_rejects_bad_keep():
    psi = w_state(0.4)
    with pytest.raises(ValidationError, match="nonempty"):
        partial_trace(psi, [])
    with pytest.raises(ValidationError, match="out of range"):
        partial_trace(psi, [3])
    with pytest.raises(ValidationError, match="out of range"):
        partial_trace(psi, [-1])


# ---------------------------------------------------------------------------
# purity / linear entropy


def test_purity_of_pure_states_is_one():
    rng = np.random.default_rng(9)
    for dims in [(2,), (2, 2), (3, 2)]:
        d = int(np.prod(dims))
        psi = PureState(dims, random_pure_vector(d, rng))
        assert abs(purity(density_from_pure(psi)) - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_purity_maximally_mixed(d):
    assert abs(purity(maximally_mixed(d)) - 1 / d) < 1e-12


def test_purity_fully_depolarized_werner():
    assert abs(purity(werner_like(0.0, 0.3)) - 0.5) < 1e-12


def test_linear_entropy_values():
    assert abs(linear_entropy(qubit_zero())) < 1e-12
    assert abs(linear_entropy(maximally_mixed(2)) - 0.5) < 1e-12
    x = 0.37
    reduced = partial_trace(density_from_pure(bipartite_x(x)), [0])
    assert abs(linear_entropy(reduced) - 2 * x**2 * (1 - x**2)) < 1e-12


# ---------------------------------------------------------------------------
# spectra and entropies


def test_spectrum_diagonal_matrix():
    spec = hermitian_spectrum(DensityOperator((2,), np.diag([0.3, 0.7])))
    assert np.allclose(spec.eigenvalues, [0.7, 0.3])


def test_spectrum_plus_projector():
    spec = hermitian_spectrum(plus_state())
    assert np.allclose(spec.eigenvalues, [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("x", [0.2, 1 / math.sqrt(2), 0.9])
def test_spectrum_x_state_reduced_schmidt(x):
    reduced = partial_trace(density_from_pure(bipartite_x(x)), [0])
    spec = hermitian_spectrum(reduced)
    expected = sorted([x**2, 1 - x**2], reverse=True)
    assert np.allclose(spec.eigenvalues, expected, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9, 16])
def test_spectrum_matches_lapack_oracle(d):
    rng = np.random.default_rng(100 + d)
    rho = DensityOperator((d,), random_density_matrix(d, rng))
    spec = hermitian_spectrum(rho)
    oracle = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
    assert np.allclose(spec.eigenvalues, oracle, atol=1e-10)
    v, w = spec.eigenvectors, spec.eigenvalues
    assert np.allclose(v @ np.diag(w) @ v.conj().T, rho.matrix, atol=1e-10)
    assert np.allclose(v.conj().T @ v, np.eye(d), atol=1e-10)
    for k in range(d):
        assert np.linalg.norm(rho.matrix @ v[:, k] - w[k] * v[:, k]) < 1e-10
    assert abs(w.sum() - 1.0) < 1e-10


def test_spectrum_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(ccrkit.core, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(NumericError, match="converge"):
        hermitian_spectrum(plus_state())


def test_vn_entropy_pure_state_is_zero():
    assert abs(von_neumann_entropy(plus_state())) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_vn_entropy_maximally_mixed(d):
    assert abs(von_neumann_entropy(maximally_mixed(d)) - math.log(d)) < 1e-12


def test_vn_entropy_x_state_reduced():
    x = 0.6
    reduced = partial_trace(density_from_pure(bipartite_x(x)), [0])
    expected = -(x**2) * math.log(x**2) - (1 - x**2) * math.log(1 - x**2)
    assert abs(von_neumann_entropy(reduced) - expected) < 1e-12


def jacobi_entropy(rho):
    """S_vn through the Jacobi eigensolver; oracle for the LAPACK route."""
    return _entropy(hermitian_spectrum(rho).eigenvalues)


@pytest.mark.parametrize("d", range(2, 9))
def test_vn_entropy_matches_jacobi_on_random_mixed_states(d):
    rng = np.random.default_rng(200 + d)
    for rank in (1, 2, d):
        rho = DensityOperator((d,), random_density_matrix(d, rng, rank=rank))
        assert abs(von_neumann_entropy(rho) - jacobi_entropy(rho)) < 1e-12


@pytest.mark.parametrize("dims", [(2, 3), (3, 2, 4), (4, 2)])
def test_vn_entropy_matches_jacobi_on_rank_deficient_reductions(dims):
    # Keeping the larger part of a pure state leaves a reduction of rank <= the rest.
    rng = np.random.default_rng(sum(dims))
    rho = density_from_pure(PureState(dims, random_pure_vector(math.prod(dims), rng)))
    for keep in ([0], list(range(1, len(dims))), list(range(len(dims) - 1))):
        reduced = partial_trace(rho, keep)
        assert abs(von_neumann_entropy(reduced) - jacobi_entropy(reduced)) < 1e-12


@pytest.mark.parametrize("diag", [[0.3, 0.7], [1.0, 0.0, 0.0], [0.1, 0.2, 0.3, 0.4], [0.25] * 4])
def test_vn_entropy_matches_jacobi_on_diagonal_inputs(diag):
    rho = DensityOperator((len(diag),), np.diag(diag))
    assert abs(von_neumann_entropy(rho) - jacobi_entropy(rho)) < 1e-12


def test_vn_entropy_lapack_failure_raises_numeric_error(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    rho = maximally_mixed(2)
    monkeypatch.setattr(ccrkit.core.np.linalg, "eigvalsh", fail)
    with pytest.raises(NumericError, match="eigenvalue solve failed"):
        von_neumann_entropy(rho)


# ---------------------------------------------------------------------------
# dephasing


def test_dephased_of_diagonal_is_identity():
    rho = DensityOperator((2,), np.diag([0.25, 0.75]))
    assert np.allclose(dephased(rho).matrix, rho.matrix)


def test_dephased_plus_projector():
    assert np.allclose(dephased(plus_state()).matrix, np.eye(2) / 2)


def test_dephased_acin_reduced():
    lam = np.array([0.5 + 0.2j, 0.4 - 0.1j, 0.6 + 0.0j, 0.3 + 0.3j])
    lam = lam / np.linalg.norm(lam)
    rho = density_from_pure(acin(*lam))
    reduced_oracle = brute_partial_trace(rho.matrix, (2, 2, 2), [0])
    reduced = partial_trace(rho, [0])
    expected = np.diag([abs(lam[0]) ** 2 + abs(lam[1]) ** 2, abs(lam[2]) ** 2 + abs(lam[3]) ** 2])
    assert np.allclose(np.diag(np.diag(reduced_oracle)), expected, atol=1e-12)
    assert np.allclose(dephased(reduced).matrix, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# purification


def test_purify_pure_input_has_unit_ancilla():
    rho = density_from_pure(PureState((2,), [0.6, 0.8]))
    psi = purify(rho)
    assert psi.signature.dims == (2, 1)
    back = partial_trace(density_from_pure(psi), [0])
    assert np.allclose(back.matrix, rho.matrix, atol=1e-10)


def test_purify_maximally_mixed_qubit():
    psi = purify(maximally_mixed(2))
    assert psi.signature.dims == (2, 2)
    rho = density_from_pure(psi)
    back = partial_trace(rho, [0])
    assert np.allclose(back.matrix, np.eye(2) / 2, atol=1e-10)
    # maximally entangled: both Schmidt coefficients are 1/2
    spec = hermitian_spectrum(back)
    assert np.allclose(spec.eigenvalues, [0.5, 0.5], atol=1e-10)


def test_purify_werner_roundtrip():
    rho = werner_like(0.5, 1.0)
    back = partial_trace(density_from_pure(purify(rho)), [0])
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10


def test_purify_random_rank_deficient():
    rng = np.random.default_rng(11)
    rho = DensityOperator((3,), random_density_matrix(3, rng, rank=2))
    psi = purify(rho)
    assert psi.signature.dims == (3, 2)
    back = partial_trace(density_from_pure(psi), [0])
    assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10


def test_ghz_reduced_single_qubit_diag():
    rho = density_from_pure(ghz(0.6, 0.8))
    for target in range(3):
        reduced = partial_trace(rho, [target])
        assert np.allclose(reduced.matrix, np.diag([0.36, 0.64]), atol=1e-12)
