"""Complementarity balances: residual identities and the mixed-state gap."""

import math

import numpy as np
import pytest
from helpers import (
    brute_nonlocal_sum,
    brute_partial_trace,
    nonlocal_coherence_hs_via_entropy,
    random_density_matrix,
    random_pure_vector,
)

import ccrkit.core
from ccrkit import (
    CCRFlavor,
    CoherenceKind,
    DensityOperator,
    PreconditionError,
    PureState,
    ValidationError,
    ccr_hs,
    ccr_inequality_gap,
    ccr_mixedness,
    ccr_vn,
    coherence_re,
    concurrence_generalized,
    correlated_coherence,
    density_from_pure,
    nonlocal_coherence_hs_direct,
    partial_trace,
    predictability_hs,
    predictability_l1,
    tensor_product,
)
from ccrkit.states import bipartite_x, ghz, haar_random_pure, qutrit_jb, w_state, werner_like


# ---------------------------------------------------------------------------
# hs flavor


def test_ccr_hs_x_state_at_one():
    report = ccr_hs(density_from_pure(bipartite_x(1.0)), 0)
    assert report.predictability.value == pytest.approx(0.5, abs=1e-12)
    assert report.local_coherence.value == pytest.approx(0.0, abs=1e-12)
    assert report.correlation_term.value == pytest.approx(0.0, abs=1e-12)
    assert report.sum == pytest.approx(0.5, abs=1e-12)
    assert report.flavor is CCRFlavor.HS_PURE


@pytest.mark.parametrize("p", [0.0, 0.4, 0.8, 1.0])
def test_ccr_hs_w_state(p):
    report = ccr_hs(density_from_pure(w_state(p)), 0)
    assert report.local_coherence.value == pytest.approx(0.0, abs=1e-12)
    assert report.predictability.value + report.correlation_term.value == pytest.approx(0.5, abs=1e-12)
    assert abs(report.residual) < 1e-12


def test_ccr_hs_balanced_ghz_target_b():
    report = ccr_hs(density_from_pure(ghz(1 / math.sqrt(2), 1 / math.sqrt(2))), 1)
    assert report.predictability.value == pytest.approx(0.0, abs=1e-12)
    assert report.local_coherence.value == pytest.approx(0.0, abs=1e-12)
    assert report.correlation_term.value == pytest.approx(0.5, abs=1e-12)
    assert abs(report.residual) < 1e-12


def test_ccr_hs_rejects_mixed_and_names_alternative():
    rho = DensityOperator((2, 2), np.eye(4) / 4)
    with pytest.raises(PreconditionError, match="ccr_mixedness"):
        ccr_hs(rho, 0)


def test_ccr_hs_needs_two_subsystems():
    rho = density_from_pure(PureState((2,), [1.0, 0.0]))
    with pytest.raises(ValidationError, match="2 subsystems"):
        ccr_hs(rho, 0)


# ---------------------------------------------------------------------------
# vn flavor


@pytest.mark.parametrize("x", [0.2, 0.6, 1 / math.sqrt(2)])
def test_ccr_vn_x_state_terms(x):
    report = ccr_vn(density_from_pure(bipartite_x(x)), 0)
    s_expected = -(x * x) * math.log(x * x) - (1 - x * x) * math.log(1 - x * x)
    assert report.local_coherence.value == pytest.approx(0.0, abs=1e-10)
    assert report.predictability.value == pytest.approx(math.log(2) - s_expected, abs=1e-10)
    assert report.correlation_term.value == pytest.approx(s_expected, abs=1e-10)
    assert report.sum == pytest.approx(math.log(2), abs=1e-10)
    assert report.bound == pytest.approx(math.log(2))
    assert report.flavor is CCRFlavor.VN_PURE_BIPARTITE


def test_ccr_vn_product_pure_state():
    psi = PureState((2, 2), np.kron([1 / math.sqrt(2), 1 / math.sqrt(2)], [1.0, 0.0]))
    report = ccr_vn(density_from_pure(psi), 0)
    assert report.correlation_term.value == pytest.approx(0.0, abs=1e-10)
    assert report.predictability.value + report.local_coherence.value == pytest.approx(
        math.log(2), abs=1e-10
    )


def test_ccr_vn_balanced_ghz():
    report = ccr_vn(density_from_pure(ghz(1 / math.sqrt(2), 1 / math.sqrt(2))), 0)
    assert report.predictability.value == pytest.approx(0.0, abs=1e-10)
    assert report.local_coherence.value == pytest.approx(0.0, abs=1e-10)
    assert report.correlation_term.value == pytest.approx(math.log(2), abs=1e-10)


def test_ccr_vn_rejects_mixed():
    with pytest.raises(PreconditionError, match="pure"):
        ccr_vn(DensityOperator((2, 2), np.eye(4) / 4), 0)


def test_ccr_vn_coherence_matches_coherence_re_bit_for_bit():
    for psi in haar_random_pure((3, 2, 4), 5, seed=41):
        for state in (psi, density_from_pure(psi)):
            for target in range(3):
                report = ccr_vn(state, target)
                assert report.local_coherence == coherence_re(partial_trace(state, [target]))


def test_ccr_vn_solves_one_spectrum_per_check(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(matrix):
        calls.append(matrix.shape)
        return eigvalsh(matrix)

    def refuse(*args, **kwargs):
        raise AssertionError("hermitian_spectrum called by ccr_vn")

    psi = next(haar_random_pure((3, 2, 4), 1, seed=42))
    rho = density_from_pure(psi)
    monkeypatch.setattr(ccrkit.core.np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(ccrkit.core, "hermitian_spectrum", refuse)
    for state in (psi, rho):
        for target in range(3):
            calls.clear()
            ccr_vn(state, target)
            assert calls == [(psi.dims[target], psi.dims[target])]


# ---------------------------------------------------------------------------
# mixedness flavor


def test_ccr_mixedness_fully_depolarized_werner():
    report = ccr_mixedness(werner_like(0.0, 0.7), 0)
    assert report.predictability.value == pytest.approx(0.0, abs=1e-12)
    assert report.local_coherence.value == pytest.approx(0.0, abs=1e-12)
    assert report.correlation_term.value == pytest.approx(0.5, abs=1e-12)
    assert report.flavor is CCRFlavor.HS_MIXEDNESS


def test_ccr_mixedness_pure_single_qudit():
    rng = np.random.default_rng(21)
    for d in (2, 3, 5):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        rho = density_from_pure(PureState((d,), z / np.linalg.norm(z)))
        report = ccr_mixedness(rho, 0)
        assert report.correlation_term.value == pytest.approx(0.0, abs=1e-10)
        assert report.sum == pytest.approx((d - 1) / d, abs=1e-12)


def test_ccr_mixedness_werner_identity():
    report = ccr_mixedness(werner_like(0.8, 0.6), 0)
    assert abs(report.residual) < 1e-12


def test_ccr_mixedness_random_states_identity():
    rng = np.random.default_rng(22)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        rho = DensityOperator((d,), random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1))))
        assert abs(ccr_mixedness(rho, 0).residual) < 1e-12


def test_ccr_mixedness_on_multipartite_target():
    rho = density_from_pure(w_state(0.3))
    for target in range(3):
        assert abs(ccr_mixedness(rho, target).residual) < 1e-12


def test_ccr_hs_and_mixedness_agree_on_pure_inputs():
    for psi in haar_random_pure((2, 3), 50, seed=23):
        rho = density_from_pure(psi)
        for target in range(2):
            hs = ccr_hs(rho, target)
            mx = ccr_mixedness(rho, target)
            assert abs(hs.predictability.value - mx.predictability.value) < 1e-12
            assert abs(hs.local_coherence.value - mx.local_coherence.value) < 1e-12
            assert abs(hs.correlation_term.value - mx.correlation_term.value) < 1e-12


# ---------------------------------------------------------------------------
# report structure


def test_report_residual_recomputable():
    report = ccr_hs(density_from_pure(w_state(0.6)), 1)
    assert report.residual == pytest.approx(report.sum - report.bound, abs=1e-14)
    recomputed = (
        report.predictability.value + report.local_coherence.value + report.correlation_term.value
    )
    assert report.sum == pytest.approx(recomputed, abs=1e-14)


def test_report_bounds_by_flavor():
    rho = density_from_pure(qutrit_jb(0.4))
    assert ccr_hs(rho, 0).bound == pytest.approx(2 / 3)
    assert ccr_vn(rho, 0).bound == pytest.approx(math.log(3))
    assert ccr_mixedness(rho, 0).bound == pytest.approx(2 / 3)


def test_bad_target_rejected():
    rho = density_from_pure(w_state(0.5))
    for fn in (ccr_hs, ccr_vn, ccr_mixedness):
        with pytest.raises(ValidationError, match="out of range"):
            fn(rho, 3)


# ---------------------------------------------------------------------------
# random-ensemble residuals (small; the acceptance suite runs the full one)


def test_residuals_on_random_pure_states():
    for i, dims in enumerate([(2, 2), (3, 3), (2, 2, 2)]):
        for psi in haar_random_pure(dims, 60, seed=30 + i):
            rho = density_from_pure(psi)
            for target in range(len(dims)):
                assert abs(ccr_hs(rho, target).residual) < 1e-12
                assert abs(ccr_vn(rho, target).residual) < 1e-10


# ---------------------------------------------------------------------------
# inequality gap


def test_gap_zero_for_pure_states():
    rho = density_from_pure(ghz(1 / math.sqrt(2), 1 / math.sqrt(2)))
    assert abs(ccr_inequality_gap(rho, 0)) < 1e-12


@pytest.mark.parametrize("psi", [ghz(0.6, 0.8), next(haar_random_pure((3, 2, 4), 1, seed=43))])
def test_gap_and_entropy_route_take_pure_states(psi):
    rho = density_from_pure(psi)
    for target in range(len(psi.dims)):
        gap = ccr_inequality_gap(psi, target)
        assert gap == pytest.approx(ccr_inequality_gap(rho, target), abs=1e-12)
        assert abs(gap) < 1e-12
        via_entropy = nonlocal_coherence_hs_via_entropy(psi, target).value
        assert via_entropy == pytest.approx(nonlocal_coherence_hs_via_entropy(rho, target).value, abs=1e-12)


def test_gap_positive_for_maximally_mixed_two_qubits():
    gap = ccr_inequality_gap(DensityOperator((2, 2), np.eye(4) / 4), 0)
    assert gap == pytest.approx(0.5, abs=1e-12)


def test_gap_positive_for_werner_tensor_projector():
    joint = tensor_product([werner_like(0.5, 1.0), DensityOperator((2,), np.diag([1.0, 0.0]))])
    gap = ccr_inequality_gap(joint, 0)
    assert gap > 1e-3


def test_gap_nonnegative_on_random_mixed_states():
    rng = np.random.default_rng(31)
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        d = int(np.prod(dims))
        for _ in range(40):
            rho = DensityOperator(dims, random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1))))
            for target in range(len(dims)):
                assert ccr_inequality_gap(rho, target) >= -1e-10


@pytest.mark.parametrize("dims", [(3, 2), (2, 3, 2), (3, 2, 4), (2, 2, 2, 2)])
def test_index_partition_sum_matches_literal_oracle(dims):
    rng = np.random.default_rng(sum(dims))
    d = math.prod(dims)
    mixed = DensityOperator(dims, random_density_matrix(d, rng))
    pure = density_from_pure(PureState(dims, random_pure_vector(d, rng)))
    rank_two = DensityOperator(dims, random_density_matrix(d, rng, rank=2))
    for rho in (mixed, pure, rank_two):
        for target in range(len(dims)):
            literal = brute_nonlocal_sum(rho.matrix, dims, target)
            assert abs(literal) > 1e-3
            reduced = brute_partial_trace(rho.matrix, dims, [target])
            # P_hs + C_hs = Tr rho_t^2 - 1/d, so the gap is 1 - Tr rho_t^2 - sum.
            expected_gap = 1.0 - np.vdot(reduced, reduced).real - literal
            assert ccr_inequality_gap(rho, target) == pytest.approx(expected_gap, abs=1e-12)
            if rho is pure:
                assert nonlocal_coherence_hs_direct(rho, target).value == pytest.approx(literal, abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (3, 2, 4), (2, 1, 3)])
def test_amplitude_route_matches_density_route(dims):
    rng = np.random.default_rng(math.prod(dims) + len(dims))
    psi = PureState(dims, random_pure_vector(math.prod(dims), rng))
    rho = density_from_pure(psi)
    for target in range(len(dims)):
        for flavor in (ccr_hs, ccr_vn, ccr_mixedness):
            fast, slow = flavor(psi, target), flavor(rho, target)
            assert (fast.flavor, fast.target, fast.bound) == (slow.flavor, slow.target, slow.bound)
            for name in ("predictability", "local_coherence", "correlation_term"):
                assert getattr(fast, name).value == pytest.approx(getattr(slow, name).value, abs=1e-12)
            assert fast.sum == pytest.approx(slow.sum, abs=1e-12)
            assert fast.residual == pytest.approx(slow.residual, abs=1e-12)
        literal = brute_nonlocal_sum(rho.matrix, dims, target)
        assert nonlocal_coherence_hs_direct(psi, target).value == pytest.approx(literal, abs=1e-12)
        assert ccr_hs(psi, target).correlation_term.value == pytest.approx(literal, abs=1e-12)


# ---------------------------------------------------------------------------
# alternate pairings on the worked families


def test_qutrit_squared_pairing_is_constant():
    for x in np.linspace(0, 1, 101):
        reduced = partial_trace(density_from_pure(qutrit_jb(x)), [0])
        p_sq = 2 * predictability_hs(reduced).value
        c_sq = concurrence_generalized(reduced).value ** 2
        assert abs(p_sq + c_sq - 4 / 3) < 1e-10
        assert abs(p_sq - (3 * x**4 - 4 * x**2 + 4 / 3)) < 1e-10


def test_qutrit_l1_pairing_is_constant():
    for x in np.linspace(0, 1, 101):
        rho = density_from_pure(qutrit_jb(x))
        total = predictability_l1(partial_trace(rho, [0])).value + correlated_coherence(
            rho, ([0], [1]), CoherenceKind.L1_NORM
        )
        assert abs(total - 2.0) < 1e-10


def test_w_state_l1_pairing_is_not_constant():
    sums = []
    for p in np.linspace(0, 1, 101):
        rho = density_from_pure(w_state(p))
        sums.append(
            predictability_l1(partial_trace(rho, [0])).value
            + correlated_coherence(rho, ([0], [1, 2]), CoherenceKind.L1_NORM)
        )
    assert max(sums) - min(sums) > 1e-3
