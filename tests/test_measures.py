"""Complementarity quantifiers: worked values, identities, and bounds."""

import math

import numpy as np
import pytest
from helpers import brute_offdiag_defect, dephased, nonlocal_coherence_hs_via_entropy, random_density_matrix, xlogx

from ccrkit import (
    CoherenceKind,
    DensityOperator,
    MeasureKind,
    MeasureValue,
    NumericError,
    PreconditionError,
    PureState,
    ValidationError,
    coherence_hs,
    coherence_l1,
    coherence_re,
    concurrence_generalized,
    correlated_coherence,
    density_from_pure,
    nonlocal_coherence_hs_direct,
    partial_trace,
    predictability_hs,
    predictability_l1,
    predictability_vn,
    satisfies_offdiag_conditions,
    tensor_product,
    von_neumann_entropy,
)
from ccrkit.states import acin, bipartite_x, five_term, ghz, haar_random_pure, qutrit_jb, w_state


def mixed(d):
    return DensityOperator((d,), np.eye(d) / d)


def plus():
    return DensityOperator((2,), np.full((2, 2), 0.5))


def reduced_of(psi, target=0):
    return partial_trace(density_from_pure(psi), [target])


# ---------------------------------------------------------------------------
# MeasureValue


def test_measure_value_clamps_roundoff_negatives():
    mv = MeasureValue(-1e-12, 0.5, MeasureKind.P_HS)
    assert mv.value == 0.0


def test_measure_value_rejects_genuine_negatives():
    with pytest.raises(ValidationError, match="negative"):
        MeasureValue(-1e-6, 0.5, MeasureKind.P_HS)


def test_measure_value_rejects_bound_violation():
    with pytest.raises(ValidationError, match="bound"):
        MeasureValue(0.7, 0.5, MeasureKind.C_HS)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_measure_value_rejects_non_finite(bad):
    with pytest.raises(NumericError, match="not a finite number"):
        MeasureValue(bad, 0.5, MeasureKind.C_HS)


# ---------------------------------------------------------------------------
# predictabilities


def test_predictability_hs_values():
    assert predictability_hs(mixed(2)).value == pytest.approx(0.0, abs=1e-12)
    basis = DensityOperator((2,), np.diag([1.0, 0.0]))
    assert predictability_hs(basis).value == pytest.approx(0.5, abs=1e-12)
    assert predictability_hs(basis).bound == pytest.approx(0.5)


def test_predictability_hs_w_state_half():
    assert predictability_hs(reduced_of(w_state(0.5))).value == pytest.approx(0.125, abs=1e-12)


@pytest.mark.parametrize("p", np.linspace(0, 1, 7))
def test_predictability_hs_w_state_closed_form(p):
    expected = 0.5 - p + p * p / 2
    assert predictability_hs(reduced_of(w_state(p))).value == pytest.approx(expected, abs=1e-12)


def test_predictability_vn_values():
    assert predictability_vn(mixed(2)).value == pytest.approx(0.0, abs=1e-12)
    basis = DensityOperator((2,), np.diag([1.0, 0.0]))
    assert predictability_vn(basis).value == pytest.approx(math.log(2), abs=1e-12)
    x = 0.4
    expected = math.log(2) + xlogx(x * x) + xlogx(1 - x * x)
    assert predictability_vn(reduced_of(bipartite_x(x))).value == pytest.approx(expected, abs=1e-12)


def test_predictability_l1_values():
    assert predictability_l1(mixed(3)).value == pytest.approx(0.0, abs=1e-12)
    basis = DensityOperator((2,), np.diag([1.0, 0.0]))
    assert predictability_l1(basis).value == pytest.approx(1.0, abs=1e-12)
    x = 0.8
    expected = 1 - 2 * x * math.sqrt(1 - x * x)
    assert predictability_l1(reduced_of(bipartite_x(x))).value == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# coherences


def test_coherence_hs_values():
    assert coherence_hs(mixed(2)).value == 0.0
    assert coherence_hs(plus()).value == pytest.approx(0.5, abs=1e-12)


def test_coherence_hs_acin_uniform_lambdas():
    rho = density_from_pure(acin(0.5, 0.5, 0.5, 0.5))
    # 2 |l1 l3* + l2 l4*|^2 at l = (1/2, 1/2, 1/2, 1/2)
    assert coherence_hs(partial_trace(rho, [0])).value == pytest.approx(0.5, abs=1e-12)


def test_coherence_hs_acin_formula_random():
    rng = np.random.default_rng(3)
    lam = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = acin(*lam)
    lam = psi.amplitudes[[0b000, 0b011, 0b100, 0b111]]
    expected = 2 * abs(lam[0] * np.conj(lam[2]) + lam[1] * np.conj(lam[3])) ** 2
    value = coherence_hs(reduced_of(psi)).value
    assert value == pytest.approx(expected, abs=1e-12)


def test_coherence_l1_values():
    assert coherence_l1(mixed(3)).value == 0.0
    assert coherence_l1(plus()).value == pytest.approx(1.0, abs=1e-12)


def test_coherence_l1_qutrit_global_minus_local():
    x = 0.55
    rho = density_from_pure(qutrit_jb(x))
    expected = 2 * (x * x / 2 + math.sqrt(2 * x * x * (1 - x * x)))
    got = correlated_coherence(rho, ([0], [1]), CoherenceKind.L1_NORM)
    assert got == pytest.approx(expected, abs=1e-12)


def test_coherence_re_values():
    assert coherence_re(DensityOperator((2,), np.diag([0.3, 0.7]))).value == pytest.approx(0.0, abs=1e-12)
    assert coherence_re(plus()).value == pytest.approx(math.log(2), abs=1e-12)
    # reduced state of the two-qubit x family is diagonal
    assert coherence_re(reduced_of(bipartite_x(0.3))).value == pytest.approx(0.0, abs=1e-12)


def test_coherence_re_below_dephased_entropy():
    rng = np.random.default_rng(4)
    for d in (2, 3, 4):
        for _ in range(20):
            rho = DensityOperator((d,), random_density_matrix(d, rng))
            assert coherence_re(rho).value <= von_neumann_entropy(dephased(rho)) + 1e-10


# ---------------------------------------------------------------------------
# non-local coherence: direct sum vs entropy oracle


def test_nonlocal_zero_for_product_pure_state():
    psi = PureState((2, 2), np.kron([1 / math.sqrt(2), 1 / math.sqrt(2)], [1.0, 0.0]))
    rho = density_from_pure(psi)
    assert nonlocal_coherence_hs_direct(rho, 0).value == pytest.approx(0.0, abs=1e-12)
    assert nonlocal_coherence_hs_via_entropy(rho, 0).value == pytest.approx(0.0, abs=1e-12)


def test_nonlocal_balanced_ghz_all_targets():
    rho = density_from_pure(ghz(1 / math.sqrt(2), 1 / math.sqrt(2)))
    for target in range(3):
        assert nonlocal_coherence_hs_direct(rho, target).value == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("x", [0.0, 0.3, 1 / math.sqrt(2), 0.95, 1.0])
def test_nonlocal_x_state_closed_form(x):
    rho = density_from_pure(bipartite_x(x))
    expected = 2 * x * x * (1 - x * x)
    assert nonlocal_coherence_hs_direct(rho, 0).value == pytest.approx(expected, abs=1e-12)
    assert nonlocal_coherence_hs_via_entropy(rho, 0).value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.7, 1.0])
def test_nonlocal_w_state_closed_form(p):
    rho = density_from_pure(w_state(p))
    expected = p * p / 2 + p * (1 - p)
    assert nonlocal_coherence_hs_via_entropy(rho, 0).value == pytest.approx(expected, abs=1e-12)
    assert nonlocal_coherence_hs_direct(rho, 0).value == pytest.approx(expected, abs=1e-12)


def test_nonlocal_five_term_closed_form():
    rng = np.random.default_rng(5)
    for _ in range(10):
        psi = five_term(*rng.standard_normal(5))
        lam2 = np.abs(psi.amplitudes[[0b000, 0b001, 0b010, 0b100, 0b111]]) ** 2
        expected = 2 * (
            lam2[0] * lam2[4]
            + lam2[1] * lam2[3]
            + lam2[1] * lam2[4]
            + lam2[2] * lam2[3]
            + lam2[2] * lam2[4]
        )
        got = nonlocal_coherence_hs_direct(density_from_pure(psi), 0).value
        assert got == pytest.approx(expected, abs=1e-12)


def test_nonlocal_direct_equals_entropy_on_random_states():
    for i, dims in enumerate([(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)]):
        for psi in haar_random_pure(dims, 40, seed=50 + i):
            rho = density_from_pure(psi)
            for target in range(len(dims)):
                direct = nonlocal_coherence_hs_direct(rho, target).value
                entropy = nonlocal_coherence_hs_via_entropy(rho, target).value
                assert abs(direct - entropy) < 1e-12
                assert direct >= -1e-12


def test_nonlocal_rejects_mixed_input():
    rho = DensityOperator((2, 2), np.eye(4) / 4)
    with pytest.raises(PreconditionError, match="pure"):
        nonlocal_coherence_hs_direct(rho, 0)
    with pytest.raises(PreconditionError, match="pure"):
        nonlocal_coherence_hs_via_entropy(rho, 0)


def test_nonlocal_rejects_bad_target():
    rho = density_from_pure(bipartite_x(0.5))
    with pytest.raises(ValidationError, match="out of range"):
        nonlocal_coherence_hs_direct(rho, 2)
    single = density_from_pure(PureState((2,), [1.0, 0.0]))
    with pytest.raises(ValidationError, match="2 subsystems"):
        nonlocal_coherence_hs_direct(single, 0)


# ---------------------------------------------------------------------------
# algebraic identities and bounds


def test_hs_pair_sums_to_purity_identity():
    rng = np.random.default_rng(6)
    for d in (2, 3, 4, 6):
        for _ in range(25):
            rho = DensityOperator((d,), random_density_matrix(d, rng, rank=rng.integers(1, d + 1)))
            lhs = predictability_hs(rho).value + coherence_hs(rho).value
            rhs = np.vdot(rho.matrix, rho.matrix).real - 1 / d
            assert abs(lhs - rhs) < 1e-12


def test_all_measures_within_bounds_on_random_inputs():
    rng = np.random.default_rng(12)
    reduced_measures = (
        predictability_hs,
        predictability_vn,
        predictability_l1,
        coherence_hs,
        coherence_l1,
        coherence_re,
        concurrence_generalized,
    )
    for _ in range(500):
        d = int(rng.integers(2, 6))
        rho = DensityOperator((d,), random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1))))
        for fn in reduced_measures:
            mv = fn(rho)
            assert 0.0 <= mv.value <= mv.bound + 1e-10
    for i, dims in enumerate([(2, 2), (2, 3), (2, 2, 2)]):
        for psi in haar_random_pure(dims, 170, seed=60 + i):
            rho = density_from_pure(psi)
            for target in range(len(dims)):
                mv = nonlocal_coherence_hs_direct(rho, target)
                assert 0.0 <= mv.value <= mv.bound + 1e-10


# ---------------------------------------------------------------------------
# correlated coherence


@pytest.mark.parametrize("x", [0.2, 0.6, 1 / math.sqrt(2)])
def test_correlated_l1_x_state(x):
    rho = density_from_pure(bipartite_x(x))
    expected = 2 * x * math.sqrt(1 - x * x)
    assert correlated_coherence(rho, ([0], [1]), CoherenceKind.L1_NORM) == pytest.approx(expected, abs=1e-12)


def test_correlated_l1_zero_for_coherent_times_incoherent():
    joint = tensor_product([plus(), DensityOperator((2,), np.diag([0.7, 0.3]))])
    got = correlated_coherence(joint, ([0], [1]), CoherenceKind.L1_NORM)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_correlated_re_zero_on_products():
    rng = np.random.default_rng(13)
    for _ in range(10):
        a = DensityOperator((2,), random_density_matrix(2, rng))
        b = DensityOperator((3,), random_density_matrix(3, rng))
        joint = tensor_product([a, b])
        got = correlated_coherence(joint, ([0], [1]), CoherenceKind.RELATIVE_ENTROPY)
        assert abs(got) < 1e-10


def test_correlated_hs_negative_for_coherent_times_mixed_incoherent():
    joint = tensor_product([plus(), mixed(2)])
    got = correlated_coherence(joint, ([0], [1]), CoherenceKind.HILBERT_SCHMIDT)
    assert got == pytest.approx(-0.25, abs=1e-12)


def test_correlated_l1_nonnegative_on_random_bipartite_states():
    rng = np.random.default_rng(14)
    for dims in [(2, 2), (2, 3), (3, 3)]:
        d = int(np.prod(dims))
        for _ in range(40):
            rho = DensityOperator(dims, random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1))))
            assert correlated_coherence(rho, ([0], [1]), CoherenceKind.L1_NORM) >= -1e-10


def test_correlated_hs_nonnegative_when_conditions_hold():
    rng = np.random.default_rng(15)
    checked = 0
    for i, dims in enumerate([(2, 2), (2, 2, 2)]):
        right = list(range(1, len(dims)))
        for psi in haar_random_pure(dims, 60, seed=70 + i):
            rho = density_from_pure(psi)
            if satisfies_offdiag_conditions(rho, ([0], right)):
                checked += 1
                assert correlated_coherence(rho, ([0], right), CoherenceKind.HILBERT_SCHMIDT) >= -1e-10
    # also on states that satisfy the conditions by construction
    for p in np.linspace(0, 1, 11):
        rho = density_from_pure(w_state(p))
        assert satisfies_offdiag_conditions(rho, ([0], [1, 2]))
        assert correlated_coherence(rho, ([0], [1, 2]), CoherenceKind.HILBERT_SCHMIDT) >= -1e-10
        checked += 1
    assert checked > 10


def test_correlated_rejects_bad_bipartitions():
    rho = density_from_pure(w_state(0.5))
    with pytest.raises(ValidationError, match="overlap"):
        correlated_coherence(rho, ([0, 1], [1, 2]), CoherenceKind.L1_NORM)
    with pytest.raises(ValidationError, match="cover"):
        correlated_coherence(rho, ([0], [1]), CoherenceKind.L1_NORM)
    with pytest.raises(ValidationError, match="nonempty"):
        correlated_coherence(rho, ([], [0, 1, 2]), CoherenceKind.L1_NORM)


# ---------------------------------------------------------------------------
# concurrence


def test_concurrence_values():
    pure = DensityOperator((2,), np.diag([1.0, 0.0]))
    assert concurrence_generalized(pure).value == pytest.approx(0.0, abs=1e-12)
    assert concurrence_generalized(mixed(2)).value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
def test_concurrence_qutrit_closed_form(x):
    reduced = reduced_of(qutrit_jb(x))
    expected = math.sqrt(4 * x * x - 3 * x**4)
    assert concurrence_generalized(reduced).value == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# off-diagonal conditions


def test_conditions_hold_for_ghz_everywhere():
    rho = density_from_pure(ghz(0.6, 0.8))
    for bipartition in [([0], [1, 2]), ([1], [0, 2]), ([2], [0, 1])]:
        assert satisfies_offdiag_conditions(rho, bipartition)


def test_conditions_fail_for_acin_with_generic_phases():
    lam = np.array([0.5 + 0.1j, 0.45 - 0.2j, 0.55 + 0.05j, 0.4 + 0.3j])
    rho = density_from_pure(acin(*lam))
    assert not satisfies_offdiag_conditions(rho, ([0], [1, 2]))


def test_conditions_hold_for_diagonal_products():
    joint = tensor_product(
        [DensityOperator((2,), np.diag([0.2, 0.8])), DensityOperator((3,), np.diag([0.5, 0.3, 0.2]))]
    )
    assert satisfies_offdiag_conditions(joint, ([0], [1]))


def test_conditions_on_uneven_bipartition_match_literal_oracle():
    # Qutrit in the middle against the two outer qubits: a split the block view must permute.
    dims, left, right = (2, 3, 2), [1], [0, 2]
    rng = np.random.default_rng(16)
    for _ in range(5):
        rho = DensityOperator(dims, random_density_matrix(12, rng))
        defect = brute_offdiag_defect(rho.matrix, dims, left)
        # The verdict flips exactly at the literal defect, so it pins the computed one.
        assert satisfies_offdiag_conditions(rho, (left, right), atol=defect * (1 + 1e-9))
        assert not satisfies_offdiag_conditions(rho, (left, right), atol=defect * (1 - 1e-9))


# ---------------------------------------------------------------------------
# GHZ family tangle identity


@pytest.mark.parametrize(
    "a000,a111",
    [(0.6, 0.8), (1 / math.sqrt(2), 1 / math.sqrt(2)), (0.3 + 0.4j, 0.5 + 0.7j), (1.0, 0.0)],
)
def test_ghz_family_nonlocal_identity(a000, a111):
    psi = ghz(a000, a111)
    rho = density_from_pure(psi)
    amp0 = psi.amplitudes[0b000]
    amp1 = psi.amplitudes[0b111]
    expected = 2 * abs(amp0) ** 2 * abs(amp1) ** 2
    values = [nonlocal_coherence_hs_direct(rho, t).value for t in range(3)]
    assert max(values) - min(values) < 1e-12
    for value in values:
        assert value == pytest.approx(expected, abs=1e-12)
