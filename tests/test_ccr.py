"""Complementarity balances: residual identities and the mixed-state gap."""

import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from golden import regen
from helpers import (
    brute_nonlocal_sum,
    brute_partial_trace,
    exact_terms,
    nonlocal_coherence_hs_via_entropy,
    random_density_matrix,
    random_pure_vector,
    tensor_product,
)

import ccrkit.ccr
import ccrkit.cli
import ccrkit.core
from ccrkit import (
    AuditResult,
    CapacityError,
    CCRFlavor,
    CCRReport,
    DensityOperator,
    MeasureKind,
    MeasureValue,
    PreconditionError,
    PureState,
    ValidationError,
    audit,
    ccr_hs,
    ccr_inequality_gap,
    ccr_mixedness,
    ccr_vn,
    coherence_hs,
    coherence_l1,
    coherence_re,
    concurrence_generalized,
    correlated_coherence,
    density_from_pure,
    linear_entropy,
    nonlocal_coherence_hs_direct,
    partial_trace,
    predictability_hs,
    predictability_l1,
    predictability_vn,
    von_neumann_entropy,
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
        raise AssertionError("the Jacobi solver called by ccr_vn")

    psi = next(haar_random_pure((3, 2, 4), 1, seed=42))
    rho = density_from_pure(psi)
    monkeypatch.setattr(ccrkit.core.np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(ccrkit.core, "_jacobi_eigh", refuse)
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
# the balance table


_BELL = PureState((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2))


def test_every_flavor_has_one_row_one_public_balance_and_one_cli_name():
    assert list(ccrkit.ccr._BALANCES) == list(CCRFlavor)
    public = [getattr(ccrkit.ccr, name) for name in ccrkit.ccr.__all__ if name.startswith("ccr_")]
    reports = [report for report in (balance(_BELL, 0) for balance in public) if isinstance(report, CCRReport)]
    assert Counter(report.flavor for report in reports) == Counter(CCRFlavor)
    assert Counter(balance(_BELL, 0).flavor for balance in ccrkit.cli._FLAVOR_FUNCS.values()) == Counter(CCRFlavor)


@pytest.mark.parametrize("balance", [ccr_hs, ccr_vn, ccr_mixedness], ids=lambda balance: balance.__name__)
def test_refusals_follow_the_balance_row(balance):
    hint = ccrkit.ccr._BALANCES[balance(_BELL, 0).flavor][0]
    lone = [density_from_pure(PureState((2,), [1.0, 0.0])), DensityOperator((2,), np.eye(2) / 2)]
    mixed = DensityOperator((2, 2), np.eye(4) / 4)
    if balance is ccr_mixedness:
        assert hint is None
        for state in (*lone, mixed):
            assert balance(state, 0).flavor is CCRFlavor.HS_MIXEDNESS
        return
    assert hint
    # The partner check comes first, so a mixed lone subsystem is refused for want of a partner.
    for state in lone:
        with pytest.raises(ValidationError, match="needs at least 2 subsystems$"):
            balance(state, 0)
    with pytest.raises(PreconditionError, match=re.escape(hint) + "$"):
        balance(mixed, 0)


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
# ensemble audit


@pytest.mark.parametrize("dims, count, seed", regen.AUDITS)
@pytest.mark.parametrize("flavor", regen.FLAVORS)
def test_audit_record_matches_the_cli_line_and_locates_its_worst_check(dims, count, seed, flavor, capsys):
    balance = ccrkit.cli._FLAVOR_FUNCS[flavor]
    result = audit(dims, count, seed, balance)
    argv = ["audit", "--dims", ",".join(map(str, dims)), "--count", str(count), "--seed", str(seed), "--flavor", flavor]
    assert ccrkit.cli.main(argv) == 0
    header, residuals, _ = capsys.readouterr().out.splitlines()
    assert header.endswith(f" checks={result.checks}") and result.checks == count * len(dims)
    assert residuals.startswith(f"max|residual|={result.max_residual:.3e} mean|residual|={result.mean_residual:.3e} ")
    index, target = result.worst
    *_, psi = haar_random_pure(dims, index + 1, seed)
    assert abs(balance(psi, target).residual) == result.max_residual
    every = [abs(balance(psi, t).residual) for psi in haar_random_pure(dims, count, seed) for t in range(len(dims))]
    assert every.index(max(every)) == index * len(dims) + target


def test_audit_worst_is_the_first_check_when_every_residual_is_0():
    zero = CCRReport(0, *[MeasureValue(0.0, 0.5, MeasureKind.P_HS)] * 3, 0.5, 0.5, 0.0, CCRFlavor.HS_PURE)
    assert audit((2, 2), 3, 1, lambda psi, target: zero) == AuditResult(6, 0.0, 0.0, (0, 0))


@pytest.mark.parametrize("dims, count, seed, error, message", [
    ((2,), 1, 0, ValidationError, "at least 2 subsystems"),
    ((2,) * 13, 1, 0, CapacityError, "exceeds the configured maximum"),
    ((2, 2), 0, 0, ValidationError, "count must be positive"),
    ((2, 2), 1, -1, ValidationError, "seed must be a non-negative integer"),
], ids=["one-subsystem", "over-cap", "count-0", "seed-negative"])
def test_audit_refuses_before_any_balance_runs(dims, count, seed, error, message):
    def refuse(state, target):
        raise AssertionError("balance ran")

    with pytest.raises(error, match=message):
        audit(dims, count, seed, refuse)


@pytest.mark.parametrize("fn", [ccr_inequality_gap, nonlocal_coherence_hs_direct])
def test_audit_refuses_a_function_that_is_not_a_balance(fn):
    # Refused by the type of its first result, so the function runs once.
    calls = []

    def counting(state, target):
        calls.append(target)
        return fn(state, target)

    message = f"balance must be a function such as ccr_hs, got {counting!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        audit((2, 2), 3, 0, counting)
    assert calls == [0]


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


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 4), (2,) * 5])
def test_gap_is_exactly_zero_on_amplitudes(dims):
    for psi in haar_random_pure(dims, 5, seed=19):
        for target in range(len(dims)):
            assert ccr_inequality_gap(psi, target) == 0.0


@pytest.mark.parametrize("dims, ancilla", [((2, 2, 2), 2), ((3, 2, 4), 3), ((2, 3), 5)])
def test_gap_terms_are_each_nonnegative(dims, ancilla):
    keep = range(len(dims))
    for psi in haar_random_pure(dims + (ancilla,), 5, seed=29):
        rho = partial_trace(psi, keep)
        for target in keep:
            m = ccrkit.core._reduced_matrix(rho, [target])
            p = m.diagonal().real
            blocks = ccrkit.core._partition_blocks(rho, target, m)
            terms = (np.outer(p, p) - blocks)[~np.eye(dims[target], dtype=bool)]
            assert terms.min() > 1e-3
            assert ccr_inequality_gap(rho, target) == pytest.approx(terms.sum(), abs=1e-15)
            # Both kinds of input give the same blocks for a pure state.
            pure_blocks = ccrkit.core._partition_blocks(psi, target, ccrkit.core._reduced_matrix(psi, [target]))
            projector = density_from_pure(psi)
            dense = ccrkit.core._partition_blocks(projector, target, ccrkit.core._reduced_matrix(projector, [target]))
            np.testing.assert_allclose(pure_blocks, dense, rtol=0, atol=1e-15)


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


# The forward error of each float term against ``helpers.exact_terms`` is bounded by C_EXACT * D * eps.
# Each term is a quadratic form in the entries of rho_t (or of rho, for the gap), and each such entry
# is a sum of at most D products of numbers of modulus <= 1; a sum of n terms rounded to nearest errs
# by at most about n * eps times the sum of their moduli, so a first-order worst case is a small
# multiple of D * eps.  numpy's pairwise sums and BLAS dots err like sqrt(n) * eps in practice: over
# these inputs the worst seen is 0.28 * D * eps (2.2 eps).  C_EXACT = 1 keeps a margin of about 4 and
# still fails on any term that is wrong, or whose error grows faster than D * eps.
C_EXACT = 1.0


def _assert_terms_match_the_exact_oracle(dims, count, seed, targets):
    """``count`` Haar states of each kind over ``dims`` (amplitudes, their projectors, and rank-2
    reductions with a qubit ancilla) against ``exact_terms`` on ``targets``, within C_EXACT * D * eps."""
    bound = C_EXACT * math.prod(dims) * np.finfo(float).eps
    n = len(dims)
    pure = list(haar_random_pure(dims, count, seed=seed))
    mixed = [partial_trace(psi, range(n)) for psi in haar_random_pure(dims + (2,), count, seed=seed)]
    inputs = [(state, True) for state in pure + [density_from_pure(psi) for psi in pure]]
    for state, is_pure in inputs + [(state, False) for state in mixed]:
        for target in targets:
            exact = exact_terms(state, target)
            d = dims[target]
            # The oracle's own identities: the four terms add up to (d - 1)/d, and on amplitudes
            # the gap is 0 and C_nl is the linear entropy, all exactly.
            assert exact["P_hs"] + exact["C_hs"] + exact["C_nl"] + exact["gap"] == Fraction(d - 1, d)
            if isinstance(state, PureState):
                assert exact["gap"] == 0 and exact["C_nl"] == exact["S_l"]
            report = ccr_mixedness(state, target)
            got = {"P_hs": report.predictability.value, "C_hs": report.local_coherence.value,
                   "S_l": report.correlation_term.value, "gap": ccr_inequality_gap(state, target)}
            if is_pure:
                got["C_nl"] = ccr_hs(state, target).correlation_term.value
            for name, value in got.items():
                assert abs(Fraction(value) - exact[name]) <= bound, (name, target)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 4), (2, 3, 2, 2)])
def test_hs_terms_and_gap_match_the_exact_rational_oracle(dims):
    _assert_terms_match_the_exact_oracle(dims, 3, len(dims), range(len(dims)))


def test_hs_terms_and_gap_match_the_exact_rational_oracle_on_eight_qubits():
    # D = 256: one state of each kind, on the first and the last qubit (the oracle is O(D^3) per call).
    _assert_terms_match_the_exact_oracle((2,) * 8, 1, 8, [0, 7])


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


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 4), (2,) * 5])
def test_balance_terms_are_the_public_quantifiers_of_the_reduction(dims):
    # One formula per quantity: every term equals its public quantifier on partial_trace(state, [t]).
    psi = next(haar_random_pure(dims, 1, seed=len(dims)))
    mixed = DensityOperator(dims, random_density_matrix(math.prod(dims), np.random.default_rng(1)))
    for state in (psi, density_from_pure(psi), mixed):
        for target in range(len(dims)):
            reduced = partial_trace(state, [target])
            d_t = dims[target]
            want = {ccr_mixedness: (predictability_hs(reduced), coherence_hs(reduced),
                                    MeasureValue(linear_entropy(reduced), (d_t - 1) / d_t, MeasureKind.S_L))}
            if state is not mixed:
                want[ccr_hs] = (predictability_hs(reduced), coherence_hs(reduced),
                                nonlocal_coherence_hs_direct(state, target))
                want[ccr_vn] = (predictability_vn(reduced), coherence_re(reduced),
                                MeasureValue(von_neumann_entropy(reduced), math.log(d_t), MeasureKind.S_VN))
            for balance, terms in want.items():
                report = balance(state, target)
                assert (report.predictability, report.local_coherence, report.correlation_term) == terms


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
            rho, ([0], [1]), coherence_l1
        )
        assert abs(total - 2.0) < 1e-10


def test_w_state_l1_pairing_is_not_constant():
    sums = []
    for p in np.linspace(0, 1, 101):
        rho = density_from_pure(w_state(p))
        sums.append(
            predictability_l1(partial_trace(rho, [0])).value
            + correlated_coherence(rho, ([0], [1, 2]), coherence_l1)
        )
    assert max(sums) - min(sums) > 1e-3
