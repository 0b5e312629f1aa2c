"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; tolerances are pinned in the assertions.
"""

import contextlib
import math
import time

import numpy as np
import pytest
from helpers import nonlocal_coherence_hs_via_entropy, random_density_matrix, tensor_product, xlogx

from ccrkit import (
    DensityOperator,
    ccr_hs,
    ccr_mixedness,
    ccr_vn,
    coherence_hs,
    coherence_l1,
    concurrence_generalized,
    correlated_coherence,
    density_from_pure,
    nonlocal_coherence_hs_direct,
    partial_trace,
    predictability_hs,
    predictability_l1,
    predictability_vn,
    purify,
    von_neumann_entropy,
)
from ccrkit.states import acin, bipartite_x, five_term, ghz, haar_random_pure, qutrit_jb, w_state, werner_like

SIGNATURES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (3, 3, 3), (2, 2, 2, 2)]


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


@pytest.fixture(scope="module")
def ensemble():
    """1000 Haar-random pure states (with densities) per signature."""
    out = {}
    for i, dims in enumerate(SIGNATURES):
        states = list(haar_random_pure(dims, 1000, seed=1000 + i))
        out[dims] = [(psi, density_from_pure(psi)) for psi in states]
    return out


def test_criterion_1_bipartite_x_family_closed_forms():
    with criterion(1, "bipartite x-family matches all six closed forms on a 101-point grid"):
        started = time.perf_counter()
        for x in np.linspace(0.0, 1.0, 101):
            rho = density_from_pure(bipartite_x(x))
            reduced = partial_trace(rho, [0])
            c_corr_l1 = correlated_coherence(rho, ([0], [1]), coherence_l1)
            assert abs(c_corr_l1 - 2 * x * math.sqrt(1 - x * x)) < 1e-10
            assert abs(predictability_l1(reduced).value - (1 - 2 * x * math.sqrt(1 - x * x))) < 1e-10
            assert abs(nonlocal_coherence_hs_direct(rho, 0).value - 2 * x * x * (1 - x * x)) < 1e-10
            assert abs(predictability_hs(reduced).value - (0.5 - 2 * x * x * (1 - x * x))) < 1e-10
            s_vn_expected = -xlogx(x * x) - xlogx(1 - x * x)
            assert abs(von_neumann_entropy(reduced) - s_vn_expected) < 1e-10
            p_vn_expected = math.log(2) + xlogx(x * x) + xlogx(1 - x * x)
            assert abs(predictability_vn(reduced).value - p_vn_expected) < 1e-10
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f} s, budget is 1 s"


def test_criterion_2_qutrit_family_two_constant_pairings():
    with criterion(2, "qutrit family: P^2 + C^2 = 4/3 and P_l1 + Cc_l1 = 2 across the grid"):
        for x in np.linspace(0.0, 1.0, 101):
            rho = density_from_pure(qutrit_jb(x))
            reduced = partial_trace(rho, [0])
            p_sq = 2 * predictability_hs(reduced).value
            c_sq = concurrence_generalized(reduced).value ** 2
            assert abs(p_sq + c_sq - 4 / 3) < 1e-10
            total = predictability_l1(reduced).value + correlated_coherence(
                rho, ([0], [1]), coherence_l1
            )
            assert abs(total - 2.0) < 1e-10


def test_criterion_3_ghz_tangle_identity():
    with criterion(3, "GHZ family: non-local coherence equal across targets and = 2|a000 a111|^2"):
        for t in np.linspace(0.0, 1.0, 21):
            psi = ghz(t, math.sqrt(1 - t * t))
            rho = density_from_pure(psi)
            expected = 2 * t * t * (1 - t * t)
            values = [nonlocal_coherence_hs_direct(rho, target).value for target in range(3)]
            assert max(values) - min(values) < 1e-12
            for value in values:
                assert abs(value - expected) < 1e-12


def test_criterion_4_w_state_pairwise_balance():
    with criterion(4, "W family: P_hs + Cc_hs(A,B) + Cc_hs(A,C) = 1/2 with C_hs(rho_A) = 0"):
        for p in np.linspace(0.0, 1.0, 101):
            rho = density_from_pure(w_state(p))
            reduced = partial_trace(rho, [0])
            assert coherence_hs(reduced).value < 1e-12
            pair_total = 0.0
            for other in (1, 2):
                pair = partial_trace(rho, [0, other])
                pair_total += correlated_coherence(pair, ([0], [1]), coherence_hs)
            total = predictability_hs(reduced).value + pair_total
            assert abs(total - 0.5) < 1e-10


def test_criterion_5_five_term_and_acin_closed_forms():
    with criterion(5, "five-term and four-term families match closed forms on 200 random draws each"):
        rng = np.random.default_rng(77)
        for _ in range(200):
            psi = five_term(*rng.standard_normal(5))
            rho = density_from_pure(psi)
            lam2 = np.abs(psi.amplitudes[[0b000, 0b001, 0b010, 0b100, 0b111]]) ** 2
            nl_expected = 2 * (
                lam2[0] * lam2[4]
                + lam2[1] * lam2[3]
                + lam2[1] * lam2[4]
                + lam2[2] * lam2[3]
                + lam2[2] * lam2[4]
            )
            c_expected = 2 * lam2[0] * lam2[3]
            p_expected = (lam2[0] + lam2[1] + lam2[2]) ** 2 + (lam2[3] + lam2[4]) ** 2 - 0.5
            reduced = partial_trace(rho, [0])
            nl = nonlocal_coherence_hs_direct(rho, 0).value
            c = coherence_hs(reduced).value
            p = predictability_hs(reduced).value
            assert abs(nl - nl_expected) < 1e-10
            assert abs(c - c_expected) < 1e-10
            assert abs(p - p_expected) < 1e-10
            assert abs(p + c + nl - 0.5) < 1e-12
        for _ in range(200):
            draws = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            psi = acin(*draws)
            rho = density_from_pure(psi)
            lam = psi.amplitudes[[0b000, 0b011, 0b100, 0b111]]
            lam2 = np.abs(lam) ** 2
            nl_expected = 2 * (
                lam2[0] * lam2[3]
                + lam2[1] * lam2[2]
                - 2 * (lam[0] * np.conj(lam[1]) * np.conj(lam[2]) * lam[3]).real
            )
            c_expected = 2 * abs(lam[0] * np.conj(lam[2]) + lam[1] * np.conj(lam[3])) ** 2
            p_expected = (lam2[0] + lam2[1]) ** 2 + (lam2[2] + lam2[3]) ** 2 - 0.5
            reduced = partial_trace(rho, [0])
            nl = nonlocal_coherence_hs_direct(rho, 0).value
            c = coherence_hs(reduced).value
            p = predictability_hs(reduced).value
            assert abs(nl - nl_expected) < 1e-10
            assert abs(c - c_expected) < 1e-10
            assert abs(p - p_expected) < 1e-10
            assert abs(p + c + nl - 0.5) < 1e-12


def test_criterion_6_direct_sum_equals_entropy_oracle(ensemble):
    with criterion(6, "direct index-partition sum = reduced linear entropy on 7 x 1000 random states"):
        started = time.perf_counter()
        for dims in SIGNATURES:
            for _, rho in ensemble[dims]:
                for target in range(len(dims)):
                    direct = nonlocal_coherence_hs_direct(rho, target).value
                    oracle = nonlocal_coherence_hs_via_entropy(rho, target).value
                    assert abs(direct - oracle) < 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f} s, budget is 60 s"


def test_criterion_7_ccr_residuals_on_random_ensembles(ensemble):
    with criterion(7, "ccr_hs/ccr_vn residuals on the random ensemble; mixedness identity on mixed states"):
        for dims in SIGNATURES:
            for _, rho in ensemble[dims]:
                for target in range(len(dims)):
                    assert abs(ccr_hs(rho, target).residual) < 1e-12
                    assert abs(ccr_vn(rho, target).residual) < 1e-10
        rng = np.random.default_rng(303)
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            rho = DensityOperator((d,), random_density_matrix(d, rng, rank=int(rng.integers(1, d + 1))))
            assert abs(ccr_mixedness(rho, 0).residual) < 1e-12


def test_criterion_8_negative_results():
    with criterion(8, "l1 pairing non-constant on the W family; Cc_hs < 0 on a coherent x incoherent product"):
        sums = []
        for p in np.linspace(0.0, 1.0, 101):
            rho = density_from_pure(w_state(p))
            sums.append(
                predictability_l1(partial_trace(rho, [0])).value
                + correlated_coherence(rho, ([0], [1, 2]), coherence_l1)
            )
        assert max(sums) - min(sums) > 1e-3
        plus = DensityOperator((2,), np.full((2, 2), 0.5))
        mixed = DensityOperator((2,), np.eye(2) / 2)
        joint = tensor_product([plus, mixed])
        negative = correlated_coherence(joint, ([0], [1]), coherence_hs)
        assert negative < 0
        assert abs(negative - (-0.25)) < 1e-12


def test_criterion_9_purification_roundtrip_on_werner_grid():
    with criterion(9, "purification round-trip recovers the single-qubit mixture on an 11 x 11 grid"):
        for w in np.linspace(0.0, 1.0, 11):
            for x in np.linspace(0.0, 1.0, 11):
                rho = werner_like(w, x)
                back = partial_trace(density_from_pure(purify(rho)), [0])
                assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10
