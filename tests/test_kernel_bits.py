"""The per-check kernels keep every bit of their numpy convenience-wrapper forms.

Each library kernel is compared by ``tobytes()`` with the wrapper formula in
``helpers`` on random pure and mixed states of three signatures, on diagonals
holding -0.0 and tiny negative entries, and on spectra with eigenvalues in
``[-CLAMP_WINDOW, 0)``.
"""

import itertools
import math

import numpy as np
import pytest
from helpers import (
    brute_partition_blocks,
    random_density_matrix,
    wrapper_density_reduction,
    wrapper_diag_probs,
    wrapper_measure_values,
    wrapper_nonlocal_hs_sum,
    wrapper_offdiag,
    wrapper_pure_reduction,
    wrapper_vn_entropy,
)

from ccrkit import (
    DensityOperator,
    PureState,
    coherence_hs,
    coherence_l1,
    coherence_re,
    density_from_pure,
    partial_trace,
    predictability_hs,
    predictability_l1,
    predictability_vn,
    von_neumann_entropy,
)
from ccrkit.core import _block_view, _partition_blocks
from ccrkit.measures import MEASURE_ATOL, _diag_probs, _nonlocal_hs_sum, _offdiag

SIGNATURES = [(2, 3, 2), (3, 2, 4), (2, 2, 2, 2, 2)]

#: Roundoff eigenvalues in [-CLAMP_WINDOW, 0), which the wrapper entropy snaps to 0.
CLAMP_WINDOW = 1e-10


def bits(x):
    return np.asarray(x).tobytes()


def snapped(value):
    """A raw measure value as MeasureValue stores it."""
    return 0.0 if -MEASURE_ATOL <= value < 0.0 else value


def pure_states(dims, seed):
    """Random pure states; every other one has exact signed zeros among its amplitudes."""
    rng = np.random.default_rng(seed)
    total = math.prod(dims)
    for i in range(6):
        z = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        if i % 2:
            z[1:][rng.random(total - 1) < 0.5] = complex(-0.0, -0.0)
        yield PureState(dims, z / np.linalg.norm(z))


def mixed_states(dims, seed):
    rng = np.random.default_rng(seed)
    total = math.prod(dims)
    for rank in (1, 2, total):
        yield DensityOperator(dims, random_density_matrix(total, rng, rank=rank))


def unitary(d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


def with_spectrum(eigenvalues, seed):
    u = unitary(len(eigenvalues), seed)
    return DensityOperator((len(eigenvalues),), (u * eigenvalues) @ u.conj().T)


SIGNED_ZERO_AND_TINY_NEGATIVE_DIAGONALS = [
    DensityOperator((3,), [[0.5, 0.1j, 0.0], [-0.1j, 0.5, 0.0], [0.0, 0.0, complex(-0.0, 0.0)]]),
    DensityOperator((2,), [[complex(-0.0, 0.0), 0.0], [0.0, 1.0]]),
    DensityOperator((3,), [[0.5 + 1e-14, 0.2, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, -1e-14]]),
    DensityOperator(
        (4,),
        [[0.4 + 3e-13, 0.05, 0.0, 0.0], [0.05, 0.35, 0.02j, 0.0], [0.0, -0.02j, 0.25, 0.0], [0.0, 0.0, 0.0, -3e-13]],
    ),
]

CLAMP_WINDOW_SPECTRA = [
    with_spectrum([0.6, 0.4 + 5e-11, -5e-11], seed=1),
    with_spectrum([0.3, 0.7 + 2e-11, -2e-11], seed=3),
    with_spectrum([0.5, 0.3, 0.2 + 8e-11, -3e-11, -5e-11], seed=2),
    with_spectrum([0.25, 0.1, 0.4, 0.25 + 9e-11, -9e-11], seed=4),
]


def reduced_states(dims):
    """Single-subsystem and first-last pair reductions of random pure and mixed states of ``dims``."""
    n = len(dims)
    states = [*pure_states(dims, seed=sum(dims)), *mixed_states(dims, seed=n)]
    for state in states:
        for keep in [[t] for t in range(n)] + [[0, n - 1]]:
            yield partial_trace(state, keep)


def assert_kernels_keep_the_wrapper_bits(rho):
    m = rho.matrix
    assert bits(_diag_probs(m)) == bits(wrapper_diag_probs(m))
    assert bits(_offdiag(m)) == bits(wrapper_offdiag(m))
    want = wrapper_measure_values(m)
    got = {
        "P_hs": predictability_hs(rho).value,
        "P_vn": predictability_vn(rho).value,
        "P_l1": predictability_l1(rho).value,
        "C_hs": coherence_hs(rho).value,
        "C_l1": coherence_l1(rho).value,
    }
    for name, value in got.items():
        assert bits(value) == bits(snapped(want[name])), name
    s_vn = wrapper_vn_entropy(m, CLAMP_WINDOW)
    assert bits(von_neumann_entropy(rho)) == bits(s_vn)
    assert bits(coherence_re(rho).value) == bits(snapped(want["S_dephased"] - s_vn))


@pytest.mark.parametrize("dims", SIGNATURES)
def test_pure_reduction_keeps_the_moveaxis_bits(dims):
    # A proper reduction keeps the moveaxis formula's bits; the full keep set is the
    # state's own projector, which only density_from_pure forms from amplitudes.
    n = len(dims)
    keeps = [list(c) for r in range(1, n + 1) for c in itertools.combinations(range(n), r)]
    for psi in pure_states(dims, seed=math.prod(dims)):
        for keep in keeps:
            got = partial_trace(psi, keep).matrix
            if len(keep) == n:
                want = density_from_pure(psi).matrix
            else:
                want = wrapper_pure_reduction(psi.amplitudes, dims, keep)
            assert bits(got) == bits(want), keep


@pytest.mark.parametrize("dims", [(2, 3, 2), (3, 1, 2, 2), (2,) * 5])
def test_block_view_lays_out_vectors_and_matrices_by_keep_then_rest(dims):
    # Every ordered keep tuple, (2, 0) and the full set included: entry [i, I] (or [i, I, j, J])
    # is the one at the row-major flat index of the combined multi-index, keep in the order given
    # and the rest ascending.
    rng = np.random.default_rng(11)
    n, total = len(dims), math.prod(dims)
    vector = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    matrix = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    for keep in (p for r in range(1, n + 1) for p in itertools.permutations(range(n), r)):
        rest = [m for m in range(n) if m not in keep]
        multi = np.zeros((n, math.prod(dims[m] for m in keep), math.prod(dims[m] for m in rest)), dtype=np.intp)
        for i, kept in enumerate(itertools.product(*(range(dims[m]) for m in keep))):
            for rest_i, traced in enumerate(itertools.product(*(range(dims[m]) for m in rest))):
                multi[list(keep), i, rest_i] = kept
                multi[rest, i, rest_i] = traced
        flat = np.ravel_multi_index(tuple(multi), dims)
        view = _block_view(vector, dims, keep)
        assert bits(view) == bits(vector[flat]), keep
        assert bits(view) == bits(vector.reshape(dims).transpose([*keep, *rest]).reshape(len(flat), -1)), keep
        assert bits(_block_view(matrix, dims, keep)) == bits(matrix[flat[:, :, None, None], flat]), keep


@pytest.mark.parametrize("dims", SIGNATURES)
def test_measures_keep_the_wrapper_bits(dims):
    for rho in reduced_states(dims):
        assert_kernels_keep_the_wrapper_bits(rho)


def test_measures_keep_the_wrapper_bits_on_signed_zero_and_tiny_negative_diagonals():
    diagonals = np.concatenate([rho.matrix.diagonal().real for rho in SIGNED_ZERO_AND_TINY_NEGATIVE_DIAGONALS])
    assert np.signbit(diagonals[diagonals == 0.0]).sum() == 2
    assert ((diagonals < 0.0) & (diagonals > -1e-12)).sum() == 2
    for rho in SIGNED_ZERO_AND_TINY_NEGATIVE_DIAGONALS:
        assert_kernels_keep_the_wrapper_bits(rho)


def test_measures_keep_the_wrapper_bits_on_eigenvalues_in_the_clamp_window():
    for rho in CLAMP_WINDOW_SPECTRA:
        w = np.linalg.eigvalsh(rho.matrix)
        assert ((w < 0.0) & (w >= -CLAMP_WINDOW)).any()
        assert_kernels_keep_the_wrapper_bits(rho)


@pytest.mark.parametrize("dims", SIGNATURES)
def test_nonlocal_sum_keeps_the_wrapper_bits(dims):
    n = len(dims)
    for state in [*pure_states(dims, seed=7), *mixed_states(dims, seed=8)]:
        for target in range(n):
            reduced = partial_trace(state, [target])
            blocks = None
            if isinstance(state, DensityOperator):
                blocks = (np.abs(_block_view(state.matrix, dims, [target])) ** 2).sum(axis=(1, 3))
            want = wrapper_nonlocal_hs_sum(reduced.matrix, blocks)
            assert bits(_nonlocal_hs_sum(state, target, reduced.matrix)) == bits(want)


#: Signatures on which a density's reduction and block norms are pinned, keep sets such as [0, 2] included.
DENSITY_SIGNATURES = [(2, 3, 2), (3, 2, 4), (2,) * 5, (2,) * 7]


@pytest.mark.parametrize("dims", DENSITY_SIGNATURES)
def test_density_reduction_keeps_the_sublist_einsum_bits(dims):
    n = len(dims)
    for rho in mixed_states(dims, seed=9):
        for size in range(1, n):
            for keep in itertools.combinations(range(n), size):
                want = wrapper_density_reduction(rho.matrix, dims, keep)
                assert partial_trace(rho, keep).matrix.tobytes() == want.tobytes(), keep


@pytest.mark.parametrize("dims", DENSITY_SIGNATURES)
def test_density_blocks_match_the_literal_four_index_sum(dims):
    for rho in mixed_states(dims, seed=10):
        for target in range(len(dims)):
            blocks = _partition_blocks(rho, target, partial_trace(rho, [target]).matrix)
            want = brute_partition_blocks(rho.matrix, dims, target)
            np.testing.assert_allclose(blocks, want, rtol=0, atol=1e-15, err_msg=f"target {target}")
