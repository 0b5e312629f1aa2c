"""Property tests: invariances of the balances over random pure states,
and bounds of the quantifiers over random mixed states.

Hypothesis draws the signature, the target and a seed; the state itself
comes from numpy.  Runs are derandomized so the suite is reproducible.
"""

import math

import numpy as np
from helpers import random_density_matrix, random_pure_vector
from hypothesis import given, settings
from hypothesis import strategies as st

from ccrkit import (
    DensityOperator,
    PureState,
    ccr_hs,
    ccr_inequality_gap,
    ccr_mixedness,
    ccr_vn,
    coherence_hs,
    coherence_l1,
    coherence_re,
    density_from_pure,
    nonlocal_coherence_hs_direct,
    partial_trace,
    predictability_hs,
    predictability_l1,
    predictability_vn,
    von_neumann_entropy,
)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)


def random_unitary(d, rng):
    """Haar unitary from the QR decomposition of a complex Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def pure_states(draw, min_subsystems=2, max_subsystems=4):
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=min_subsystems, max_size=max_subsystems)))
    rng = np.random.default_rng(draw(SEEDS))
    return PureState(dims, random_pure_vector(math.prod(dims), rng))


@st.composite
def mixed_states(draw):
    dims = draw(st.sampled_from([(2, 3), (2, 2, 2)]))
    d = math.prod(dims)
    rank = draw(st.integers(1, d))
    rng = np.random.default_rng(draw(SEEDS))
    return DensityOperator(dims, random_density_matrix(d, rng, rank=rank))


@PROPERTY
@given(psi=pure_states(), data=st.data())
def test_nonlocal_coherence_unchanged_by_local_unitary_on_rest(psi, data):
    dims = psi.dims
    target = data.draw(st.integers(0, len(dims) - 1))
    rng = np.random.default_rng(data.draw(SEEDS))
    d_t = dims[target]
    m = np.moveaxis(psi.amplitudes.reshape(dims), target, 0).reshape(d_t, -1)
    rotated = m @ random_unitary(m.shape[1], rng).T
    others = tuple(d for k, d in enumerate(dims) if k != target)
    amps = np.moveaxis(rotated.reshape((d_t,) + others), 0, target).reshape(-1)
    psi_rotated = PureState(dims, amps)
    before = nonlocal_coherence_hs_direct(psi, target).value
    for state in (psi_rotated, density_from_pure(psi_rotated)):
        assert abs(nonlocal_coherence_hs_direct(state, target).value - before) < 1e-12


@PROPERTY
@given(psi=pure_states(), data=st.data())
def test_reports_follow_a_permutation_of_the_subsystems(psi, data):
    dims = psi.dims
    perm = data.draw(st.permutations(range(len(dims))))
    # Subsystem k of the relabelled state is subsystem perm[k] of psi.
    relabelled = PureState(
        tuple(dims[k] for k in perm), psi.amplitudes.reshape(dims).transpose(perm).reshape(-1)
    )
    for target in range(len(dims)):
        moved = list(perm).index(target)
        for flavor in (ccr_hs, ccr_vn, ccr_mixedness):
            want, got = flavor(psi, target), flavor(relabelled, moved)
            assert got.target == moved and got.bound == want.bound
            for name in ("predictability", "local_coherence", "correlation_term"):
                assert abs(getattr(got, name).value - getattr(want, name).value) < 1e-12
            assert abs(got.residual - want.residual) < 1e-12


@PROPERTY
@given(psi=pure_states(min_subsystems=3), data=st.data())
def test_inequality_gap_nonnegative_on_mixed_reductions(psi, data):
    n = len(psi.dims)
    keep = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n - 1, unique=True))
    reduced = partial_trace(density_from_pure(psi), keep)
    for target in range(len(keep)):
        assert ccr_inequality_gap(reduced, target) >= -1e-10


@PROPERTY
@given(rho=mixed_states())
def test_quantifiers_stay_within_bounds_on_mixed_states(rho):
    n = len(rho.dims)
    for part in [rho] + [partial_trace(rho, [target]) for target in range(n)]:
        for measure in (predictability_hs, predictability_vn, predictability_l1,
                        coherence_hs, coherence_l1, coherence_re):
            mv = measure(part)
            assert 0.0 <= mv.value <= mv.bound
        # A raw float, not a MeasureValue, so no snap absorbs roundoff at the edges.
        assert -1e-12 <= von_neumann_entropy(part) <= math.log(part.signature.total) + 1e-12
    for target in range(n):
        assert abs(ccr_mixedness(rho, target).residual) <= 1e-12
