"""The one state reader: every public function that takes a state takes a
PureState, reads its matrix through ``core._reduced_matrix``, and gives what it
gives on ``density_from_pure`` of that state.  A function that reads the whole
state gives the same bits, since that read is ``density_from_pure``'s projector;
one that reduces gives it to roundoff."""

import inspect

import numpy as np
import pytest

import ccrkit
import ccrkit.cli
import ccrkit.core
from ccrkit import (
    CapacityError,
    DensityOperator,
    PureState,
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
    purify,
    purity,
    satisfies_offdiag_conditions,
    von_neumann_entropy,
)
from ccrkit.core import _state_matrix
from ccrkit.states import ghz, haar_random_pure, w_state

STATES = {
    "w": w_state(0.5),
    "ghz": ghz(0.6, 0.8),
    "haar_232": next(haar_random_pure((2, 3, 2), 1, seed=0)),
}


def report_values(report):
    return [report.predictability.value, report.local_coherence.value, report.correlation_term.value, report.sum]


#: Each public function that takes a state, as a call on a three-subsystem state
#: that returns numbers.  ``purify`` is compared by its projector, which no
#: eigenvector phase changes.
CALLS = {
    "partial_trace": lambda s: partial_trace(s, [0, 2]).matrix,
    "purity": purity,
    "linear_entropy": linear_entropy,
    "von_neumann_entropy": von_neumann_entropy,
    "purify": lambda s: density_from_pure(purify(s)).matrix,
    "predictability_hs": lambda s: predictability_hs(s).value,
    "predictability_vn": lambda s: predictability_vn(s).value,
    "predictability_l1": lambda s: predictability_l1(s).value,
    "coherence_hs": lambda s: coherence_hs(s).value,
    "coherence_l1": lambda s: coherence_l1(s).value,
    "coherence_re": lambda s: coherence_re(s).value,
    "nonlocal_coherence_hs_direct": lambda s: [nonlocal_coherence_hs_direct(s, t).value for t in range(3)],
    "correlated_coherence": lambda s: [
        correlated_coherence(s, ([0], [1, 2]), c) for c in (coherence_hs, coherence_l1, coherence_re)
    ],
    "concurrence_generalized": lambda s: concurrence_generalized(s).value,
    "satisfies_offdiag_conditions": lambda s: [satisfies_offdiag_conditions(s, ([0, 2], [1]))],
    "ccr_hs": lambda s: [report_values(ccr_hs(s, t)) for t in range(3)],
    "ccr_vn": lambda s: [report_values(ccr_vn(s, t)) for t in range(3)],
    "ccr_mixedness": lambda s: [report_values(ccr_mixedness(s, t)) for t in range(3)],
    "ccr_inequality_gap": lambda s: [ccr_inequality_gap(s, t) for t in range(3)],
}

#: The functions that read the whole state, which is density_from_pure's projector
#: on both sides, so they give the same bits.
WHOLE_STATE = {
    "purity",
    "linear_entropy",
    "von_neumann_entropy",
    "purify",
    "predictability_hs",
    "predictability_vn",
    "predictability_l1",
    "coherence_hs",
    "coherence_l1",
    "coherence_re",
    "concurrence_generalized",
    "satisfies_offdiag_conditions",
}

# A reduction of a PureState (M M^dag, Hermitian-symmetrised) and of its density
# (a partial trace of the projector) differ in their last bits.  Most functions
# that reduce keep that within 1e-15.  Over 400 Haar (2, 3, 2) states (seed 1),
# correlated_coherence, whose relative-entropy form takes -x ln x over the
# roundoff-size eigenvalues of a rank-2 reduction onto two subsystems, deviated
# by up to 7.6e-15, and ccr_vn's entropies by 7.8e-16, too near 1e-15 to hold
# there; both get 1e-13.
ILL_CONDITIONED = {"correlated_coherence", "ccr_vn"}


def state_taking_functions():
    """Names of the public functions whose first parameter is annotated with DensityOperator."""
    names = []
    for name in ccrkit.__all__:
        obj = getattr(ccrkit, name)
        if inspect.isfunction(obj):
            first = next(iter(inspect.signature(obj).parameters.values()), None)
            if first is not None and "DensityOperator" in str(first.annotation):
                names.append(name)
    return names


def test_every_state_taking_function_is_compared_and_takes_a_pure_state():
    names = state_taking_functions()
    assert set(names) == set(CALLS)
    for name in names:
        (first, *_) = inspect.signature(getattr(ccrkit, name)).parameters.values()
        assert str(first.annotation) == "PureState | DensityOperator", name


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("label", sorted(STATES))
def test_pure_state_matches_its_density(name, label):
    psi = STATES[label]
    got = np.asarray(CALLS[name](psi), dtype=complex)
    want = np.asarray(CALLS[name](density_from_pure(psi)), dtype=complex)
    if name in WHOLE_STATE:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.max(np.abs(got - want)) <= (1e-13 if name in ILL_CONDITIONED else 1e-15)


@pytest.mark.parametrize("name", sorted(WHOLE_STATE))
def test_whole_state_function_keeps_its_bits_over_a_haar_ensemble(name):
    for psi in haar_random_pure((2, 3, 2), 400, seed=1):
        got = np.asarray(CALLS[name](psi), dtype=complex)
        assert got.tobytes() == np.asarray(CALLS[name](density_from_pure(psi)), dtype=complex).tobytes()


@pytest.mark.parametrize("label", sorted(STATES))
def test_whole_state_read_of_a_pure_state_is_its_reduction_to_every_subsystem(label):
    psi = STATES[label]
    whole = partial_trace(psi, range(len(psi.dims)))
    assert _state_matrix(psi).tobytes() == whole.matrix.tobytes() == density_from_pure(psi).matrix.tobytes()
    # So a whole-state function gives on the PureState the bits it gives on that density.
    for fn in (purity, von_neumann_entropy, coherence_re, predictability_l1):
        assert fn(psi) == fn(whole)


def test_whole_state_read_of_a_density_is_its_own_matrix():
    rho = density_from_pure(STATES["haar_232"])
    assert _state_matrix(rho) is rho.matrix


def test_whole_state_read_of_a_pure_state_is_capped():
    psi = PureState((2,) * 13, np.eye(1, 2**13, 0)[0])
    with pytest.raises(CapacityError, match="total dimension 8192 exceeds"):
        purity(psi)
    with pytest.raises(CapacityError, match="total dimension 8192 exceeds"):
        coherence_hs(psi)
    # A reduction inside the cap is still read from the amplitudes.
    assert partial_trace(psi, [0, 1]).matrix[0, 0] == 1.0


def test_density_from_pure_of_an_over_cap_state_raises_before_it_allocates(monkeypatch):
    psi = PureState((2,) * 13, np.eye(1, 2**13, 0)[0])
    monkeypatch.setattr(np, "outer", lambda *args: pytest.fail("the D x D projector was formed"))
    with pytest.raises(CapacityError, match="total dimension 8192 exceeds"):
        density_from_pure(psi)


def test_reader_is_the_only_reader_of_a_matrix():
    # Outside the two constructors, no function of the library reads ``.matrix`` itself.
    for module in (ccrkit.core, ccrkit.measures, ccrkit.ccr, ccrkit.states, ccrkit.cli):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ != module.__name__ or name in {"_reduced_matrix", "_density_unchecked"}:
                continue
            assert ".matrix" not in inspect.getsource(fn), f"{module.__name__}.{name}"
    assert ".matrix" not in inspect.getsource(DensityOperator).replace("self.matrix = mat", "")
