"""Wave-particle complementarity quantifiers.

Predictabilities read the diagonal of a state in the computational basis,
coherences read the off-diagonal part, and the non-local coherence is the
correlation term that completes the balance for a subsystem of a globally
pure state.  Every quantifier is returned together with its theoretical
maximum for the dimension at hand.  Each formula that the balances of
``ccrkit.ccr`` read is a private kernel on the reduced matrix m or on
p = _diag_probs(m), with d = len(p), and the public quantifier wraps it,
reading m of a PureState or a DensityOperator through ``core._state_matrix``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import (
    DensityOperator,
    PureState,
    _block_view,
    _check_target,
    _entropy,
    _partition_blocks,
    _reduced_matrix,
    _require_pure,
    _state_matrix,
    _subsystems,
    _vn_entropy,
    linear_entropy,
    partial_trace,
)
from .errors import NumericError, ValidationError

__all__ = [
    "MeasureKind",
    "MeasureValue",
    "predictability_hs",
    "predictability_vn",
    "predictability_l1",
    "coherence_hs",
    "coherence_l1",
    "coherence_re",
    "nonlocal_coherence_hs_direct",
    "correlated_coherence",
    "concurrence_generalized",
    "satisfies_offdiag_conditions",
]

# Negative-roundoff clamp window and slack allowed above a theoretical bound.
MEASURE_ATOL = 1e-10
# A linear entropy at most this far from 0 is roundoff (1 - Tr rho^2 cancels to a few ulps),
# and reads 0 before the concurrence's square root.
_S_L_ROUNDOFF = 1e-14
_NOT_A_COHERENCE = "coherence must be coherence_hs, coherence_l1 or coherence_re, got {!r}"


class MeasureKind(enum.Enum):
    P_HS = "P_hs"
    P_VN = "P_vn"
    P_L1 = "P_l1"
    C_HS = "C_hs"
    C_RE = "C_re"
    C_L1 = "C_l1"
    C_NL_HS = "C_nl_hs"
    CONCURRENCE = "concurrence"
    # Entropy terms that close the balances in CCR reports.
    S_VN = "S_vn"
    S_L = "S_l"


@dataclass(frozen=True, slots=True, init=False)
class MeasureValue:
    """A non-negative quantifier together with its theoretical maximum.

    Values in [-MEASURE_ATOL, 0) are treated as roundoff and snapped to 0;
    anything more negative, or above bound + MEASURE_ATOL, is rejected.  A
    NaN or infinite value or bound is a numeric failure, not an input error.
    """

    value: float
    bound: float
    kind: MeasureKind

    def __init__(self, value: float, bound: float, kind: MeasureKind) -> None:
        value = float(value)
        bound = float(bound)
        if not (math.isfinite(value) and math.isfinite(bound)):
            raise NumericError(f"{kind.value} = {value!r} or its bound {bound!r} is not a finite number")
        if -MEASURE_ATOL <= value < 0.0:
            value = 0.0
        if value < 0.0:
            raise ValidationError(f"{kind.value} is negative beyond roundoff: {value!r}")
        if value > bound + MEASURE_ATOL:
            raise ValidationError(f"{kind.value} = {value!r} exceeds its bound {bound!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "kind", kind)


def _diag_probs(m: np.ndarray) -> np.ndarray:
    """Diagonal of m as a clipped real probability vector (a fresh array)."""
    return np.maximum(m.diagonal().real, 0.0)


def _offdiag(m: np.ndarray) -> np.ndarray:
    """A copy of m with its diagonal entries set to 0."""
    off = m.copy()
    off.flat[:: off.shape[0] + 1] = 0.0
    return off


def _offdiag_entries(x: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of the square array x, flat and in row-major order, as x[~eye] gives them."""
    d = x.shape[0]
    return x.reshape(-1)[1:].reshape(d - 1, d + 1)[:, :d].ravel()


def _predictability_hs(p: np.ndarray) -> float:
    return float((p * p).sum()) - 1.0 / len(p)


def _predictability_vn(p: np.ndarray) -> float:
    return math.log(len(p)) - _entropy(p)


def _coherence_hs(m: np.ndarray) -> float:
    return float((np.abs(_offdiag(m)) ** 2).sum())


def _coherence_re(p: np.ndarray, s_vn: float) -> float:
    # p sorted descending, the order _vn_entropy sums its eigenvalues in, so the
    # first term matches S_vn of the diagonal part of m bit for bit.
    q = p.copy()
    q.sort()
    return _entropy(q[::-1]) - s_vn


def predictability_hs(rho: PureState | DensityOperator) -> MeasureValue:
    """sum_i rho_ii^2 - 1/d, bounded by (d - 1)/d."""
    d = rho.signature.total
    return MeasureValue(_predictability_hs(_diag_probs(_state_matrix(rho))), (d - 1) / d, MeasureKind.P_HS)


def predictability_vn(rho: PureState | DensityOperator) -> MeasureValue:
    """ln d + sum_i rho_ii ln rho_ii (0 ln 0 = 0), bounded by ln d."""
    p = _diag_probs(_state_matrix(rho))
    return MeasureValue(_predictability_vn(p), math.log(rho.signature.total), MeasureKind.P_VN)


def predictability_l1(rho: PureState | DensityOperator) -> MeasureValue:
    """d - 1 - sum_{j != k} sqrt(rho_jj rho_kk), bounded by d - 1."""
    d = rho.signature.total
    p = _diag_probs(_state_matrix(rho))
    return MeasureValue(d - 1 - float(np.sqrt(p).sum() ** 2 - p.sum()), d - 1, MeasureKind.P_L1)


def coherence_hs(rho: PureState | DensityOperator) -> MeasureValue:
    """sum_{i != k} |rho_ik|^2, the Hilbert-Schmidt coherence; bound (d - 1)/d."""
    d = rho.signature.total
    return MeasureValue(_coherence_hs(_state_matrix(rho)), (d - 1) / d, MeasureKind.C_HS)


def coherence_l1(rho: PureState | DensityOperator) -> MeasureValue:
    """sum_{i != k} |rho_ik|, the l1-norm coherence; bound d - 1."""
    return MeasureValue(float(np.abs(_offdiag(_state_matrix(rho))).sum()), rho.signature.total - 1, MeasureKind.C_L1)


def coherence_re(rho: PureState | DensityOperator) -> MeasureValue:
    """S_vn(diag(rho)) - S_vn(rho), the relative entropy of coherence; bound ln d."""
    m = _state_matrix(rho)
    return MeasureValue(_coherence_re(_diag_probs(m), _vn_entropy(m)), math.log(rho.signature.total), MeasureKind.C_RE)


_PURE_ONLY = "this form is only meaningful under global purity"


def _nonlocal_hs_sum(state: PureState | DensityOperator, target: int, reduced: np.ndarray) -> float:
    """Index-partition sum over (target pair !=, rest pair !=) terms, in block form.

    Each term is |rho_{iI,jJ}|^2 - rho_{iI,jI} rho*_{iJ,jJ}, i, j on the target and I, J
    over the joint index of the rest.  The I = J terms cancel, so the sum is
    sum_{i != j} (F_ij - |(rho_t)_ij|^2), F from ``core._partition_blocks`` and rho_t =
    ``reduced``.  It is not replaced by 1 - Tr rho_t^2, its value on pure input.
    """
    return float(_offdiag_entries(_partition_blocks(state, target, reduced) - np.abs(reduced) ** 2).sum())


def nonlocal_coherence_hs_direct(rho_full: PureState | DensityOperator, target: int) -> MeasureValue:
    """Non-local Hilbert-Schmidt coherence of ``target``, by the index-partition sum.

    Requires a globally pure state, given as a PureState or as its density
    operator; evaluates the sum over all pairs that differ both on the
    target subsystem and on the joint index of the remaining subsystems,
    in the block form of ``_nonlocal_hs_sum``.
    """
    target = _check_target(rho_full, target, need_partner=True)
    _require_pure(rho_full, _PURE_ONLY)
    d_t = rho_full.signature.dims[target]
    reduced = _reduced_matrix(rho_full, [target])
    return MeasureValue(_nonlocal_hs_sum(rho_full, target, reduced), (d_t - 1) / d_t, MeasureKind.C_NL_HS)


def _split_bipartition(rho: PureState | DensityOperator, bipartition) -> tuple[list[int], list[int]]:
    try:
        left_raw, right_raw = bipartition
    except (TypeError, ValueError):
        raise ValidationError(f"bipartition must be a pair of subsystem index sets, got {bipartition!r}") from None
    left, right = _subsystems(rho, left_raw), _subsystems(rho, right_raw)
    n = len(rho.signature.dims)
    overlap = set(left) & set(right)
    if overlap:
        raise ValidationError(f"bipartition parts overlap on subsystems {sorted(overlap)}")
    if set(left) | set(right) != set(range(n)):
        raise ValidationError(f"bipartition {left} | {right} does not cover all {n} subsystem indices")
    return left, right


def correlated_coherence(
    rho_joint: PureState | DensityOperator,
    bipartition: tuple[Iterable[int], Iterable[int]],
    coherence: Callable[[PureState | DensityOperator], MeasureValue],
) -> float:
    """C(rho_joint) - C(rho_left) - C(rho_right), C the coherence function passed.

    ``coherence`` is the measure itself, ``coherence_hs``, ``coherence_l1`` or
    ``coherence_re``, passed the way ``ccr.audit`` takes its balance.  Another
    function (a predictability, say) is refused with ValidationError by the kind
    of its first result; an error it raises itself (``len`` gives TypeError) is
    not caught.  The l1 form is non-negative for every bipartite state, and the
    relative-entropy form vanishes on products; the Hilbert-Schmidt form can be
    negative (e.g. a coherent state tensored with an incoherent mixed one), so
    the raw value is returned rather than a MeasureValue.
    """
    if not callable(coherence):
        raise ValidationError(_NOT_A_COHERENCE.format(coherence))
    left, right = _split_bipartition(rho_joint, bipartition)
    return _correlated_coherence(rho_joint, partial_trace(rho_joint, left), partial_trace(rho_joint, right), coherence)


def _correlated_coherence(
    joint: PureState | DensityOperator,
    left_rho: DensityOperator,
    right_rho: DensityOperator,
    coherence: Callable[[PureState | DensityOperator], MeasureValue],
) -> float:
    """correlated_coherence given the two reductions of ``joint``, for callers that already hold them."""
    whole = coherence(joint)
    if not isinstance(whole, MeasureValue) or whole.kind not in (MeasureKind.C_HS, MeasureKind.C_L1, MeasureKind.C_RE):
        raise ValidationError(_NOT_A_COHERENCE.format(coherence))
    return whole.value - coherence(left_rho).value - coherence(right_rho).value


def concurrence_generalized(rho_reduced: PureState | DensityOperator) -> MeasureValue:
    """sqrt(2 (1 - Tr rho^2)); an entanglement monotone when rho is a reduction of a pure state.

    A linear entropy of at most 1e-14 is roundoff and reads 0 before the root, which
    would otherwise turn 1e-16 into 1e-8; a concurrence from about 1.4e-7 up is kept.
    """
    d = rho_reduced.signature.total
    s_l = linear_entropy(rho_reduced)
    value = math.sqrt(2.0 * s_l) if s_l > _S_L_ROUNDOFF else 0.0
    return MeasureValue(value, math.sqrt(2.0 * (d - 1) / d), MeasureKind.CONCURRENCE)


def satisfies_offdiag_conditions(
    rho_full: PureState | DensityOperator, bipartition: tuple[Iterable[int], Iterable[int]]
) -> bool:
    """Whether each reduced off-diagonal modulus matches its term-wise sum.

    Checks |sum_j rho_{ij,kj}|^2 == sum_j |rho_{ij,kj}|^2 for all i != k on
    the left part, and the mirrored condition on the right part, each within
    ``MEASURE_ATOL``.  When both hold, the Hilbert-Schmidt correlated coherence
    across the bipartition is non-negative.
    """
    left, _ = _split_bipartition(rho_full, bipartition)
    block = _block_view(_state_matrix(rho_full), rho_full.signature.dims, left)
    for terms in (np.einsum("ijkj->ikj", block), np.einsum("ijil->jli", block)):
        lhs = np.abs(terms.sum(axis=-1)) ** 2
        rhs = (np.abs(terms) ** 2).sum(axis=-1)
        if np.any(_offdiag_entries(np.abs(lhs - rhs)) > MEASURE_ATOL):
            return False
    return True
