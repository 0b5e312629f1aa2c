"""Wave-particle complementarity quantifiers.

Predictabilities read the diagonal of a state in the computational basis,
coherences read the off-diagonal part, and the non-local coherence is the
correlation term that completes the balance for a subsystem of a globally
pure state.  Every quantifier is returned together with its theoretical
maximum for the dimension at hand.  Each formula that the balances of
``ccrkit.ccr`` read is a private kernel on the reduced matrix m or on
p = _diag_probs(m), with d = len(p), and the public quantifier wraps it.
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
    _reduced_matrix,
    _require_pure,
    _vn_entropy,
    linear_entropy,
    partial_trace,
)
from .errors import NumericError, ValidationError

__all__ = [
    "MEASURE_ATOL",
    "MeasureKind",
    "CoherenceKind",
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


class CoherenceKind(enum.Enum):
    HILBERT_SCHMIDT = "hilbert_schmidt"
    RELATIVE_ENTROPY = "relative_entropy"
    L1_NORM = "l1_norm"


@dataclass(frozen=True, slots=True, init=False)
class MeasureValue:
    """A non-negative quantifier together with its theoretical maximum.

    Values in [-MEASURE_ATOL, 0) are treated as roundoff and snapped to 0;
    anything more negative, or above bound + MEASURE_ATOL, is rejected.  A
    NaN or infinite value is a numeric failure, not an input error.
    """

    value: float
    bound: float
    kind: MeasureKind

    def __init__(self, value: float, bound: float, kind: MeasureKind) -> None:
        value = float(value)
        bound = float(bound)
        if not math.isfinite(value):
            raise NumericError(f"{kind.value} is not a finite number: {value!r}")
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
    return _entropy(np.sort(p)[::-1]) - s_vn


def predictability_hs(rho: DensityOperator) -> MeasureValue:
    """sum_i rho_ii^2 - 1/d, bounded by (d - 1)/d."""
    d = rho.signature.total
    return MeasureValue(_predictability_hs(_diag_probs(rho.matrix)), (d - 1) / d, MeasureKind.P_HS)


def predictability_vn(rho: DensityOperator) -> MeasureValue:
    """ln d + sum_i rho_ii ln rho_ii (0 ln 0 = 0), bounded by ln d."""
    return MeasureValue(_predictability_vn(_diag_probs(rho.matrix)), math.log(rho.signature.total), MeasureKind.P_VN)


def predictability_l1(rho: DensityOperator) -> MeasureValue:
    """d - 1 - sum_{j != k} sqrt(rho_jj rho_kk), bounded by d - 1."""
    d = rho.signature.total
    p = _diag_probs(rho.matrix)
    return MeasureValue(d - 1 - float(np.sqrt(p).sum() ** 2 - p.sum()), d - 1, MeasureKind.P_L1)


def coherence_hs(rho: DensityOperator) -> MeasureValue:
    """sum_{i != k} |rho_ik|^2, the Hilbert-Schmidt coherence; bound (d - 1)/d."""
    d = rho.signature.total
    return MeasureValue(_coherence_hs(rho.matrix), (d - 1) / d, MeasureKind.C_HS)


def coherence_l1(rho: DensityOperator) -> MeasureValue:
    """sum_{i != k} |rho_ik|, the l1-norm coherence; bound d - 1."""
    return MeasureValue(float(np.abs(_offdiag(rho.matrix)).sum()), rho.signature.total - 1, MeasureKind.C_L1)


def coherence_re(rho: DensityOperator) -> MeasureValue:
    """S_vn(diag(rho)) - S_vn(rho), the relative entropy of coherence; bound ln d."""
    m = rho.matrix
    return MeasureValue(_coherence_re(_diag_probs(m), _vn_entropy(m)), math.log(rho.signature.total), MeasureKind.C_RE)


_PURE_ONLY = "this form is only meaningful under global purity"


def _nonlocal_hs_sum(state: PureState | DensityOperator, target: int, reduced: np.ndarray) -> float:
    """Index-partition sum over (target pair !=, rest pair !=) terms, in block form.

    Each term is |rho_{iI,jJ}|^2 - rho_{iI,jI} rho*_{iJ,jJ}, with i, j
    running over the target subsystem and I, J over the joint index of all
    remaining subsystems.  The I = J terms are |rho_{iI,jI}|^2 minus the
    same number, so they cancel and the rest sum may run over every (I, J).
    That gives sum_{i != j} (F_ij - |(rho_t)_ij|^2), with ``reduced`` the
    ndarray rho_t = _reduced_matrix(state, [target]) and F_ij the squared
    Frobenius norm of the rest x rest block rho^(ij).  For a PureState,
    rho_{iI,jJ} = M_iI M*_jJ, so F = outer(p, p) with p = diag(rho_t); a
    DensityOperator sums |rho|^2 over the rest axes.  The sum keeps this
    form and is not replaced by 1 - Tr rho_t^2, its value on pure input.
    """
    if isinstance(state, PureState):
        p = reduced.diagonal().real
        blocks = p[:, None] * p
    else:
        dims = state.signature.dims
        n = len(dims)
        rest_axes = tuple(m for m in range(2 * n) if m not in (target, n + target))
        blocks = np.sum(np.abs(state.matrix.reshape(dims + dims)) ** 2, axis=rest_axes)
    return float(_offdiag_entries(blocks - np.abs(reduced) ** 2).sum())


def nonlocal_coherence_hs_direct(rho_full: PureState | DensityOperator, target: int) -> MeasureValue:
    """Non-local Hilbert-Schmidt coherence of ``target``, by the index-partition sum.

    Requires a globally pure state, given as a PureState or as its density
    operator; evaluates the sum over all pairs that differ both on the
    target subsystem and on the joint index of the remaining subsystems,
    in the block form of ``_nonlocal_hs_sum``.
    """
    return _nonlocal_coherence_hs(rho_full, target, None)


def _nonlocal_coherence_hs(
    rho_full: PureState | DensityOperator, target: int, reduced: np.ndarray | None
) -> MeasureValue:
    """nonlocal_coherence_hs_direct, reusing ``reduced`` = _reduced_matrix(rho_full, [target]) when given."""
    target = _check_target(rho_full, target, need_partner=True)
    _require_pure(rho_full, _PURE_ONLY)
    if reduced is None:
        reduced = _reduced_matrix(rho_full, [target])
    d_t = rho_full.signature.dims[target]
    return MeasureValue(_nonlocal_hs_sum(rho_full, target, reduced), (d_t - 1) / d_t, MeasureKind.C_NL_HS)


def _split_bipartition(rho: DensityOperator, bipartition) -> tuple[list[int], list[int]]:
    left_raw, right_raw = bipartition
    left = sorted({int(i) for i in left_raw})
    right = sorted({int(i) for i in right_raw})
    n = len(rho.signature.dims)
    if not left or not right:
        raise ValidationError("both parts of the bipartition must be nonempty")
    overlap = set(left) & set(right)
    if overlap:
        raise ValidationError(f"bipartition parts overlap on subsystems {sorted(overlap)}")
    if set(left) | set(right) != set(range(n)):
        raise ValidationError(
            f"bipartition {left} | {right} does not cover all {n} subsystem indices"
        )
    return left, right


_COHERENCE_BY_KIND: dict[CoherenceKind, Callable[[DensityOperator], float]] = {
    CoherenceKind.HILBERT_SCHMIDT: lambda rho: coherence_hs(rho).value,
    CoherenceKind.L1_NORM: lambda rho: coherence_l1(rho).value,
    CoherenceKind.RELATIVE_ENTROPY: lambda rho: coherence_re(rho).value,
}


def correlated_coherence(
    rho_joint: DensityOperator,
    bipartition: tuple[Iterable[int], Iterable[int]],
    kind: CoherenceKind,
) -> float:
    """C(rho_joint) - C(rho_left) - C(rho_right) for the chosen coherence measure.

    The l1 form is non-negative for every bipartite state, and the
    relative-entropy form vanishes on products; the Hilbert-Schmidt form can
    be negative (e.g. a coherent state tensored with an incoherent mixed
    one), so the raw value is returned rather than a MeasureValue.
    """
    left, right = _split_bipartition(rho_joint, bipartition)
    return _correlated_coherence(rho_joint, partial_trace(rho_joint, left), partial_trace(rho_joint, right), kind)


def _correlated_coherence(
    joint: DensityOperator, left_rho: DensityOperator, right_rho: DensityOperator, kind: CoherenceKind
) -> float:
    """correlated_coherence given the two reductions of ``joint``, for callers that already hold them."""
    coherence = _COHERENCE_BY_KIND[kind]
    return coherence(joint) - coherence(left_rho) - coherence(right_rho)


def concurrence_generalized(rho_reduced: DensityOperator) -> MeasureValue:
    """sqrt(2 (1 - Tr rho^2)); an entanglement monotone when rho is a reduction of a pure state."""
    d = rho_reduced.signature.total
    value = math.sqrt(2.0 * max(linear_entropy(rho_reduced), 0.0))
    return MeasureValue(value, math.sqrt(2.0 * (d - 1) / d), MeasureKind.CONCURRENCE)


def satisfies_offdiag_conditions(
    rho_full: DensityOperator, bipartition: tuple[Iterable[int], Iterable[int]]
) -> bool:
    """Whether each reduced off-diagonal modulus matches its term-wise sum.

    Checks |sum_j rho_{ij,kj}|^2 == sum_j |rho_{ij,kj}|^2 for all i != k on
    the left part, and the mirrored condition on the right part, each within
    ``MEASURE_ATOL``.  When both hold, the Hilbert-Schmidt correlated coherence
    across the bipartition is non-negative.
    """
    left, right = _split_bipartition(rho_full, bipartition)
    block = _block_view(rho_full, left, right)

    terms_left = np.einsum("ijkj->ikj", block)
    lhs = np.abs(terms_left.sum(axis=-1)) ** 2
    rhs = (np.abs(terms_left) ** 2).sum(axis=-1)
    if np.any(_offdiag_entries(np.abs(lhs - rhs)) > MEASURE_ATOL):
        return False

    terms_right = np.einsum("ijil->jli", block)
    lhs = np.abs(terms_right.sum(axis=-1)) ** 2
    rhs = (np.abs(terms_right) ** 2).sum(axis=-1)
    return not np.any(_offdiag_entries(np.abs(lhs - rhs)) > MEASURE_ATOL)
