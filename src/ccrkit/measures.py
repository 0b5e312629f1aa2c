"""Wave-particle complementarity quantifiers.

Predictabilities read the diagonal of a state in the computational basis,
coherences read the off-diagonal part, and the non-local coherence is the
correlation term that completes the balance for a subsystem of a globally
pure state.  Every quantifier is returned together with its theoretical
maximum for the dimension at hand.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .core import (
    DEFAULT_TOL,
    DensityOperator,
    Tolerances,
    _block_view,
    _check_target,
    _entropy,
    _require_pure,
    linear_entropy,
    partial_trace,
    von_neumann_entropy,
)
from .errors import ValidationError

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
    "nonlocal_coherence_hs_via_entropy",
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
    C_CORR = "C_corr"
    CONCURRENCE = "concurrence"
    # Entropy terms that close the balances in CCR reports.
    S_VN = "S_vn"
    S_L = "S_l"


class CoherenceKind(enum.Enum):
    HILBERT_SCHMIDT = "hilbert_schmidt"
    RELATIVE_ENTROPY = "relative_entropy"
    L1_NORM = "l1_norm"


@dataclass(frozen=True)
class MeasureValue:
    """A non-negative quantifier together with its theoretical maximum.

    Values in [-MEASURE_ATOL, 0) are treated as roundoff and snapped to 0;
    anything more negative, or above bound + MEASURE_ATOL, is rejected.
    """

    value: float
    bound: float
    kind: MeasureKind

    def __post_init__(self) -> None:
        value = float(self.value)
        bound = float(self.bound)
        if -MEASURE_ATOL <= value < 0.0:
            value = 0.0
        if value < 0.0:
            raise ValidationError(f"{self.kind.value} is negative beyond roundoff: {value!r}")
        if value > bound + MEASURE_ATOL:
            raise ValidationError(f"{self.kind.value} = {value!r} exceeds its bound {bound!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "bound", bound)


def _diag_probs(rho: DensityOperator) -> np.ndarray:
    """Diagonal of rho as a clipped real probability vector."""
    return np.clip(np.diag(rho.matrix).real, 0.0, None)


def _offdiag(rho: DensityOperator) -> np.ndarray:
    m = rho.matrix
    return m - np.diag(np.diag(m))


def predictability_hs(rho: DensityOperator) -> MeasureValue:
    """sum_i rho_ii^2 - 1/d, bounded by (d - 1)/d."""
    d = rho.signature.total
    p = _diag_probs(rho)
    return MeasureValue(float(np.sum(p * p)) - 1.0 / d, (d - 1) / d, MeasureKind.P_HS)


def predictability_vn(rho: DensityOperator) -> MeasureValue:
    """ln d + sum_i rho_ii ln rho_ii (0 ln 0 = 0), bounded by ln d."""
    d = rho.signature.total
    return MeasureValue(math.log(d) - _entropy(_diag_probs(rho)), math.log(d), MeasureKind.P_VN)


def predictability_l1(rho: DensityOperator) -> MeasureValue:
    """d - 1 - sum_{j != k} sqrt(rho_jj rho_kk), bounded by d - 1."""
    d = rho.signature.total
    p = _diag_probs(rho)
    roots = np.sqrt(p)
    pair_sum = float(roots.sum() ** 2 - p.sum())
    return MeasureValue(d - 1 - pair_sum, d - 1, MeasureKind.P_L1)


def coherence_hs(rho: DensityOperator) -> MeasureValue:
    """sum_{i != k} |rho_ik|^2, the Hilbert-Schmidt coherence; bound (d - 1)/d."""
    d = rho.signature.total
    off = _offdiag(rho)
    return MeasureValue(float(np.sum(np.abs(off) ** 2)), (d - 1) / d, MeasureKind.C_HS)


def coherence_l1(rho: DensityOperator) -> MeasureValue:
    """sum_{i != k} |rho_ik|, the l1-norm coherence; bound d - 1."""
    d = rho.signature.total
    return MeasureValue(float(np.sum(np.abs(_offdiag(rho)))), d - 1, MeasureKind.C_L1)


def coherence_re(rho: DensityOperator, *, tol: Tolerances | None = None) -> MeasureValue:
    """S_vn(diag(rho)) - S_vn(rho), the relative entropy of coherence; bound ln d."""
    # Descending, the order of hermitian_spectrum, so this matches S_vn(dephased(rho)) bit for bit.
    dephased_entropy = _entropy(np.sort(_diag_probs(rho))[::-1])
    value = dephased_entropy - von_neumann_entropy(rho, tol=tol)
    return MeasureValue(value, math.log(rho.signature.total), MeasureKind.C_RE)


_PURE_ONLY = "this form is only meaningful under global purity"


def _nonlocal_hs_sum(rho_full: DensityOperator, target: int) -> float:
    """Literal index-partition sum over (target pair != , rest pair !=) terms.

    Each term is |rho_{iI,jJ}|^2 - rho_{iI,jI} rho*_{iJ,jJ}, with i, j
    running over the target subsystem and I, J over the joint index of all
    remaining subsystems.
    """
    others = [m for m in range(len(rho_full.signature.dims)) if m != target]
    block = _block_view(rho_full, [target], others)
    d_t, rest = block.shape[:2]
    # rho_{iI,jI}: diagonal in the rest index.
    rest_diag = np.einsum("ixjx->ijx", block)
    abs_sq = np.abs(block.transpose(0, 2, 1, 3)) ** 2
    cross = rest_diag[:, :, :, None] * rest_diag.conj()[:, :, None, :]
    pair_mask = (
        (~np.eye(d_t, dtype=bool))[:, :, None, None]
        & (~np.eye(rest, dtype=bool))[None, None, :, :]
    )
    return float(np.sum((abs_sq - cross)[pair_mask]).real)


def nonlocal_coherence_hs_direct(
    rho_full: DensityOperator, target: int, *, tol: Tolerances | None = None
) -> MeasureValue:
    """Non-local Hilbert-Schmidt coherence of ``target``, by the explicit sum.

    Requires a globally pure state; evaluates the index-partition sum over
    all pairs that differ both on the target subsystem and on the joint
    index of the remaining subsystems.
    """
    tol = tol or DEFAULT_TOL
    target = _check_target(rho_full, target, need_partner=True)
    _require_pure(rho_full, tol, _PURE_ONLY)
    d_t = rho_full.signature.dims[target]
    return MeasureValue(_nonlocal_hs_sum(rho_full, target), (d_t - 1) / d_t, MeasureKind.C_NL_HS)


def nonlocal_coherence_hs_via_entropy(
    rho_full: DensityOperator, target: int, *, tol: Tolerances | None = None
) -> MeasureValue:
    """Non-local coherence of ``target`` as the linear entropy of its reduced state.

    For globally pure states this equals the explicit index-partition sum,
    which makes the two routes independent cross-checks of each other.
    """
    tol = tol or DEFAULT_TOL
    target = _check_target(rho_full, target, need_partner=True)
    _require_pure(rho_full, tol, _PURE_ONLY)
    d_t = rho_full.signature.dims[target]
    value = linear_entropy(partial_trace(rho_full, [target]))
    return MeasureValue(value, (d_t - 1) / d_t, MeasureKind.C_NL_HS)


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
    coherence = _COHERENCE_BY_KIND[kind]
    return (
        coherence(rho_joint)
        - coherence(partial_trace(rho_joint, left))
        - coherence(partial_trace(rho_joint, right))
    )


def concurrence_generalized(rho_reduced: DensityOperator) -> MeasureValue:
    """sqrt(2 (1 - Tr rho^2)); an entanglement monotone when rho is a reduction of a pure state."""
    d = rho_reduced.signature.total
    value = math.sqrt(2.0 * max(linear_entropy(rho_reduced), 0.0))
    return MeasureValue(value, math.sqrt(2.0 * (d - 1) / d), MeasureKind.CONCURRENCE)


def satisfies_offdiag_conditions(
    rho_full: DensityOperator,
    bipartition: tuple[Iterable[int], Iterable[int]],
    *,
    atol: float = MEASURE_ATOL,
) -> bool:
    """Whether each reduced off-diagonal modulus matches its term-wise sum.

    Checks |sum_j rho_{ij,kj}|^2 == sum_j |rho_{ij,kj}|^2 for all i != k on
    the left part, and the mirrored condition on the right part, each within
    ``atol``.  When both hold, the Hilbert-Schmidt correlated coherence
    across the bipartition is non-negative.
    """
    left, right = _split_bipartition(rho_full, bipartition)
    block = _block_view(rho_full, left, right)
    dim_left, dim_right = block.shape[:2]

    terms_left = np.einsum("ijkj->ikj", block)
    lhs = np.abs(terms_left.sum(axis=-1)) ** 2
    rhs = (np.abs(terms_left) ** 2).sum(axis=-1)
    if np.any(np.abs(lhs - rhs)[~np.eye(dim_left, dtype=bool)] > atol):
        return False

    terms_right = np.einsum("ijil->jli", block)
    lhs = np.abs(terms_right.sum(axis=-1)) ** 2
    rhs = (np.abs(terms_right) ** 2).sum(axis=-1)
    return not np.any(np.abs(lhs - rhs)[~np.eye(dim_right, dtype=bool)] > atol)
