"""Complete complementarity relations (CCRs) and their residuals.

For a subsystem of a globally pure state the predictability, local
coherence, and a correlation term add up exactly to a dimensional bound;
for arbitrary (possibly mixed) states the balance closes instead with the
local mixedness, and for a mixed global state the pure-state form leaves a
non-negative information gap.

The three balances and the inequality gap take a PureState or a
DensityOperator.  Each reduces its input once, with one body for both
kinds, to the plain ndarray rho_t of ``core._reduced_matrix`` (a PureState
from its amplitudes, never expanded to |psi><psi|), and reads every term
from the kernels of ``ccrkit.measures`` and ``core._partition_blocks``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityOperator,
    PureState,
    _check_target,
    _partition_blocks,
    _purity,
    _reduced_matrix,
    _require_pure,
    _vn_entropy,
)
from .measures import (
    MeasureKind,
    MeasureValue,
    _coherence_hs,
    _coherence_re,
    _diag_probs,
    _nonlocal_hs_sum,
    _offdiag_entries,
    _predictability_hs,
    _predictability_vn,
)

__all__ = ["CCRFlavor", "CCRReport", "ccr_hs", "ccr_vn", "ccr_mixedness", "ccr_inequality_gap"]


class CCRFlavor(enum.Enum):
    HS_PURE = "hs_pure"
    VN_PURE_BIPARTITE = "vn_pure_bipartite"
    HS_MIXEDNESS = "hs_mixedness"


@dataclass(frozen=True, slots=True)
class CCRReport:
    """One complementarity balance for a target subsystem.

    ``residual`` is ``sum - bound``: negative means an information deficit.
    """

    target: int
    predictability: MeasureValue
    local_coherence: MeasureValue
    correlation_term: MeasureValue
    sum: float
    bound: float
    residual: float
    flavor: CCRFlavor


def _assemble(
    target: int,
    predictability: MeasureValue,
    local_coherence: MeasureValue,
    correlation_term: MeasureValue,
    bound: float,
    flavor: CCRFlavor,
) -> CCRReport:
    total = predictability.value + local_coherence.value + correlation_term.value
    return CCRReport(
        target=target,
        predictability=predictability,
        local_coherence=local_coherence,
        correlation_term=correlation_term,
        sum=total,
        bound=bound,
        residual=total - bound,
        flavor=flavor,
    )


def _hs_local_terms(m: np.ndarray, bound: float) -> tuple[MeasureValue, MeasureValue]:
    """P_hs and C_hs of the reduced matrix m."""
    return (
        MeasureValue(_predictability_hs(_diag_probs(m)), bound, MeasureKind.P_HS),
        MeasureValue(_coherence_hs(m), bound, MeasureKind.C_HS),
    )


def ccr_hs(rho_full: PureState | DensityOperator, target: int) -> CCRReport:
    """Hilbert-Schmidt balance P_hs + C_hs + C_nl_hs = (d - 1)/d for pure global states."""
    target = _check_target(rho_full, target, need_partner=True)
    _require_pure(rho_full, "use ccr_mixedness for the mixed-state form")
    m = _reduced_matrix(rho_full, [target])
    d_t = m.shape[0]
    bound = (d_t - 1) / d_t
    predictability, coherence = _hs_local_terms(m, bound)
    correlation = MeasureValue(_nonlocal_hs_sum(rho_full, target, m), bound, MeasureKind.C_NL_HS)
    return _assemble(target, predictability, coherence, correlation, bound, CCRFlavor.HS_PURE)


def ccr_vn(rho_full: PureState | DensityOperator, target: int) -> CCRReport:
    """Entropic balance C_re + P_vn + S_vn = ln d on the target-vs-rest split.

    Reading S_vn of the reduced state as entanglement requires the global
    state to be pure, so mixed inputs are rejected.  The spectrum is solved
    once, and S_vn and C_re both read it.
    """
    target = _check_target(rho_full, target, need_partner=True)
    _require_pure(rho_full, "the entropic CCR requires a pure global state")
    m = _reduced_matrix(rho_full, [target])
    bound = math.log(m.shape[0])
    p = _diag_probs(m)
    s_vn = _vn_entropy(m)
    return _assemble(
        target,
        MeasureValue(_predictability_vn(p), bound, MeasureKind.P_VN),
        MeasureValue(_coherence_re(p, s_vn), bound, MeasureKind.C_RE),
        MeasureValue(s_vn, bound, MeasureKind.S_VN),
        bound,
        CCRFlavor.VN_PURE_BIPARTITE,
    )


def ccr_mixedness(rho_any: PureState | DensityOperator, target: int) -> CCRReport:
    """Balance P_hs + C_hs + S_l = (d - 1)/d on the reduced target state.

    Holds identically for any valid state, pure or mixed, because
    P_hs + C_hs = Tr rho^2 - 1/d is an algebraic identity; the linear
    entropy term quantifies the mixedness of the subsystem whatever its
    origin (correlations or environment noise).
    """
    target = _check_target(rho_any, target, need_partner=False)
    m = _reduced_matrix(rho_any, [target])
    d_t = m.shape[0]
    bound = (d_t - 1) / d_t
    mixedness = MeasureValue(1.0 - _purity(m), bound, MeasureKind.S_L)
    return _assemble(target, *_hs_local_terms(m, bound), mixedness, bound, CCRFlavor.HS_MIXEDNESS)


def ccr_inequality_gap(rho_any: PureState | DensityOperator, target: int) -> float:
    """sum_{i != j} (p_i p_j - F_ij), p = diag(rho_t), F from ``core._partition_blocks``.

    It equals (d - 1)/d - (P_hs + C_hs + C_nl_hs).  Each term is >= 0, as |rho_{iI,jJ}|^2 <= rho_{iI,iI} rho_{jJ,jJ}
    for a PSD rho; a pure state has F = outer(p, p), so every term is 0, exactly so on a PureState.
    """
    target = _check_target(rho_any, target, need_partner=True)
    m = _reduced_matrix(rho_any, [target])
    p = m.diagonal().real
    return float(_offdiag_entries(p[:, None] * p - _partition_blocks(rho_any, target, m)).sum())
