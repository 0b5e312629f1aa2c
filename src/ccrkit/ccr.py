"""Complete complementarity relations (CCRs) and their residuals.

For a subsystem of a globally pure state the predictability, local
coherence, and a correlation term add up exactly to a dimensional bound;
for arbitrary (possibly mixed) states the balance closes instead with the
local mixedness, and for a mixed global state the pure-state form leaves a
non-negative information gap.

The balances are data: one row of ``_BALANCES`` per ``CCRFlavor`` (purity
hint, bound, term kinds and a terms kernel) run by one body, ``_balance``,
so a new flavor is a row plus a kernel.  It and the inequality gap reduce a
PureState (from its amplitudes, never |psi><psi|) or a DensityOperator once,
to the plain ndarray rho_t of ``core._reduced_matrix``.  ``audit`` runs a
balance on every target of a Haar-random ensemble.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    DensityOperator,
    DimensionSignature,
    PureState,
    _check_target,
    _partition_blocks,
    _purity,
    _reduced_matrix,
    _require_pure,
    _vn_entropy,
)
from .errors import ValidationError
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
from .states import haar_random_pure

__all__ = ["CCRFlavor", "CCRReport", "ccr_hs", "ccr_vn", "ccr_mixedness", "ccr_inequality_gap", "AuditResult", "audit"]


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


def _vn_terms(state: PureState | DensityOperator, target: int, m: np.ndarray) -> tuple[float, float, float]:
    p = _diag_probs(m)
    s_vn = _vn_entropy(m)
    return _predictability_vn(p), _coherence_re(p, s_vn), s_vn


def _hs_bound(d: int) -> float:
    return (d - 1) / d


#: flavor -> (hint: why a mixed state is refused, or None when any state and a lone subsystem are
#: accepted; bound(d); the kinds of P, C and the correlation term; terms(state, target, m) -> (P, C, X)).
_BALANCES = {
    CCRFlavor.HS_PURE: (
        "use ccr_mixedness for the mixed-state form", _hs_bound,
        (MeasureKind.P_HS, MeasureKind.C_HS, MeasureKind.C_NL_HS),
        lambda state, t, m: (_predictability_hs(_diag_probs(m)), _coherence_hs(m), _nonlocal_hs_sum(state, t, m)),
    ),
    CCRFlavor.VN_PURE_BIPARTITE: (
        "the entropic CCR requires a pure global state", math.log,
        (MeasureKind.P_VN, MeasureKind.C_RE, MeasureKind.S_VN), _vn_terms,
    ),
    CCRFlavor.HS_MIXEDNESS: (
        None, _hs_bound,
        (MeasureKind.P_HS, MeasureKind.C_HS, MeasureKind.S_L),
        lambda state, t, m: (_predictability_hs(_diag_probs(m)), _coherence_hs(m), 1.0 - _purity(m)),
    ),
}


def _balance(flavor: CCRFlavor, state: PureState | DensityOperator, target: int) -> CCRReport:
    """The ``flavor`` row of ``_BALANCES`` on ``state``'s reduction onto ``target``, as a report."""
    hint, bound_of, (p_kind, c_kind, x_kind), terms = _BALANCES[flavor]
    target = _check_target(state, target, need_partner=hint is not None)
    if hint is not None:
        _require_pure(state, hint)
    m = _reduced_matrix(state, [target])
    bound = bound_of(m.shape[0])
    p, c, x = terms(state, target, m)
    p, c, x = MeasureValue(p, bound, p_kind), MeasureValue(c, bound, c_kind), MeasureValue(x, bound, x_kind)
    total = p.value + c.value + x.value
    return CCRReport(target, p, c, x, total, bound, total - bound, flavor)


def ccr_hs(rho_full: PureState | DensityOperator, target: int) -> CCRReport:
    """Hilbert-Schmidt balance P_hs + C_hs + C_nl_hs = (d - 1)/d for pure global states."""
    return _balance(CCRFlavor.HS_PURE, rho_full, target)


def ccr_vn(rho_full: PureState | DensityOperator, target: int) -> CCRReport:
    """Entropic balance C_re + P_vn + S_vn = ln d on the target-vs-rest split.

    Reading S_vn of the reduced state as entanglement requires the global
    state to be pure, so mixed inputs are rejected.  The spectrum is solved
    once, and S_vn and C_re both read it.
    """
    return _balance(CCRFlavor.VN_PURE_BIPARTITE, rho_full, target)


def ccr_mixedness(rho_any: PureState | DensityOperator, target: int) -> CCRReport:
    """Balance P_hs + C_hs + S_l = (d - 1)/d on the reduced target state.

    Holds identically for any valid state, pure or mixed, because
    P_hs + C_hs = Tr rho^2 - 1/d is an algebraic identity; the linear
    entropy term quantifies the mixedness of the subsystem whatever its
    origin (correlations or environment noise).
    """
    return _balance(CCRFlavor.HS_MIXEDNESS, rho_any, target)


def ccr_inequality_gap(rho_any: PureState | DensityOperator, target: int) -> float:
    """sum_{i != j} (p_i p_j - F_ij), p = diag(rho_t), F from ``core._partition_blocks``.

    It equals (d - 1)/d - (P_hs + C_hs + C_nl_hs).  Each term is >= 0, as |rho_{iI,jJ}|^2 <= rho_{iI,iI} rho_{jJ,jJ}
    for a PSD rho; a pure state has F = outer(p, p), so every term is 0, exactly so on a PureState.
    """
    target = _check_target(rho_any, target, need_partner=True)
    m = _reduced_matrix(rho_any, [target])
    p = m.diagonal().real
    return float(_offdiag_entries(p[:, None] * p - _partition_blocks(rho_any, target, m)).sum())


_NOT_A_BALANCE = "balance must be a function such as ccr_hs, got {!r}"


@dataclass(frozen=True, slots=True)
class AuditResult:
    """An ``audit``'s check count, max and mean |residual|, and the (state index, target) of the first
    check that reached the max (``worst``; (0, 0) if every residual is 0.0)."""

    checks: int
    max_residual: float
    mean_residual: float
    worst: tuple[int, int]


def audit(dims, count: int, seed: int, balance: Callable[[PureState, int], CCRReport]) -> AuditResult:
    """``balance`` on every target of each ``haar_random_pure(dims, count, seed)`` state, in order.

    A ``balance`` that is not callable, fewer than 2 subsystems, an over-cap ``dims``, a bad ``count`` or a
    negative ``seed`` raise before any state is drawn.  Another function (a measure, say) is refused with
    ValidationError by the type of its first result; an error it raises itself is not caught.
    """
    if not callable(balance):
        raise ValidationError(_NOT_A_BALANCE.format(balance))
    signature = DimensionSignature(dims)
    if len(signature) < 2:
        raise ValidationError(f"CCR auditing needs at least 2 subsystems, got dims {signature.dims}")
    # A running max and a left-to-right total, which sum() no longer is from Python 3.12 on.
    worst, max_residual, total = (0, 0), 0.0, 0.0
    for index, psi in enumerate(haar_random_pure(signature, count, seed)):
        for target in range(len(signature)):
            report = balance(psi, target)
            if index == target == 0 and not isinstance(report, CCRReport):
                raise ValidationError(_NOT_A_BALANCE.format(balance))
            residual = abs(report.residual)
            if residual > max_residual:
                worst, max_residual = (index, target), residual
            total += residual
    checks = count * len(signature)
    return AuditResult(checks, max_residual, total / checks, worst)
