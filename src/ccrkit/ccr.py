"""Complete complementarity relations (CCRs) and their residuals.

For a subsystem of a globally pure state the predictability, local
coherence, and a correlation term add up exactly to a dimensional bound;
for arbitrary (possibly mixed) states the balance closes instead with the
local mixedness, and for a mixed global state the pure-state form leaves a
non-negative information gap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import (
    DEFAULT_TOL,
    DensityOperator,
    Tolerances,
    _check_target,
    _require_pure,
    linear_entropy,
    partial_trace,
    von_neumann_entropy,
)
from .measures import (
    MeasureKind,
    MeasureValue,
    _nonlocal_hs_sum,
    coherence_hs,
    coherence_re,
    predictability_hs,
    predictability_vn,
)

__all__ = ["CCRFlavor", "CCRReport", "ccr_hs", "ccr_vn", "ccr_mixedness", "ccr_inequality_gap"]


class CCRFlavor(enum.Enum):
    HS_PURE = "hs_pure"
    VN_PURE_BIPARTITE = "vn_pure_bipartite"
    HS_MIXEDNESS = "hs_mixedness"


@dataclass(frozen=True)
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


def ccr_hs(rho_full: DensityOperator, target: int, *, tol: Tolerances | None = None) -> CCRReport:
    """Hilbert-Schmidt balance P_hs + C_hs + C_nl_hs = (d - 1)/d for pure global states."""
    tol = tol or DEFAULT_TOL
    target = _check_target(rho_full, target, need_partner=True)
    _require_pure(rho_full, tol, "use ccr_mixedness for the mixed-state form")
    reduced = partial_trace(rho_full, [target])
    d_t = rho_full.signature.dims[target]
    bound = (d_t - 1) / d_t
    return _assemble(
        target,
        predictability_hs(reduced),
        coherence_hs(reduced),
        MeasureValue(_nonlocal_hs_sum(rho_full, target), bound, MeasureKind.C_NL_HS),
        bound,
        CCRFlavor.HS_PURE,
    )


def ccr_vn(rho_full: DensityOperator, target: int, *, tol: Tolerances | None = None) -> CCRReport:
    """Entropic balance C_re + P_vn + S_vn = ln d on the target-vs-rest split.

    Reading S_vn of the reduced state as entanglement requires the global
    state to be pure, so mixed inputs are rejected.
    """
    tol = tol or DEFAULT_TOL
    target = _check_target(rho_full, target, need_partner=True)
    _require_pure(rho_full, tol, "the entropic CCR requires a pure global state")
    reduced = partial_trace(rho_full, [target])
    d_t = rho_full.signature.dims[target]
    bound = math.log(d_t)
    entanglement = MeasureValue(von_neumann_entropy(reduced, tol=tol), bound, MeasureKind.S_VN)
    return _assemble(
        target,
        predictability_vn(reduced),
        coherence_re(reduced, tol=tol),
        entanglement,
        bound,
        CCRFlavor.VN_PURE_BIPARTITE,
    )


def ccr_mixedness(rho_any: DensityOperator, target: int) -> CCRReport:
    """Balance P_hs + C_hs + S_l = (d - 1)/d on the reduced target state.

    Holds identically for any valid state, pure or mixed, because
    P_hs + C_hs = Tr rho^2 - 1/d is an algebraic identity; the linear
    entropy term quantifies the mixedness of the subsystem whatever its
    origin (correlations or environment noise).
    """
    target = _check_target(rho_any, target, need_partner=False)
    reduced = partial_trace(rho_any, [target])
    d_t = rho_any.signature.dims[target]
    bound = (d_t - 1) / d_t
    mixedness = MeasureValue(linear_entropy(reduced), bound, MeasureKind.S_L)
    return _assemble(
        target,
        predictability_hs(reduced),
        coherence_hs(reduced),
        mixedness,
        bound,
        CCRFlavor.HS_MIXEDNESS,
    )


def ccr_inequality_gap(rho_any: DensityOperator, target: int) -> float:
    """(d - 1)/d minus the pure-state balance evaluated on an arbitrary state.

    Zero (within roundoff) exactly when the global state is pure; positive
    for mixed global states, where the explicit correlation sum no longer
    accounts for all the missing subsystem information.
    """
    target = _check_target(rho_any, target, need_partner=True)
    reduced = partial_trace(rho_any, [target])
    d_t = rho_any.signature.dims[target]
    total = (
        predictability_hs(reduced).value
        + coherence_hs(reduced).value
        + _nonlocal_hs_sum(rho_any, target)
    )
    return (d_t - 1) / d_t - total
