"""Complementarity measures and complete complementarity relations.

A small numpy library for multipartite qudit states: tensor structure and
partial traces, predictability / coherence / non-local-coherence
quantifiers, the complementarity balances they satisfy, factories for the
standard example states, and a Haar-random sampler.  A CLI (``ccrkit``)
exposes balance checks, CSV parameter sweeps, and random audits.
"""

from .ccr import CCRFlavor, CCRReport, ccr_hs, ccr_inequality_gap, ccr_mixedness, ccr_vn
from .core import (
    DensityOperator,
    DimensionSignature,
    PureState,
    Spectrum,
    density_from_pure,
    hermitian_spectrum,
    linear_entropy,
    partial_trace,
    purify,
    purity,
    tensor_product,
    von_neumann_entropy,
)
from .errors import (
    CapacityError,
    CcrkitError,
    NumericError,
    PreconditionError,
    ValidationError,
)
from .measures import (
    CoherenceKind,
    MeasureKind,
    MeasureValue,
    coherence_hs,
    coherence_l1,
    coherence_re,
    concurrence_generalized,
    correlated_coherence,
    nonlocal_coherence_hs_direct,
    predictability_hs,
    predictability_l1,
    predictability_vn,
    satisfies_offdiag_conditions,
)
from .states import (
    FACTORY_PARAMS,
    acin,
    bipartite_x,
    build,
    five_term,
    ghz,
    haar_random_pure,
    qutrit_jb,
    w_state,
    werner_like,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CcrkitError",
    "ValidationError",
    "CapacityError",
    "PreconditionError",
    "NumericError",
    # core
    "DimensionSignature",
    "PureState",
    "DensityOperator",
    "Spectrum",
    "tensor_product",
    "density_from_pure",
    "partial_trace",
    "purity",
    "linear_entropy",
    "hermitian_spectrum",
    "von_neumann_entropy",
    "purify",
    # measures
    "MeasureKind",
    "MeasureValue",
    "CoherenceKind",
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
    # ccr
    "CCRFlavor",
    "CCRReport",
    "ccr_hs",
    "ccr_vn",
    "ccr_mixedness",
    "ccr_inequality_gap",
    # states
    "werner_like",
    "bipartite_x",
    "qutrit_jb",
    "ghz",
    "w_state",
    "five_term",
    "acin",
    "FACTORY_PARAMS",
    "build",
    "haar_random_pure",
]
