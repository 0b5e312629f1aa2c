"""Factories for the worked-example states plus a Haar-random pure sampler.

Amplitude-parameterized families (ghz, five-term, acin) are normalized at
construction, so parameters only need the right ratios; probability-like
parameters (w, x, p) must be real and lie in [0, 1].
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .core import DensityOperator, DimensionSignature, PureState, _as_signature, _require_capacity
from .errors import ValidationError

__all__ = [
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


def _check_unit_interval(name: str, value) -> float:
    value = _check_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"parameter {name} must lie in [0, 1], got {value!r}")
    return value


def _check_real(name: str, value) -> float:
    value = complex(value)
    if value.imag != 0.0:
        raise ValidationError(f"parameter {name} must be real, got {value!r}")
    return value.real


def _normalized(amplitudes: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(amplitudes))
    if not math.isfinite(norm):
        raise ValidationError("amplitude parameters must be finite, with a sum of squares that fits in a float")
    if norm < 1e-15:
        # The squares may underflow although the ratios are well defined:
        # scale the largest modulus to 1 and take the norm again.  The float
        # pairs are divided, since complex division by a subnormal overflows.
        peak = float(np.max(np.abs(amplitudes)))
        if peak == 0.0:
            raise ValidationError("amplitude parameters are all zero")
        amplitudes = (amplitudes.view(np.float64) / peak).view(np.complex128)
        norm = float(np.linalg.norm(amplitudes))
    return amplitudes / norm


def werner_like(w: float, x: float) -> DensityOperator:
    """Single-qubit mixture w |psi><psi| + (1 - w)/2 I with psi = x|0> + sqrt(1-x^2)|1>."""
    w = _check_unit_interval("w", w)
    x = _check_unit_interval("x", x)
    psi = np.array([x, math.sqrt(1.0 - x * x)], dtype=np.complex128)
    matrix = w * np.outer(psi, psi.conj()) + (1.0 - w) / 2.0 * np.eye(2)
    return DensityOperator(DimensionSignature((2,)), matrix)


def bipartite_x(x: float) -> PureState:
    """Two-qubit x|0,1> + sqrt(1-x^2)|1,0>."""
    x = _check_unit_interval("x", x)
    amps = np.zeros(4, dtype=np.complex128)
    amps[0b01] = x
    amps[0b10] = math.sqrt(1.0 - x * x)
    return PureState(DimensionSignature((2, 2)), amps)


def qutrit_jb(x: float) -> PureState:
    """Two-qutrit (x/sqrt2)|0,0> + (x/sqrt2)|1,1> + sqrt(1-x^2)|2,2>."""
    x = _check_unit_interval("x", x)
    amps = np.zeros(9, dtype=np.complex128)
    amps[0 * 3 + 0] = x / math.sqrt(2.0)
    amps[1 * 3 + 1] = x / math.sqrt(2.0)
    amps[2 * 3 + 2] = math.sqrt(1.0 - x * x)
    return PureState(DimensionSignature((3, 3)), amps)


def ghz(a000: complex, a111: complex) -> PureState:
    """Three-qubit a000|0,0,0> + a111|1,1,1>, normalized at construction."""
    pair = _normalized(np.array([a000, a111], dtype=np.complex128))
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b000] = pair[0]
    amps[0b111] = pair[1]
    return PureState(DimensionSignature((2, 2, 2)), amps)


def w_state(p: float) -> PureState:
    """Three-qubit sqrt(1-p)|0,0,1> + sqrt(p/2)|0,1,0> + sqrt(p/2)|1,0,0>."""
    p = _check_unit_interval("p", p)
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b001] = math.sqrt(1.0 - p)
    amps[0b010] = math.sqrt(p / 2.0)
    amps[0b100] = math.sqrt(p / 2.0)
    return PureState(DimensionSignature((2, 2, 2)), amps)


def five_term(lambda1, lambda2, lambda3, lambda4, lambda5) -> PureState:
    """Three-qubit l1|0,0,0> + l2|0,0,1> + l3|0,1,0> + l4|1,0,0> + l5|1,1,1>.

    Coefficients are real (the family is defined up to global phase) and are
    normalized at construction.
    """
    lam = np.array(
        [_check_real(f"lambda{i + 1}", v) for i, v in enumerate((lambda1, lambda2, lambda3, lambda4, lambda5))],
        dtype=np.complex128,
    )
    lam = _normalized(lam)
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b000], amps[0b001], amps[0b010], amps[0b100], amps[0b111] = lam
    return PureState(DimensionSignature((2, 2, 2)), amps)


def acin(lambda1, lambda2, lambda3, lambda4) -> PureState:
    """Three-qubit l1|0,0,0> + l2|0,1,1> + l3|1,0,0> + l4|1,1,1>.

    Coefficients may be complex (relative phases matter for the non-local
    coherence of this family) and are normalized at construction.
    """
    lam = _normalized(np.array([lambda1, lambda2, lambda3, lambda4], dtype=np.complex128))
    amps = np.zeros(8, dtype=np.complex128)
    amps[0b000], amps[0b011], amps[0b100], amps[0b111] = lam
    return PureState(DimensionSignature((2, 2, 2)), amps)


_FACTORIES = {
    "werner": (werner_like, ("w", "x")),
    "bipartite-x": (bipartite_x, ("x",)),
    "qutrit-jb": (qutrit_jb, ("x",)),
    "ghz": (ghz, ("a000", "a111")),
    "w": (w_state, ("p",)),
    "five-term": (five_term, ("lambda1", "lambda2", "lambda3", "lambda4", "lambda5")),
    "acin": (acin, ("lambda1", "lambda2", "lambda3", "lambda4")),
}

#: Parameter names accepted by each factory variant, keyed by CLI name; the CLI
#: makes one flag per name and passes the given ones to ``build``.
FACTORY_PARAMS = {name: params for name, (_, params) in _FACTORIES.items()}


def build(variant: str, **params) -> PureState | DensityOperator:
    """Build a named example state; see FACTORY_PARAMS for expected parameters."""
    if variant not in _FACTORIES:
        raise ValidationError(
            f"unknown state variant {variant!r}; expected one of {sorted(_FACTORIES)}"
        )
    factory, names = _FACTORIES[variant]
    missing = [name for name in names if name not in params]
    if missing:
        raise ValidationError(f"variant {variant!r} is missing parameters {missing}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise ValidationError(f"variant {variant!r} got unexpected parameters {extra}")
    return factory(*(params[name] for name in names))


def haar_random_pure(signature, count: int, seed: int) -> Iterator[PureState]:
    """Yield ``count`` Haar-distributed pure states, deterministically per seed.

    Each state normalizes a vector of i.i.d. standard complex Gaussian
    amplitudes; draws with a pre-normalization norm below 1e-6 are thrown
    away and resampled.  A signature over ``core.MAX_TOTAL_DIM`` raises
    CapacityError, and a negative ``seed`` raises ValidationError, before
    anything is drawn.
    """
    signature = _as_signature(signature)
    _require_capacity(signature.total)
    count = int(count)
    if count < 1:
        raise ValidationError(f"count must be positive, got {count}")
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    d = signature.total
    produced = 0
    while produced < count:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        norm = float(np.linalg.norm(z))
        if norm < 1e-6:
            continue
        yield PureState(signature, z / norm)
        produced += 1
