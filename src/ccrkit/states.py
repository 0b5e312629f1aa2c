"""Factories for the worked-example states plus a Haar-random pure sampler.

Amplitude-parameterized families (ghz, five-term, acin) are normalized at
construction, so parameters only need the right ratios; probability-like
parameters (w, x, p) must be real and lie in [0, 1].
"""

from __future__ import annotations

import inspect
import math
from typing import Iterator

import numpy as np

from .core import (
    DensityOperator,
    DimensionSignature,
    PureState,
    _as_signature,
    _check_amplitudes,
    _index,
    _pure_unchecked,
    _require_capacity,
    _squared_norms,
)
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


def _check_complex(name: str, value) -> complex:
    try:
        return complex(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"parameter {name} must be a number, got {value!r}") from None


def _check_real(name: str, value) -> float:
    value = _check_complex(name, value)
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


def _basis_state(dims: tuple[int, ...], entries: dict[int, complex]) -> PureState:
    """The PureState on ``dims`` with amplitude a at row-major index i for each i: a of ``entries``."""
    signature = DimensionSignature(dims)
    amps = np.zeros(signature.total, dtype=np.complex128)
    for i, a in entries.items():
        amps[i] = a
    return PureState(signature, amps)


def bipartite_x(x: float) -> PureState:
    """Two-qubit x|0,1> + sqrt(1-x^2)|1,0>."""
    x = _check_unit_interval("x", x)
    return _basis_state((2, 2), {0b01: x, 0b10: math.sqrt(1.0 - x * x)})


def qutrit_jb(x: float) -> PureState:
    """Two-qutrit (x/sqrt2)|0,0> + (x/sqrt2)|1,1> + sqrt(1-x^2)|2,2>."""
    x = _check_unit_interval("x", x)
    a = x / math.sqrt(2.0)
    return _basis_state((3, 3), {0 * 3 + 0: a, 1 * 3 + 1: a, 2 * 3 + 2: math.sqrt(1.0 - x * x)})


def ghz(a000: complex, a111: complex) -> PureState:
    """Three-qubit a000|0,0,0> + a111|1,1,1>, normalized at construction."""
    pair = _normalized(np.array([_check_complex("a000", a000), _check_complex("a111", a111)]))
    return _basis_state((2, 2, 2), dict(zip((0b000, 0b111), pair)))


def w_state(p: float) -> PureState:
    """Three-qubit sqrt(1-p)|0,0,1> + sqrt(p/2)|0,1,0> + sqrt(p/2)|1,0,0>."""
    p = _check_unit_interval("p", p)
    return _basis_state((2, 2, 2), {0b001: math.sqrt(1.0 - p), 0b010: math.sqrt(p / 2.0), 0b100: math.sqrt(p / 2.0)})


def five_term(lambda1, lambda2, lambda3, lambda4, lambda5) -> PureState:
    """Three-qubit l1|0,0,0> + l2|0,0,1> + l3|0,1,0> + l4|1,0,0> + l5|1,1,1>.

    Coefficients are real (the family is defined up to global phase) and are
    normalized at construction.
    """
    lam = [_check_real(f"lambda{i}", v) for i, v in enumerate((lambda1, lambda2, lambda3, lambda4, lambda5), 1)]
    lam = _normalized(np.array(lam, dtype=np.complex128))
    return _basis_state((2, 2, 2), dict(zip((0b000, 0b001, 0b010, 0b100, 0b111), lam)))


def acin(lambda1, lambda2, lambda3, lambda4) -> PureState:
    """Three-qubit l1|0,0,0> + l2|0,1,1> + l3|1,0,0> + l4|1,1,1>.

    Coefficients may be complex (relative phases matter for the non-local
    coherence of this family) and are normalized at construction.
    """
    lam = [_check_complex(f"lambda{i}", v) for i, v in enumerate((lambda1, lambda2, lambda3, lambda4), 1)]
    lam = _normalized(np.array(lam))
    return _basis_state((2, 2, 2), dict(zip((0b000, 0b011, 0b100, 0b111), lam)))


_FACTORIES = {
    "werner": werner_like,
    "bipartite-x": bipartite_x,
    "qutrit-jb": qutrit_jb,
    "ghz": ghz,
    "w": w_state,
    "five-term": five_term,
    "acin": acin,
}

#: Parameter names accepted by each factory variant, keyed by CLI name and read
#: from the factory's own signature; the CLI makes one flag per name and passes
#: the given ones to ``build``.
FACTORY_PARAMS = {name: tuple(inspect.signature(factory).parameters) for name, factory in _FACTORIES.items()}


def _variant_params(variant) -> tuple[str, ...]:
    """FACTORY_PARAMS[variant]; a variant that is not one of its names raises ValidationError."""
    if not isinstance(variant, str) or variant not in FACTORY_PARAMS:
        raise ValidationError(f"unknown state variant {variant!r}; expected one of {sorted(FACTORY_PARAMS)}")
    return FACTORY_PARAMS[variant]


def build(variant: str, **params) -> PureState | DensityOperator:
    """Build a named example state; see FACTORY_PARAMS for expected parameters."""
    names = _variant_params(variant)
    missing = [name for name in names if name not in params]
    if missing:
        raise ValidationError(f"variant {variant!r} is missing parameters {missing}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise ValidationError(f"variant {variant!r} got unexpected parameters {extra}")
    return _FACTORIES[variant](**params)


#: Most amplitudes ``haar_random_pure`` draws at once: a block holds 2**16 // D states
#: (at least one), so its memory does not grow with ``count``.
_BLOCK_AMPLITUDES = 2**16
#: A draw whose norm before normalization is below this is thrown away.
_MIN_NORM = 1e-6


def haar_random_pure(signature, count: int, seed: int) -> Iterator[PureState]:
    """Yield ``count`` Haar-distributed pure states, deterministically per seed.

    Each state normalizes a vector of i.i.d. standard complex Gaussian
    amplitudes: D real parts, then D imaginary parts, from one stream.  The
    states are drawn in blocks of at most 2**16 amplitudes, one
    ``standard_normal((rows, 2, D))`` per block, which is the same stream as
    one draw per state; so a block's memory is bounded whatever ``count``.
    Each row's norm is the square root of its sum of real squares (not BLAS).
    A draw with a norm below 1e-6 is thrown away and drawing goes on.  Each
    block is checked once, as ``PureState`` checks a vector (finite entries,
    sum |a|^2 within ``core.NORM_ATOL`` of 1), and each state holds a
    read-only row of it.  A signature over ``core.MAX_TOTAL_DIM`` raises
    CapacityError, and a ``count`` or ``seed`` that is not an integer, a
    ``count`` below 1 or a negative ``seed`` raises ValidationError, before
    anything is drawn.  This is a generator function, so these errors come
    at the first ``next()`` on the returned iterator, not at the call.
    """
    signature = _as_signature(signature)
    _require_capacity(signature.total)
    count = _index(count, "count")
    if count < 1:
        raise ValidationError(f"count must be positive, got {count}")
    seed = _index(seed, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    d = signature.total
    remaining = count
    while remaining:
        draws = rng.standard_normal((min(remaining, max(1, _BLOCK_AMPLITUDES // d)), 2, d))
        block = np.empty((len(draws), d), dtype=np.complex128)
        block.real = draws[:, 0]
        block.imag = draws[:, 1]
        norms = np.sqrt(_squared_norms(block))
        kept = ~(norms < _MIN_NORM)
        if not kept.all():
            block, norms = block[kept], norms[kept]
        block /= norms[:, None]
        _check_amplitudes(block)
        for amplitudes in block:
            yield _pure_unchecked(signature, amplitudes)
        remaining -= len(block)
