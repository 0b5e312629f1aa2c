"""Dense complex linear algebra with subsystem structure.

States carry an explicit dimension signature (d_1, ..., d_n), and every
matrix/vector is indexed by the row-major flattening of the multi-index
(i_1, ..., i_n): the first subsystem index varies slowest.  All operations
are pure functions of immutable inputs; the arrays held by the value types
are marked read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, NumericError, PreconditionError, ValidationError

__all__ = [
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
]


# Numeric windows and the capacity limit, read only inside this module.
NORM_ATOL = 1e-12  # validation window for normalization / trace / Hermiticity
PSD_FLOOR = -1e-10  # smallest eigenvalue allowed before a matrix is rejected
EIG_CLAMP = 1e-10  # hermitian_spectrum snaps eigenvalues in [-EIG_CLAMP, 0] to 0
JACOBI_OFFDIAG = 1e-13  # off-diagonal Frobenius norm at which hermitian_spectrum stops
JACOBI_MAX_SWEEPS = 100  # sweep budget before hermitian_spectrum gives up
PURITY_ATOL = 1e-10  # |Tr rho^2 - 1| window for purity preconditions
RANK_CUTOFF = 1e-12  # eigenvalues above this count toward the purification rank
# Largest total dimension accepted: tensor_product will not produce more, and
# the CLI refuses larger state files and audit signatures before it reads or
# samples any amplitude.
MAX_TOTAL_DIM = 4096


@dataclass(frozen=True)
class DimensionSignature:
    """Ordered subsystem dimensions (d_1, ..., d_n) of a tensor-product space.

    Unit entries are allowed so that trivial (rank-one ancilla) subsystems can
    be represented.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValidationError("dimension signature must be nonempty")
        if any(d < 1 for d in dims):
            raise ValidationError(f"subsystem dimensions must be positive, got {dims}")

    @property
    def total(self) -> int:
        """Product of all subsystem dimensions."""
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self):
        return iter(self.dims)

    def __getitem__(self, index: int) -> int:
        return self.dims[index]


def _as_signature(signature) -> DimensionSignature:
    if isinstance(signature, DimensionSignature):
        return signature
    return DimensionSignature(tuple(signature))


class PureState:
    """Normalized complex amplitude vector over a dimension signature."""

    __slots__ = ("signature", "amplitudes")

    def __init__(self, signature, amplitudes):
        signature = _as_signature(signature)
        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (signature.total,):
            raise ValidationError(
                f"amplitude vector has shape {amps.shape}, expected ({signature.total},) "
                f"for signature {signature.dims}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValidationError("amplitude vector has NaN or infinite entries")
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > NORM_ATOL:
            raise ValidationError(f"state vector is not normalized: sum |a|^2 = {norm_sq!r}")
        amps.setflags(write=False)
        self.signature = signature
        self.amplitudes = amps

    @property
    def dims(self) -> tuple[int, ...]:
        return self.signature.dims

    def __repr__(self) -> str:
        return f"PureState(dims={self.signature.dims})"


class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix with a signature."""

    __slots__ = ("signature", "matrix")

    def __init__(self, signature, matrix):
        signature = _as_signature(signature)
        mat = np.array(matrix, dtype=np.complex128)
        d = signature.total
        if mat.shape != (d, d):
            raise ValidationError(
                f"matrix has shape {mat.shape}, expected ({d}, {d}) for signature {signature.dims}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValidationError("matrix has NaN or infinite entries")
        # Entries near the float limit make the defect and trace overflow to
        # inf (or NaN); the negated comparisons below reject both.
        with np.errstate(over="ignore", invalid="ignore"):
            herm_defect = float(np.max(np.abs(mat - mat.conj().T)))
            trace = complex(np.trace(mat))
        if not herm_defect <= NORM_ATOL:
            raise ValidationError(f"matrix is not Hermitian: max |rho - rho^dag| = {herm_defect!r}")
        if not abs(trace - 1.0) <= NORM_ATOL:
            raise ValidationError(f"matrix does not have unit trace: Tr rho = {trace!r}")
        # Halving before adding keeps the symmetrised copy finite.
        smallest = float(np.linalg.eigvalsh(0.5 * mat + 0.5 * mat.conj().T).min())
        if not smallest >= PSD_FLOOR:
            raise ValidationError(
                f"matrix is not positive semidefinite: smallest eigenvalue = {smallest!r}"
            )
        mat.setflags(write=False)
        self.signature = signature
        self.matrix = mat

    @property
    def dims(self) -> tuple[int, ...]:
        return self.signature.dims

    def __repr__(self) -> str:
        return f"DensityOperator(dims={self.signature.dims})"


def _density_unchecked(signature: DimensionSignature, matrix: np.ndarray) -> DensityOperator:
    """Internal constructor for matrices that are valid by construction."""
    rho = DensityOperator.__new__(DensityOperator)
    mat = np.ascontiguousarray(matrix, dtype=np.complex128)
    mat.setflags(write=False)
    rho.signature = signature
    rho.matrix = mat
    return rho


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and descending; column k of ``eigenvectors``
    pairs with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def tensor_product(states: Sequence[DensityOperator]) -> DensityOperator:
    """Kronecker product of density operators, signatures concatenated in order."""
    states = list(states)
    if not states:
        raise ValidationError("tensor_product needs at least one state")
    _require_capacity(math.prod(s.signature.total for s in states))
    dims = tuple(d for s in states for d in s.signature.dims)
    out = states[0].matrix
    for s in states[1:]:
        out = np.kron(out, s.matrix)
    return _density_unchecked(DimensionSignature(dims), out)


def _require_capacity(total: int) -> None:
    """Raise CapacityError if a total dimension exceeds ``MAX_TOTAL_DIM``."""
    if total > MAX_TOTAL_DIM:
        raise CapacityError(f"total dimension {total} exceeds the configured maximum {MAX_TOTAL_DIM}")


def density_from_pure(psi: PureState) -> DensityOperator:
    """Rank-one projector |psi><psi| as a density operator."""
    return _density_unchecked(psi.signature, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def _check_target(state: PureState | DensityOperator, target: int, *, need_partner: bool) -> int:
    """``target`` as an int naming a subsystem of state; ``need_partner`` also requires a second one."""
    n = len(state.signature.dims)
    target = int(target)
    if not 0 <= target < n:
        raise ValidationError(f"target subsystem {target} out of range for {n} subsystems")
    if need_partner and n < 2:
        raise ValidationError("a correlation term needs at least 2 subsystems")
    return target


def _require_pure(state: PureState | DensityOperator, hint: str) -> None:
    """Raise PreconditionError, ending with ``hint``, unless Tr rho^2 = 1.

    A PureState passes at once: its constructor has already checked the norm.
    """
    if isinstance(state, PureState):
        return
    p = purity(state)
    if abs(p - 1.0) > PURITY_ATOL:
        raise PreconditionError(f"global state is not pure (Tr rho^2 = {p!r}); {hint}")


def _block_view(rho: DensityOperator, left: Sequence[int], right: Sequence[int]) -> np.ndarray:
    """rho as a (d_left, d_right, d_left, d_right) array; each side flattened in the order given."""
    dims = rho.signature.dims
    n = len(dims)
    shape = (math.prod(dims[m] for m in left), math.prod(dims[m] for m in right))
    perm = [*left, *right, *(n + m for m in left), *(n + m for m in right)]
    return rho.matrix.reshape(dims + dims).transpose(perm).reshape(shape + shape)


def _entropy(p: np.ndarray) -> float:
    """-sum p ln p over the positive entries of p (natural log)."""
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def partial_trace(rho: PureState | DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    rho : PureState or DensityOperator
        State over n subsystems.  A PureState is reshaped to the
        (keep x rest) amplitude matrix M and reduced as M M^dag, in
        O(k^2 rest) work without forming the D x D density.
    keep : iterable of int
        Indices of the subsystems to retain; they stay in their original
        relative order.  Keeping the full set of a DensityOperator returns
        ``rho`` itself (of a PureState, its projector |psi><psi|).

    Returns
    -------
    DensityOperator
        Reduced state with the restricted signature; trace and Hermiticity
        are preserved.
    """
    dims = rho.signature.dims
    n = len(dims)
    keep_list = sorted({int(k) for k in keep})
    if not keep_list:
        raise ValidationError("keep set must be nonempty")
    if keep_list[0] < 0 or keep_list[-1] >= n:
        raise ValidationError(
            f"subsystem index out of range for {n} subsystems: {keep_list}"
        )
    kept_dims = tuple(dims[m] for m in keep_list)
    k = math.prod(kept_dims)
    if isinstance(rho, PureState):
        rest = [ax for ax in range(n) if ax not in keep_list]
        m = rho.amplitudes.reshape(dims).transpose(keep_list + rest).reshape(k, -1)
        reduced = m @ m.conj().T
    elif len(keep_list) == n:
        return rho
    else:
        keep_set = set(keep_list)
        tensor = rho.matrix.reshape(dims + dims)
        bra_ket = list(range(n)) + [n + m if m in keep_set else m for m in range(n)]
        out_axes = keep_list + [n + m for m in keep_list]
        reduced = np.einsum(tensor, bra_ket, out_axes).reshape(k, k)
    reduced = 0.5 * (reduced + reduced.conj().T)
    return _density_unchecked(DimensionSignature(kept_dims), reduced)


def purity(rho: DensityOperator) -> float:
    """Tr rho^2, computed as the squared Frobenius norm of the Hermitian matrix."""
    return float(np.vdot(rho.matrix, rho.matrix).real)


def linear_entropy(rho: DensityOperator) -> float:
    """1 - Tr rho^2, the purity deficit; ranges over [0, (d-1)/d]."""
    return 1.0 - purity(rho)


def _offdiag_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - np.diag(np.diag(a))))


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    """Unitary 2x2 rotation annihilating a[p, q], accumulated into v."""
    apq = a[p, q]
    g = abs(apq)
    if g == 0.0:
        return
    tau = (a[q, q].real - a[p, p].real) / (2.0 * g)
    if tau == 0.0:
        t = 1.0
    else:
        t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(tau, 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    phase = apq / g
    sp = s * phase
    spc = s * phase.conjugate()

    col_p = a[:, p] * c - a[:, q] * spc
    col_q = a[:, p] * sp + a[:, q] * c
    a[:, p] = col_p
    a[:, q] = col_q
    row_p = a[p, :] * c - a[q, :] * sp
    row_q = a[p, :] * spc + a[q, :] * c
    a[p, :] = row_p
    a[q, :] = row_q
    a[p, q] = 0.0
    a[q, p] = 0.0

    vcol_p = v[:, p] * c - v[:, q] * spc
    vcol_q = v[:, p] * sp + v[:, q] * c
    v[:, p] = vcol_p
    v[:, q] = vcol_q


def hermitian_spectrum(rho: DensityOperator) -> Spectrum:
    """Full eigendecomposition by cyclic Jacobi rotations.

    Sweeps over all index pairs, rotating each in turn, until the
    off-diagonal Frobenius norm drops below ``JACOBI_OFFDIAG``.
    Eigenvalues within the clamp window below zero are snapped to 0, and
    the pairs are returned in descending eigenvalue order.

    Raises
    ------
    NumericError
        If the sweep budget is exhausted before convergence.
    """
    a = np.array(rho.matrix, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    for _ in range(JACOBI_MAX_SWEEPS):
        if _offdiag_norm(a) < JACOBI_OFFDIAG:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(a, v, p, q)
    if _offdiag_norm(a) >= JACOBI_OFFDIAG:
        raise NumericError(
            f"Jacobi eigensolver did not converge within {JACOBI_MAX_SWEEPS} sweeps "
            f"(off-diagonal norm {_offdiag_norm(a):.3e})"
        )
    w = np.diag(a).real.copy()
    w[(w < 0.0) & (w >= -EIG_CLAMP)] = 0.0
    order = np.argsort(w, kind="stable")[::-1]
    eigenvalues = w[order]
    eigenvectors = v[:, order]
    eigenvalues.setflags(write=False)
    eigenvectors.setflags(write=False)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-sum lambda ln lambda over the spectrum (natural log, 0 ln 0 = 0).

    The eigenvalues come from one LAPACK ``eigvalsh`` call and are summed in
    descending order, as ``hermitian_spectrum`` returns them.  They need no
    ``EIG_CLAMP`` snap: ``_entropy`` drops every entry that is not positive,
    so a roundoff value just below 0 adds nothing either way.

    Raises
    ------
    NumericError
        If LAPACK reports that the eigenvalue solve failed.
    """
    try:
        w = np.linalg.eigvalsh(rho.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solve failed: {exc}") from exc
    return _entropy(w[::-1])


def purify(rho: DensityOperator) -> PureState:
    """Embed rho as subsystem 0 of a pure state on system x ancilla.

    The ancilla dimension equals the rank of rho (eigenvalues above
    ``RANK_CUTOFF``), and the amplitudes are sqrt(lambda_k) on the
    Schmidt pairs, so tracing out the ancilla recovers rho.  The system
    side is returned as a single subsystem of the full dimension.
    """
    spectrum = hermitian_spectrum(rho)
    mask = spectrum.eigenvalues > RANK_CUTOFF
    lam = spectrum.eigenvalues[mask]
    vecs = spectrum.eigenvectors[:, mask]
    amps = (vecs * np.sqrt(lam)).reshape(-1)
    amps = amps / np.linalg.norm(amps)
    d = rho.signature.total
    return PureState(DimensionSignature((d, int(lam.size))), amps)
