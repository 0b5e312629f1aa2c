"""Dense complex linear algebra with subsystem structure.

States carry an explicit dimension signature (d_1, ..., d_n), and every
matrix/vector is indexed by the row-major flattening of the multi-index
(i_1, ..., i_n): the first subsystem index varies slowest.  All operations
are pure functions of immutable inputs; the arrays held by the value types
are marked read-only.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericError, PreconditionError, ValidationError

__all__ = [
    "DimensionSignature",
    "PureState",
    "DensityOperator",
    "density_from_pure",
    "partial_trace",
    "purity",
    "linear_entropy",
    "von_neumann_entropy",
    "purify",
]


# Numeric windows and the capacity limits, read only inside this module.
NORM_ATOL = 1e-12  # validation window for normalization / trace / Hermiticity
PSD_FLOOR = -1e-10  # smallest eigenvalue allowed before a matrix is rejected
JACOBI_OFFDIAG = 1e-13  # off-diagonal Frobenius norm at which purify's Jacobi solver stops
JACOBI_MAX_SWEEPS = 100  # sweep budget before purify's Jacobi solver gives up
PURITY_ATOL = 1e-10  # |Tr rho^2 - 1| window for purity preconditions
RANK_CUTOFF = 1e-12  # eigenvalues above this count toward the purification rank
# Largest total dimension accepted: the CLI refuses larger state files and
# audit signatures before it reads or samples any amplitude, and no matrix formed
# from a PureState's amplitudes (density_from_pure, _reduced_matrix) is larger on a side.
MAX_TOTAL_DIM = 4096
# Most subsystems a signature may have: a density reshapes to 2n axes, which numpy 1.x
# caps at 32.
MAX_SUBSYSTEMS = 16


def _index(value, what: str) -> int:
    """``value`` as a Python int; a bool, float, str or other non-integer raises ValidationError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _integers(values, what: str) -> tuple[int, ...]:
    """Each of ``values`` read by ``_index``; a ``values`` that is not iterable raises ValidationError."""
    if not isinstance(values, Iterable):
        raise ValidationError(f"{what} list must be iterable, got {values!r}")
    return tuple(_index(v, what) for v in values)


@dataclass(frozen=True)
class DimensionSignature:
    """Ordered subsystem dimensions (d_1, ..., d_n) of a tensor-product space.

    Unit entries are allowed so that trivial (rank-one ancilla) subsystems can
    be represented.  More than ``MAX_SUBSYSTEMS`` entries raise CapacityError.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = _integers(self.dims, "subsystem dimension")
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValidationError("dimension signature must be nonempty")
        if any(d < 1 for d in dims):
            raise ValidationError(f"subsystem dimensions must be positive, got {dims}")
        if len(dims) > MAX_SUBSYSTEMS:
            raise CapacityError(f"{len(dims)} subsystems exceed the configured maximum {MAX_SUBSYSTEMS}")

    @property
    def total(self) -> int:
        """Product of all subsystem dimensions."""
        return math.prod(self.dims)

    def __len__(self) -> int:
        return len(self.dims)


def _complex_array(values, what: str) -> np.ndarray:
    """``values`` as a new complex128 array; non-number entries and ragged nestings raise ValidationError."""
    try:
        return np.array(values, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be an array of complex numbers: {exc}") from None


def _as_signature(signature) -> DimensionSignature:
    if isinstance(signature, DimensionSignature):
        return signature
    return DimensionSignature(signature)


class PureState:
    """Normalized complex amplitude vector over a dimension signature."""

    __slots__ = ("signature", "amplitudes")

    def __init__(self, signature, amplitudes):
        signature = _as_signature(signature)
        amps = _complex_array(amplitudes, "amplitude vector")
        if amps.shape != (signature.total,):
            raise ValidationError(
                f"amplitude vector has shape {amps.shape}, expected ({signature.total},) "
                f"for signature {signature.dims}"
            )
        _check_amplitudes(amps)
        amps.setflags(write=False)
        self.signature = signature
        self.amplitudes = amps

    @property
    def dims(self) -> tuple[int, ...]:
        return self.signature.dims

    def __repr__(self) -> str:
        return f"PureState(dims={self.signature.dims})"


def _squared_norms(amps: np.ndarray) -> np.ndarray:
    """sum |a|^2 over the last axis of complex ``amps``, one value per amplitude vector.

    Real squares, not BLAS's vdot, whose bits and overflow (nan or inf) follow the CPU
    kernel.  Entries past about 1e154 make a sum inf.
    """
    with np.errstate(over="ignore"):
        return np.square(amps.view(np.float64)).sum(axis=-1)


def _check_amplitudes(amps: np.ndarray) -> None:
    """PureState's checks on one complex vector or a stack of them: every entry finite and every
    sum |a|^2 within ``NORM_ATOL`` of 1, else ValidationError."""
    if not np.isfinite(amps).all():
        raise ValidationError("amplitude vector has NaN or infinite entries")
    norm_sq = _squared_norms(amps)
    normalized = abs(norm_sq - 1.0) <= NORM_ATOL
    if not normalized.all():
        first = float(np.extract(~normalized, norm_sq)[0])
        raise ValidationError(f"state vector is not normalized: sum |a|^2 = {first!r}")


def _pure_unchecked(signature: DimensionSignature, amplitudes: np.ndarray) -> PureState:
    """Internal constructor for amplitude vectors that are valid by construction."""
    psi = PureState.__new__(PureState)
    amplitudes.setflags(write=False)
    psi.signature = signature
    psi.amplitudes = amplitudes
    return psi


class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite matrix with a signature."""

    __slots__ = ("signature", "matrix")

    def __init__(self, signature, matrix):
        signature = _as_signature(signature)
        mat = _complex_array(matrix, "matrix")
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
        smallest = float(_eigvalsh(0.5 * mat + 0.5 * mat.conj().T).min())
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


def _require_capacity(total: int) -> None:
    """Raise CapacityError if a total dimension exceeds ``MAX_TOTAL_DIM``."""
    if total > MAX_TOTAL_DIM:
        raise CapacityError(f"total dimension {total} exceeds the configured maximum {MAX_TOTAL_DIM}")


def density_from_pure(psi: PureState) -> DensityOperator:
    """Rank-one projector |psi><psi| as a density operator, the one place it is formed from amplitudes.

    A total dimension over ``MAX_TOTAL_DIM`` raises CapacityError before anything is allocated."""
    _require_capacity(psi.signature.total)
    return _density_unchecked(psi.signature, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def _check_target(state: PureState | DensityOperator, target: int, *, need_partner: bool) -> int:
    """``target`` as an int naming a subsystem of state; ``need_partner`` also requires a second one."""
    n = len(state.signature.dims)
    target = _index(target, "target subsystem")
    if not 0 <= target < n:
        raise ValidationError(f"target subsystem {target} out of range for {n} subsystems")
    if need_partner and n < 2:
        raise ValidationError("a correlation term needs at least 2 subsystems")
    return target


def _subsystems(state: PureState | DensityOperator, indices) -> list[int]:
    """``indices`` sorted and distinct; a set that is empty, out of range or not iterable raises ValidationError."""
    n = len(state.signature.dims)
    found = sorted(set(_integers(indices, "subsystem index")))
    if not found:
        raise ValidationError("subsystem index set must be nonempty")
    if found[0] < 0 or found[-1] >= n:
        raise ValidationError(f"subsystem index out of range for {n} subsystems: {found}")
    return found


def _require_pure(state: PureState | DensityOperator, hint: str) -> None:
    """Raise PreconditionError, ending with ``hint``, unless Tr rho^2 = 1.

    A PureState passes at once: its constructor has already checked the norm.
    """
    if isinstance(state, PureState):
        return
    p = purity(state)
    if abs(p - 1.0) > PURITY_ATOL:
        raise PreconditionError(f"global state is not pure (Tr rho^2 = {p!r}); {hint}")


def _block_view(array: np.ndarray, dims: tuple[int, ...], keep: Sequence[int]) -> np.ndarray:
    """A vector (D,) as (d_keep, d_rest), a matrix (D, D) as (d_keep, d_rest, d_keep, d_rest): the one map
    from subsystem indices to a state's axes, ``keep`` flattened in the order given and the rest ascending.
    A view when ``keep`` and the rest are each an ascending run of adjacent subsystems, else in general a copy."""
    rest = [m for m in range(len(dims)) if m not in keep]
    k = math.prod([dims[m] for m in keep])
    order, shape = [*keep, *rest], (k, len(array) // k)
    if array.ndim == 2:
        order += [len(dims) + m for m in order]
        shape += shape
    return array.reshape(dims * array.ndim).transpose(order).reshape(shape)


def _partition_blocks(state: PureState | DensityOperator, target: int, reduced: np.ndarray) -> np.ndarray:
    """F_ij = ||rho^(ij)||_F^2 per rest x rest block, i, j on ``target``; outer(p, p), p = diag(reduced), if pure."""
    if isinstance(state, PureState):
        p = reduced.diagonal().real
        return p[:, None] * p
    return (np.abs(_block_view(_state_matrix(state), state.signature.dims, [target])) ** 2).sum(axis=(1, 3))


def _entropy(p: np.ndarray) -> float:
    """-sum p ln p over the positive entries of p (natural log)."""
    p = p[p > 0.0]
    return -float(np.add.reduce(p * np.log(p)))


def _reduced_matrix(state: PureState | DensityOperator, keep: Sequence[int]) -> np.ndarray:
    """partial_trace's Hermitian matrix for sorted, in-range ``keep``: the one reader of a state's matrix.

    Keeping every subsystem gives the state's own matrix: a DensityOperator's, or a
    PureState's projector from ``density_from_pure``.  A proper reduction traces the rest out
    of ``_block_view``: M M^dag for a PureState's (keep x rest) amplitude matrix M.  Either
    raises CapacityError if the matrix is over ``MAX_TOTAL_DIM`` on a side.
    """
    dims = state.signature.dims
    if len(keep) == len(dims):
        return (state if isinstance(state, DensityOperator) else density_from_pure(state)).matrix
    if isinstance(state, PureState):
        amps = _block_view(state.amplitudes, dims, keep)
        _require_capacity(len(amps))
        reduced = amps @ amps.conj().T
        reduced += reduced.conj().T
        reduced *= 0.5
        return reduced
    reduced = np.einsum("iIjI->ij", _block_view(state.matrix, dims, keep))
    return 0.5 * (reduced + reduced.conj().T)


def _state_matrix(state: PureState | DensityOperator) -> np.ndarray:
    """The whole D x D matrix of ``state``: ``_reduced_matrix`` keeping every subsystem."""
    return _reduced_matrix(state, range(len(state.signature.dims)))


def partial_trace(rho: PureState | DensityOperator, keep: Iterable[int]) -> DensityOperator:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    rho : PureState or DensityOperator
        State over n subsystems.  For a proper subset ``keep``, ``_block_view``
        splits a PureState's amplitudes into the (keep x rest) matrix M, reduced
        as M M^dag in O(k^2 rest) work without forming the D x D density.
    keep : iterable of int
        Indices of the subsystems to retain; they stay in their original
        relative order.  Keeping the full set of a DensityOperator returns
        ``rho`` itself; of a PureState, the projector of ``density_from_pure``.

    Returns
    -------
    DensityOperator
        Reduced state with the restricted signature; trace and Hermiticity
        are preserved.  The balances of ``ccrkit.ccr`` read the same matrix
        from ``_reduced_matrix`` without this wrapper.
    """
    dims = rho.signature.dims
    keep_list = _subsystems(rho, keep)
    if isinstance(rho, DensityOperator) and len(keep_list) == len(dims):
        return rho
    kept_dims = tuple(dims[m] for m in keep_list)
    return _density_unchecked(DimensionSignature(kept_dims), _reduced_matrix(rho, keep_list))


def purity(rho: PureState | DensityOperator) -> float:
    """Tr rho^2, computed as the squared Frobenius norm of the Hermitian matrix."""
    return _purity(_state_matrix(rho))


def _purity(matrix: np.ndarray) -> float:
    return float(np.vdot(matrix, matrix).real)


def linear_entropy(rho: PureState | DensityOperator) -> float:
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


def _jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues and matching eigenvector columns of a Hermitian matrix, by cyclic Jacobi sweeps."""
    a = np.array(matrix, dtype=np.complex128)
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
    w = np.diag(a).real
    order = np.argsort(w, kind="stable")[::-1]
    return w[order], v[:, order]


def von_neumann_entropy(rho: PureState | DensityOperator) -> float:
    """-sum lambda ln lambda over the spectrum (natural log, 0 ln 0 = 0).

    The eigenvalues come from one LAPACK ``eigvalsh`` call and are summed in
    descending order, as ``_jacobi_eigh`` returns them.  ``_entropy`` drops
    every entry that is not positive, so a roundoff value just below 0 adds
    nothing.

    Raises
    ------
    NumericError
        If LAPACK reports that the eigenvalue solve failed.
    """
    return _vn_entropy(_state_matrix(rho))


def _vn_entropy(matrix: np.ndarray) -> float:
    return _entropy(_eigvalsh(matrix)[::-1])


def _eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix; a failed LAPACK solve raises NumericError."""
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue solve failed: {exc}") from exc


def purify(rho: PureState | DensityOperator) -> PureState:
    """Embed rho as subsystem 0 of a pure state on system x ancilla.

    The ancilla dimension equals the rank of rho (eigenvalues above
    ``RANK_CUTOFF``), and the amplitudes are sqrt(lambda_k) on the
    Schmidt pairs, so tracing out the ancilla recovers rho.  The system
    side is returned as a single subsystem of the full dimension.  The
    eigenpairs come from ``_jacobi_eigh``: NumericError if it does not converge.
    """
    eigenvalues, eigenvectors = _jacobi_eigh(_state_matrix(rho))
    mask = eigenvalues > RANK_CUTOFF
    lam, vecs = eigenvalues[mask], eigenvectors[:, mask]
    amps = (vecs * np.sqrt(lam)).reshape(-1)
    amps = amps / np.sqrt(_squared_norms(amps))
    d = rho.signature.total
    return PureState(DimensionSignature((d, int(lam.size))), amps)
