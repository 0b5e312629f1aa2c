"""Shared test utilities: independent oracles and random-state generators."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from ccrkit.core import (
    DensityOperator,
    DimensionSignature,
    PureState,
    _check_target,
    _density_unchecked,
    _require_capacity,
    _require_pure,
    linear_entropy,
    partial_trace,
)
from ccrkit.errors import ValidationError
from ccrkit.measures import _PURE_ONLY, MeasureKind, MeasureValue


def flatten_index(multi, dims):
    """Row-major flattening of a multi-index (first index slowest)."""
    idx = 0
    for i, d in zip(multi, dims):
        idx = idx * d + i
    return idx


def brute_partial_trace(matrix, dims, keep):
    """Partial trace by explicit index summation; oracle for the einsum path."""
    n = len(dims)
    keep = sorted(keep)
    traced = [m for m in range(n) if m not in keep]
    kept_dims = [dims[m] for m in keep]
    k = int(np.prod(kept_dims))
    out = np.zeros((k, k), dtype=complex)
    kept_ranges = [range(d) for d in kept_dims]
    traced_ranges = [range(dims[m]) for m in traced]
    for bra_kept in itertools.product(*kept_ranges):
        for ket_kept in itertools.product(*kept_ranges):
            total = 0.0 + 0.0j
            for tr in itertools.product(*traced_ranges):
                bra = [0] * n
                ket = [0] * n
                for pos, m in enumerate(keep):
                    bra[m] = bra_kept[pos]
                    ket[m] = ket_kept[pos]
                for pos, m in enumerate(traced):
                    bra[m] = tr[pos]
                    ket[m] = tr[pos]
                total += matrix[flatten_index(bra, dims), flatten_index(ket, dims)]
            out[flatten_index(bra_kept, kept_dims), flatten_index(ket_kept, kept_dims)] = total
    return out


def _split_index(dims, left, right):
    """Map (left multi-index, right multi-index) to the flat index over dims."""
    n = len(dims)

    def flat(a, b):
        multi = [0] * n
        for pos, m in enumerate(left):
            multi[m] = a[pos]
        for pos, m in enumerate(right):
            multi[m] = b[pos]
        return flatten_index(multi, dims)

    return flat


def brute_nonlocal_sum(matrix, dims, target):
    """Index-partition sum by explicit summation; oracle for the block-view route.

    Adds |rho_{iI,jJ}|^2 - rho_{iI,jI} rho*_{iJ,jJ} term by term over target
    indices i != j and multi-indices I != J of the remaining subsystems.
    """
    others = [m for m in range(len(dims)) if m != target]
    flat = _split_index(dims, [target], others)
    rest = list(itertools.product(*[range(dims[m]) for m in others]))
    total = 0.0 + 0.0j
    for i, j in itertools.permutations(range(dims[target]), 2):
        for big_i, big_j in itertools.permutations(rest, 2):
            total += abs(matrix[flat((i,), big_i), flat((j,), big_j)]) ** 2
            total -= matrix[flat((i,), big_i), flat((j,), big_i)] * np.conj(
                matrix[flat((i,), big_j), flat((j,), big_j)]
            )
    return total.real


def brute_partition_blocks(matrix, dims, target):
    """F_ij = sum_{I,J} |rho_{iI,jJ}|^2 by explicit summation over the rest multi-indices I, J.

    ``math.fsum`` rounds each sum once, so the oracle adds no roundoff of its own.
    """
    others = [m for m in range(len(dims)) if m != target]
    flat = _split_index(dims, [target], others)
    rest = list(itertools.product(*[range(dims[m]) for m in others]))
    d = dims[target]
    blocks = np.zeros((d, d))
    for i, j in itertools.product(range(d), repeat=2):
        blocks[i, j] = math.fsum(
            abs(matrix[flat((i,), big_i), flat((j,), big_j)]) ** 2 for big_i in rest for big_j in rest
        )
    return blocks


def brute_offdiag_defect(matrix, dims, left):
    """Largest violation of the off-diagonal conditions, by explicit summation.

    The maximum of | |sum_j rho_{ij,kj}|^2 - sum_j |rho_{ij,kj}|^2 | over
    left pairs i != k, and of the mirrored quantity over right pairs j != l.
    """
    right = [m for m in range(len(dims)) if m not in left]
    flat = _split_index(dims, left, right)
    left_idx = list(itertools.product(*[range(dims[m]) for m in left]))
    right_idx = list(itertools.product(*[range(dims[m]) for m in right]))
    term_lists = [
        [matrix[flat(i, j), flat(k, j)] for j in right_idx] for i, k in itertools.permutations(left_idx, 2)
    ] + [
        [matrix[flat(i, j), flat(i, l)] for i in left_idx] for j, l in itertools.permutations(right_idx, 2)
    ]
    return max(abs(abs(sum(terms)) ** 2 - sum(abs(t) ** 2 for t in terms)) for terms in term_lists)


def _scaled_integers(values):
    """Each float of ``values`` read as its exact Fraction, times their common denominator: a list of ints.

    A finite float is a dyadic rational, so the common denominator is a power of 2.
    """
    fractions = [Fraction(v) for v in values]
    scale = max(f.denominator for f in fractions)
    return [int(f * scale) for f in fractions]


def exact_terms(state, target):
    """Exact P_hs, C_hs, 1 - Tr rho_t^2, the index-partition C_nl and the inequality gap on ``target``.

    Every float of a PureState's amplitudes a, or of a DensityOperator's entries R, is read as
    the Fraction it is exactly.  The state is rho = a a^dag / ||a||^2, or rho = (R + R^dag) / Tr(R + R^dag),
    so the oracle does not inherit the input's rounding of its norm.  Each value is a quadratic form
    in rho, so it is evaluated on the unnormalized integer matrix (every input float scaled by one
    power of 2) and divided by the squared trace once, as a Fraction.  The target is addressed by its
    explicit mixed-radix stride: flat index k has digit (k // stride) % d on it, with stride the
    product of the dimensions after it; no reshape is involved.
    """
    dims = state.signature.dims
    total = math.prod(dims)
    if isinstance(state, PureState):
        ints = _scaled_integers([v for z in state.amplitudes for v in (z.real, z.imag)])
        re, im = ints[0::2], ints[1::2]
        # rho_kl = a_k conj(a_l)
        rho = [[(re[k] * re[l] + im[k] * im[l], im[k] * re[l] - re[k] * im[l]) for l in range(total)]
               for k in range(total)]
    else:
        ints = _scaled_integers([v for z in state.matrix.ravel() for v in (z.real, z.imag)])
        re, im = ints[0::2], ints[1::2]
        # (R + R^dag)_kl, exactly Hermitian
        rho = [[(re[k * total + l] + re[l * total + k], im[k * total + l] - im[l * total + k]) for l in range(total)]
               for k in range(total)]
    d = dims[target]
    stride = math.prod(dims[target + 1:])
    # A rest index I is a flat index whose target digit is 0; flat(i, I) = I + i * stride.
    rest = [k for k in range(total) if (k // stride) % d == 0]
    norm = sum(rho[k][k][0] for k in range(total))

    def entry(i, big_i, j, big_j):
        return rho[big_i + i * stride][big_j + j * stride]

    def abs2(z):
        return z[0] * z[0] + z[1] * z[1]

    reduced = [[tuple(sum(entry(i, big, j, big)[part] for big in rest) for part in (0, 1)) for j in range(d)]
               for i in range(d)]
    p = [reduced[i][i][0] for i in range(d)]
    pairs = list(itertools.permutations(range(d), 2))
    purity = sum(abs2(z) for row in reduced for z in row)
    c_hs = sum(abs2(reduced[i][j]) for i, j in pairs)
    c_nl = 0
    gap = 0
    for i, j in pairs:
        gap += p[i] * p[j] - sum(abs2(entry(i, big_i, j, big_j)) for big_i in rest for big_j in rest)
        for big_i, big_j in itertools.permutations(rest, 2):
            left, right = entry(i, big_i, j, big_i), entry(i, big_j, j, big_j)
            # Re(rho_{iI,jI} conj(rho_{iJ,jJ})): the (I, J) and (J, I) terms are conjugate, so the sum is real.
            c_nl += abs2(entry(i, big_i, j, big_j)) - (left[0] * right[0] + left[1] * right[1])
    n2 = norm * norm
    return {
        "P_hs": Fraction(sum(x * x for x in p), n2) - Fraction(1, d),
        "C_hs": Fraction(c_hs, n2),
        "S_l": 1 - Fraction(purity, n2),
        "C_nl": Fraction(c_nl, n2),
        "gap": Fraction(gap, n2),
    }


def complex_from_pairs(pairs):
    """[re, im] pairs to complex128 one pair at a time; oracle for the one-call state-file parse."""
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def random_density_matrix(d, rng, rank=None):
    """Random mixed state G G^dag / Tr(...) with i.i.d. complex Gaussian G."""
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure_vector(d, rng):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def haar_amplitudes_one_by_one(dims, count, rng):
    """``count`` Haar amplitude vectors drawn one state at a time from ``rng``; oracle for the block draw.

    Each draw is D real parts, then D imaginary parts, divided by the square root of its sum of
    real squares; a draw whose norm is below 1e-6 is skipped.
    """
    d = math.prod(dims)
    out = []
    while len(out) < count:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        norm = math.sqrt(float(np.square(z.view(np.float64)).sum()))
        if not norm < 1e-6:
            out.append(z / norm)
    return out


def xlogx(p):
    """p ln p with the 0 ln 0 = 0 convention, for closed-form expectations."""
    return 0.0 if p <= 0.0 else p * np.log(p)


# numpy convenience-wrapper forms of the per-check kernels.  The library runs
# the same arithmetic in the same order through ndarray methods and bare
# ufuncs; these oracles pin that every bit of its results stays the same.


def wrapper_pure_reduction(amplitudes, dims, keep):
    """Pure-state partial trace through np.moveaxis, Hermitian-symmetrised."""
    keep = sorted(keep)
    k = math.prod(dims[m] for m in keep)
    m = np.moveaxis(np.asarray(amplitudes).reshape(dims), keep, range(len(keep))).reshape(k, -1)
    reduced = m @ m.conj().T
    return 0.5 * (reduced + reduced.conj().T)


def wrapper_density_reduction(matrix, dims, keep):
    """Density partial trace by one sublist np.einsum over the 2n axes, Hermitian-symmetrised."""
    n = len(dims)
    keep = sorted(keep)
    k = math.prod(dims[m] for m in keep)
    bra_ket = list(range(n)) + [n + m if m in keep else m for m in range(n)]
    out_axes = keep + [n + m for m in keep]
    reduced = np.einsum(np.asarray(matrix).reshape(tuple(dims) * 2), bra_ket, out_axes).reshape(k, k)
    return 0.5 * (reduced + reduced.conj().T)


def wrapper_diag_probs(matrix):
    return np.clip(np.diag(matrix).real, 0.0, None)


def wrapper_offdiag(matrix):
    return matrix - np.diag(np.diag(matrix))


def wrapper_entropy(p):
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def wrapper_vn_entropy(matrix, clamp):
    """S_vn with eigenvalues in [-clamp, 0) snapped to 0 before the sum."""
    w = np.linalg.eigvalsh(matrix)[::-1].copy()
    w[(w < 0.0) & (w >= -clamp)] = 0.0
    return wrapper_entropy(w)


def wrapper_measure_values(matrix):
    """Unsnapped P_hs, P_vn, P_l1, C_hs, C_l1 and S_vn(diag rho) of one reduced matrix."""
    d = matrix.shape[0]
    p = wrapper_diag_probs(matrix)
    off = wrapper_offdiag(matrix)
    return {
        "P_hs": float(np.sum(p * p)) - 1.0 / d,
        "P_vn": math.log(d) - wrapper_entropy(p),
        "P_l1": d - 1 - float(np.sqrt(p).sum() ** 2 - p.sum()),
        "C_hs": float(np.sum(np.abs(off) ** 2)),
        "C_l1": float(np.sum(np.abs(off))),
        "S_dephased": wrapper_entropy(np.sort(p)[::-1]),
    }


def wrapper_nonlocal_hs_sum(reduced, blocks=None):
    """Block-form index-partition sum; ``blocks`` defaults to the pure form outer(p, p)."""
    if blocks is None:
        p = np.diag(reduced).real
        blocks = np.outer(p, p)
    return float(np.sum((blocks - np.abs(reduced) ** 2)[~np.eye(reduced.shape[0], dtype=bool)]))


# Routes that only the tests need: the entropy form of C_nl (an oracle for the
# index-partition sum), the dephasing map, the tensor product of densities, and
# the state-file writer.


def nonlocal_coherence_hs_via_entropy(rho_full: PureState | DensityOperator, target: int) -> MeasureValue:
    """Non-local coherence of ``target`` as the linear entropy of its reduced state.

    For globally pure states this equals the index-partition sum of
    ``nonlocal_coherence_hs_direct``, so the two routes cross-check each other.
    """
    target = _check_target(rho_full, target, need_partner=True)
    _require_pure(rho_full, _PURE_ONLY)
    d_t = rho_full.signature.dims[target]
    value = linear_entropy(partial_trace(rho_full, [target]))
    return MeasureValue(value, (d_t - 1) / d_t, MeasureKind.C_NL_HS)


def dephased(rho: DensityOperator) -> DensityOperator:
    """Diagonal part of rho in the computational basis; the nearest incoherent state."""
    return _density_unchecked(rho.signature, np.diag(np.diag(rho.matrix).real.astype(np.complex128)))


def tensor_product(states):
    """Kronecker product of density operators, signatures concatenated in order.

    The product is refused with CapacityError above ``ccrkit.core.MAX_TOTAL_DIM``,
    the one cap of state files and audits.
    """
    states = list(states)
    if not states:
        raise ValidationError("tensor_product needs at least one state")
    _require_capacity(math.prod(s.signature.total for s in states))
    dims = tuple(d for s in states for d in s.signature.dims)
    out = states[0].matrix
    for s in states[1:]:
        out = np.kron(out, s.matrix)
    return _density_unchecked(DimensionSignature(dims), out)


def serialize_state(state: PureState | DensityOperator) -> bytes:
    """Inverse of ``ccrkit.cli.parse_state_file``; floats round-trip exactly."""
    if isinstance(state, PureState):
        kind = "pure"
        data = [[z.real, z.imag] for z in state.amplitudes]
    else:
        kind = "density"
        data = [[[z.real, z.imag] for z in row] for row in state.matrix]
    doc = {"dims": list(state.signature.dims), "kind": kind, "data": data}
    return json.dumps(doc).encode("utf-8")
