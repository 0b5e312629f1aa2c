"""Shared test utilities: independent oracles and random-state generators."""

import itertools

import numpy as np


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


def random_density_matrix(d, rng, rank=None):
    """Random mixed state G G^dag / Tr(...) with i.i.d. complex Gaussian G."""
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_pure_vector(d, rng):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def xlogx(p):
    """p ln p with the 0 ln 0 = 0 convention, for closed-form expectations."""
    return 0.0 if p <= 0.0 else p * np.log(p)
