"""Reference values computed with plain numpy, independent of ccrkit.

The benchmark checks every ccrkit output against these routes.  Pure
states are handled through the Schmidt decomposition of the amplitude
vector reshaped to (target, rest); mixed states through explicit partial
traces.  The index-partition sum is evaluated literally, as ROADMAP asks
of any check of a fast path.
"""

from __future__ import annotations

import math

import numpy as np


def haar_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar-random unit vector of complex amplitudes."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def split(psi: np.ndarray, dims, keep) -> np.ndarray:
    """Amplitudes as a matrix with the ``keep`` subsystems as rows."""
    keep = sorted(keep)
    rest = [m for m in range(len(dims)) if m not in keep]
    tensor = np.asarray(psi).reshape(dims).transpose(keep + rest)
    rows = math.prod(dims[m] for m in keep)
    return tensor.reshape(rows, -1)


def reduce_pure(psi: np.ndarray, dims, keep) -> np.ndarray:
    m = split(psi, dims, keep)
    return m @ m.conj().T


def reduce_density(matrix: np.ndarray, dims, keep) -> np.ndarray:
    keep = sorted(keep)
    n = len(dims)
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = [letters[i] for i in range(n)]
    col = [letters[i] if i not in keep else letters[n + i] for i in range(n)]
    out = [letters[i] for i in keep] + [letters[n + i] for i in keep]
    expr = "".join(row) + "".join(col) + "->" + "".join(out)
    k = math.prod(dims[i] for i in keep)
    return np.einsum(expr, np.asarray(matrix).reshape(tuple(dims) * 2)).reshape(k, k)


def _shannon(p: np.ndarray) -> float:
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log(p)))


def entropy(rho: np.ndarray) -> float:
    return _shannon(np.clip(np.linalg.eigvalsh(rho), 0.0, None))


def measures(rho: np.ndarray) -> dict[str, float]:
    """Every single-subsystem quantity ccrkit reports, for the matrix rho."""
    d = rho.shape[0]
    p = np.clip(np.diag(rho).real, 0.0, None)
    off = rho - np.diag(np.diag(rho))
    purity = float(np.sum(np.abs(rho) ** 2))
    s_vn = entropy(rho)
    return {
        "P_hs": float(np.sum(p * p)) - 1.0 / d,
        "C_hs": float(np.sum(np.abs(off) ** 2)),
        "P_vn": math.log(d) - _shannon(p),
        "C_re": _shannon(p) - s_vn,
        "P_l1": d - 1 - float(np.sum(np.sqrt(p)) ** 2 - np.sum(p)),
        "C_l1": float(np.sum(np.abs(off))),
        "S_vn": s_vn,
        "S_l": 1.0 - purity,
        "purity": purity,
    }


def schmidt_terms(psi: np.ndarray, dims, target: int) -> dict[str, float]:
    """Target-subsystem terms of a pure state, from its Schmidt spectrum."""
    m = split(psi, dims, [target])
    rho_t = m @ m.conj().T
    out = measures(rho_t)
    lam = np.linalg.svd(m, compute_uv=False) ** 2
    out["S_vn"] = _shannon(lam)
    out["C_re"] = _shannon(np.clip(np.diag(rho_t).real, 0.0, None)) - out["S_vn"]
    out["C_nl_hs"] = 1.0 - float(np.sum(lam * lam))
    return out


def _target_blocks(matrix: np.ndarray, dims, target: int) -> np.ndarray:
    """rho as b[i, I, j, J]: target indices i, j and joint rest indices I, J."""
    n = len(dims)
    others = [m for m in range(n) if m != target]
    perm = [target] + others + [n + target] + [n + m for m in others]
    d_t = dims[target]
    rest = math.prod(dims[m] for m in others)
    return np.asarray(matrix).reshape(tuple(dims) * 2).transpose(perm).reshape(d_t, rest, d_t, rest)


def literal_nonlocal_sum(matrix: np.ndarray, dims, target: int) -> float:
    """sum over i != j, I != J of |rho_{iI,jJ}|^2 - rho_{iI,jI} conj(rho_{iJ,jJ})."""
    b = _target_blocks(matrix, dims, target)
    d_t, rest = b.shape[0], b.shape[1]
    off_t = ~np.eye(d_t, dtype=bool)
    off_r = ~np.eye(rest, dtype=bool)
    abs_sq = np.abs(b.transpose(0, 2, 1, 3)) ** 2  # [i, j, I, J]
    first = float(np.sum(abs_sq[off_t][:, off_r]))
    diag = np.einsum("iIjI->ijI", b)  # rho_{iI,jI}
    cross = diag[:, :, :, None] * diag.conj()[:, :, None, :]
    second = float(np.sum(cross[off_t][:, off_r]).real)
    return first - second


def block_nonlocal_sum(matrix: np.ndarray, dims, target: int) -> float:
    """sum over i != j of ||rho^(ij)||_F^2 - |Tr rho^(ij)|^2, rho^(ij) the rest x rest block."""
    b = _target_blocks(matrix, dims, target)
    d_t = b.shape[0]
    total = 0.0
    for i in range(d_t):
        for j in range(d_t):
            if i != j:
                block = b[i, :, j, :]
                total += float(np.sum(np.abs(block) ** 2)) - abs(np.trace(block)) ** 2
    return total


def correlated_coherence(rho: np.ndarray, dims, left, kind: str) -> float:
    """C(rho) - C(rho_left) - C(rho_right) for kind in C_hs, C_l1, C_re."""
    right = [m for m in range(len(dims)) if m not in left]
    whole = measures(rho)[kind]
    return (
        whole
        - measures(reduce_density(rho, dims, left))[kind]
        - measures(reduce_density(rho, dims, right))[kind]
    )
