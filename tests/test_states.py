"""State factories and the Haar-random sampler."""

import ast
import math
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from helpers import haar_amplitudes_one_by_one

from ccrkit import CapacityError, DensityOperator, PureState, ValidationError, density_from_pure, partial_trace, purity
from ccrkit.states import (
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


def test_werner_fully_depolarized_is_maximally_mixed():
    assert np.allclose(werner_like(0.0, 0.9).matrix, np.eye(2) / 2)


def test_werner_valid_over_parameter_grid():
    for w in np.linspace(0, 1, 11):
        for x in np.linspace(0, 1, 11):
            rho = werner_like(w, x)  # constructor validates PSD/trace/hermiticity
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


def test_werner_rejects_out_of_range():
    with pytest.raises(ValidationError, match="w"):
        werner_like(1.5, 0.5)
    with pytest.raises(ValidationError, match="x"):
        werner_like(0.5, -0.1)


def test_probability_parameters_must_be_real_and_keep_their_bits():
    assert werner_like(complex(0.63, 0), 0.3).matrix.tobytes() == werner_like(0.63, 0.3).matrix.tobytes()
    assert w_state(complex(0.4, 0)).amplitudes.tobytes() == w_state(0.4).amplitudes.tobytes()
    for factory, args in ((werner_like, (complex(0.5, 0.1), 0.3)), (bipartite_x, (0.5j,)),
                          (qutrit_jb, (complex(0.5, -1e-300),)), (w_state, (complex(0.4, 0.2),))):
        with pytest.raises(ValidationError, match="must be real"):
            factory(*args)


def test_w_state_limit_p_one():
    psi = w_state(1.0)
    expected = np.zeros(8)
    expected[0b010] = expected[0b100] = 1 / math.sqrt(2)
    assert np.allclose(psi.amplitudes, expected)


def test_qutrit_limit_x_one():
    psi = qutrit_jb(1.0)
    expected = np.zeros(9)
    expected[0] = expected[4] = 1 / math.sqrt(2)
    assert np.allclose(psi.amplitudes, expected)


def test_bipartite_x_amplitude_layout():
    psi = bipartite_x(0.6)
    assert psi.amplitudes[0b01] == pytest.approx(0.6)
    assert psi.amplitudes[0b10] == pytest.approx(0.8)


def test_ghz_normalizes_amplitudes():
    psi = ghz(0.7071, 0.7071)
    probs = np.abs(psi.amplitudes) ** 2
    assert probs[0b000] + probs[0b111] == pytest.approx(1.0, abs=1e-12)
    assert probs[0b000] == pytest.approx(0.5, abs=1e-12)


def test_ghz_accepts_complex_amplitudes():
    psi = ghz(0.3 + 0.4j, 0.5 - 0.7j)
    assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1.0) < 1e-12


def test_five_term_normalizes_and_requires_real():
    psi = five_term(1.0, 2.0, 3.0, 4.0, 5.0)
    assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1.0) < 1e-12
    with pytest.raises(ValidationError, match="real"):
        five_term(1.0, 2.0j, 3.0, 4.0, 5.0)


def test_acin_accepts_complex_and_normalizes():
    psi = acin(1.0 + 1.0j, 2.0, 3.0 - 0.5j, 0.25j)
    assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1.0) < 1e-12


def test_zero_amplitudes_rejected():
    with pytest.raises(ValidationError, match="zero"):
        ghz(0.0, 0.0)


def test_every_pure_factory_output_is_pure():
    pure_states = [
        bipartite_x(0.3),
        qutrit_jb(0.8),
        ghz(0.6, 0.8),
        w_state(0.5),
        five_term(1, 1, 1, 1, 1),
        acin(1, 1j, 1, -1),
    ]
    for psi in pure_states:
        assert abs(purity(density_from_pure(psi)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# build() dispatch


def test_build_dispatch():
    assert isinstance(build("werner", w=0.5, x=0.5), DensityOperator)
    assert isinstance(build("ghz", a000=0.6, a111=0.8), PureState)
    assert set(FACTORY_PARAMS) == {"werner", "bipartite-x", "qutrit-jb", "ghz", "w", "five-term", "acin"}


def test_build_rejects_unknown_variant():
    with pytest.raises(ValidationError, match="unknown state variant"):
        build("bell")


def test_build_rejects_missing_and_extra_params():
    with pytest.raises(ValidationError, match="missing"):
        build("werner", w=0.5)
    with pytest.raises(ValidationError, match="unexpected"):
        build("w", p=0.5, x=0.1)


# ---------------------------------------------------------------------------
# Haar sampler


def test_haar_stream_deterministic_per_seed():
    first = [psi.amplitudes for psi in haar_random_pure((2, 2), 5, seed=99)]
    second = [psi.amplitudes for psi in haar_random_pure((2, 2), 5, seed=99)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    other = next(iter(haar_random_pure((2, 2), 1, seed=100)))
    assert not np.allclose(first[0], other.amplitudes)


def test_haar_states_normalized():
    for psi in haar_random_pure((2, 2), 1000, seed=5):
        norm_sq = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
        assert abs(norm_sq - 1.0) < 1e-12


def test_haar_mean_reduced_linear_entropy():
    # Exact Haar average of 1 - Tr rho_A^2 for a (2, 2) split is
    # 1 - (d_A + d_B)/(d_A d_B + 1) = 1/5; Monte-Carlo with 1000 draws.
    total = 0.0
    count = 1000
    for psi in haar_random_pure((2, 2), count, seed=6):
        reduced = partial_trace(density_from_pure(psi), [0])
        total += 1.0 - float(np.vdot(reduced.matrix, reduced.matrix).real)
    assert abs(total / count - 0.2) < 0.02


def test_haar_rejects_bad_count():
    with pytest.raises(ValidationError, match="count"):
        list(haar_random_pure((2, 2), 0, seed=1))


def test_haar_rejects_over_cap_signature_before_drawing():
    with pytest.raises(CapacityError, match="exceeds the configured maximum 4096"):
        next(haar_random_pure((2,) * 13, 1, 0))


def test_haar_rejects_negative_seed_before_drawing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
        next(haar_random_pure((2, 2), 3, -1))


@pytest.mark.parametrize("dims, count", [((2, 2, 2), 2 * 8192 + 5), ((3, 3, 3), 5000), ((2,) * 12, 40)])
def test_haar_block_draw_equals_per_state_draws(dims, count):
    # 2**16 // D states per block: 8192, 2427 and 16, so each count spans more than one block.
    got = [psi.amplitudes for psi in haar_random_pure(dims, count, seed=31)]
    want = haar_amplitudes_one_by_one(dims, count, np.random.default_rng(31))
    assert len(got) == count
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))


class StreamStub:
    """A generator stand-in that hands out ``values`` in order, in whatever shape is asked for."""

    def __init__(self, values):
        self.values = values
        self.used = 0

    def standard_normal(self, shape):
        size = math.prod(np.atleast_1d(shape))
        out = self.values[self.used : self.used + size].reshape(shape)
        self.used += size
        return out


def test_haar_skips_draws_with_a_norm_below_the_floor(monkeypatch):
    d, skipped, count = 8, 3, 5
    rng = np.random.default_rng(4)
    stream = np.concatenate([1e-9 * rng.standard_normal(2 * d * skipped), rng.standard_normal(2 * d * count)])
    want = haar_amplitudes_one_by_one((2, 2, 2), count, StreamStub(stream))
    monkeypatch.setattr(np.random, "default_rng", lambda seed: StreamStub(stream))
    got = [psi.amplitudes for psi in haar_random_pure((2, 2, 2), count, 0)]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))
    first = stream[2 * d * skipped : 2 * d * (skipped + 1)]
    assert np.allclose(got[0], (first[:d] + 1j * first[d:]) / np.linalg.norm(first), rtol=0, atol=1e-15)


def test_haar_checks_each_block_before_yielding_from_it(monkeypatch):
    stream = np.random.default_rng(5).standard_normal(2 * 8 * 4)
    # Row 2's squares overflow, so its norm is inf and it normalizes to zeros.
    stream[2 * 8 * 2 + 3] = 1e200
    monkeypatch.setattr(np.random, "default_rng", lambda seed: StreamStub(stream))
    with pytest.raises(ValidationError, match=r"not normalized: sum \|a\|\^2 = 0\.0"):
        next(haar_random_pure((2, 2, 2), 4, 0))


def test_haar_memory_is_one_block_whatever_the_count():
    # One block is 16 states of 4096 amplitudes: 1 MB of draws and 1 MB of amplitudes.
    tracemalloc.start()
    try:
        next(haar_random_pure((2,) * 12, 10**6, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_haar_states_are_read_only_and_valid():
    for psi in haar_random_pure((3, 2, 4), 50, seed=8):
        assert not psi.amplitudes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            psi.amplitudes[0] = 1.0
        again = PureState(psi.signature, psi.amplitudes)
        assert again.amplitudes.tobytes() == psi.amplitudes.tobytes()


SRC = Path(__file__).resolve().parents[1] / "src" / "ccrkit"


def test_only_the_factories_and_the_jacobi_stopping_test_reach_the_blas_norm():
    # callers[name]: the module-level functions and classes of src/ that call ``name``, as
    # module.name; a call outside any of them counts as module.<module>.
    callers = defaultdict(set)
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.ImportFrom):
                    assert not (node.module or "").endswith("linalg"), (path.name, ast.unparse(node))
                if isinstance(node, ast.Call):
                    callers[ast.unparse(node.func)].add(f"{path.stem}.{owner}")
    users = set().union(*(found for name, found in callers.items() if name.endswith("linalg.norm")))
    # The factories' normalization keeps the sweep CSV bytes; _offdiag_norm is the stopping
    # test of purify's Jacobi solver, which only purify calls.  purify itself normalizes by
    # core._squared_norms.
    assert users <= {"states._normalized", "core._offdiag_norm"}
    assert callers["_offdiag_norm"] <= {"core._jacobi_eigh"} and callers["_jacobi_eigh"] <= {"core.purify"}


@pytest.mark.parametrize(
    "factory, args",
    [(ghz, (math.inf, 1.0)), (ghz, (complex(1.0, math.nan), 1.0)), (ghz, (3e200, 4e200)),
     (acin, (1.0, 1.0, -math.inf, 1.0))],
)
def test_non_finite_amplitude_parameters_rejected(factory, args):
    with pytest.raises(ValidationError, match="must be finite"):
        factory(*args)
