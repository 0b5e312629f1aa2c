"""The four benchmark workloads.

Each workload makes its inputs from the seed in ``setup`` (ccrkit sees
only the generated states, files and argument lists), then hands out
rounds of top-level calls.  A call carries its unit count, a check that
compares its output with the numpy routes in ``oracles`` and returns the
largest deviation, and the traced call counts its inputs imply.

Workloads, and why each is here:

audit-haar      ``ccrkit audit`` over small signatures, hs and vn flavors
                alternating.  Per-state Python overhead, Haar sampling and
                small Jacobi spectra dominate; batching shows here.
check-cap       ``ccrkit check --file --json`` on pure Haar states at the
                D = 4096 cap.  The O(D^2) density route dominates time and
                memory; an amplitude route should move it.
sweep-families  ``ccrkit sweep`` over four families to CSV.  Tiny states,
                many columns per row: per-call overhead and repeated
                reductions.  CSV bytes must not change between repeats.
mixed-density   Library calls on reduced (mixed) Haar states, plus one
                density-file check per round.  The literal sum and the
                spectrum run where no pure-state shortcut applies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

import ccrkit
import ccrkit.cli

# Largest deviation from an oracle accepted as agreement.
ATOL = 1e-9
# ccr_inequality_gap must not fall below zero by more than roundoff.
GAP_FLOOR = -1e-10


class Mismatch(Exception):
    """An output disagrees with the benchmark's own check."""


@dataclass
class Call:
    kind: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], float]
    expect: dict[str, int] = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``ccrkit`` in-process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ccrkit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _compare(label: str, got: float, want: float) -> float:
    dev = abs(float(got) - float(want))
    _require(dev <= ATOL, f"{label}: got {got!r}, oracle {want!r}")
    return dev


def _require_exit_ok(result, argv) -> tuple[str, str]:
    code, out, err = result
    _require(code == 0, f"exit {code} from {' '.join(argv)}: {err.strip()[-200:]}")
    return out, err


def write_state_file(path: Path, dims, data: np.ndarray, kind: str) -> None:
    """Write a state in the documented JSON format: [re, im] pairs."""
    if kind == "pure":
        body = [[float(z.real), float(z.imag)] for z in data]
    else:
        body = [[[float(z.real), float(z.imag)] for z in row] for row in data]
    doc = {"dims": [int(d) for d in dims], "kind": kind, "data": body}
    path.write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# audit-haar


class AuditHaar:
    name = "audit-haar"
    unit = "checks"
    SIGNATURES = ((2, 2, 2), (3, 3), (3, 3, 3), (2, 2, 2, 2, 2))
    # Calls of 30-250 ms each: long enough that one call spans the host's
    # sub-second jitter, so the tail reflects the program, not a burst.
    COUNTS = {"full": (300, 180, 90, 180), "tiny": (3, 3, 3, 3)}
    # hs and vn on every signature, plus one mixedness audit: with an odd
    # number of call kinds the median call falls inside one kind's cluster,
    # not on the edge between the fast hs and the slow vn calls.
    EXTRA = ((2, 2, 2, 2, 2), "mixedness")
    # States per call rebuilt and checked with the literal sum.
    SAMPLED = 2

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.counts = dict(zip(self.SIGNATURES, self.COUNTS[size]))

    def setup(self) -> None:
        """Audit inputs are argument lists, drawn per round from the seed."""

    def warmup(self) -> Call:
        return self._call((2, 2, 2), "vn", 3, self.seed, [0])

    def round(self, index: int) -> list[Call]:
        rng = np.random.default_rng([self.seed, index])
        runs = [(dims, flavor) for dims in self.SIGNATURES for flavor in ("hs", "vn")] + [self.EXTRA]
        calls = []
        for dims, flavor in runs:
            count = self.counts[dims]
            audit_seed = int(rng.integers(2**31))
            sampled = sorted({0, *rng.integers(count, size=self.SAMPLED - 1).tolist()})
            calls.append(self._call(dims, flavor, count, audit_seed, sampled))
        return calls

    def _call(self, dims, flavor, count, audit_seed, sampled) -> Call:
        argv = [
            "audit", "--dims", ",".join(map(str, dims)), "--count", str(count),
            "--seed", str(audit_seed), "--flavor", flavor,
        ]
        checks = count * len(dims)

        def check(result) -> float:
            out, _ = _require_exit_ok(result, argv)
            lines = out.strip().splitlines()
            _require(lines[-1] == "PASS", f"audit verdict {lines[-1]!r} for {argv}")
            _require(f"checks={checks}" in lines[0], f"audit header {lines[0]!r} lacks checks={checks}")
            worst = float(lines[1].split()[0].split("=")[1])
            _require(worst <= ATOL, f"audit max|residual| {worst!r} for {argv}")
            dev = worst
            states = list(ccrkit.states.haar_random_pure(dims, count, audit_seed))
            for i in sampled:
                dev = max(dev, _audit_oracle(states[i].amplitudes, dims))
            return dev

        return Call(
            kind=f"audit-{flavor}",
            units=checks,
            run=lambda: run_cli(argv),
            check=check,
            expect={
                "cli.main.calls": 1,
                "states.haar_random_pure.calls": 1,
                "states.haar_random_pure.states": count,
                f"ccr.ccr_{flavor}.calls": checks,
            },
        )


def _audit_oracle(psi: np.ndarray, dims) -> float:
    """The hs balance of one pure state with C_nl from the literal sum, and S_vn by two routes."""
    rho = np.outer(psi, psi.conj())
    dev = 0.0
    for target in range(len(dims)):
        d_t = dims[target]
        terms = oracles.schmidt_terms(psi, dims, target)
        c_nl = oracles.literal_nonlocal_sum(rho, dims, target)
        dev = max(dev, _compare(f"literal C_nl, target {target}", c_nl, terms["C_nl_hs"]))
        hs_sum = terms["P_hs"] + terms["C_hs"] + c_nl
        dev = max(dev, _compare(f"hs balance, target {target}", hs_sum, (d_t - 1) / d_t))
        s_vn = oracles.entropy(oracles.reduce_pure(psi, dims, [target]))
        dev = max(dev, _compare(f"S_vn routes, target {target}", s_vn, terms["S_vn"]))
    return dev


# ---------------------------------------------------------------------------
# check-cap


class CheckCap:
    name = "check-cap"
    unit = "checks"
    SIGNATURES = {"full": ((2,) * 12, (4,) * 6), "tiny": ((2,) * 6, (4,) * 3)}
    # The warm-up checks a small state: a first D = 4096 call would put the
    # host's page-fault cost for 1.4 GB, which varies run to run, into setup_s.
    WARMUP_DIMS = (2, 2)
    FLAVOR_TERMS = {
        "hs": ("P_hs", "C_hs", "C_nl_hs"),
        "vn": ("P_vn", "C_re", "S_vn"),
        "mixedness": ("P_hs", "C_hs", "S_l"),
    }

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.signatures = self.SIGNATURES[size]
        self.workdir = workdir
        self.states: dict[tuple, tuple[Path, np.ndarray]] = {}
        self._oracle_cache: dict = {}

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        for k, dims in enumerate((self.WARMUP_DIMS,) + self.signatures):
            psi = oracles.haar_state(rng, math.prod(dims))
            path = self.workdir / f"cap{k}.json"
            write_state_file(path, dims, psi, "pure")
            self.states[dims] = (path, psi)

    def warmup(self) -> Call:
        return self._call(self.WARMUP_DIMS, "mixedness", 0)

    def round(self, index: int) -> list[Call]:
        calls = []
        for dims in self.signatures:
            n = len(dims)
            for flavor in ("hs", "vn", "mixedness"):
                for target in (0, n // 2, n - 1):
                    calls.append(self._call(dims, flavor, target))
        return calls

    def _oracle(self, dims, target) -> dict[str, float]:
        key = (dims, target)
        if key not in self._oracle_cache:
            self._oracle_cache[key] = oracles.schmidt_terms(self.states[dims][1], dims, target)
        return self._oracle_cache[key]

    def _call(self, dims, flavor, target) -> Call:
        path = self.states[dims][0]
        argv = ["check", "--file", str(path), "--flavor", flavor, "--target", str(target), "--json"]

        def check(result) -> float:
            out, _ = _require_exit_ok(result, argv)
            report = json.loads(out)
            _require(report["target"] == target, f"report target {report['target']} != {target}")
            return _check_dict_report(report, self._oracle(dims, target), self.FLAVOR_TERMS[flavor])

        return Call(
            kind=f"check-{flavor}",
            units=1,
            run=lambda: run_cli(argv),
            check=check,
            expect={"cli.main.calls": 1, "cli.parse_state_file.calls": 1, f"ccr.ccr_{flavor}.calls": 1},
        )


# ---------------------------------------------------------------------------
# sweep-families


def _family_state(variant: str, params: dict):
    """(matrix, dims) of a family member, built from its definition."""
    if variant == "werner":
        w, x = params["w"], params["x"]
        psi = np.array([x, math.sqrt(1.0 - x * x)], dtype=complex)
        return w * np.outer(psi, psi.conj()) + (1.0 - w) / 2.0 * np.eye(2), (2,)
    amps = np.zeros(9 if variant == "qutrit-jb" else 8, dtype=complex)
    if variant == "qutrit-jb":
        x = params["x"]
        amps[[0, 4]] = x / math.sqrt(2.0)
        amps[8] = math.sqrt(1.0 - x * x)
        dims = (3, 3)
    elif variant == "w":
        p = params["p"]
        amps[[0b001, 0b010, 0b100]] = [math.sqrt(1.0 - p), math.sqrt(p / 2.0), math.sqrt(p / 2.0)]
        dims = (2, 2, 2)
    else:  # acin
        lam = np.array([params[f"lambda{i}"] for i in range(1, 5)], dtype=complex)
        amps[[0b000, 0b011, 0b100, 0b111]] = lam / np.linalg.norm(lam)
        dims = (2, 2, 2)
    return np.outer(amps, amps.conj()), dims


def _sweep_cell(name: str, rho: np.ndarray, dims, target: int) -> float:
    reduced = oracles.measures(oracles.reduce_density(rho, dims, [target]))
    others = [m for m in range(len(dims)) if m != target]
    if name in reduced:
        return reduced[name]
    if name == "C_nl_hs":
        return reduced["S_l"]
    if name == "P_jb_sq":
        return 2.0 * reduced["P_hs"]
    if name == "C_jb_sq":
        return 2.0 * reduced["S_l"]
    kind = "C_" + name.split("_")[2]
    if name.endswith("_pairsum"):
        total = 0.0
        for m in others:
            pair = oracles.reduce_density(rho, dims, [target, m])
            pair_dims = tuple(dims[k] for k in sorted((target, m)))
            pos = 0 if target < m else 1
            total += oracles.correlated_coherence(pair, pair_dims, [pos], kind)
        return total
    return oracles.correlated_coherence(rho, dims, [target], kind)


class SweepFamilies:
    name = "sweep-families"
    unit = "cells"
    POINTS = {"full": 101, "tiny": 5}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.points = self.POINTS[size]
        self.workdir = workdir
        self.configs: list[dict] = []
        self.first_bytes: dict[str, bytes] = {}
        self._oracle_cache: dict[str, list[list[float]]] = {}

    def setup(self) -> None:
        """Fixed parameters and targets come from the seed; the grids span [0, 1]."""
        rng = np.random.default_rng(self.seed)
        lam = rng.standard_normal(6) * 0.5
        # Five configs, an odd number, so the median call is inside one
        # config's cluster of latencies rather than between two.
        self.configs = [
            dict(name="werner-pure", variant="werner", param="x", fixed={"w": 1.0}, target=0,
                 measures=("C_hs", "P_hs", "sum")),
            dict(variant="werner", param="x", fixed={"w": float(rng.uniform(0.2, 1.0))}, target=0,
                 measures=("C_hs", "P_hs", "sum")),
            dict(variant="qutrit-jb", param="x", fixed={}, target=int(rng.integers(2)),
                 measures=("P_jb_sq", "C_jb_sq", "P_l1", "C_corr_l1", "P_vn", "S_vn")),
            dict(variant="w", param="p", fixed={}, target=int(rng.integers(3)),
                 measures=("P_hs", "C_corr_hs_pairsum", "sum")),
            dict(variant="acin", param="lambda1",
                 fixed={f"lambda{i + 2}": complex(lam[2 * i], lam[2 * i + 1]) for i in range(3)},
                 target=int(rng.integers(3)),
                 measures=("P_hs", "C_hs", "C_nl_hs", "C_re", "C_corr_hs_pairsum", "sum")),
        ]
        for config in self.configs:
            config.setdefault("name", config["variant"])

    def warmup(self) -> Call:
        return self._call(self.configs[0])

    def round(self, index: int) -> list[Call]:
        return [self._call(config) for config in self.configs]

    def _argv(self, config: dict) -> list[str]:
        argv = ["sweep", "--factory", config["variant"], "--param", config["param"],
                "--start", "0", "--stop", "1", "--points", str(self.points),
                "--measures", ",".join(config["measures"]), "--target", str(config["target"]),
                "--out", str(self.workdir / f"{config['name']}.csv")]
        for name, value in config["fixed"].items():
            text = f"{value.real!r}:{value.imag!r}" if isinstance(value, complex) else repr(value)
            argv.append(f"--{name}={text}")  # "=" keeps a leading minus from reading as a flag
        return argv

    def _oracle(self, config: dict) -> list[list[float]]:
        name, variant = config["name"], config["variant"]
        if name not in self._oracle_cache:
            rows = []
            for value in np.linspace(0.0, 1.0, self.points):
                params = dict(config["fixed"], **{config["param"]: float(value)})
                rho, dims = _family_state(variant, params)
                cells = {m: _sweep_cell(m, rho, dims, config["target"]) for m in config["measures"] if m != "sum"}
                total = sum(cells.values())
                rows.append([float(value)] + [total if m == "sum" else cells[m] for m in config["measures"]])
            self._oracle_cache[name] = rows
        return self._oracle_cache[name]

    def sha256(self) -> dict[str, str]:
        return {name: hashlib.sha256(data).hexdigest() for name, data in self.first_bytes.items()}

    def _call(self, config: dict) -> Call:
        argv = self._argv(config)
        out_path = Path(argv[argv.index("--out") + 1])
        name = config["name"]

        def run():
            result = run_cli(argv)
            return result, out_path.read_bytes() if result[0] == 0 else b""

        def check(outcome) -> float:
            result, data = outcome
            _require_exit_ok(result, argv)
            first = self.first_bytes.setdefault(name, data)
            _require(data == first, f"{name} sweep CSV bytes differ between repeats")
            lines = data.decode("utf-8").split("\n")
            _require(lines[0] == "param," + ",".join(config["measures"]), f"{name} CSV header {lines[0]!r}")
            _require(lines[-1] == "" and len(lines) == self.points + 2, f"{name} CSV has {len(lines) - 2} rows")
            dev = 0.0
            for row_text, want in zip(lines[1:-1], self._oracle(config)):
                row = [float(cell) for cell in row_text.split(",")]
                _require(len(row) == len(want), f"{name} CSV row {row_text!r}")
                for label, got, ref in zip(("param",) + tuple(config["measures"]), row, want):
                    dev = max(dev, _compare(f"{name} {label}", got, ref))
            return dev

        return Call(
            kind=f"sweep-{name}",
            units=self.points * len(config["measures"]),
            run=run,
            check=check,
            expect={"cli.main.calls": 1, "cli.render_sweep_csv.calls": 1, "states.build.calls": self.points},
        )


# ---------------------------------------------------------------------------
# mixed-density


class MixedDensity:
    name = "mixed-density"
    unit = "states"
    # (global signature, subsystems kept, states per round): the kept part is
    # a mixed state.  The qubit reduction makes up most calls, so the median
    # call is one of them and does not sit between two kinds of call.
    REDUCTIONS = (((2,) * 7, 5, 3), ((3,) * 4, 3, 1))
    POOL = {"full": 24, "tiny": 1}

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.pool_size = self.POOL[size]
        self.workdir = workdir
        self.pool: list[tuple[tuple, int, list[np.ndarray]]] = []
        self.files: list[tuple[Path, tuple, np.ndarray]] = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        for k, (dims, keep, per_round) in enumerate(self.REDUCTIONS):
            kept = dims[:keep]
            states = []
            for _ in range(self.pool_size):
                psi = oracles.haar_state(rng, math.prod(dims))
                rho = oracles.reduce_pure(psi, dims, range(keep))
                states.append(0.5 * (rho + rho.conj().T))
            self.pool.append((kept, per_round, states))
            path = self.workdir / f"mixed{k}.json"
            write_state_file(path, kept, states[0], "density")
            self.files.append((path, kept, states[0]))

    def warmup(self) -> Call:
        kept, _, states = self.pool[0]
        return self._state_call(kept, states[0])

    def round(self, index: int) -> list[Call]:
        calls = []
        for kept, per_round, states in self.pool:
            for j in range(per_round):
                calls.append(self._state_call(kept, states[(index * per_round + j) % len(states)]))
        path, kept, matrix = self.files[index % len(self.files)]
        calls.append(self._file_call(path, kept, matrix, index % len(kept)))
        return calls

    def _state_call(self, dims, matrix: np.ndarray) -> Call:
        targets = range(len(dims))

        def run():
            rho = ccrkit.DensityOperator(dims, matrix)
            mixed = [ccrkit.ccr_mixedness(rho, t) for t in targets]
            gaps = [ccrkit.ccr_inequality_gap(rho, t) for t in targets]
            psi = ccrkit.purify(rho)
            pure = ccrkit.density_from_pure(psi)
            balances = [ccrkit.ccr_hs(pure, t) for t in (0, 1)]
            return mixed, gaps, psi, balances

        def check(outcome) -> float:
            mixed, gaps, psi, balances = outcome
            dev = 0.0
            for t, report in enumerate(mixed):
                dev = max(dev, _check_report(report, oracles.measures(oracles.reduce_density(matrix, dims, [t])),
                                             ("P_hs", "C_hs", "S_l")))
            for t, gap in enumerate(gaps):
                _require(gap >= GAP_FLOOR, f"gap {gap!r} < {GAP_FLOOR} on target {t}")
                m = oracles.measures(oracles.reduce_density(matrix, dims, [t]))
                d_t = dims[t]
                want = (d_t - 1) / d_t - (m["P_hs"] + m["C_hs"] + oracles.block_nonlocal_sum(matrix, dims, t))
                dev = max(dev, _compare(f"gap target {t}", gap, want))
            d = matrix.shape[0]
            _require(psi.dims[0] == d, f"purification dims {psi.dims}")
            amps = psi.amplitudes.reshape(psi.dims)
            recovered = amps @ amps.conj().T
            recover_dev = float(np.max(np.abs(recovered - matrix)))
            _require(recover_dev <= ATOL, f"partial trace of purify(rho) is off by {recover_dev!r}")
            dev = max(dev, recover_dev)
            for t, report in enumerate(balances):
                want = oracles.schmidt_terms(psi.amplitudes, psi.dims, t)
                dev = max(dev, _check_report(report, want, ("P_hs", "C_hs", "C_nl_hs")))
            return dev

        n = len(dims)
        return Call(
            kind="mixed-state",
            units=1,
            run=run,
            check=check,
            expect={
                "core.DensityOperator.calls": 1,
                "ccr.ccr_mixedness.calls": n,
                "ccr.ccr_inequality_gap.calls": n,
                "core.purify.calls": 1,
                "ccr.ccr_hs.calls": 2,
            },
        )

    def _file_call(self, path: Path, dims, matrix: np.ndarray, target: int) -> Call:
        argv = ["check", "--file", str(path), "--flavor", "mixedness", "--target", str(target), "--json"]

        def check(result) -> float:
            out, _ = _require_exit_ok(result, argv)
            want = oracles.measures(oracles.reduce_density(matrix, dims, [target]))
            return _check_dict_report(json.loads(out), want, ("P_hs", "C_hs", "S_l"))

        return Call(
            kind="mixed-file",
            units=1,
            run=lambda: run_cli(argv),
            check=check,
            expect={
                "cli.main.calls": 1,
                "cli.parse_state_file.calls": 1,
                "core.DensityOperator.calls": 1,
                "ccr.ccr_mixedness.calls": 1,
            },
        )


def _check_report(report, want: dict, names) -> float:
    _require(abs(report.residual) <= ATOL, f"residual {report.residual!r} on target {report.target}")
    dev = abs(report.residual)
    for name, term in zip(names, (report.predictability, report.local_coherence, report.correlation_term)):
        dev = max(dev, _compare(f"{name} target {report.target}", term.value, want[name]))
    return dev


def _check_dict_report(report: dict, want: dict, names) -> float:
    _require(abs(report["residual"]) <= ATOL, f"residual {report['residual']!r}")
    dev = abs(report["residual"])
    for name, key in zip(names, ("predictability", "local_coherence", "correlation_term")):
        dev = max(dev, _compare(name, report[key]["value"], want[name]))
    return dev


WORKLOADS = {cls.name: cls for cls in (AuditHaar, CheckCap, SweepFamilies, MixedDensity)}
