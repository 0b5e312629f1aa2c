"""Command-line front end.

Three subcommands: ``check`` evaluates one complementarity balance and
exits 0 when the residual is below tolerance, ``sweep`` tabulates measures
over a parameter grid to CSV, and ``audit`` runs a balance over a
Haar-random ensemble.  Exit codes: 0 pass, 1 residual over tolerance,
2 input error (including NaN or infinite state data and a tolerance that
is not a finite number >= 0), 3 precondition error (for example a mixed
state fed to a pure-only flavor).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ccr import CCRReport, ccr_hs, ccr_mixedness, ccr_vn
from .core import (
    DensityOperator,
    DimensionSignature,
    PureState,
    density_from_pure,
    linear_entropy,
    partial_trace,
    purity,
    von_neumann_entropy,
)
from .errors import CapacityError, NumericError, PreconditionError, ValidationError
from .measures import (
    CoherenceKind,
    coherence_hs,
    coherence_l1,
    coherence_re,
    concurrence_generalized,
    correlated_coherence,
    nonlocal_coherence_hs_direct,
    predictability_hs,
    predictability_l1,
    predictability_vn,
)
from .states import FACTORY_PARAMS, build, haar_random_pure

__all__ = [
    "TOLERANCE_ENV",
    "parse_state_file",
    "serialize_state",
    "SweepConfig",
    "render_sweep_csv",
    "main",
]

TOLERANCE_ENV = "CCRKIT_TOLERANCE"
DEFAULT_CHECK_TOLERANCE = 1e-10

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

_FLAVOR_FUNCS = {"hs": ccr_hs, "vn": ccr_vn, "mixedness": ccr_mixedness}

# Factory parameters that are probabilities; everything else is an amplitude
# and accepts the re:im syntax.
_REAL_PARAMS = {"w", "x", "p"}


# ---------------------------------------------------------------------------
# State files


def parse_state_file(data: bytes) -> PureState | DensityOperator:
    """Parse a UTF-8 JSON state file into a validated state.

    The document must carry ``dims`` (array of integers), ``kind`` ("pure"
    or "density"), and ``data``: a vector of [re, im] pairs for pure states,
    or an array of such rows for density matrices.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"state file is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("state file must be a JSON object")
    missing = {"dims", "kind", "data"} - doc.keys()
    if missing:
        raise ValidationError(f"state file is missing keys {sorted(missing)}")
    dims = doc["dims"]
    if not isinstance(dims, list) or not dims or not all(isinstance(d, int) and not isinstance(d, bool) for d in dims):
        raise ValidationError("dims must be a nonempty array of integers")
    signature = DimensionSignature(tuple(dims))
    total = signature.total
    kind = doc["kind"]
    if kind == "pure":
        return PureState(signature, _complex_vector(doc["data"], total, "data"))
    if kind == "density":
        rows = doc["data"]
        if not isinstance(rows, list) or len(rows) != total:
            raise ValidationError(f"data must be an array of {total} rows for dims {dims}")
        matrix = np.array([_complex_vector(row, total, f"data[{i}]") for i, row in enumerate(rows)])
        return DensityOperator(signature, matrix)
    raise ValidationError(f"kind must be 'pure' or 'density', got {kind!r}")


def _complex_vector(entries, expected_len: int, label: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != expected_len:
        raise ValidationError(f"{label} must be an array of {expected_len} [re, im] pairs")
    out = np.empty(expected_len, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise ValidationError(f"{label}[{i}] must be a [re, im] pair of numbers")
        out[i] = complex(pair[0], pair[1])
    return out


def serialize_state(state: PureState | DensityOperator) -> bytes:
    """Inverse of parse_state_file; floats round-trip exactly."""
    if isinstance(state, PureState):
        kind = "pure"
        data = [[z.real, z.imag] for z in state.amplitudes]
    else:
        kind = "density"
        data = [[[z.real, z.imag] for z in row] for row in state.matrix]
    doc = {"dims": list(state.signature.dims), "kind": kind, "data": data}
    return json.dumps(doc).encode("utf-8")


# ---------------------------------------------------------------------------
# Sweeps


def _reduced(rho: DensityOperator, target: int) -> DensityOperator:
    return partial_trace(rho, [target])


def _others(rho: DensityOperator, target: int) -> list[int]:
    return [m for m in range(len(rho.signature.dims)) if m != target]


def _corr_rest(kind: CoherenceKind):
    def value(rho, target):
        return correlated_coherence(rho, ([target], _others(rho, target)), kind)

    return value


def _corr_pairsum(kind: CoherenceKind):
    def value(rho, target):
        total = 0.0
        for m in _others(rho, target):
            pair = partial_trace(rho, [target, m])
            pos = 0 if target < m else 1
            total += correlated_coherence(pair, ([pos], [1 - pos]), kind)
        return total

    return value


#: Measures addressable by name in sweep CSV columns.  All act on the
#: reduced target state except the correlation-type entries, which need the
#: full state; "sum" totals the other requested columns.
MEASURES = {
    "P_hs": lambda rho, t: predictability_hs(_reduced(rho, t)).value,
    "P_vn": lambda rho, t: predictability_vn(_reduced(rho, t)).value,
    "P_l1": lambda rho, t: predictability_l1(_reduced(rho, t)).value,
    "C_hs": lambda rho, t: coherence_hs(_reduced(rho, t)).value,
    "C_l1": lambda rho, t: coherence_l1(_reduced(rho, t)).value,
    "C_re": lambda rho, t: coherence_re(_reduced(rho, t)).value,
    "S_vn": lambda rho, t: von_neumann_entropy(_reduced(rho, t)),
    "S_l": lambda rho, t: linear_entropy(_reduced(rho, t)),
    "purity": lambda rho, t: purity(_reduced(rho, t)),
    "C_nl_hs": lambda rho, t: nonlocal_coherence_hs_direct(rho, t).value,
    "C_corr_hs": _corr_rest(CoherenceKind.HILBERT_SCHMIDT),
    "C_corr_l1": _corr_rest(CoherenceKind.L1_NORM),
    "C_corr_re": _corr_rest(CoherenceKind.RELATIVE_ENTROPY),
    "C_corr_hs_pairsum": _corr_pairsum(CoherenceKind.HILBERT_SCHMIDT),
    "C_corr_l1_pairsum": _corr_pairsum(CoherenceKind.L1_NORM),
    "P_jb_sq": lambda rho, t: 2.0 * predictability_hs(_reduced(rho, t)).value,
    "C_jb_sq": lambda rho, t: 2.0 * linear_entropy(_reduced(rho, t)),
    "concurrence": lambda rho, t: concurrence_generalized(_reduced(rho, t)).value,
}


@dataclass(frozen=True)
class SweepConfig:
    """Grid sweep of one factory parameter, tabulating named measures."""

    variant: str
    param: str
    start: float
    stop: float
    points: int
    measures: tuple[str, ...]
    fixed: dict = field(default_factory=dict)
    target: int = 0


def _validate_sweep(config: SweepConfig) -> None:
    if config.variant not in FACTORY_PARAMS:
        raise ValidationError(
            f"unknown state variant {config.variant!r}; expected one of {sorted(FACTORY_PARAMS)}"
        )
    if config.param not in FACTORY_PARAMS[config.variant]:
        raise ValidationError(
            f"variant {config.variant!r} has no parameter {config.param!r}; "
            f"expected one of {list(FACTORY_PARAMS[config.variant])}"
        )
    if config.points < 2:
        raise ValidationError(f"sweep needs at least 2 grid points, got {config.points}")
    if config.param in _REAL_PARAMS:
        for edge in (config.start, config.stop):
            if not 0.0 <= edge <= 1.0:
                raise ValidationError(
                    f"grid for parameter {config.param!r} must stay in [0, 1], got {edge!r}"
                )
    if not config.measures:
        raise ValidationError("sweep needs at least one measure column")
    unknown = [m for m in config.measures if m != "sum" and m not in MEASURES]
    if unknown:
        raise ValidationError(f"unknown measures {unknown}; expected {sorted(MEASURES)} or 'sum'")


def render_sweep_csv(config: SweepConfig) -> str:
    """Evaluate the sweep and render it as CSV text (LF line endings)."""
    _validate_sweep(config)
    lines = ["param," + ",".join(config.measures)]
    for value in np.linspace(config.start, config.stop, config.points):
        params = dict(config.fixed)
        params[config.param] = float(value)
        state = build(config.variant, **params)
        rho = density_from_pure(state) if isinstance(state, PureState) else state
        measured = {
            name: float(MEASURES[name](rho, config.target))
            for name in config.measures
            if name != "sum"
        }
        row_total = sum(measured.values())
        cells = [float(value)] + [
            row_total if name == "sum" else measured[name] for name in config.measures
        ]
        lines.append(",".join(repr(c) for c in cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _parse_amplitude(text: str) -> complex:
    """Parse 're' or 're:im' into a complex number."""
    try:
        if ":" in text:
            re_part, im_part = text.split(":", 1)
            return complex(float(re_part), float(im_part))
        return complex(float(text), 0.0)
    except ValueError as exc:
        raise ValidationError(f"cannot parse amplitude {text!r}; expected 're' or 're:im'") from exc


def _collect_factory_params(args, variant: str) -> dict:
    params = {}
    for name in FACTORY_PARAMS[variant]:
        raw = getattr(args, name, None)
        if raw is None:
            raise ValidationError(f"variant {variant!r} requires --{name}")
        params[name] = float(raw) if name in _REAL_PARAMS else _parse_amplitude(raw)
    return params


def _load_state(args) -> PureState | DensityOperator:
    if args.file is not None:
        return parse_state_file(Path(args.file).read_bytes())
    return build(args.factory, **_collect_factory_params(args, args.factory))


def _resolve_tolerance(args) -> float:
    raw = os.environ.get(TOLERANCE_ENV) if args.tolerance is None else args.tolerance
    if raw is None:
        return DEFAULT_CHECK_TOLERANCE
    try:
        tolerance = float(raw)
    except ValueError as exc:
        raise ValidationError(f"{TOLERANCE_ENV} must be a float, got {raw!r}") from exc
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValidationError(f"tolerance must be a finite number >= 0, got {raw!r}")
    return tolerance


def _report_to_dict(report: CCRReport) -> dict:
    def measure(mv):
        return {"kind": mv.kind.value, "value": mv.value, "bound": mv.bound}

    return {
        "flavor": report.flavor.value,
        "target": report.target,
        "predictability": measure(report.predictability),
        "local_coherence": measure(report.local_coherence),
        "correlation_term": measure(report.correlation_term),
        "sum": report.sum,
        "bound": report.bound,
        "residual": report.residual,
    }


def _print_report(report: CCRReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_report_to_dict(report)))
        return
    print(f"flavor    {report.flavor.value}")
    print(f"target    {report.target}")
    for mv in (report.predictability, report.local_coherence, report.correlation_term):
        print(f"{mv.kind.value:<9} {mv.value!r} (bound {mv.bound!r})")
    print(f"sum       {report.sum!r}")
    print(f"bound     {report.bound!r}")
    print(f"residual  {report.residual!r}")


def cmd_check(args) -> int:
    tolerance = _resolve_tolerance(args)
    state = _load_state(args)
    rho = density_from_pure(state) if isinstance(state, PureState) else state
    report = _FLAVOR_FUNCS[args.flavor](rho, args.target)
    _print_report(report, args.json)
    return EXIT_OK if abs(report.residual) < tolerance else EXIT_FAIL


def cmd_sweep(args) -> int:
    fixed = {}
    for name in FACTORY_PARAMS[args.factory]:
        if name == args.param:
            continue
        raw = getattr(args, name, None)
        if raw is None:
            raise ValidationError(f"sweep of {args.factory!r} requires fixed --{name}")
        fixed[name] = float(raw) if name in _REAL_PARAMS else _parse_amplitude(raw)
    config = SweepConfig(
        variant=args.factory,
        param=args.param,
        start=args.start,
        stop=args.stop,
        points=args.points,
        measures=tuple(name.strip() for name in args.measures.split(",") if name.strip()),
        fixed=fixed,
        target=args.target,
    )
    text = render_sweep_csv(config)
    Path(args.out).write_bytes(text.encode("utf-8"))
    print(f"wrote {args.points} rows to {args.out}")
    return EXIT_OK


def cmd_audit(args) -> int:
    tolerance = _resolve_tolerance(args)
    try:
        dims = tuple(int(part) for part in args.dims.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse --dims {args.dims!r}; expected e.g. 2,2,3") from exc
    if len(dims) < 2:
        raise ValidationError(f"CCR auditing needs at least 2 subsystems, got dims {dims}")
    signature = DimensionSignature(dims)
    if args.count < 1:
        raise ValidationError(f"--count must be positive, got {args.count}")
    flavor = _FLAVOR_FUNCS[args.flavor]
    residuals = []
    for psi in haar_random_pure(signature, args.count, args.seed):
        rho = density_from_pure(psi)
        for target in range(len(dims)):
            residuals.append(abs(flavor(rho, target).residual))
    worst = max(residuals)
    mean = sum(residuals) / len(residuals)
    passed = worst < tolerance
    print(
        f"audit dims={args.dims} flavor={args.flavor} states={args.count} seed={args.seed} "
        f"checks={len(residuals)}"
    )
    print(f"max|residual|={worst:.3e} mean|residual|={mean:.3e} tolerance={tolerance:.3e}")
    print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser


def _add_factory_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--w", type=float, help="mixing weight in [0, 1] (werner)")
    parser.add_argument("--x", type=float, help="amplitude parameter in [0, 1]")
    parser.add_argument("--p", type=float, help="excitation weight in [0, 1] (w state)")
    parser.add_argument("--a000", help="amplitude, 're' or 're:im' (ghz)")
    parser.add_argument("--a111", help="amplitude, 're' or 're:im' (ghz)")
    for i in range(1, 6):
        parser.add_argument(f"--lambda{i}", help="coefficient, 're' or 're:im'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccrkit",
        description="Complementarity measures and complete complementarity relations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate one CCR and compare its residual to a tolerance")
    source = check.add_mutually_exclusive_group(required=True)
    source.add_argument("--factory", choices=sorted(FACTORY_PARAMS), help="named example state")
    source.add_argument("--file", help="JSON state file")
    _add_factory_flags(check)
    check.add_argument("--target", type=int, default=0, help="subsystem index (default 0)")
    check.add_argument("--flavor", choices=sorted(_FLAVOR_FUNCS), required=True)
    check.add_argument("--tolerance", type=float, default=None,
                       help=f"residual tolerance (default {DEFAULT_CHECK_TOLERANCE}, or ${TOLERANCE_ENV})")
    check.add_argument("--json", action="store_true", help="emit the report as JSON")
    check.set_defaults(func=cmd_check)

    sweep = sub.add_parser("sweep", help="tabulate measures over a parameter grid to CSV")
    sweep.add_argument("--factory", choices=sorted(FACTORY_PARAMS), required=True)
    _add_factory_flags(sweep)
    sweep.add_argument("--param", required=True, help="parameter to sweep")
    sweep.add_argument("--start", type=float, required=True)
    sweep.add_argument("--stop", type=float, required=True)
    sweep.add_argument("--points", type=int, required=True)
    sweep.add_argument("--measures", required=True,
                       help="comma-separated measure names; 'sum' totals the other columns")
    sweep.add_argument("--target", type=int, default=0)
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    audit = sub.add_parser("audit", help="run a CCR flavor over a Haar-random ensemble")
    audit.add_argument("--dims", required=True, help="comma-separated subsystem dimensions")
    audit.add_argument("--count", type=int, required=True)
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--flavor", choices=sorted(_FLAVOR_FUNCS), required=True)
    audit.add_argument("--tolerance", type=float, default=None)
    audit.set_defaults(func=cmd_audit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValidationError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
