"""Command-line front end.

Three subcommands: ``check`` evaluates one complementarity balance and
exits 0 when the residual is below tolerance, ``sweep`` tabulates measures
over a parameter grid to CSV, and ``audit`` runs a balance over a
Haar-random ensemble.  Exit codes: 0 pass, 1 residual over tolerance,
2 input error (including a malformed flag value such as ``--points abc``
and an unknown flag, both reported as ``error: ...`` without the usage
text, NaN or infinite state data or factory parameters, a factory flag
that is not 're' or 're:im', a w, x or p that is not real or not in
[0, 1], a factory flag the chosen factory does not take, any
factory flag given with ``--file``, a swept parameter also given as a
fixed flag, a state-file entry that is not a JSON number (booleans and
numeric strings are refused) or is too large for a float, a non-finite
sweep edge, a negative audit seed, a sweep ``--points`` or audit
``--count`` above ``MAX_COUNT``, a tolerance that is not a finite
number >= 0, and a state file or audit signature whose total dimension
exceeds ``core.MAX_TOTAL_DIM``), 3 precondition error (for example a mixed
state fed to a pure-only flavor), 4 numeric failure (an eigenvalue solve
that fails, or a measure that comes out NaN or infinite).

``check`` and ``audit`` hand pure states to the balances as amplitudes;
neither builds the D x D density |psi><psi| for pure input.  ``sweep``
reduces each row's state once and passes that to every column.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ccr import CCRReport, ccr_hs, ccr_mixedness, ccr_vn
from .core import (
    DensityOperator,
    DimensionSignature,
    PureState,
    _check_target,
    _require_capacity,
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
    _correlated_coherence,
    _nonlocal_coherence_hs,
    correlated_coherence,
    predictability_hs,
    predictability_l1,
    predictability_vn,
)
from .states import FACTORY_PARAMS, build, haar_random_pure

__all__ = [
    "parse_state_file",
    "SweepConfig",
    "render_sweep_csv",
    "main",
]

DEFAULT_CHECK_TOLERANCE = 1e-10
# Largest sweep --points and audit --count, refused before any grid or state is made.
MAX_COUNT = 1_000_000

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_NUMERIC = 4

_FLAVOR_FUNCS = {"hs": ccr_hs, "vn": ccr_vn, "mixedness": ccr_mixedness}

_JSON_NUMBERS = {int, float}  # leaf types of a state file's [re, im] entries; not bool

# One flag per factory parameter name; ``build`` checks which ones a variant takes.
_FACTORY_FLAGS = sorted({name for names in FACTORY_PARAMS.values() for name in names})


# ---------------------------------------------------------------------------
# State files


def parse_state_file(data: bytes) -> PureState | DensityOperator:
    """Parse a UTF-8 JSON state file into a validated state.

    The document must carry ``dims`` (array of integers), ``kind`` ("pure"
    or "density"), and ``data``: a vector of [re, im] pairs for pure states,
    or an array of such rows for density matrices.  Every re and im must be
    a JSON number; booleans and numeric strings are refused.  A ``dims``
    whose product exceeds ``core.MAX_TOTAL_DIM`` raises CapacityError before
    ``data`` is read.
    """
    with _gc_paused():
        signature, kind, values = _read_state_doc(data)
    return PureState(signature, values) if kind == "pure" else DensityOperator(signature, values)


@contextlib.contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, and resume it only if it was running.

    A D = 4096 file parses into 4097 lists, which a running collector would scan
    and promote to older generations.  JSON holds no cycles: reference counting frees them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _read_state_doc(data: bytes) -> tuple[DimensionSignature, str, np.ndarray]:
    """The signature, kind and complex entries of a state file; the parsed JSON is freed on return."""
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
    _require_capacity(total)
    kind = doc["kind"]
    if kind == "pure":
        return signature, kind, _complex_entries(doc["data"], (total,))
    if kind == "density":
        rows = doc["data"]
        if not isinstance(rows, list) or len(rows) != total:
            raise ValidationError(f"data must be an array of {total} rows for dims {dims}")
        return signature, kind, _complex_entries(rows, (total, total))
    raise ValidationError(f"kind must be 'pure' or 'density', got {kind!r}")


def _complex_entries(entries, shape: tuple[int, ...]) -> np.ndarray:
    """Nested lists of [re, im] JSON numbers as a complex array of ``shape``.

    One ``np.array`` call converts them, and ``view`` reads each float pair as
    one complex128, the same bits as complex(re, im).  The leaf-type scan comes
    first because numpy would read true as 1.0 and "1" as 1.0.
    """
    try:
        leaves = entries
        for _ in shape:
            leaves = itertools.chain.from_iterable(leaves)
        if set(map(type, leaves)) <= _JSON_NUMBERS:
            values = np.array(entries, dtype=np.float64)
            if values.shape == (*shape, 2):
                return values.view(np.complex128).reshape(shape)
    except (TypeError, ValueError, OverflowError):
        pass
    raise _first_bad_entry(entries, shape)


def _first_bad_entry(entries, shape: tuple[int, ...]) -> ValidationError:
    """The error naming the first entry that ``_complex_entries`` could not convert."""
    n = shape[-1]
    vectors = [("data", entries)] if len(shape) == 1 else [(f"data[{i}]", row) for i, row in enumerate(entries)]
    for label, vector in vectors:
        if not isinstance(vector, list) or len(vector) != n:
            return ValidationError(f"{label} must be an array of {n} [re, im] pairs")
        for i, pair in enumerate(vector):
            if not isinstance(pair, list) or len(pair) != 2 or not {type(v) for v in pair} <= _JSON_NUMBERS:
                return ValidationError(f"{label}[{i}] must be a [re, im] pair of numbers")
            try:
                complex(pair[0], pair[1])
            except OverflowError:
                return ValidationError(f"{label}[{i}] has an integer too large for a float")
    return ValidationError(f"data must hold {' x '.join(map(str, shape))} [re, im] pairs of JSON numbers")


# ---------------------------------------------------------------------------
# Sweeps


def _others(rho: DensityOperator, target: int) -> list[int]:
    return [m for m in range(len(rho.signature.dims)) if m != target]


def _corr_rest(kind: CoherenceKind):
    def value(rho, reduced, target):
        target = _check_target(rho, target, need_partner=True)
        return _correlated_coherence(rho, reduced, partial_trace(rho, _others(rho, target)), kind)

    return value


def _corr_pairsum(kind: CoherenceKind):
    def value(rho, reduced, target):
        target = _check_target(rho, target, need_partner=True)
        total = 0.0
        for m in _others(rho, target):
            pair = partial_trace(rho, [target, m])
            pos = 0 if target < m else 1
            total += correlated_coherence(pair, ([pos], [1 - pos]), kind)
        return total

    return value


#: Measures addressable by name in sweep CSV columns, called as (rho, reduced, target)
#: with the row's one reduction partial_trace(rho, [target]).  Only C_nl_hs and the
#: correlation-type entries also read ``rho``; C_corr_hs, C_corr_l1 and C_corr_re take
#: ``reduced`` as their target side.  "sum" totals the other columns.
MEASURES = {
    "P_hs": lambda rho, r, t: predictability_hs(r).value,
    "P_vn": lambda rho, r, t: predictability_vn(r).value,
    "P_l1": lambda rho, r, t: predictability_l1(r).value,
    "C_hs": lambda rho, r, t: coherence_hs(r).value,
    "C_l1": lambda rho, r, t: coherence_l1(r).value,
    "C_re": lambda rho, r, t: coherence_re(r).value,
    "S_vn": lambda rho, r, t: von_neumann_entropy(r),
    "S_l": lambda rho, r, t: linear_entropy(r),
    "purity": lambda rho, r, t: purity(r),
    "C_nl_hs": lambda rho, r, t: _nonlocal_coherence_hs(rho, t, r.matrix).value,
    "C_corr_hs": _corr_rest(CoherenceKind.HILBERT_SCHMIDT),
    "C_corr_l1": _corr_rest(CoherenceKind.L1_NORM),
    "C_corr_re": _corr_rest(CoherenceKind.RELATIVE_ENTROPY),
    "C_corr_hs_pairsum": _corr_pairsum(CoherenceKind.HILBERT_SCHMIDT),
    "C_corr_l1_pairsum": _corr_pairsum(CoherenceKind.L1_NORM),
    "P_jb_sq": lambda rho, r, t: 2.0 * predictability_hs(r).value,
    "C_jb_sq": lambda rho, r, t: 2.0 * linear_entropy(r),
    "concurrence": lambda rho, r, t: concurrence_generalized(r).value,
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
    if not math.isfinite(config.stop - config.start):
        raise ValidationError(
            f"sweep grid edges must be finite with a finite span, got {config.start!r} and {config.stop!r}"
        )
    if config.param in config.fixed:
        raise ValidationError(f"parameter {config.param!r} is swept, so it cannot also be fixed")
    if not 2 <= config.points <= MAX_COUNT:
        raise ValidationError(f"sweep needs 2 to {MAX_COUNT} grid points, got {config.points}")
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
        reduced = partial_trace(rho, [config.target])
        measured = {
            name: float(MEASURES[name](rho, reduced, config.target))
            for name in config.measures
            if name != "sum"
        }
        # Added left to right, as sum() did before Python 3.12 compensated it, so
        # that the CSV bytes do not depend on the Python version.  The int start
        # is sum()'s: a row of only "sum" prints 0.
        row_total = 0
        for v in measured.values():
            row_total += v
        cells = [float(value)] + [
            row_total if name == "sum" else measured[name] for name in config.measures
        ]
        lines.append(",".join(repr(c) for c in cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands


def _parse_param(name: str, text: str) -> complex:
    """Parse the text of factory flag ``--name``, 're' or 're:im', into a complex number."""
    try:
        if ":" in text:
            re_part, im_part = text.split(":", 1)
            return complex(float(re_part), float(im_part))
        return complex(float(text), 0.0)
    except ValueError as exc:
        raise ValidationError(f"cannot parse --{name} {text!r}; expected 're' or 're:im'") from exc


def _factory_params(args) -> dict:
    """The factory flags given, parsed; ``build`` refuses missing and unexpected names."""
    given = {name: getattr(args, name) for name in _FACTORY_FLAGS}
    return {name: _parse_param(name, text) for name, text in given.items() if text is not None}


def _load_state(args) -> PureState | DensityOperator:
    params = _factory_params(args)
    if args.file is None:
        return build(args.factory, **params)
    if params:
        raise ValidationError(f"--file takes no factory parameters, got {sorted(params)}")
    return parse_state_file(Path(args.file).read_bytes())


def _check_tolerance(tolerance: float) -> float:
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValidationError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
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
        print(json.dumps(_report_to_dict(report), allow_nan=False))
        return
    print(f"flavor    {report.flavor.value}")
    print(f"target    {report.target}")
    for mv in (report.predictability, report.local_coherence, report.correlation_term):
        print(f"{mv.kind.value:<9} {mv.value!r} (bound {mv.bound!r})")
    print(f"sum       {report.sum!r}")
    print(f"bound     {report.bound!r}")
    print(f"residual  {report.residual!r}")


def cmd_check(args) -> int:
    tolerance = _check_tolerance(args.tolerance)
    state = _load_state(args)
    report = _FLAVOR_FUNCS[args.flavor](state, args.target)
    _print_report(report, args.json)
    return EXIT_OK if abs(report.residual) < tolerance else EXIT_FAIL


def cmd_sweep(args) -> int:
    config = SweepConfig(
        variant=args.factory,
        param=args.param,
        start=args.start,
        stop=args.stop,
        points=args.points,
        measures=tuple(name.strip() for name in args.measures.split(",") if name.strip()),
        fixed=_factory_params(args),
        target=args.target,
    )
    text = render_sweep_csv(config)
    Path(args.out).write_bytes(text.encode("utf-8"))
    print(f"wrote {args.points} rows to {args.out}")
    return EXIT_OK


def cmd_audit(args) -> int:
    tolerance = _check_tolerance(args.tolerance)
    try:
        dims = tuple(int(part) for part in args.dims.split(","))
    except ValueError as exc:
        raise ValidationError(f"cannot parse --dims {args.dims!r}; expected e.g. 2,2,3") from exc
    if len(dims) < 2:
        raise ValidationError(f"CCR auditing needs at least 2 subsystems, got dims {dims}")
    signature = DimensionSignature(dims)
    if not 1 <= args.count <= MAX_COUNT:
        raise ValidationError(f"--count must be between 1 and {MAX_COUNT}, got {args.count}")
    flavor = _FLAVOR_FUNCS[args.flavor]
    # A running max and a left-to-right total, which sum() no longer is from Python 3.12 on.
    worst = total = 0.0
    for psi in haar_random_pure(signature, args.count, args.seed):
        for target in range(len(dims)):
            residual = abs(flavor(psi, target).residual)
            worst = max(worst, residual)
            total += residual
    checks = args.count * len(dims)
    mean = total / checks
    passed = worst < tolerance
    print(
        f"audit dims={args.dims} flavor={args.flavor} states={args.count} seed={args.seed} "
        f"checks={checks}"
    )
    print(f"max|residual|={worst:.3e} mean|residual|={mean:.3e} tolerance={tolerance:.3e}")
    print("PASS" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# Parser


def _add_factory_flags(parser: argparse.ArgumentParser) -> None:
    for name in _FACTORY_FLAGS:
        takers = ", ".join(variant for variant, names in FACTORY_PARAMS.items() if name in names)
        parser.add_argument(f"--{name}", help=f"'re' or 're:im' ({takers})")


class _Parser(argparse.ArgumentParser):
    """Raises ValidationError (exit 2 from ``main``) where argparse would print usage and exit; subparsers inherit it."""

    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    check.add_argument("--tolerance", type=float, default=DEFAULT_CHECK_TOLERANCE,
                       help=f"residual tolerance (default {DEFAULT_CHECK_TOLERANCE})")
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
    audit.add_argument("--tolerance", type=float, default=DEFAULT_CHECK_TOLERANCE)
    audit.set_defaults(func=cmd_audit)

    return parser


# Built once: a parser costs about ten times a parse, and its objects form
# reference cycles that only the cyclic collector frees.
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValidationError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
