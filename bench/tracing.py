"""Outside-in tracing of ccrkit's public functions.

``instrument`` replaces each traced function with a wrapper in every
ccrkit namespace that holds it: the defining module, every module that
imported the name, and dicts such as ``cli._FLAVOR_FUNCS`` that keep a
reference.  Each wrapper records a span (name, start, end, parent, root)
in memory, and a probe may add work counters derived from the argument
shapes.  A function that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, public function) pairs traced, grouped by layer.
TRACED = (
    ("states", "haar_random_pure"),
    ("states", "build"),
    ("core", "density_from_pure"),
    ("core", "partial_trace"),
    ("core", "hermitian_spectrum"),
    ("core", "von_neumann_entropy"),
    ("core", "purity"),
    ("core", "dephased"),
    ("core", "purify"),
    ("core", "DensityOperator"),
    ("measures", "predictability_hs"),
    ("measures", "predictability_vn"),
    ("measures", "predictability_l1"),
    ("measures", "coherence_hs"),
    ("measures", "coherence_l1"),
    ("measures", "coherence_re"),
    ("measures", "nonlocal_coherence_hs_direct"),
    ("measures", "correlated_coherence"),
    ("ccr", "ccr_hs"),
    ("ccr", "ccr_vn"),
    ("ccr", "ccr_mixedness"),
    ("ccr", "ccr_inequality_gap"),
    ("cli", "parse_state_file"),
    ("cli", "render_sweep_csv"),
    ("cli", "main"),
)

# Work counters and ratios reported next to the per-function metrics.
COUNTERS = (
    ("core.density_from_pure.bytes", "B"),
    ("core.hermitian_spectrum.n3_sum", "count"),
    ("core.hermitian_spectrum.diag_input_frac", "ratio"),
    ("core.partial_trace.repeat_frac", "ratio"),
    ("measures.nonlocal_coherence_hs_direct.elems", "count"),
    ("ccr.ccr_inequality_gap.elems", "count"),
    ("states.haar_random_pure.states", "count"),
)


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = []
    for module, func in TRACED:
        names.append((f"{module}.{func}.calls", "count"))
        names.append((f"{module}.{func}.self_ms", "ms"))
    return names + list(COUNTERS)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        # Each span is [name, start_ns, end_ns, parent index, root index].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.active = False
        self.absent: list[str] = []
        # Calls of generator functions; their spans also include each ``next``.
        self.generator_calls: dict[str, int] = defaultdict(int)
        self.root_kinds: dict[int, str] = {}
        self._seen_reductions: dict = {}
        self._seen_root = -1

    def enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        root = self.stack[0] if self.stack else index
        self.stack.append(index)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, root])
        return index

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def root_call(self, kind: str) -> int:
        """Open the span of one top-level benchmark call."""
        index = self.enter("bench.call")
        self.root_kinds[index] = kind
        return index

    def note_reduction(self, rho, keep) -> None:
        """Count a reduction that repeats one made earlier in the same top-level call."""
        root = self.stack[0] if self.stack else -1
        if root != self._seen_root:
            self._seen_reductions = {}
            self._seen_root = root
        key = (id(rho), tuple(sorted({int(k) for k in keep})))
        self.counters["core.partial_trace.repeats"] += key in self._seen_reductions
        # Holding rho keeps its id from being reused within this top-level call.
        self._seen_reductions[key] = rho

    def self_times_ns(self) -> dict[int, int]:
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        return {i: (s[2] - s[1]) - child_ns[i] for i, s in enumerate(self.spans)}

    def write(self, path) -> None:
        """Write every span as a gzipped tab-separated table."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\troot\n")
            for i, (name, start, end, parent, root) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{root}\n")


def _target_elems(rho, target) -> int:
    """d_t^2 * rest^2: the entries the index-partition sum visits."""
    dims = rho.signature.dims
    d_t = dims[int(target)]
    rest = math.prod(dims) // d_t
    return d_t * d_t * rest * rest


def _probe_density_from_pure(tracer, args, kwargs):
    psi = args[0] if args else kwargs["psi"]
    tracer.counters["core.density_from_pure.bytes"] += 16 * psi.amplitudes.size ** 2


def _probe_spectrum(tracer, args, kwargs):
    m = (args[0] if args else kwargs["rho"]).matrix
    n = m.shape[0]
    tracer.counters["core.hermitian_spectrum.n3_sum"] += n ** 3
    tracer.counters["core.hermitian_spectrum.diag_inputs"] += not np.count_nonzero(m - np.diag(np.diag(m)))


def _probe_partial_trace(tracer, args, kwargs):
    rho = args[0] if args else kwargs["rho"]
    keep = args[1] if len(args) > 1 else kwargs["keep"]
    tracer.note_reduction(rho, keep)


def _probe_nonlocal(tracer, args, kwargs):
    rho = args[0] if args else kwargs["rho_full"]
    target = args[1] if len(args) > 1 else kwargs["target"]
    tracer.counters["measures.nonlocal_coherence_hs_direct.elems"] += _target_elems(rho, target)


def _probe_gap(tracer, args, kwargs):
    rho = args[0] if args else kwargs["rho_any"]
    target = args[1] if len(args) > 1 else kwargs["target"]
    tracer.counters["ccr.ccr_inequality_gap.elems"] += _target_elems(rho, target)


_PROBES = {
    "core.density_from_pure": _probe_density_from_pure,
    "core.hermitian_spectrum": _probe_spectrum,
    "core.partial_trace": _probe_partial_trace,
    "measures.nonlocal_coherence_hs_direct": _probe_nonlocal,
    "ccr.ccr_inequality_gap": _probe_gap,
}


def _wrap_function(tracer: Tracer, name: str, fn):
    probe = _PROBES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if probe is not None:
            probe(tracer, args, kwargs)
        index = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(index)

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    """Trace a generator function: one span for the call, one per ``next``."""

    def traced_items(gen):
        while True:
            index = tracer.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.exit(index)
            tracer.counters[f"{name}.items"] += 1
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.enter(name)
        try:
            gen = fn(*args, **kwargs)
        finally:
            tracer.exit(index)
        tracer.generator_calls[name] += 1
        return traced_items(gen)

    return wrapper


def _wrap_constructor(tracer: Tracer, name: str, cls) -> None:
    """Trace a class's validating constructor in place, so isinstance still holds."""
    init = cls.__init__

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        if not tracer.active:
            return init(self, *args, **kwargs)
        index = tracer.enter(name)
        try:
            return init(self, *args, **kwargs)
        finally:
            tracer.exit(index)

    cls.__init__ = traced_init


def instrument(tracer: Tracer) -> None:
    """Wrap every function in TRACED wherever ccrkit holds a reference to it."""
    namespaces = [m for key, m in sorted(sys.modules.items()) if key == "ccrkit" or key.startswith("ccrkit.")]
    for module_name, func_name in TRACED:
        name = f"{module_name}.{func_name}"
        module = sys.modules.get(f"ccrkit.{module_name}")
        original = getattr(module, func_name, None) if module is not None else None
        if original is None:
            tracer.absent.append(name)
            continue
        if inspect.isclass(original):
            _wrap_constructor(tracer, name, original)
            continue
        if inspect.isgeneratorfunction(original):
            wrapper = _wrap_generator(tracer, name, original)
        else:
            wrapper = _wrap_function(tracer, name, original)
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function calls and self time, plus the work counters and ratios."""
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for i, own in tracer.self_times_ns().items():
        name = tracer.spans[i][0]
        self_ns[name] += own
        calls[name] += 1
    calls.update(tracer.generator_calls)
    out: dict[str, float] = {}
    for module, func in TRACED:
        name = f"{module}.{func}"
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_ms"] = self_ns.get(name, 0) / 1e6
    c = tracer.counters
    spectrum_calls = calls.get("core.hermitian_spectrum", 0)
    trace_calls = calls.get("core.partial_trace", 0)
    out["core.density_from_pure.bytes"] = c.get("core.density_from_pure.bytes", 0)
    out["core.hermitian_spectrum.n3_sum"] = c.get("core.hermitian_spectrum.n3_sum", 0)
    out["core.hermitian_spectrum.diag_input_frac"] = (
        c.get("core.hermitian_spectrum.diag_inputs", 0) / spectrum_calls if spectrum_calls else 0.0
    )
    out["core.partial_trace.repeat_frac"] = (
        c.get("core.partial_trace.repeats", 0) / trace_calls if trace_calls else 0.0
    )
    out["measures.nonlocal_coherence_hs_direct.elems"] = c.get("measures.nonlocal_coherence_hs_direct.elems", 0)
    out["ccr.ccr_inequality_gap.elems"] = c.get("ccr.ccr_inequality_gap.elems", 0)
    out["states.haar_random_pure.states"] = c.get("states.haar_random_pure.items", 0)
    return out


def self_ms_by_kind(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Self time per traced function, grouped by the kind of top-level call."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, own in tracer.self_times_ns().items():
        name, _, _, _, root = tracer.spans[i]
        if name != "bench.call":
            out[tracer.root_kinds.get(root, "?")][name] += own / 1e6
    return out
