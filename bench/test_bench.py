"""Self-test of the benchmark: every workload at a tiny size, in both modes.

It checks the output schema against BENCHMARK.json, the per-layer names
against the module lists below, and that no operation failed.  It sets no
timing bound.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Public functions traced per ccrkit module.
LAYERS = {
    "states": ("haar_random_pure", "build"),
    "core": ("density_from_pure", "partial_trace", "hermitian_spectrum", "von_neumann_entropy",
             "purity", "dephased", "purify", "DensityOperator"),
    "measures": ("predictability_hs", "predictability_vn", "predictability_l1", "coherence_hs",
                 "coherence_l1", "coherence_re", "nonlocal_coherence_hs_direct", "correlated_coherence"),
    "ccr": ("ccr_hs", "ccr_vn", "ccr_mixedness", "ccr_inequality_gap"),
    "cli": ("parse_state_file", "render_sweep_csv", "main"),
}
EXTRA_LAYER_METRICS = {
    "core.density_from_pure.bytes",
    "core.hermitian_spectrum.n3_sum",
    "core.hermitian_spectrum.diag_input_frac",
    "core.partial_trace.repeat_frac",
    "measures.nonlocal_coherence_hs_direct.elems",
    "ccr.ccr_inequality_gap.elems",
    "states.haar_random_pure.states",
    "trace.overhead_frac",
    "verify.max_abs_dev",
}


def run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], "\n".join(lines[:-1])
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float))
    return lines, result


def test_per_layer_names_cover_every_module():
    names = {m["name"] for m in SPEC["per_layer"]}
    functions = {f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs}
    assert names == {f"{f}.{kind}" for f in functions for kind in ("calls", "self_ms")} | EXTRA_LAYER_METRICS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = run(workload, trace=0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == want
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    printed = dict(want, units_per_s="1/s", call_p50_ms="ms")
    for name, unit in printed.items():
        assert any(line.startswith(f"{name} ") and f" {unit}" in line for line in lines), name
    assert any(line.startswith("failed_frac 0.0 ratio ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    _, result = run(workload, trace=1)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == want
    assert result["metrics"]["cli.main.calls"]["value"] > 0
