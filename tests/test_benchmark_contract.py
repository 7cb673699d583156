"""The package names and outputs the benchmark under ``perfbench/`` relies on.

The tracer skips a layer whose module or attribute is gone and reports it
as missing instead of failing, so a refactor that renames a traced
function would otherwise only show as an empty row in a benchmark report.
The correctness gate reads only the exported files, so a change to the
CSV or summary schema or values would otherwise only show when the
benchmark runs.  The benchmark's modules are loaded from their files,
unchanged.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from locdamp import harness

ROOT = Path(__file__).resolve().parent.parent


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = _perfbench("tracing")
    tracer = tracing.Tracer()
    with tracing.patched(tracer, tracing.layer_table()) as missing:
        assert missing == []
        for name in ("probe_scalar", "fullspace_damped_wave"):
            harness.run_scenario(harness.load_scenario(ROOT / "scenarios" / f"{name}.json"))
    # the kernel's and the reference's counters read their positional arguments
    layers = tracing.totals(tracer.take())
    assert layers["kernels.advance"].counts["cell_updates"] > 0
    assert layers["spectral.reference"].counts["sample_times"] > 0
    assert {"solver.run", "solver.grid", "solver.norms"} <= layers.keys()


def test_micro_layers_run():
    values = _perfbench("micro").run_all(ROOT)
    assert values
    assert all(math.isfinite(v) and v > 0.0 for v in values.values())


@pytest.fixture(scope="module")
def gate_and_reference():
    gate = _perfbench("gate")
    return gate, gate.load_reference()


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "scenarios").glob("*.json")))
def test_shipped_outputs_pass_the_gate(gate_and_reference, tmp_path, name):
    gate, reference = gate_and_reference
    result = harness.run_scenario(harness.load_scenario(ROOT / "scenarios" / f"{name}.json"))
    csv_path, summary_path = harness.export(result, tmp_path)
    check = gate.check_output(reference.get(f"shipped/{name}"), csv_path, summary_path)
    assert check.ok, check.problems
