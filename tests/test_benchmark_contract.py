"""The package names and outputs the benchmark under ``perfbench/`` relies on.

The tracer skips a layer whose module or attribute is gone and reports it
as missing instead of failing, so a refactor that renames a traced
function would otherwise only show as an empty row in a benchmark report.
The correctness gate reads only the exported files, so a change to the
CSV or summary schema or values would otherwise only show when the
benchmark runs.  The micro-layers and the tracer time the norm layer
through the call a run makes, so a change to the shapes it is passed
would otherwise time code that no run executes.  The benchmark's modules
are loaded from their files, unchanged.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from locdamp import harness, model, norms, solver

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



def test_norm_calls_carry_the_shapes_the_benchmark_times(monkeypatch, tmp_path):
    # ``perfbench/micro.py`` times ``solver._norm_row`` on one (n, m) field
    # and the tracer times every call ``solver.run`` makes as
    # ``solver.norms``: a call takes a stack within NORM_BLOCK_ENTRIES or
    # one larger field alone, so both time the code that runs
    three = harness.load_scenario(ROOT / "scenarios" / "three_speed_321.json")
    eigs = model.diagonalize(three.system.a)
    grid = solver.build_grid(eigs, three.region, three.x_min, three.x_max, three.n_cells)
    w = three.data.sample(grid.centers, three.system.n)
    single = solver._norm_row(w, grid, eigs.basis)
    stacked = solver._norm_row(w[None], grid, eigs.basis)
    assert single.keys() == stacked.keys()
    for name, value in single.items():
        assert np.asarray(value).tobytes() == stacked[name][0].tobytes(), name

    shapes = []
    norm_row = solver._norm_row

    def recording(w, grid, basis):
        shapes.append(w.shape)
        return norm_row(w, grid, basis)

    monkeypatch.setattr(solver, "_norm_row", recording)
    inputs = _perfbench("inputs")
    pool = inputs.pool("probe_sweep")
    paths = sorted((ROOT / "scenarios").glob("*.json"))
    for input_id in inputs.choose("probe_sweep", 1):
        paths.append(tmp_path / f"{input_id.replace('/', '__')}.json")
        paths[-1].write_bytes(inputs.encode(pool[input_id]))
    seen = []
    for path in paths:
        del shapes[:]
        result = harness.run_scenario(harness.load_scenario(path))
        if result.scenario.kind == "fullspace":
            assert shapes == [], path.stem
            continue
        assert sum(s[0] for s in shapes) == result.series.times.size, path.stem
        for s in shapes:
            assert len(s) == 3, (path.stem, s)
            assert math.prod(s) <= norms.NORM_BLOCK_ENTRIES or s[0] == 1, (path.stem, s)
        seen += shapes
    # both kinds of call occur: stacks of several samples and fields alone
    assert any(s[0] > 1 for s in seen)
    assert any(math.prod(s) > norms.NORM_BLOCK_ENTRIES for s in seen)
