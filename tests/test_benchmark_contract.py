"""The package names and outputs the benchmark under ``perfbench/`` relies on.

The tracer skips a layer whose module or attribute is gone and reports it
as missing instead of failing, so a refactor that renames a traced
function would otherwise only show as an empty row in a benchmark report.
The correctness gate reads only the exported files, so a change to the
CSV or summary schema or values would otherwise only show when the
benchmark runs.  The tracer counts the kernel's work from the arguments
a run passes it, so a change to what a run passes would otherwise count
something else.  The micro-layers and the tracer time the norm layer
through the call a run makes, so a change to the shapes it is passed
would otherwise time code that no run executes.  The benchmark's modules
are loaded from their files, unchanged, and its own self-tests run here
too, since they pin outputs bit for bit that the checks here compare to a
tolerance.
"""

import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from locdamp import harness, kernels, model, norms, solver

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


def test_envelope_run_evolves_no_reference():
    # the envelope constants are read off the symbol: a verify-envelope run
    # is timed in the scan, the calibration and the check, and evolves no
    # reference
    tracing = _perfbench("tracing")
    tracer = tracing.Tracer()
    with tracing.patched(tracer, tracing.layer_table()) as missing:
        assert missing == []
        harness.run_scenario(harness.load_scenario(ROOT / "scenarios" / "damped_wave.json"))
    layers = tracing.totals(tracer.take())
    assert {"spectral.scan", "harness.calibrate", "harness.check"} <= layers.keys()
    assert "spectral.reference" not in layers


@pytest.mark.parametrize(
    "name",
    sorted(
        p.stem for p in (ROOT / "scenarios").glob("*.json")
        if harness.load_scenario(p).kind != "fullspace"
    ),
)
def test_kernel_calls_pass_what_the_benchmark_counts(monkeypatch, name):
    # ``perfbench/tracing._kernel_counts`` reads the kernel's arguments by
    # position: the field, the mask's damped cells, the step count and the
    # damping flag; a run's carried cone follows them, also by position
    calls = []
    advance = kernels.advance

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return advance(*args, **kwargs)

    monkeypatch.setattr(kernels, "advance", recording)
    scenario = harness.load_scenario(ROOT / "scenarios" / f"{name}.json")
    grid = harness.run_scenario(scenario).series.grid
    damped = np.ones(grid.n_cells, dtype=bool)
    for a, b in grid.region.stripes:
        damped &= ~((grid.centers > a) & (grid.centers < b))
    steps = list(solver.sample_steps(scenario.t_final, grid.dt, scenario.stride))
    assert [args[4] for args, _ in calls] == np.diff(steps).tolist()

    counts = _perfbench("tracing")._kernel_counts
    n, m = scenario.system.n, grid.n_cells
    for args, kwargs in calls:
        assert kwargs == {}
        v, shifts, damp_half, mask, n_steps, apply_damping, guard_cells, guard_tol, cone = args
        assert v.shape == (n, m)
        assert np.array_equal(shifts, grid.shifts)
        assert mask.shape == (m,) and np.count_nonzero(mask) == np.count_nonzero(damped)
        assert apply_damping == 1
        assert isinstance(cone, kernels.Cone)
        assert counts(0, *args) == {
            "cell_updates": n * m * n_steps,
            "bytes": n_steps * n * 8 * (2 * m + 4 * int(np.count_nonzero(damped))),
        }


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


def test_benchmark_self_tests_pass():
    # ``perfbench/test_perfbench.py`` requires the recorded outputs bit for
    # bit (``test_gate_passes_recorded_output``), where the gate above
    # allows a relative 1e-10
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr


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
