"""Self-tests of the benchmark.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gate
import inputs
import micro
import run
import speed
import tracing
from locdamp import harness, kernels
from locdamp.spectral import MatrixExpError


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_writes_byte_identical_inputs(tmp_path, workload):
    first = inputs.write_inputs(run.ROOT, workload, 5, tmp_path / "a")
    again = inputs.write_inputs(run.ROOT, workload, 5, tmp_path / "b")
    assert [i for i, _ in first] == [i for i, _ in again]
    assert [p.read_bytes() for _, p in first] == [p.read_bytes() for _, p in again]


def test_seeds_select_different_variants():
    picks = {tuple(inputs.choose("probe_sweep", seed)) for seed in range(8)}
    assert len(picks) > 1


def test_every_selectable_input_has_a_reference():
    reference = gate.load_reference()
    for workload in inputs.WORKLOADS:
        assert set(inputs.pool(workload)) <= set(reference)
        assert {f"shipped/{n}" for n in inputs.SHIPPED[workload]} <= set(reference)
    assert reference["reference/long_horizon"]["outcome"] == "MatrixExpError"


@pytest.fixture
def probe_output(tmp_path):
    """Exported files of the shipped scalar probe and its reference."""
    path = run.ROOT / "scenarios" / "probe_scalar.json"
    _, error = run.execute(harness, path, tmp_path)
    assert error is None
    return gate.load_reference()["shipped/probe_scalar"], tmp_path


def _write_csv(csv_path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in rows]
    csv_path.write_text("\n".join(lines) + "\n")


def _perturb_csv(csv_path, rel: float) -> None:
    header, rows = gate.parse_csv(csv_path.read_text())
    rows[5][1] *= 1.0 + rel
    _write_csv(csv_path, header, rows)


def test_gate_passes_recorded_output(probe_output):
    ref, out = probe_output
    check = gate.check_output(ref, out / "norms.csv", out / "summary.json")
    assert check.ok and check.rel_err == 0.0 and not check.sha_changed


def test_gate_fails_norm_perturbed_by_1e_9(probe_output):
    ref, out = probe_output
    _perturb_csv(out / "norms.csv", 1e-9)
    check = gate.check_output(ref, out / "norms.csv", out / "summary.json")
    assert not check.ok
    assert check.rel_err == pytest.approx(1e-9, rel=1e-3)


def test_gate_fails_nan_norm(probe_output):
    ref, out = probe_output
    _perturb_csv(out / "norms.csv", float("nan"))
    check = gate.check_output(ref, out / "norms.csv", out / "summary.json")
    assert not check.ok and check.rel_err == float("inf")


def test_gate_reports_small_bit_move_without_failing(probe_output):
    ref, out = probe_output
    _perturb_csv(out / "norms.csv", 1e-13)
    check = gate.check_output(ref, out / "norms.csv", out / "summary.json")
    assert check.ok and check.sha_changed


def test_gate_fails_verdict_mismatch(probe_output):
    ref, out = probe_output
    summary = json.loads((out / "summary.json").read_text())
    summary["probe_within_one_stride"] = not summary["probe_within_one_stride"]
    (out / "summary.json").write_text(json.dumps(summary))
    check = gate.check_output(ref, out / "norms.csv", out / "summary.json")
    assert check.verdict_mismatch and not check.ok


def test_gate_checks_recorded_failure_that_now_completes(probe_output):
    _, out = probe_output
    recorded_failure = {"outcome": "MatrixExpError"}
    csv_path, summary_path = out / "norms.csv", out / "summary.json"
    assert gate.check_output(recorded_failure, csv_path, summary_path).ok
    header, rows = gate.parse_csv(csv_path.read_text())
    rows[-1][1] = 2.0 * rows[0][1]  # l2_total grows
    _write_csv(csv_path, header, rows)
    check = gate.check_output(recorded_failure, csv_path, summary_path)
    assert check.problems == ["l2_total grows between samples"]
    _write_csv(csv_path, header, rows[:-1])
    assert not gate.check_output(recorded_failure, csv_path, summary_path).ok


def _raise_matrix_exp_error(scenario):
    raise MatrixExpError("matrix norm exceeds guard")


@pytest.mark.parametrize(
    ("input_id", "expected"),
    [("reference/long_horizon", True), ("shipped/fullspace_damped_wave", False)],
)
def test_matrix_exp_error_counts_as_failure(monkeypatch, tmp_path, input_id, expected):
    monkeypatch.setattr(harness, "run_scenario", _raise_matrix_exp_error)
    item = run.Input(input_id, run.ROOT / "scenarios" / "fullspace_damped_wave.json", tmp_path)
    result = run.run_pass(harness, [item])
    assert isinstance(result.errors[0], MatrixExpError)
    checker = run.Checker(gate.load_reference())
    checker.observe([item], result)
    assert (checker.attempted, checker.failed) == (1, 1)
    # Raising is expected only where the reference recorded the same error.
    assert (not checker.problems) == expected


def _span(name, start, end, parent=None):
    return tracing.Span(name, start, end, parent)


def test_self_times_on_synthetic_trace():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 8.0, 0),
        _span("b.child", 5.0, 6.0, 2),
        _span("c", 7.0, 11.0, 0),  # overlaps b and outlives root
        _span("other", 20.0, 21.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 3.0, 1.0, 4.0, 1.0])
    totals = tracing.totals(spans)
    assert totals["root"].self_seconds == pytest.approx(2.0)
    assert totals["b"].seconds == pytest.approx(4.0)


def test_raising_span_is_left_out_of_per_unit_time():
    tracer = tracing.Tracer()

    def evolve(modes):
        if modes < 0:
            raise MatrixExpError("matrix norm exceeds guard")
        return modes

    traced = tracer.wrap("reference", evolve, lambda r, *a, **k: {"mode_samples": r})
    traced(100)
    with pytest.raises(MatrixExpError):
        traced(-1)
    spans = tracer.take()
    assert [s.failed for s in spans] == [False, True]
    spans[0].start, spans[0].end = 0.0, 1.0
    spans[1].start, spans[1].end = 2.0, 5.0
    t = tracing.totals(spans)["reference"]
    assert (t.seconds, t.ok_seconds, t.calls) == (4.0, 1.0, 2)
    assert t.counts == {"mode_samples": 100}


def test_patched_records_counts_and_restores():
    tracer = tracing.Tracer()
    original = harness.gamma_estimate
    sys_ = harness.load_scenario(run.ROOT / "scenarios" / "damped_wave.json").system
    table = [
        ("locdamp.harness", "gamma_estimate", "scan", lambda r, *a, **k: {"calls": 1}),
        ("locdamp.harness", "no_such_function", "missing", None),
        ("numpy.fft", "fft", "numpy.fft", None),
    ]
    with tracing.patched(tracer, table) as missing:
        harness.gamma_estimate(sys_)
    assert missing == ["locdamp.harness.no_such_function"]
    assert harness.gamma_estimate is original
    spans = tracer.take()
    assert [s.name for s in spans] == ["scan"]
    assert spans[0].counts == {"calls": 1}


def test_kernel_workload_is_contractive():
    v, shifts, damp_half, mask = micro.kernel_workload(n=3, m=400)
    assert np.linalg.norm(damp_half, 2) <= 1.0
    before = np.linalg.norm(v)
    kernels.advance(v, shifts, damp_half, mask, 50, 1, 0, 1e-14)
    assert np.linalg.norm(v) < before


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)


def test_refuses_checkout_without_source(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "envelope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_speedometer_calibrates_in_proportion_to_work():
    meter = speed.Speedometer()
    meter.after(0.4 * speed.INTERVAL_S)
    assert meter.take() == []
    meter.after(1.8 * speed.INTERVAL_S)  # 2.2 intervals owed
    samples = meter.take()
    assert len(samples) == 2 and all(s > 0 for s in samples)
    assert speed.slowdown([speed.REFERENCE_CHUNK_S] * 3) == 1.0
