"""locdamp benchmark: end-to-end and per-layer metrics over one workload.

    python3 perfbench/run.py --workload envelope --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Each execution drives the API the CLI uses, ``load_scenario`` ->
``run_scenario`` -> ``export``, in this one process with BLAS and OpenMP
pinned to one thread.  Executions repeat in full passes over the
workload's inputs until ``--seconds`` have gone by.

Workloads (see ``inputs.py``):

* ``envelope``: the three shipped verify-envelope scenarios; solver,
  kernel, norm sampling, spectral scan, reference calibration and the
  envelope check all carry weight.
* ``reference``: fullspace runs only (no kernel), including a long-horizon
  case that the exponential guard refuses at the commit that introduced
  this benchmark.
* ``probe_sweep``: conservation probes across speed family, stripe count,
  grid size and sampling stride; kernel and norm sampling, no spectral work.

With ``--trace 0`` the run reports end-to-end metrics.  With ``--trace 1``
it alternates untraced and traced passes and reports per-layer metrics
from spans recorded around calls into each module, plus micro-layers.
End-to-end times are CPU times of this single-threaded process (or of the
child that imports the package), which leave out steal and preemption.
``wall_s``, the time of one full pass, is the mean over the passes after
the first (a warm-up), scaled to full machine speed by a calibration load
timed between executions (``speed.py``); the unscaled time prints above
the result.
``setup_s`` is the median over fresh interpreters of ``import locdamp``,
scaled by how fast the same interpreter imported numpy, plus the median
over repeats of loading and validating every input, scaled like
``wall_s``.  Only ``setup_s``, ``wall_s``,
``peak_rss_mb`` and ``success_ratio`` go into the result line; the other
end-to-end figures are printed above it.  Every execution's exported files
go through the correctness gate in ``gate.py``.  The last line of standard
output is one JSON object.  The exit code is 1 when the gate fails and 2
when the checkout has no package source.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP before anything imports numpy.
PINNED_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
import inputs
import micro
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 15
# A warm-up pass and two timed ones; every input then also runs twice,
# which the byte-identical output check needs.
MIN_PASSES = 3
# The 90th percentile needs ten executions beyond it.
P90_MIN_EXECUTIONS = 100

IMPORT_TIMER = (
    "import time\n"
    "t0 = time.process_time()\n"
    "import numpy\n"
    "t1 = time.process_time()\n"
    "import locdamp\n"
    "print(t1 - t0, time.process_time() - t1)\n"
)


@dataclass
class Input:
    input_id: str
    path: Path
    out_dir: Path


@dataclass
class PassResult:
    latencies: list[float]
    errors: list[BaseException | None]
    spans: list = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)


def execute(harness, path: Path, out_dir: Path) -> tuple[float, BaseException | None]:
    """One CLI-equivalent execution and its CPU time; an exception is
    returned, not raised."""
    t0 = time.process_time()
    try:
        harness.export(harness.run_scenario(harness.load_scenario(path)), out_dir)
        error = None
    except Exception as exc:  # a failing input is counted and the run goes on
        error = exc
    return time.process_time() - t0, error


def run_pass(harness, items: list[Input], meter: speed.Speedometer | None = None) -> PassResult:
    """One execution of every input; with a meter, calibration after each."""
    latencies, errors = [], []
    for item in items:
        seconds, error = execute(harness, item.path, item.out_dir)
        latencies.append(seconds)
        errors.append(error)
        if meter is not None:
            meter.after(seconds)
    return PassResult(latencies, errors, calibration=meter.take() if meter else [])


def output_digest(out_dir: Path) -> tuple[str, str]:
    return gate.sha256(out_dir / "norms.csv"), gate.sha256(out_dir / "summary.json")


class Checker:
    """Gates every execution: the first of each input against the
    reference, later ones for byte-identical output."""

    def __init__(self, reference: dict[str, dict]):
        self.reference = reference
        # input id -> (output digest or exception name, verdict mismatch)
        self.first: dict[str, tuple[object, bool]] = {}
        self.problems: list[str] = []
        self.rel_err = 0.0
        self.sha_changed: set[str] = set()
        self.attempted = 0
        self.failed = 0

    def observe(self, items: list[Input], result: PassResult) -> None:
        for item, error in zip(items, result.errors):
            self.attempted += 1
            outcome = type(error).__name__ if error else output_digest(item.out_dir)
            if item.input_id not in self.first:
                ref = self.reference.get(item.input_id)
                if error is None:
                    check = gate.check_output(
                        ref, item.out_dir / "norms.csv", item.out_dir / "summary.json"
                    )
                    self.rel_err = max(self.rel_err, check.rel_err)
                    if check.sha_changed:
                        self.sha_changed.add(item.input_id)
                else:
                    check = gate.check_error(ref, error)
                self.problems += [f"{item.input_id}: {p}" for p in check.problems]
                self.first[item.input_id] = (outcome, check.verdict_mismatch)
            elif outcome != self.first[item.input_id][0]:
                self.problems.append(f"{item.input_id}: output changed between passes")
            if error is not None or self.first[item.input_id][1]:
                self.failed += 1


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (1..99) by ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_import() -> float:
    """Median time of ``import locdamp`` in a fresh interpreter, numpy
    included, at full machine speed.

    Each child imports numpy first, a fixed load of the same kind that
    the package cannot change, and its total is scaled by how much slower
    than ``speed.NUMPY_IMPORT_S`` that import ran.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        numpy_s, own_s = (float(v) for v in done.stdout.split())
        samples.append((numpy_s + own_s) * speed.NUMPY_IMPORT_S / numpy_s)
    return statistics.median(samples)


def load_and_validate(harness, model, items: list[Input], tracer=None) -> tuple[float, list]:
    """Median over repeats of loading and validating every input; with a
    tracer, also each repeat's spans."""
    samples, spans = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.process_time()
        for item in items:
            model.validate_system(harness.load_scenario(item.path).system)
        samples.append(time.process_time() - t0)
        if tracer is not None:
            spans.append(tracer.take())
    return statistics.median(samples), spans


def cell_updates(harness, model, solver, path: Path) -> int:
    """n * cells * steps of a stepping scenario, from the public API."""
    scen = harness.load_scenario(path)
    if scen.kind == "fullspace":
        return 0
    eigs = model.diagonalize(scen.system.a)
    grid = solver.build_grid(eigs, scen.region, scen.x_min, scen.x_max, scen.n_cells)
    return scen.system.n * grid.n_cells * int(round(scen.t_final / grid.dt))


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it is OpenBLAS."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib_path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return top[1] if len(top) == 2 and Path(top[0]).resolve() == ROOT else None


def machine_facts() -> dict:
    import locdamp
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_threads": blas_threads(),
        "blas_threads_pinned": int(PINNED_THREADS),
        "commit": git_commit(),
        "kernel_backend": getattr(locdamp, "KERNEL_BACKEND", None),
    }


def per_layer(traced: list[PassResult], untraced: list[PassResult], setup_spans) -> dict:
    """Layer metrics, unscaled: the best over traced passes of per-pass
    totals, and the median over traced set-up repeats for the set-up
    layers."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    none = tracing.LayerTotals()
    rows = []
    for p in traced:
        t = tracing.totals(p.spans)
        k, ref, norms, export = (
            t.get(name, none)
            for name in ("kernels.advance", "spectral.reference", "solver.norms", "harness.export")
        )
        cu = k.counts.get("cell_updates", 0)
        modes = ref.counts.get("mode_samples", 0)
        rows.append(
            {
                "kernels.advance.s": k.seconds,
                "kernels.advance.calls": k.calls,
                "kernels.cell_updates": cu,
                "kernels.ns_per_cell_update": ratio(k.ok_seconds, cu) * 1e9,
                "kernels.bytes_computed": k.counts.get("bytes", 0),
                "solver.run.self_s": t.get("solver.run", none).self_seconds,
                "solver.grid.s": t.get("solver.grid", none).seconds,
                "solver.norms.s": norms.seconds,
                "solver.norms.calls": norms.calls,
                "solver.norms.ffts": norms.counts.get("ffts", 0),
                "spectral.reference.s": ref.seconds,
                "spectral.reference.sample_times": ref.counts.get("sample_times", 0),
                "spectral.reference.mode_samples": modes,
                "spectral.reference.ns_per_mode_sample": ratio(ref.ok_seconds, modes) * 1e9,
                "spectral.scan.s": t.get("spectral.scan", none).seconds,
                "harness.calibrate.self_s": t.get("harness.calibrate", none).self_seconds,
                "harness.check.s": t.get("harness.check", none).seconds,
                "harness.export.s": export.seconds,
                "harness.export.bytes": export.counts.get("bytes", 0),
            }
        )
    out = {key: min(r[key] for r in rows) for key in rows[0]}
    setup = [tracing.totals(spans) for spans in setup_spans]
    out["harness.load.s"] = statistics.median(t.get("harness.load", none).seconds for t in setup)
    out["model.validate.s"] = statistics.median(t.get("model.validate", none).seconds for t in setup)
    out["tracing_overhead_s"] = mean_pass_s(traced) - mean_pass_s(untraced[1:])
    return out


# Metric names and units, in the order BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "kernels.advance.s": "s",
    "kernels.advance.calls": "count",
    "kernels.cell_updates": "count",
    "kernels.ns_per_cell_update": "ns",
    "kernels.bytes_computed": "bytes",
    "solver.run.self_s": "s",
    "solver.grid.s": "s",
    "solver.norms.s": "s",
    "solver.norms.calls": "count",
    "solver.norms.ffts": "count",
    "spectral.reference.s": "s",
    "spectral.reference.sample_times": "count",
    "spectral.reference.mode_samples": "count",
    "spectral.reference.ns_per_mode_sample": "ns",
    "spectral.scan.s": "s",
    "harness.calibrate.self_s": "s",
    "harness.check.s": "s",
    "harness.load.s": "s",
    "model.validate.s": "s",
    "harness.export.s": "s",
    "harness.export.bytes": "bytes",
    "tracing_overhead_s": "s",
    "kernels.micro.ns_per_cell_update": "ns",
    "solver.micro.norm_row_us": "us",
    "spectral.micro.propagate_ms": "ms",
    "spectral.micro.gamma_estimate_ms": "ms",
    "chartimes.micro.sup_measure_ms.x2": "ms",
    "chartimes.micro.sup_measure_ms.x8": "ms",
    "chartimes.micro.sup_measure_ms.x32": "ms",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(harness, items, checker: Checker, seconds: float, meter, tracer, table):
    """Full passes until ``seconds`` have gone by, and at least
    ``MIN_PASSES``; untraced passes calibrate after each execution, and
    with a tracer each untraced pass is followed by a traced one.  Also
    returns the peak resident size after the first pass, which, unlike the
    peak at the end, does not depend on how many passes fit in the time."""
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    deadline = time.perf_counter() + seconds
    while True:
        result = run_pass(harness, items, meter)
        checker.observe(items, result)
        untraced.append(result)
        if len(untraced) == 1:
            first_pass_rss_mb = peak_rss_mb()
        if tracer is not None:
            with tracing.patched(tracer, table):
                result = run_pass(harness, items)
            result.spans = tracer.take()
            checker.observe(items, result)
            traced.append(result)
        if time.perf_counter() >= deadline and len(untraced) >= MIN_PASSES:
            return untraced, traced, first_pass_rss_mb


def mean_pass_s(passes: list[PassResult]) -> float:
    return statistics.fmean(sum(p.latencies) for p in passes)


def show(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<40} {value:<24.6g} {units[name]}")


def benchmark(args: argparse.Namespace) -> int:
    from locdamp import harness, model, solver

    print(f"locdamp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(machine_facts(), sort_keys=True))

    items = [
        Input(input_id, path, WORK / "out" / input_id.replace("/", "__"))
        for input_id, path in inputs.write_inputs(ROOT, args.workload, args.seed, WORK / "inputs")
    ]
    total_cu = sum(cell_updates(harness, model, solver, item.path) for item in items)
    checker = Checker(gate.load_reference())
    tracer = tracing.Tracer() if args.trace else None
    table = tracing.layer_table() if tracer else []

    import_s = measure_import()
    with tracing.patched(tracer, table) as missing:
        load_validate_s, setup_spans = load_and_validate(harness, model, items, tracer)
    if missing:
        print("layers not found, reported as zero: " + ", ".join(missing))
    untraced, traced, rss_mb = run_passes(
        harness, items, checker, args.seconds, speed.Speedometer(), tracer, table
    )

    timed = untraced[1:]
    latencies = [lat for p in timed for lat in p.latencies]
    slowdown = speed.slowdown([c for p in timed for c in p.calibration])
    wall_s = mean_pass_s(timed) / slowdown
    metrics = {
        "setup_s": import_s + load_validate_s / slowdown,
        "wall_s": wall_s,
        "peak_rss_mb": rss_mb,
        "success_ratio": (checker.attempted - checker.failed) / checker.attempted,
    }
    # Printed only: too noisy on a shared host to gate, zero on some
    # workloads, or enforced by the correctness gate instead.
    units = {**END_TO_END_UNITS, "scenario_s.p50": "s"}
    shown = {**metrics, "scenario_s.p50": statistics.median(latencies)}
    if len(latencies) >= P90_MIN_EXECUTIONS:
        # Over every execution, so the tail includes the machine's noise.
        shown["scenario_s.p90"] = percentile(latencies, 90)
        units["scenario_s.p90"] = "s"
    if total_cu:
        shown["cell_updates_per_s"] = total_cu / wall_s
        units["cell_updates_per_s"] = "1/s"
    shown["fail_ratio"] = checker.failed / checker.attempted
    shown["output_rel_err"] = checker.rel_err
    units.update(fail_ratio="ratio", output_rel_err="ratio")

    print(f"inputs: {len(items)}  passes: 1 warm-up + {len(timed)} timed  "
          f"executions timed: {len(latencies)}" + ("  (plus traced passes)" if tracer else ""))
    print(f"  setup_s = import {import_s:.4f} s + load/validate {load_validate_s:.4f} s / slowdown "
          f"(medians of {SETUP_REPEATS})")
    print(f"  wall_s = mean pass {mean_pass_s(timed):.4f} s / slowdown {slowdown:.3f}")
    show(shown, units)
    print(f"  executions failed: {checker.failed} of {checker.attempted}; "
          f"norms.csv SHA-256 changed on {len(checker.sha_changed)} of {len(items)} inputs")
    if tracer is not None:
        metrics = per_layer(traced, untraced, setup_spans)
        metrics.update(micro.run_all(ROOT))
        units = PER_LAYER_UNITS
        show(metrics, units)

    correct = not checker.problems
    print("gate: " + ("ok" if correct else "FAILED"))
    for problem in checker.problems:
        print(f"  {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "locdamp" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no locdamp source (src/locdamp)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        return benchmark(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
