"""Micro-layers: single calls of public functions, timed from outside.

Each sample is one call; the reported value is the best of
``MICRO_SAMPLES`` samples, as for the workload timings.  The kernel
micro-layer runs ``kernel_workload``, whose half-step is contractive.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable

import numpy as np

MICRO_SAMPLES = 3
KERNEL_SHAPE = (3, 8000)
KERNEL_STEPS = 300
KERNEL_DT = 0.01


def kernel_workload(n: int = KERNEL_SHAPE[0], m: int = KERNEL_SHAPE[1], seed: int = 7):
    """Masked-relaxation + shift workload with a contractive half-step.

    The half-step is ``matrix_exp(-dt/2 * S)`` for a symmetric positive
    definite ``S``, built the way ``solver.run`` builds it from the source
    matrix, so repeated steps never increase the state's norm.  Returns
    ``(v, shifts, damp_half, mask)``; the middle third of the cells is
    undamped.
    """
    from locdamp.spectral import matrix_exp

    rng = np.random.default_rng(seed)
    v = np.ascontiguousarray(rng.standard_normal((n, m)))
    shifts = rng.integers(-3, 4, size=n).astype(np.int64)
    shifts[shifts == 0] = 1
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = q @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ q.T
    s = 0.5 * (s + s.T)
    damp_half = np.ascontiguousarray(matrix_exp(-0.5 * KERNEL_DT * s).real)
    mask = np.zeros(m, dtype=np.uint8)
    mask[: m // 3] = 1
    mask[-(m // 3):] = 1
    return v, shifts, damp_half, mask


def _best_call(fn: Callable[[], object]) -> float:
    samples = []
    for _ in range(MICRO_SAMPLES):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return min(samples)


def kernel_ns_per_cell_update() -> float:
    from locdamp import kernels

    v0, shifts, damp_half, mask = kernel_workload()
    start_norm = float(np.linalg.norm(v0))
    state = {}

    def call():
        v = v0.copy()
        # guard_cells = 0: the random field fills the edges on purpose.
        kernels.advance(v, shifts, damp_half, mask, KERNEL_STEPS, 1, 0, 1e-14)
        state["v"] = v

    seconds = _best_call(call)
    if not float(np.linalg.norm(state["v"])) <= start_norm:
        raise RuntimeError("kernel workload: a contractive step increased the norm")
    n, m = v0.shape
    return seconds / (n * m * KERNEL_STEPS) * 1e9


def run_all(root: Path) -> dict[str, float]:
    """Every micro-layer, in milliseconds, microseconds or nanoseconds as
    its name says."""
    from locdamp import chartimes, harness, model, solver, spectral

    wave = harness.load_scenario(root / "scenarios" / "fullspace_damped_wave.json")
    three = harness.load_scenario(root / "scenarios" / "three_speed_321.json")
    eigs3 = model.diagonalize(three.system.a)
    grid = solver.build_grid(eigs3, three.region, three.x_min, three.x_max, three.n_cells)
    w = three.data.sample(grid.centers, three.system.n)

    eigs_w = model.diagonalize(wave.system.a)
    dx = (wave.x_max - wave.x_min) / wave.n_cells
    x = wave.x_min + dx * np.arange(wave.n_cells)
    u0 = wave.data.sample(x, wave.system.n)
    bound = chartimes.residence_bound(eigs3, three.region)

    out = {
        "kernels.micro.ns_per_cell_update": kernel_ns_per_cell_update(),
        "solver.micro.norm_row_us": 1e6
        * _best_call(lambda: solver._norm_row(w, grid, eigs3.basis)),
        "spectral.micro.propagate_ms": 1e3
        * _best_call(lambda: spectral.fullspace_evolve(wave.system, x, u0, [50.0], eigs=eigs_w)),
        "spectral.micro.gamma_estimate_ms": 1e3
        * _best_call(lambda: spectral.gamma_estimate(three.system, eigs=eigs3)),
    }
    for factor in (2, 8, 32):
        out[f"chartimes.micro.sup_measure_ms.x{factor}"] = 1e3 * _best_call(
            lambda: chartimes.sup_undamped_measure(eigs3, three.region, factor * bound)
        )
    return out
