"""The stepping kernel against a fancy-index oracle, plus direct semantics.

The oracle damps all masked cells in one gathered matrix product and
shifts every whole row with ``np.roll``; the kernel damps each contiguous
run of the mask, clipped to the light cone of the initial nonzero columns,
and shifts only that window by slice assignment.  On the grids of the
shipped scenarios and on stripe masks the two agree bit for bit.  On
random, fragmented masks a run one cell wide goes through BLAS's
matrix-vector code, which rounds unlike the gathered product, so there
they are held to 1e-14 relative.  Physical invariants (lossless transport
conserves energy, contractive damping never adds any) are property-tested
on random compact data.
"""

from pathlib import Path

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locdamp import harness, kernels, solver
from locdamp.chartimes import UndampedRegion
from locdamp.model import HyperbolicSystem
from locdamp.spectral import matrix_exp

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
STEPPING_SCENARIOS = sorted(
    p.name
    for p in SCENARIO_DIR.glob("*.json")
    if harness.load_scenario(p).kind != "fullspace"
)
RANDOM_RTOL = 1e-14


def oracle_advance(v, shifts, damp_half, mask, n_steps, apply_damping, guard_cells, guard_tol):
    """Reference stepper: gathered damping over the whole mask, rolled rows."""
    n, m = v.shape
    active = mask.astype(bool)
    guard = min(int(guard_cells), m)

    def half_damp():
        v[:, active] = damp_half @ v[:, active]

    for step in range(int(n_steps)):
        if apply_damping:
            half_damp()
        for i in range(n):
            s = int(shifts[i])
            if s == 0:
                continue
            if abs(s) >= m:
                v[i, :] = 0.0
                continue
            v[i, :] = np.roll(v[i, :], s)
            if s > 0:
                v[i, :s] = 0.0
            else:
                v[i, s:] = 0.0
        if guard > 0:
            band = np.abs(np.concatenate([v[:, :guard], v[:, m - guard:]], axis=1))
            if band.max() > guard_tol:
                return step + 1
        if apply_damping:
            half_damp()
    return 0


def _contractive_half_step(rng, n, dt=0.1):
    g = rng.standard_normal((n, n))
    s = g @ g.T + np.eye(n)
    return np.ascontiguousarray(matrix_exp(-0.5 * dt * s).real)


def _random_masks(rng, m):
    yield rng.integers(0, 2, size=m).astype(np.uint8)
    yield (np.arange(m) % 2).astype(np.uint8)
    yield np.ones(m, dtype=np.uint8)
    yield np.zeros(m, dtype=np.uint8)


def _stripe_mask(m, k):
    """Damping mask with ``k`` evenly spaced undamped stripes."""
    mask = np.ones(m, dtype=np.uint8)
    edges = np.linspace(0, m, 2 * k + 2).astype(int)
    for a, b in zip(edges[1::2], edges[2::2]):
        mask[a:b] = 0
    return mask


def _compact(rng, n, m, spans):
    """Random field on ``n`` rows that is exactly zero outside ``spans``."""
    v = np.zeros((n, m))
    for a, b in spans:
        v[:, a:b] = rng.standard_normal((n, b - a))
    return v


def _both(v, *args):
    vk = v.copy()
    vo = v.copy()
    return kernels.advance(vk, *args), vk, oracle_advance(vo, *args), vo


class TestAgainstOracle:
    @pytest.mark.parametrize("name", STEPPING_SCENARIOS)
    def test_bit_equal_on_shipped_scenarios(self, name, monkeypatch):
        scenario = harness.load_scenario(SCENARIO_DIR / name)
        calls = []
        kernel = kernels.advance

        def checked(v, *args):
            vo = v.copy()
            code_o = oracle_advance(vo, *args)
            code = kernel(v, *args)
            calls.append(code == code_o and np.array_equal(v, vo))
            return code

        monkeypatch.setattr(kernels, "advance", checked)
        solver.run(
            scenario.system,
            scenario.region,
            scenario.data,
            x_min=scenario.x_min,
            x_max=scenario.x_max,
            t_final=scenario.t_final,
            stride=scenario.stride,
            n_cells=scenario.n_cells,
        )
        assert calls and all(calls)

    @pytest.mark.parametrize("apply_damping", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_masks_agree(self, n, apply_damping):
        rng = np.random.default_rng(1000 + 10 * n + apply_damping)
        m = 200
        for mask in _random_masks(rng, m):
            v = rng.standard_normal((n, m))
            shifts = rng.integers(-3, 4, size=n).astype(np.int64)
            damp_half = _contractive_half_step(rng, n)
            code, vk, code_o, vo = _both(
                v, shifts, damp_half, mask, 50, apply_damping, 0, 1e-14
            )
            assert code == code_o == 0
            if apply_damping:
                scale = np.abs(vo).max()
                assert np.allclose(vk, vo, rtol=0.0, atol=RANDOM_RTOL * scale)
            else:
                assert np.array_equal(vk, vo)

    @pytest.mark.parametrize("apply_damping", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_random_guard_trip_steps_agree(self, n, apply_damping):
        rng = np.random.default_rng(2000 + 10 * n + apply_damping)
        m = 120
        for mask in _random_masks(rng, m):
            v = np.zeros((n, m))
            lo = int(rng.integers(10, 50))
            v[:, lo:lo + 20] = rng.standard_normal((n, 20))
            shifts = rng.integers(-3, 4, size=n).astype(np.int64)
            shifts[0] = 2 if shifts[0] == 0 else shifts[0]
            damp_half = _contractive_half_step(rng, n)
            tol = 1e-14 * np.abs(v).max()
            code, vk, code_o, vo = _both(
                v, shifts, damp_half, mask, 80, apply_damping, 3, tol
            )
            assert code == code_o > 0
            scale = np.abs(vo).max()
            assert np.allclose(vk, vo, rtol=0.0, atol=RANDOM_RTOL * scale)


class TestKernelSemantics:
    @pytest.mark.parametrize("shift", [-3, -1, 1, 2])
    def test_single_step_is_roll_with_zero_inflow(self, shift):
        rng = np.random.default_rng(5)
        v0 = rng.standard_normal((1, 64))
        v = v0.copy()
        code = kernels.advance(
            v, np.array([shift]), np.eye(1), np.ones(64, dtype=np.uint8), 1, 0, 0, 1e-14
        )
        assert code == 0
        expected = np.roll(v0[0], shift)
        if shift > 0:
            expected[:shift] = 0.0
        else:
            expected[shift:] = 0.0
        assert np.array_equal(v[0], expected)

    def test_oversized_shift_clears_row(self):
        v = np.ones((2, 8))
        code = kernels.advance(
            v, np.array([10, -9]), np.eye(2), np.ones(8, dtype=np.uint8), 1, 0, 0, 1e-14
        )
        assert code == 0
        assert np.array_equal(v, np.zeros((2, 8)))

    def test_damping_respects_mask(self):
        v0 = np.ones((2, 10))
        v = v0.copy()
        mask = np.zeros(10, dtype=np.uint8)
        mask[:5] = 1
        code = kernels.advance(v, np.zeros(2, dtype=np.int64), 0.5 * np.eye(2), mask, 1, 1, 0, 1e-14)
        assert code == 0
        # two half-steps of 0.5 on masked cells, untouched elsewhere
        assert np.array_equal(v[:, :5], 0.25 * np.ones((2, 5)))
        assert np.array_equal(v[:, 5:], v0[:, 5:])

    def test_damping_flag_off_ignores_matrix(self):
        v0 = np.ones((1, 10))
        v = v0.copy()
        code = kernels.advance(
            v, np.zeros(1, dtype=np.int64), 0.5 * np.eye(1), np.ones(10, dtype=np.uint8), 3, 0, 0, 1e-14
        )
        assert code == 0
        assert np.array_equal(v, v0)

    @pytest.mark.parametrize("shift, cell, step", [(1, 90, 8), (-1, 5, 4)])
    def test_guard_trip_step(self, shift, cell, step):
        # a unit mass enters the two-cell band at index 98 (or 1)
        v = np.zeros((1, 100))
        v[0, cell] = 1.0
        code = kernels.advance(
            v, np.array([shift]), np.eye(1), np.ones(100, dtype=np.uint8), 50, 0, 2, 1e-14
        )
        assert code == step

    def test_seventeen_components_run(self):
        n = 17
        sys = HyperbolicSystem(
            a=np.diag(np.arange(1.0, n + 1.0)), n1=1, dd=np.eye(n - 1)
        )
        data = solver.InitialDataSpec(
            bumps=tuple(
                solver.Bump("gaussian", component=k, center=0.0, width=0.1)
                for k in range(n)
            ),
            basis="characteristic",
        )
        traj = solver.run(
            sys,
            UndampedRegion(stripes=((-1.0, 1.0),)),
            data,
            x_min=-4.0,
            x_max=40.0,
            t_final=1.0,
            stride=5,
            n_cells=880,
        )
        assert traj.n_components == n
        # the undamped component is transported losslessly, the rest decay
        assert np.allclose(traj.comp_l2[0], traj.comp_l2[0, 0], rtol=1e-12)
        assert traj.l2_total[-1] < traj.l2_total[0]


# (column spans of the data, shifts) on 240 cells
WINDOW_CASES = {
    "left_edge": ([(0, 12)], [2, -1, 1]),
    "right_edge": ([(228, 240)], [-2, 1, -1]),
    "negative": ([(100, 130)], [-1, -3, -2]),
    "mixed_sign": ([(90, 110)], [3, -2, 0]),
    "oversized": ([(50, 70)], [240, -241, 1]),
    "two_blobs": ([(40, 50), (180, 195)], [1, -1, 2]),
    "all_zero": ([], [1, -2, 3]),
}


# (spans, shifts) on 200 cells with a 3-cell guard band: data whose window
# starts in a band, or leaves one band and reaches the other
GUARD_CASES = {
    "starts_in_left_band": ([(0, 6)], [1, 2]),
    "starts_in_right_band": ([(194, 200)], [-2, -1]),
    "leaves_left_band_reaches_right": ([(2, 10)], [3, 5]),
}


def _relax_full_walk(v, damp_half, runs, lo, hi):
    """Half-relaxation that tests every mask run against the window."""
    for a, b in runs:
        if a < hi and lo < b:
            a, b = max(a, min(lo, b - 2)), min(b, max(hi, a + 2))
            v[:, a:b] = damp_half @ v[:, a:b]


class TestWindowedKernel:
    """Compactly supported data, where the kernel works on a window only."""

    @pytest.mark.parametrize("stripes", [1, 3, 32])
    @pytest.mark.parametrize("apply_damping", [0, 1])
    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_stripe_masks_bit_equal(self, case, apply_damping, stripes):
        spans, shifts = WINDOW_CASES[case]
        rng = np.random.default_rng(3000 + stripes)
        m, n = 240, len(shifts)
        v = _compact(rng, n, m, spans)
        code, vk, code_o, vo = _both(
            v, np.array(shifts), _contractive_half_step(rng, n), _stripe_mask(m, stripes),
            30, apply_damping, 0, 1e-14,
        )
        assert code == code_o == 0
        assert np.array_equal(vk, vo)

    @pytest.mark.parametrize("case", sorted(WINDOW_CASES))
    def test_random_masks_agree(self, case):
        spans, shifts = WINDOW_CASES[case]
        rng = np.random.default_rng(4000)
        m, n = 240, len(shifts)
        v = _compact(rng, n, m, spans)
        for mask in _random_masks(rng, m):
            code, vk, code_o, vo = _both(
                v, np.array(shifts), _contractive_half_step(rng, n), mask, 30, 1, 0, 1e-14
            )
            assert code == code_o == 0
            scale = np.abs(vo).max()
            assert np.allclose(vk, vo, rtol=0.0, atol=RANDOM_RTOL * scale)

    @pytest.mark.parametrize("stripes", [1, 32])
    @pytest.mark.parametrize("shifts", [[3, -1], [-2, -1], [1, 2]])
    def test_window_reaching_guard_band_trips_with_oracle(self, shifts, stripes):
        rng = np.random.default_rng(5000 + stripes)
        m = 200
        v = _compact(rng, 2, m, [(95, 105)])
        tol = 1e-14 * np.abs(v).max()
        code, vk, code_o, vo = _both(
            v, np.array(shifts), _contractive_half_step(rng, 2), _stripe_mask(m, stripes),
            200, 1, 3, tol,
        )
        assert code == code_o > 0
        assert np.array_equal(vk, vo)

    @pytest.mark.parametrize("stripes", [1, 32])
    @pytest.mark.parametrize("case", sorted(GUARD_CASES))
    def test_window_starting_at_guard_band_trips_with_oracle(self, case, stripes):
        # the guard scans an edge band only while the window meets it
        spans, shifts = GUARD_CASES[case]
        rng = np.random.default_rng(5500 + stripes)
        m = 200
        v = _compact(rng, 2, m, spans)
        tol = 1e-14 * np.abs(v).max()
        code, vk, code_o, vo = _both(
            v, np.array(shifts), _contractive_half_step(rng, 2), _stripe_mask(m, stripes),
            200, 1, 3, tol,
        )
        assert code == code_o > 0
        assert np.array_equal(vk, vo)

    @pytest.mark.parametrize("stripes", [1, 3, 32])
    def test_relax_bisect_matches_full_walk(self, stripes):
        rng = np.random.default_rng(7000 + stripes)
        m, n = 200, 3
        runs = kernels._mask_runs(_stripe_mask(m, stripes))
        stops = [b for _, b in runs]
        damp_half = _contractive_half_step(rng, n)
        for lo in range(m + 1):
            for hi in sorted({min(lo + d, m) for d in (0, 1, 2, 5, 23, m)}):
                v = _compact(rng, n, m, [(lo, hi)])
                walked = v.copy()
                kernels._relax(v, damp_half, runs, stops, lo, hi)
                _relax_full_walk(walked, damp_half, runs, lo, hi)
                assert np.array_equal(v, walked), (lo, hi)

    @pytest.mark.parametrize("steps", [1, 7, 40])
    @pytest.mark.parametrize("shifts", [[3, -1, 1], [-2, -1, -3], [1, 2, 0]])
    def test_light_cone(self, shifts, steps):
        # damping mixes the rows, so the cone is set by the extreme shifts
        rng = np.random.default_rng(6000 + steps)
        m, lo, hi = 400, 180, 200
        v = _compact(rng, 3, m, [(lo, hi)])
        code = kernels.advance(
            v, np.array(shifts), _contractive_half_step(rng, 3), _stripe_mask(m, 4),
            steps, 1, 0, 1e-14,
        )
        assert code == 0
        cone_lo = lo + steps * min(min(shifts), 0)
        cone_hi = hi + steps * max(max(shifts), 0)
        assert not v[:, :cone_lo].any() and not v[:, cone_hi:].any()
        assert v[:, cone_lo:cone_hi].any()


def _energy(v):
    # exactly rounded, so shifting values between cells cannot change it
    return math.fsum((v * v).ravel())


compact_runs = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n": st.integers(1, 4),
        "lo": st.integers(150, 240),
        "width": st.integers(1, 60),
        "max_shift": st.integers(1, 3),
        "stripes": st.sampled_from([0, 1, 3, 32]),
        "steps": st.integers(1, 10),
    }
)


def _compact_run(p):
    """Field, shifts and mask of one drawn run; 4 calls of ``steps`` steps
    move the support at most 120 cells, so it stays clear of the edges."""
    rng = np.random.default_rng(p["seed"])
    m = 600
    v = _compact(rng, p["n"], m, [(p["lo"], p["lo"] + p["width"])])
    shifts = rng.integers(-p["max_shift"], p["max_shift"] + 1, size=p["n"])
    mask = _stripe_mask(m, p["stripes"]) if p["stripes"] else rng.integers(0, 2, size=m).astype(np.uint8)
    return rng, v, shifts, mask


class TestPhysicalInvariants:
    @settings(max_examples=100, deadline=None)
    @given(p=compact_runs)
    def test_transport_conserves_energy(self, p):
        rng, v, shifts, mask = _compact_run(p)
        e0 = _energy(v)
        damp_half = _contractive_half_step(rng, p["n"])
        for _ in range(4):
            assert kernels.advance(v, shifts, damp_half, mask, p["steps"], 0, 3, 1e-14 * np.abs(v).max()) == 0
            assert abs(_energy(v) - e0) <= 1e-14 * e0

    @settings(max_examples=100, deadline=None)
    @given(p=compact_runs)
    def test_contractive_damping_never_adds_energy(self, p):
        rng, v, shifts, mask = _compact_run(p)
        damp_half = _contractive_half_step(rng, p["n"])
        energy = _energy(v)
        for _ in range(4):
            assert kernels.advance(v, shifts, damp_half, mask, p["steps"], 1, 3, 1e-14 * np.abs(v).max()) == 0
            assert _energy(v) <= energy
            energy = _energy(v)
