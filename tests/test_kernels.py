"""The stepping kernel against a fancy-index oracle, plus direct semantics.

The oracle damps all masked cells in one gathered matrix product and
shifts every whole row with ``np.roll``; the kernel damps the light cone
of the live rows in one product, written back on the masked cells,
shifts only that window by slice assignment, and carries the window
through undamped stretches in one jump.  A run carries its run state
from call to call (``kernels.Cone``); a call without one builds it by a
scan of the field, and both give the oracle's bits.  A column rounds
the same in any product of two or more columns, so the two agree bit for
bit, on the shipped scenarios, on stripe masks and on random, fragmented
masks alike.  Physical invariants (lossless transport
conserves energy, contractive damping never adds any) are property-tested
on random compact data.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import near_bumps
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
ENVELOPE_SCENARIOS = sorted(
    p.name
    for p in SCENARIO_DIR.glob("*.json")
    if harness.load_scenario(p).kind == "verify-envelope"
)


def _run_shipped(name):
    scenario = harness.load_scenario(SCENARIO_DIR / name)
    return solver.run(
        scenario.system,
        scenario.region,
        scenario.data,
        x_min=scenario.x_min,
        x_max=scenario.x_max,
        t_final=scenario.t_final,
        stride=scenario.stride,
        n_cells=scenario.n_cells,
    )


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
        calls = []
        kernel = kernels.advance

        def checked(v, *args):
            # the run's carried cone is the ninth argument, which the
            # oracle does without
            vo = v.copy()
            code_o = oracle_advance(vo, *args[:7])
            code = kernel(v, *args)
            calls.append(code == code_o and np.array_equal(v, vo))
            return code

        monkeypatch.setattr(kernels, "advance", checked)
        _run_shipped(name)
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
            assert np.array_equal(vk, vo)


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
            assert np.array_equal(vk, vo)

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
    def test_relax_changes_damped_window_cells_only(self, stripes):
        rng = np.random.default_rng(7000 + stripes)
        m, n = 200, 3
        damped = _stripe_mask(m, stripes) != 0
        damp_half = _contractive_half_step(rng, n)

        def oracle(v, halves):
            out = v.copy()
            for _ in range(halves):
                out[:, damped] = damp_half @ out[:, damped]
            return out

        # windows of width 0 and at least 2 on a field that is nonzero
        # everywhere, relaxed once or twice with one write-back: only their
        # damped cells change, as the oracle has them
        for halves in (1, 2):
            for lo in range(m + 1):
                for hi in sorted({min(lo + d, m) for d in (0, 2, 5, 23, m)}):
                    if hi - lo == 1:
                        continue
                    v = rng.standard_normal((n, m))
                    relaxed = v.copy()
                    kernels._relax(relaxed, damp_half, damped, lo, hi, halves)
                    hit = damped.copy()
                    hit[:lo] = hit[hi:] = False
                    assert np.array_equal(relaxed[:, ~hit], v[:, ~hit]), (lo, hi, halves)
                    assert np.array_equal(relaxed[:, hit], oracle(v, halves)[:, hit]), (lo, hi, halves)
            # a one-column window at either end of the grid, the field zero
            # outside it: the kernel widens it into a zero column
            for col in (0, m - 1):
                v = _compact(rng, n, m, [(col, col + 1)])
                relaxed = v.copy()
                kernels._relax(relaxed, damp_half, damped, col, col + 1, halves)
                assert np.array_equal(relaxed, oracle(v, halves)), (col, halves)

    @pytest.mark.parametrize("steps", [1, 7, 40])
    @pytest.mark.parametrize("shifts", [[3, -1, 1], [-2, -1, -3], [1, 2, 0], [2, 3, 1]])
    def test_light_cone(self, shifts, steps):
        # damping mixes the rows, so the cone is set by the extreme shifts,
        # and it follows them on both sides
        rng = np.random.default_rng(6000 + steps)
        m, lo, hi = 400, 180, 200
        v = _compact(rng, 3, m, [(lo, hi)])
        shifts, mask = np.array(shifts), _stripe_mask(m, 4)
        cone = kernels.Cone(v, shifts, mask, 0)
        damp_half = _contractive_half_step(rng, 3)
        code = kernels.advance(v, shifts, damp_half, mask, steps, 1, 0, 1e-14, cone)
        assert code == 0
        cone_lo = lo + steps * min(shifts)
        cone_hi = hi + steps * max(shifts)
        assert (cone.lo, cone.hi) == (cone_lo, cone_hi)
        assert not v[:, :cone_lo].any() and not v[:, cone_hi:].any()
        assert v[:, cone_lo].any() and v[:, cone_hi - 1].any()
        assert cone.cells == _cone_cells(3, m, lo, hi, shifts, steps)

    def test_cone_empties_when_the_data_leave_the_grid(self):
        v = np.zeros((2, 40))
        v[:, 30:34] = 1.0
        shifts, mask = np.array([3, 4]), np.ones(40, dtype=bool)
        cone = kernels.Cone(v, shifts, mask, 0)
        assert kernels.advance(v, shifts, np.eye(2), mask, 5, 0, 0, 0.0, cone) == 0
        assert not v.any()
        assert (cone.lo, cone.hi) == (0, 0)
        # windows [33, 38), [36, 40) and [39, 40); the steps after the last
        # row left touch no cell
        assert cone.cells == 2 * (5 + 4 + 1)
        assert kernels.advance(v, shifts, np.eye(2), mask, 5, 0, 0, 0.0, cone) == 0
        assert cone.cells == 2 * (5 + 4 + 1)

    @pytest.mark.parametrize("other", ["field", "shifts", "mask", "guard"])
    def test_a_cone_built_for_other_arguments_is_refused(self, other):
        # the call reads the shifts, mask and guard band from the cone, so
        # one built for others would step with them; equal copies are
        # others too
        v = np.zeros((2, 40))
        v[:, 10:14] = 1.0
        built = {"field": v, "shifts": np.array([1, -1]), "mask": np.zeros(40, dtype=bool), "guard": 2}
        cone = kernels.Cone(*built.values())
        passed = dict(built)
        passed[other] = built[other] + 1 if other == "guard" else built[other].copy()
        field, shifts, mask, guard = passed.values()
        before = field.copy()
        with pytest.raises(ValueError, match="cone: built for another"):
            kernels.advance(field, shifts, np.eye(2), mask, 3, 1, guard, 0.0, cone)
        assert field.tobytes() == before.tobytes()


CARRY_CELLS = 120
MAX_SHIFT = 4


def _undamped_runs(mask):
    """The undamped runs ``[a, b)`` of a damping mask."""
    edges = np.flatnonzero(np.diff(np.concatenate(([1], mask != 0, [1]))))
    return list(zip(edges[0::2].tolist(), edges[1::2].tolist()))


@st.composite
def carried_runs(draw):
    """A compact field on ``CARRY_CELLS`` cells with some rows zero (dead),
    shifts of both signs that may include 0 and rows moved off the grid in
    one step, a random, stripe or all-undamped mask as bool or uint8, the
    guard on or off, damping on or off, and its steps split into calls of
    random lengths, empty ones included.

    The field lies anywhere, starts within ``2 * MAX_SHIFT`` cells of
    either edge, where a step must clip its copies, fills the grid, or lies
    inside one undamped run, where steps jump until the window would reach
    a damped cell, the guard band or the grid's edge, within a call or at
    its end; the shifts of two or more rows may be forced to have both
    signs; the calls may be one step each or long enough to jump and then
    step."""
    n = draw(st.integers(1, 4))
    m = CARRY_CELLS
    shift = st.integers(-MAX_SHIFT, MAX_SHIFT)
    off_grid = st.sampled_from([-m - 2, -m, m, m + 5])
    # an oversized shift makes the reach the whole grid, which rules every
    # jump out: in a quarter of the examples any row may have one (several
    # rows may leave the grid in one step, one off each edge), in another
    # quarter exactly one row has one, and in the rest none does
    oversized = draw(st.sampled_from(["any row", "one row", "none", "none"]))
    shifts = draw(st.lists(shift | off_grid if oversized == "any row" else shift, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        shifts[0] = -draw(st.integers(1, MAX_SHIFT))
        shifts[-1] = draw(st.integers(1, MAX_SHIFT))
    if oversized == "one row":
        shifts[draw(st.integers(0, n - 1))] = draw(off_grid)
    stripes = draw(st.sampled_from(["random", "undamped", 1, 3, 32]))
    if stripes == "random":
        mask = np.array(draw(st.lists(st.booleans(), min_size=m, max_size=m)), dtype=np.uint8)
    elif stripes == "undamped":
        mask = np.zeros(m, dtype=np.uint8)
    else:
        mask = _stripe_mask(m, stripes)
    near = 2 * MAX_SHIFT
    where = draw(st.sampled_from(["anywhere", "left edge", "right edge", "full", "undamped run"]))
    runs = _undamped_runs(mask)
    if where == "undamped run" and runs:
        a, b = draw(st.sampled_from(runs))
        lo = draw(st.integers(a, b - 1))
        span = (lo, draw(st.integers(lo + 1, min(b, lo + 12))))
    elif where in ("anywhere", "undamped run"):
        lo = draw(st.integers(0, m - 1))
        span = (lo, draw(st.integers(lo + 1, min(m, lo + 40))))
    elif where == "left edge":
        lo = draw(st.integers(0, near))
        span = (lo, draw(st.integers(lo + 1, lo + 40)))
    elif where == "right edge":
        hi = draw(st.integers(m - near, m))
        span = (draw(st.integers(hi - 40, hi - 1)), hi)
    else:
        span = (0, m)
    chunks = (
        st.lists(st.integers(0, 12), min_size=1, max_size=6)
        | st.lists(st.just(1), min_size=1, max_size=30)
        | st.lists(st.integers(0, 60), min_size=1, max_size=3)
    )
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "n": n,
        "shifts": shifts,
        "dead": draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True)),
        "span": span,
        "mask": mask != 0 if draw(st.booleans()) else mask,
        "guard": draw(st.sampled_from([0, 3])),
        "damping": draw(st.sampled_from([0, 1])),
        "chunks": draw(chunks),
    }


class TestCarriedCone:
    @settings(max_examples=200, deadline=None)
    @given(p=carried_runs())
    def test_carried_cone_is_bit_neutral_and_exact(self, p):
        # one run state carried over calls of any lengths gives the bits,
        # zero signs included, and trip step of a scan per call and of the
        # oracle; after every call its window holds every nonzero column
        # and every row it calls dead is +0.0 throughout
        rng = np.random.default_rng(p["seed"])
        m, n = CARRY_CELLS, p["n"]
        v = _compact(rng, n, m, [p["span"]])
        v[p["dead"]] = 0.0
        args = (np.array(p["shifts"], dtype=np.int64), _contractive_half_step(rng, n), p["mask"])
        rest = (p["damping"], p["guard"], 1e-14 * np.abs(v).max())
        carried, scanned, oracle = v.copy(), v.copy(), v.copy()
        cone = kernels.Cone(carried, args[0], p["mask"], p["guard"])
        for steps in p["chunks"]:
            code = kernels.advance(carried, *args, steps, *rest, cone)
            assert kernels.advance(scanned, *args, steps, *rest) == code
            assert oracle_advance(oracle, *args, steps, *rest) == code
            assert carried.tobytes() == scanned.tobytes()
            assert carried.tobytes() == oracle.tobytes()
            cols = np.flatnonzero(carried.any(axis=0))
            assert cols.size == 0 or cone.lo <= cols[0] <= cols[-1] < cone.hi
            dead = ~np.array(cone.live)
            assert not carried[dead].view(np.uint64).any()
            if code:
                break


# (mask, damping, guard, spans of the live rows, dead rows, shifts, calls,
# steps jumped, steps stepped, trip step of the last call) on 120 cells:
# jumps that end where the window would reach a damped cell, the guard
# band or, with the guard off, the cells within reach of the grid's edge
JUMP_CASES = {
    # live row 0 moves 2 cells a step inside the undamped run [40, 80): 10
    # steps jump, then 5 more and the window stands at [75, 80)
    "run_edge": ("stripe", 1, 3, [(45, 50)], [1], [2, -3], [10, 20], 15, 15, 0),
    # no damped cell: the window grows both ways until it would come within
    # 3 cells of the left edge, and the step after that trips the guard
    "guard_band": ("open", 1, 3, [(50, 60)], [], [-1, 1], [30, 30], 47, 1, 18),
    # damping off, guard off: jumps until the window would come within
    # reach (3 cells) of the right edge, then edge steps push the data off
    "grid_edge": ("open", 0, 0, [(10, 20)], [], [3, 0], [40], 32, 8, 0),
}


class TestJump:
    @pytest.mark.parametrize("case", sorted(JUMP_CASES))
    def test_jump_ends_where_transport_would(self, case):
        mask_kind, damping, guard, spans, dead, shifts, calls, jumped, stepped, trip = (
            JUMP_CASES[case]
        )
        rng = np.random.default_rng(8000)
        m, n = CARRY_CELLS, len(shifts)
        mask = _stripe_mask(m, 1) if mask_kind == "stripe" else np.zeros(m, dtype=np.uint8)
        v = _compact(rng, n, m, spans)
        v[dead] = 0.0
        args = (np.array(shifts), _contractive_half_step(rng, n), mask)
        rest = (damping, guard, 1e-14 * np.abs(v).max())
        oracle = v.copy()
        cone = kernels.Cone(v, args[0], mask, guard)
        codes = [kernels.advance(v, *args, steps, *rest, cone) for steps in calls]
        assert codes == [oracle_advance(oracle, *args, steps, *rest) for steps in calls]
        assert codes[-1] == trip
        assert v.tobytes() == oracle.tobytes()
        assert (cone.jumped, cone.stepped) == (jumped, stepped)


def _cone_cells(rows: int, m: int, lo: int, hi: int, shifts, n_steps: int) -> int:
    """Rows times window width, summed over ``n_steps`` steps, of the light
    cone from the columns ``[lo, hi)`` of an ``m``-cell grid: after step k
    it is ``[lo + k min(shifts), hi + k max(shifts))``, clipped to the
    grid."""
    k = np.arange(1, int(n_steps) + 1)
    right = np.minimum(m, hi + k * max(shifts))
    left = np.maximum(0, lo + k * min(shifts))
    return rows * int(np.maximum(0, right - left).sum())


class TestLightCone:
    @pytest.mark.parametrize("name", ENVELOPE_SCENARIOS)
    def test_cells_touched_stay_in_the_cone_of_the_support(self, name):
        # gaussian data are zero beyond 8 widths, so the kernel steps no
        # cell outside the light cone of the cells within 8 widths of a bump
        scenario = harness.load_scenario(SCENARIO_DIR / name)
        traj = _run_shipped(name)
        grid = traj.grid
        cols = np.flatnonzero(near_bumps(scenario.data.bumps, grid.centers))
        steps = solver.sample_steps(scenario.t_final, grid.dt, scenario.stride).last
        cone = _cone_cells(
            scenario.system.n, grid.n_cells, cols[0], cols[-1] + 1, grid.shifts, steps
        )
        assert 0 < traj.cells_touched <= cone

    @pytest.mark.parametrize(
        "name, jumped, cells",
        [("probe_scalar.json", 190, 4000), ("probe_321.json", 190, 143670),
         ("probe_421.json", 190, 209505)],
    )
    def test_probe_jumps_until_its_box_would_reach_damping(self, name, jumped, cells):
        # the box sits on characteristic 0 inside the stripe, every other
        # row zero: the steps jump until its window would reach a damped
        # cell or the guard band; the first relaxation on a damped cell
        # then makes every row live, and the window grows by the spread of
        # the shifts each step
        scenario = harness.load_scenario(SCENARIO_DIR / name)
        traj = _run_shipped(name)
        grid = traj.grid
        n, m = scenario.system.n, grid.n_cells
        (bump,) = scenario.data.bumps
        cols = np.flatnonzero(scenario.data.sample(grid.centers, n)[bump.component])
        lo, hi = int(cols[0]), int(cols[-1]) + 1
        s = int(grid.shifts[bump.component])
        first_damped = hi + int(np.argmax(grid.damp_mask[hi:]))
        margin = max(grid.guard_cells, int(np.abs(grid.shifts).max()))
        assert (min(first_damped, m - margin) - hi) // s == jumped
        steps = solver.sample_steps(scenario.t_final, grid.dt, scenario.stride).last
        assert (traj.steps_jumped, traj.steps_stepped) == (jumped, steps - jumped)
        width, spread = hi - lo, int(np.ptp(grid.shifts))
        grown = sum(width + k * spread for k in range(1, steps - jumped))
        assert traj.cells_touched == n * ((jumped + 1) * width + grown) == cells

    @pytest.mark.parametrize("name", ENVELOPE_SCENARIOS)
    def test_envelope_runs_never_jump(self, name):
        # their data start on damped cells, so every row is live at once and
        # the window never fits inside a stripe
        scenario = harness.load_scenario(SCENARIO_DIR / name)
        result = harness.run_scenario(scenario)
        traj = result.series
        steps = solver.sample_steps(scenario.t_final, traj.grid.dt, scenario.stride).last
        assert (traj.steps_jumped, traj.steps_stepped) == (0, steps)
        assert not {"cells_touched", "steps_jumped", "steps_stepped"} & set(
            harness.summarize(result)
        )

    def test_the_grid_is_scanned_once_per_run(self, monkeypatch):
        # a stride-1 run calls the kernel once per step; the cone it carries
        # is found by one scan of the first sample, not one per call
        widths = []
        scan = kernels._nonzero_window

        def recording(v):
            widths.append(v.shape[1])
            return scan(v)

        monkeypatch.setattr(kernels, "_nonzero_window", recording)
        scenario = harness.load_scenario(SCENARIO_DIR / "probe_scalar.json")
        result = harness.run_scenario(replace(scenario, n_cells=8192, stride=1))
        assert result.series.times.size > 1000
        assert widths.count(8192) == 1


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
    @pytest.mark.parametrize("name", STEPPING_SCENARIOS)
    def test_shipped_runs_never_gain_energy(self, name):
        # the damping is coercive, so sampled energy can only fall, up to
        # rounding of the norm itself
        traj = _run_shipped(name)
        assert np.diff(traj.l2_total).max() <= 1e-14 * traj.l2_total[0]

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
