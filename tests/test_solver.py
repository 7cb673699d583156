"""Grid layout, exact-shift transport, splitting accuracy, and guards.

The discrete evolver is cross-checked against pure array shifts and
against the frequency-side reference on a fully damped run.  Pure
transport is a stripe that covers the domain; damping everywhere is a
stripe outside the light cone of the data.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import damped_wave_system, random_valid_system, three_speed_system
from locdamp.chartimes import UndampedRegion
from locdamp.model import HyperbolicSystem, diagonalize
from locdamp.solver import (
    SPEED_LCM_MAX,
    BoundaryError,
    Bump,
    Grid,
    GridError,
    InitialDataSpec,
    build_grid,
    default_cell_count,
    half_relaxation,
    rational_shifts,
    run,
    sample_steps,
)
from locdamp.norms import BandSplit, freq_split, low_band_sup
from locdamp.spectral import fullspace_evolve


class TestRationalShifts:
    def test_integer_speeds(self):
        v_unit, shifts = rational_shifts([1.0, 2.0, 3.0])
        assert v_unit == 1.0
        assert shifts.tolist() == [1, 2, 3]

    def test_common_factor_extracted(self):
        v_unit, shifts = rational_shifts([1.5, 1.0])
        assert v_unit == 0.5
        assert shifts.tolist() == [3, 2]

    def test_signs_preserved(self):
        v_unit, shifts = rational_shifts([-1.0, 1.0])
        assert v_unit == 1.0
        assert shifts.tolist() == [-1, 1]

    def test_quarter_unit(self):
        v_unit, shifts = rational_shifts([0.75, 0.5])
        assert v_unit == 0.25
        assert shifts.tolist() == [3, 2]

    def test_reconstruction_is_exact(self):
        lams = [-2.5, 0.75, 1.0, 3.0]
        v_unit, shifts = rational_shifts(lams)
        assert np.allclose(shifts * v_unit, lams, rtol=0, atol=0)

    def test_irrational_rejected(self):
        with pytest.raises(GridError, match="not a ratio"):
            rational_shifts([1.0, math.pi])

    def test_huge_common_denominator_rejected(self):
        with pytest.raises(GridError, match="common denominator"):
            rational_shifts([1.0 / 997.0, 1.0 / 993.0])

    def test_zero_speed_rejected(self):
        with pytest.raises(GridError, match="zero speed"):
            rational_shifts([0.0, 1.0])


# Nonzero speeds p/q with small p and q: commensurate by construction.
SPEED_FRACTIONS = st.builds(
    Fraction, st.integers(-24, 24).filter(lambda p: p != 0), st.integers(1, 8)
)


class TestRationalShiftsProperties:
    @settings(max_examples=200, deadline=None)
    @given(fracs=st.lists(SPEED_FRACTIONS, min_size=1, max_size=5))
    def test_shifts_times_unit_recover_the_speeds(self, fracs):
        lams = [float(f) for f in fracs]
        v_unit, shifts = rational_shifts(lams)
        unit = Fraction(v_unit).limit_denominator(SPEED_LCM_MAX)
        assert [int(k) * unit for k in shifts] == fracs
        assert math.gcd(*(int(k) for k in shifts)) == 1
        assert (shifts * v_unit).tolist() == pytest.approx(lams, rel=1e-15, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        fracs=st.lists(SPEED_FRACTIONS, min_size=1, max_size=5),
        scale=st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)),
    )
    def test_common_rescaling_keeps_the_shifts(self, fracs, scale):
        v_unit, shifts = rational_shifts([float(f) for f in fracs])
        v_scaled, shifts_scaled = rational_shifts([float(f * scale) for f in fracs])
        assert np.array_equal(shifts_scaled, shifts)
        assert v_scaled == pytest.approx(v_unit * float(scale), rel=1e-15, abs=0.0)


class TestBuildGridProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        speeds=st.lists(SPEED_FRACTIONS, min_size=1, max_size=3),
        widths=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=3),
        gaps=st.lists(st.floats(0.5, 3.0), min_size=2, max_size=2),
        left=st.floats(-5.0, 5.0),
        margins=st.tuples(st.floats(0.5, 4.0), st.floats(0.5, 4.0)),
        n_cells=st.integers(200, 3000),
    )
    def test_snapping_time_step_and_mask(self, speeds, widths, gaps, left, margins, n_cells):
        # widths and gaps of at least 0.5 stay wider than two cells, since
        # the domain spans at most 23 units over at least 200 cells
        stripes = []
        a = left
        for width, gap in zip(widths, gaps + [0.0]):
            stripes.append((a, a + width))
            a += width + gap
        region = UndampedRegion(stripes=tuple(stripes))
        x_min, x_max = stripes[0][0] - margins[0], stripes[-1][1] + margins[1]
        eigs = diagonalize(np.diag([float(f) for f in speeds]))
        grid = build_grid(eigs, region, x_min, x_max, n_cells)

        assert grid.dt * grid.v_unit == pytest.approx(grid.dx, rel=1e-15, abs=0.0)
        moved = [
            abs(s - o)
            for snapped, orig in zip(grid.region.stripes, region.stripes)
            for s, o in zip(snapped, orig)
        ]
        assert grid.snap_error == max(moved)
        assert grid.snap_error <= 0.5 * grid.dx * (1.0 + 1e-12)

        # snapped edges sit on cell edges, so the undamped cells are whole
        # index ranges
        undamped = np.zeros(n_cells, dtype=bool)
        for sa, sb in grid.region.stripes:
            ka, kb = (sa - x_min) / grid.dx, (sb - x_min) / grid.dx
            assert abs(ka - round(ka)) <= 1e-9 and abs(kb - round(kb)) <= 1e-9
            undamped[round(ka):round(kb)] = True
        assert np.array_equal(grid.damp_mask == 0, undamped)


class TestBuildGrid:
    def test_snapping_and_mask(self):
        eigs = diagonalize(damped_wave_system().a)
        region = UndampedRegion(stripes=((-0.997, 1.004),))
        grid = build_grid(eigs, region, -16.0, 16.0, 3200)
        assert grid.dx == pytest.approx(0.01)
        assert grid.dt == pytest.approx(0.01)
        assert grid.region.stripes[0] == pytest.approx((-1.0, 1.0))
        assert grid.snap_error == pytest.approx(0.004, abs=1e-12)
        assert int((grid.damp_mask == 0).sum()) == 200
        assert grid.guard_cells == 2
        assert grid.shifts.tolist() == [-1, 1]

    def test_default_cell_count(self):
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        assert default_cell_count(region, -16.0, 16.0) == 3200

    def test_mask_matches_centers(self):
        eigs = diagonalize(np.diag([1.0]))
        region = UndampedRegion(stripes=((0.0, 1.0), (2.0, 4.0)))
        grid = build_grid(eigs, region, -4.0, 6.0, 1000)
        undamped = grid.damp_mask == 0
        inside = np.zeros_like(undamped)
        for a, b in region.stripes:
            inside |= (grid.centers > a) & (grid.centers < b)
        assert np.array_equal(undamped, inside)

    def test_time_step_from_slowest_unit(self):
        eigs = diagonalize(np.diag([-1.0, 2.0, 3.0]))
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        grid = build_grid(eigs, region, -8.0, 8.0, 1600)
        assert grid.v_unit == 1.0
        assert grid.dt == pytest.approx(grid.dx)
        assert grid.guard_cells == 3

    def test_narrow_stripe_rejected(self):
        eigs = diagonalize(np.diag([1.0]))
        region = UndampedRegion(stripes=((0.0, 0.001),))
        with pytest.raises(GridError, match="narrower than a cell"):
            build_grid(eigs, region, -4.0, 4.0, 100)

    def test_region_outside_domain_rejected(self):
        eigs = diagonalize(np.diag([1.0]))
        region = UndampedRegion(stripes=((-2.0, 2.0),))
        with pytest.raises(GridError, match="inside the domain"):
            build_grid(eigs, region, -1.0, 4.0, 100)

    def test_bad_domain_and_resolution(self):
        eigs = diagonalize(np.diag([1.0]))
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        with pytest.raises(GridError, match="x_min < x_max"):
            build_grid(eigs, region, 2.0, -2.0, 100)
        with pytest.raises(GridError, match="at least 16"):
            build_grid(eigs, region, -4.0, 4.0, 8)


class TestBump:
    def test_gaussian(self):
        b = Bump(kind="gaussian", component=0, center=1.0, width=0.5)
        assert b.profile(np.array([1.0]))[0] == 1.0
        assert b.profile(np.array([1.5]))[0] == pytest.approx(np.exp(-0.5))
        assert b.half_extent == 4.0

    def test_box(self):
        b = Bump(kind="box", component=0, center=0.0, width=2.0, amplitude=3.0)
        vals = b.profile(np.array([-1.01, -0.99, 0.0, 0.99, 1.01]))
        assert vals.tolist() == [0.0, 3.0, 3.0, 3.0, 0.0]
        assert b.half_extent == 1.0

    def test_cosine(self):
        b = Bump(kind="cosine", component=1, center=0.0, width=2.0)
        assert b.profile(np.array([0.0]))[0] == 1.0
        assert b.profile(np.array([2.0]))[0] == pytest.approx(0.0, abs=1e-30)
        assert b.profile(np.array([2.5]))[0] == 0.0
        assert b.half_extent == 2.0

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown kind"):
            Bump(kind="spike", component=0, center=0.0, width=1.0)
        with pytest.raises(ValueError, match="width"):
            Bump(kind="box", component=0, center=0.0, width=0.0)

    def test_data_spec(self):
        data = InitialDataSpec(
            bumps=(
                Bump(kind="gaussian", component=0, center=-3.0, width=0.25),
                Bump(kind="box", component=1, center=2.0, width=1.0),
            )
        )
        assert data.support() == (-5.0, 2.5)
        xs = np.linspace(-6.0, 4.0, 101)
        u = data.sample(xs, 2)
        assert u.shape == (2, 101)
        assert u[0].max() == pytest.approx(1.0, abs=1e-6)
        assert u[1].max() == 1.0

    def test_data_spec_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            InitialDataSpec(bumps=())
        with pytest.raises(ValueError, match="unknown basis"):
            InitialDataSpec(
                bumps=(Bump(kind="box", component=0, center=0.0, width=1.0),),
                basis="fourier",
            )
        data = InitialDataSpec(
            bumps=(Bump(kind="box", component=5, center=0.0, width=1.0),)
        )
        with pytest.raises(ValueError, match="out of range"):
            data.sample(np.zeros(4), 2)

    def test_sample_names_the_component_field(self):
        data = InitialDataSpec(
            bumps=(Bump(kind="box", component=3, center=0.0, width=1.0),)
        )
        with pytest.raises(ValueError) as err:
            data.sample(np.zeros(4), 2)
        assert str(err.value) == "component: index 3 out of range for 2 components"


class TestPureTransport:
    def test_shift_matches_numpy_roll_exactly(self):
        sys = damped_wave_system()
        region = UndampedRegion(stripes=((-16.0, 16.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="box", component=0, center=2.0, width=0.5),),
            basis="characteristic",
        )
        traj = run(
            sys,
            region,
            data,
            x_min=-16.0,
            x_max=16.0,
            t_final=1.0,
            stride=20,
            n_cells=640,
        )
        grid = traj.grid
        w0 = data.sample(grid.centers, 2)
        # component 0 rides the left-moving characteristic: 20 steps of one
        # cell each, vacated cells filled with zero
        expected = np.roll(w0[0], -20)
        expected[-20:] = 0.0
        assert np.array_equal(traj.final_w[0], expected)
        assert np.array_equal(traj.final_w[1], np.zeros(640))
        assert traj.l2_total[-1] == traj.l2_total[0]

    def test_transport_conserves_all_norms(self):
        sys = three_speed_system()
        region = UndampedRegion(stripes=((-20.0, 20.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="gaussian", component=1, center=0.0, width=0.25),)
        )
        traj = run(
            sys,
            region,
            data,
            x_min=-20.0,
            x_max=20.0,
            t_final=4.0,
            stride=100,
            n_cells=2000,
        )
        assert np.allclose(traj.l2_total, traj.l2_total[0], rtol=1e-12)


class TestSampleSteps:
    def test_stride_divides_the_run(self):
        assert sample_steps(2.0, 0.02, 50) == [0, 50, 100]

    def test_short_last_chunk_kept(self):
        # 1.0 / 0.125 = 8 steps, sampled every 3
        assert sample_steps(1.0, 0.125, 3) == [0, 3, 6, 8]

    def test_stride_longer_than_run(self):
        assert sample_steps(1.0, 0.125, 10**9) == [0, 8]

    def test_input_validation(self):
        with pytest.raises(ValueError, match="t_final: shorter than one time step"):
            sample_steps(1e-6, 0.125, 1)
        with pytest.raises(ValueError, match="stride"):
            sample_steps(1.0, 0.125, 0)


class TestRun:
    def test_time_sampling(self):
        sys = damped_wave_system()
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="gaussian", component=0, center=0.0, width=0.25),)
        )
        traj = run(
            sys,
            region,
            data,
            x_min=-12.0,
            x_max=12.0,
            t_final=2.0,
            stride=50,
            n_cells=1200,
        )
        # dt = 0.02, 100 steps, sampled every 50
        assert traj.times.tolist() == [0.0, 1.0, 2.0]
        assert traj.l2_total.shape == (3,)
        assert traj.comp_l2.shape == (2, 3)

    def test_stride_longer_than_run(self):
        sys = damped_wave_system()
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="gaussian", component=0, center=0.0, width=0.25),)
        )
        traj = run(
            sys,
            region,
            data,
            x_min=-12.0,
            x_max=12.0,
            t_final=1.0,
            stride=10**9,
            n_cells=1200,
        )
        assert traj.times.tolist() == [0.0, 1.0]

    def test_band_split_is_pythagorean(self):
        sys = damped_wave_system()
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="gaussian", component=0, center=0.0, width=0.25),)
        )
        traj = run(
            sys,
            region,
            data,
            x_min=-12.0,
            x_max=12.0,
            t_final=2.0,
            stride=50,
            n_cells=1200,
        )
        assert np.allclose(
            traj.l2_high**2 + traj.l2_low**2, traj.l2_total**2, rtol=1e-12
        )

    def test_physical_basis_projects_to_characteristics(self):
        sys = damped_wave_system()
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="gaussian", component=0, center=0.0, width=0.25),)
        )
        traj = run(
            sys,
            region,
            data,
            x_min=-12.0,
            x_max=12.0,
            t_final=0.1,
            stride=10**9,
            n_cells=1200,
        )
        # at t = 0 the physical component norms match the sampled data
        u0 = data.sample(traj.grid.centers, 2)
        ref = np.sqrt(np.sum(u0**2, axis=1) * traj.grid.dx)
        assert np.allclose(traj.comp_l2[:, 0], ref, rtol=1e-12)

    def test_input_validation(self):
        sys = damped_wave_system()
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="gaussian", component=0, center=0.0, width=0.25),)
        )
        with pytest.raises(ValueError, match="stride"):
            run(
                sys, region, data,
                x_min=-12.0, x_max=12.0, t_final=1.0, stride=0, n_cells=1200,
            )
        with pytest.raises(ValueError, match="t_final"):
            run(
                sys, region, data,
                x_min=-12.0, x_max=12.0, t_final=1e-6, stride=1, n_cells=1200,
            )

    @pytest.mark.parametrize(
        "bump",
        [
            Bump(kind="gaussian", component=0, center=0.0, width=0.25, amplitude=0.0),
            # narrower than a cell and centred on a cell edge: no center inside
            Bump(kind="box", component=0, center=0.0, width=0.004),
        ],
    )
    def test_data_zero_on_grid_rejected(self, bump):
        with pytest.raises(ValueError, match="initial data is zero on the grid"):
            run(
                damped_wave_system(), UndampedRegion(stripes=((-1.0, 1.0),)),
                InitialDataSpec(bumps=(bump,)),
                x_min=-12.0, x_max=12.0, t_final=1.0, stride=1, n_cells=1200,
            )

    def test_data_that_decays_before_the_edge_completes(self):
        # the 8-sigma support would reach x = 82 by t_final, far past the
        # right edge, but damping outside the stripe takes the mass below
        # the guard tolerance before it gets there
        sys = HyperbolicSystem(a=np.array([[1.0]]), n1=0, dd=np.array([[1.0]]))
        data = InitialDataSpec(
            bumps=(Bump(kind="gaussian", component=0, center=0.0, width=0.25),),
            basis="characteristic",
        )
        traj = run(
            sys, UndampedRegion(stripes=((-1.0, 1.0),)), data,
            x_min=-4.0, x_max=40.0, t_final=80.0, stride=400, n_cells=4400,
        )
        assert traj.times[-1] == pytest.approx(80.0)
        assert traj.l2_total[-1] < 1e-14 * traj.l2_total[0]


def _guard_run(data, t_final):
    """Lossless transport on [-8, 8] with 320 cells: dt = 0.05, and the
    two-cell guard bands are cells 0-1 and 318-319."""
    return run(
        damped_wave_system(),
        UndampedRegion(stripes=((-8.0, 8.0),)),
        data,
        x_min=-8.0,
        x_max=8.0,
        t_final=t_final,
        stride=10,
        n_cells=320,
    )


def _unit_cell(component, index):
    """Characteristic data of height 1 on the one cell ``index``."""
    center = -8.0 + 0.05 * (index + 0.5)
    return InitialDataSpec(
        bumps=(Bump(kind="box", component=component, center=center, width=0.05),),
        basis="characteristic",
    )


class TestBoundaryGuard:
    def test_edge_contact_raises_with_step_time(self):
        # unit mass five cells from the right edge on the +1 characteristic:
        # the guard band starts at index 318, contact on step 3
        with pytest.raises(BoundaryError, match="edge guard band"):
            _guard_run(_unit_cell(1, 315), 0.5)

    def test_contact_time_reported(self):
        with pytest.raises(BoundaryError) as err:
            _guard_run(_unit_cell(1, 315), 0.5)
        assert f"near t = {3 * 0.05:.6g};" in str(err.value)

    @pytest.mark.parametrize("component, index", [(1, 319), (1, 318), (0, 0), (0, 1)])
    def test_data_in_the_guard_band_raises_before_any_step(self, component, index):
        # data that starts in a band trips before the first step; from the
        # outermost cells a step would shift it out of the domain unseen
        with pytest.raises(BoundaryError) as err:
            _guard_run(_unit_cell(component, index), 0.5)
        assert "near t = 0;" in str(err.value)

    def test_data_next_to_the_guard_band_moving_inward_completes(self):
        traj = _guard_run(_unit_cell(1, 2), 0.5)
        assert traj.l2_total[-1] == traj.l2_total[0]


def _scalar_edge_run(amplitude):
    # lossless transport that stops with the 8-sigma support edge 0.031
    # short of the right edge: the gaussian tail reaches the guard band but
    # stays below the guard tolerance there
    sigma = 0.2
    sys = HyperbolicSystem(a=np.array([[1.0]]), n1=0, dd=np.array([[1.0]]))
    data = InitialDataSpec(
        bumps=(
            Bump(
                kind="gaussian",
                component=0,
                center=0.0,
                width=sigma,
                amplitude=amplitude,
            ),
        ),
        basis="characteristic",
    )
    return run(
        sys,
        UndampedRegion(stripes=((-10.0, 10.0),)),
        data,
        x_min=-10.0,
        x_max=10.0,
        t_final=10.0 - 0.031 - 8.0 * sigma,
        stride=100,
        n_cells=2000,
    )


def _wave_run(amplitude):
    data = InitialDataSpec(
        bumps=(
            Bump("gaussian", component=0, center=-0.5, width=0.25, amplitude=amplitude),
            Bump("cosine", component=1, center=0.5, width=0.5, amplitude=-0.5 * amplitude),
        )
    )
    return run(
        damped_wave_system(),
        UndampedRegion(stripes=((-1.0, 1.0),)),
        data,
        x_min=-12.0,
        x_max=12.0,
        t_final=6.0,
        stride=50,
        n_cells=2400,
    )


class TestGuardScale:
    """The edge guard is relative to the data's initial sup-norm, so the
    outcome of a run does not depend on the amplitude of its data."""

    @pytest.mark.parametrize("amplitude", [1e-20, 1.0, 1e20])
    def test_tail_near_edge_completes_at_any_amplitude(self, amplitude):
        traj = _scalar_edge_run(amplitude)
        assert traj.l2_total[-1] == pytest.approx(traj.l2_total[0], rel=1e-12)

    @pytest.mark.parametrize("c", [1e-20, 1.0, 1e20])
    def test_run_is_linear_in_the_data(self, c):
        base = _wave_run(1.0)
        scaled = _wave_run(c)
        for name in ("l2_total", "l2_high", "l2_low", "linf", "linf_low", "l1"):
            ref = c * getattr(base, name)
            assert np.allclose(
                getattr(scaled, name), ref, rtol=1e-12, atol=1e-12 * ref.max()
            ), name
        ref_w = c * base.final_w
        scale = np.abs(ref_w).max()
        assert np.allclose(scaled.final_w, ref_w, rtol=0.0, atol=1e-12 * scale)


class TestFreqSplit:
    def test_pure_low_mode(self):
        m, dx = 256, 0.25
        x = dx * np.arange(m)
        w = np.sin(2.0 * np.pi * 5.0 * x / (m * dx))[None, :]
        l2_high, l2_low, low_modes = freq_split(np.fft.rfft(w, axis=1), BandSplit.of(w.shape[1], dx))
        assert l2_high <= 1e-12 * l2_low
        assert low_band_sup(low_modes, m) == pytest.approx(1.0, rel=1e-6)

    def test_pure_high_mode(self):
        m, dx = 256, 0.25
        x = dx * np.arange(m)
        w = np.sin(2.0 * np.pi * 50.0 * x / (m * dx))[None, :]
        l2_high, l2_low, low_modes = freq_split(np.fft.rfft(w, axis=1), BandSplit.of(w.shape[1], dx))
        assert l2_low <= 1e-12 * l2_high
        assert low_band_sup(low_modes, m) <= 1e-12

    def test_parseval_total(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((3, 128))
        dx = 0.1
        l2_high, l2_low, _ = freq_split(np.fft.rfft(w, axis=1), BandSplit.of(w.shape[1], dx))
        direct = np.sqrt(np.sum(w**2) * dx)
        assert np.hypot(l2_high, l2_low) == pytest.approx(direct, rel=1e-12)


class TestStiffDamping:
    """Coercive damping of any strength never adds energy: the half step
    exponentiates only the damped block, which contracts."""

    def test_energy_never_rises_for_any_strength(self):
        # damped_wave at a tenth of its resolution, dd from 1 to 1e300
        data = InitialDataSpec(
            bumps=(
                Bump(kind="gaussian", component=0, center=3.0, width=0.25),
                Bump(kind="gaussian", component=1, center=-3.0, width=0.25),
            )
        )
        for j in range(0, 301, 4):
            sys = HyperbolicSystem(
                a=damped_wave_system().a, n1=1, dd=np.array([[10.0 ** j]])
            )
            traj = run(
                sys, UndampedRegion(stripes=((-1.0, 1.0),)), data,
                x_min=-20.0, x_max=20.0, t_final=12.0, stride=5, n_cells=400,
            )
            l2 = traj.l2_total
            assert np.all(np.diff(l2) <= 1e-12 * l2.max()), f"dd = 1e{j}"

    def test_half_step_fixes_the_undamped_directions(self):
        # to 2 n eps: mapping v to physical components and back alone
        # misses it by up to about n eps
        rng = np.random.default_rng(41)
        for _ in range(40):
            base = random_valid_system(rng)
            eigs = base.eigs
            dt = rng.uniform(0.01, 1.0)
            tol = 2.0 * base.n * np.finfo(float).eps
            for j in range(0, 301, 20):
                sys = HyperbolicSystem(a=base.a, n1=base.n1, dd=base.dd * 10.0 ** j)
                damp_half = half_relaxation(sys, dt)
                for i in range(sys.n1):
                    v = eigs.basis.T[:, i]
                    assert np.abs(damp_half @ v - v).max() <= tol, f"dd x 1e{j}"


class TestAgainstFullspaceReference:
    def test_fully_damped_run_matches_frequency_solution(self):
        # everywhere-active damping is exactly the constant-damping system,
        # so the discrete run must reproduce the frequency-side reference up
        # to the O(dt^2) splitting error; the one stripe lies beyond the
        # 8-sigma light cone of the data, which reaches |x| = 13 by t_final
        sys = damped_wave_system()
        region = UndampedRegion(stripes=((15.0, 16.0),))
        data = InitialDataSpec(
            bumps=(
                Bump(kind="gaussian", component=0, center=-3.0, width=0.25),
                Bump(kind="gaussian", component=1, center=3.0, width=0.25),
            )
        )
        traj = run(
            sys,
            region,
            data,
            x_min=-16.0,
            x_max=16.0,
            t_final=8.0,
            stride=100,
            n_cells=3200,
        )
        x_ref = -32.0 + 0.0625 * np.arange(1024)
        ref = fullspace_evolve(sys, x_ref, data.sample(x_ref, 2), traj.times)
        rel = np.abs(traj.l2_total - ref.l2_total) / ref.l2_total[0]
        assert float(rel.max()) < 1e-4
