"""Residence-time calculus: frozen hand-derived values plus cross-checks
of the exact suprema against window-level brute-force scans and the
paper's closed forms."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    crossing_window,
    horizon_closed_forms,
    region_contains,
    residence_time,
    three_speed_geometry,
    three_speed_scan_oracle,
    undamped_union,
)
from locdamp import chartimes
from locdamp.chartimes import (
    UndampedRegion,
    conservation_horizon,
    sharp_delay,
    sup_undamped_measure,
    residence_bound,
)
from locdamp.model import diagonalize


def eigs_of(*speeds):
    return diagonalize(np.diag(speeds))


CENTERED = UndampedRegion.centered(1.0)


def random_geometry(rng):
    """1-4 speeds of either sign and 1-3 stripes inside [-4, 4]."""
    k = int(rng.integers(1, 5))
    speeds = rng.uniform(0.3, 4.0, k) * rng.choice([-1.0, 1.0], size=k)
    edges = np.sort(rng.uniform(-4.0, 4.0, 2 * int(rng.integers(1, 4))))
    return speeds, UndampedRegion(stripes=tuple(zip(edges[::2], edges[1::2])))


def longest_run(eigs, region, x0, t0):
    ivals, _ = undamped_union(eigs, region, x0, t0)
    return max(e - s for s, e in ivals) if ivals else 0.0


class TestRegion:
    def test_properties(self):
        reg = UndampedRegion(stripes=((0.0, 1.0), (2.0, 4.0)))
        assert reg.total_length == 3.0
        assert reg.bounds == (0.0, 4.0)
        assert reg.min_width == 1.0
        assert region_contains(reg, 0.5) and region_contains(reg, 3.0)
        assert not region_contains(reg, 1.5) and not region_contains(reg, 1.0)

    def test_rejects_reversed_stripe(self):
        with pytest.raises(ValueError, match="a < b"):
            UndampedRegion(stripes=((1.0, 0.0),))

    def test_rejects_overlapping_stripes(self):
        with pytest.raises(ValueError, match="disjoint"):
            UndampedRegion(stripes=((0.0, 2.0), (1.0, 3.0)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            UndampedRegion(stripes=())


class TestCrossingWindow:
    def test_right_mover_inside_history(self):
        w = crossing_window(2.0, (-1.0, 1.0), 5.0, 4.0)
        assert w.t_en == pytest.approx(1.0, abs=1e-14)
        assert w.t_ex == pytest.approx(2.0, abs=1e-14)

    def test_window_fully_before_start_is_empty(self):
        w = crossing_window(1.0, (-1.0, 1.0), 5.0, 2.0)
        assert w.t_en == 0.0 and w.t_ex == 0.0
        assert w.empty

    def test_left_mover(self):
        w = crossing_window(-1.0, (-1.0, 1.0), -3.0, 10.0)
        assert w.t_en == pytest.approx(6.0, abs=1e-14)
        assert w.t_ex == pytest.approx(8.0, abs=1e-14)

    def test_clamped_at_final_time(self):
        w = crossing_window(1.0, (-1.0, 1.0), 0.0, 5.0)
        assert w.t_en == pytest.approx(4.0, abs=1e-14)
        assert w.t_ex == pytest.approx(5.0, abs=1e-14)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            crossing_window(0.0, (-1.0, 1.0), 0.0, 1.0)

    def test_entry_before_exit_always(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            lam = rng.uniform(0.1, 4.0) * rng.choice([-1.0, 1.0])
            a = rng.uniform(-5, 5)
            stripe = (a, a + rng.uniform(0.1, 3.0))
            x0 = rng.uniform(-10, 10)
            t0 = rng.uniform(0.0, 12.0)
            w = crossing_window(lam, stripe, x0, t0)
            assert 0.0 <= w.t_en <= w.t_ex <= t0
            # an unclamped window's endpoints land on the stripe edges
            if 0.0 < w.t_en and w.t_ex < t0 and not w.empty:
                upstream = stripe[0] if lam > 0 else stripe[1]
                downstream = stripe[1] if lam > 0 else stripe[0]
                assert x0 - lam * (t0 - w.t_en) == pytest.approx(upstream, abs=1e-9)
                assert x0 - lam * (t0 - w.t_ex) == pytest.approx(downstream, abs=1e-9)


class TestResidenceAndUnion:
    def test_two_stripe_residence(self):
        reg = UndampedRegion(stripes=((0.0, 1.0), (2.0, 4.0)))
        assert residence_time(1.0, reg, 10.0, 20.0) == pytest.approx(3.0, abs=1e-13)

    def test_residence_bounded_by_length_over_speed(self):
        rng = np.random.default_rng(11)
        reg = UndampedRegion(stripes=((-2.0, -1.0), (0.0, 1.5)))
        for _ in range(200):
            lam = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            r = residence_time(lam, reg, rng.uniform(-8, 8), rng.uniform(0, 20))
            assert r <= reg.total_length / abs(lam) + 1e-12

    def test_union_three_speeds_late_point(self):
        ivals, measure = undamped_union(eigs_of(3, 2, 1), CENTERED, 5.0, 6.0)
        assert len(ivals) == 2
        assert ivals[0] == pytest.approx((0.0, 2.0), abs=1e-12)
        assert ivals[1] == pytest.approx((3.0, 14.0 / 3.0), abs=1e-12)
        assert measure == pytest.approx(11.0 / 3.0, abs=1e-12)

    def test_union_three_speeds_merged_point(self):
        ivals, measure = undamped_union(eigs_of(3, 2, 1), CENTERED, 3.0, 4.0)
        assert len(ivals) == 1
        assert ivals[0] == pytest.approx((0.0, 10.0 / 3.0), abs=1e-12)
        assert measure == pytest.approx(10.0 / 3.0, abs=1e-12)

    def test_union_measure_matches_time_sampling(self):
        # second route: rasterize the union on a fine time grid
        rng = np.random.default_rng(23)
        reg = UndampedRegion(stripes=((-1.5, -0.5), (0.5, 1.0)))
        for _ in range(20):
            k = int(rng.integers(1, 4))
            speeds = (0.3 + np.cumsum(rng.uniform(0.2, 1.0, k))) * rng.choice(
                [-1.0, 1.0], size=k
            )
            eigs = diagonalize(np.diag(speeds))
            x0 = rng.uniform(-6, 6)
            t0 = rng.uniform(1.0, 10.0)
            ivals, measure = undamped_union(eigs, reg, x0, t0)
            for (s1, e1), (s2, e2) in zip(ivals, ivals[1:]):
                assert e1 < s2
            ts = np.linspace(0.0, t0, 4001)
            covered = np.zeros_like(ts, dtype=bool)
            for lam in speeds:
                for stripe in reg.stripes:
                    w = crossing_window(float(lam), stripe, x0, t0)
                    covered |= (ts >= w.t_en) & (ts <= w.t_ex) & (w.t_ex > w.t_en)
            approx = covered.mean() * t0
            assert measure == pytest.approx(approx, abs=6 * t0 / 4000)


class TestSupScan:
    def test_scalar_saturates_at_crossing_time(self):
        sup, arg = sup_undamped_measure(eigs_of(1.0), CENTERED, 10.0)
        assert sup == pytest.approx(2.0, abs=1e-12)
        assert arg == pytest.approx(1.0, abs=1e-9)

    def test_three_speed_merged_peak(self):
        sup, arg = sup_undamped_measure(eigs_of(3, 2, 1), CENTERED, 4.0)
        assert sup == pytest.approx(10.0 / 3.0, abs=1e-12)
        assert arg == pytest.approx(3.0, abs=1e-9)

    def test_three_speed_saturated_peak(self):
        sup, arg = sup_undamped_measure(eigs_of(3, 2, 1), CENTERED, 6.0)
        assert sup == pytest.approx(11.0 / 3.0, abs=1e-12)
        assert arg == pytest.approx(5.0, abs=1e-9)

    def test_sup_never_exceeds_residence_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            k = int(rng.integers(1, 4))
            speeds = (0.4 + np.cumsum(rng.uniform(0.2, 1.0, k))) * rng.choice(
                [-1.0, 1.0], size=k
            )
            eigs = diagonalize(np.diag(speeds))
            reg = UndampedRegion(stripes=((-1.0, 1.0),))
            bound = residence_bound(eigs, reg)
            for t in (0.5, 2.0, 7.0):
                sup, _ = sup_undamped_measure(eigs, reg, t)
                assert sup <= min(t, bound) * (1.0 + 1e-9) + 1e-12

    def test_sweep_matches_scalar_union(self):
        # the sup is exact: the scalar merge of ``undamped_union`` attains it
        # at the returned arg and never exceeds it on a fine grid of x
        rng = np.random.default_rng(61)
        for _ in range(20):
            speeds, reg = random_geometry(rng)
            eigs = diagonalize(np.diag(speeds))
            for t in (0.7, 2.5, 9.0):
                xs = np.linspace(-45.0, 45.0, 2001)
                measures = np.array([undamped_union(eigs, reg, x, t)[1] for x in xs])
                sup, arg = sup_undamped_measure(eigs, reg, t)
                tol = 1e-12 * t
                assert measures.max() <= sup + tol
                assert undamped_union(eigs, reg, arg, t)[1] == pytest.approx(sup, abs=tol)

    def test_narrow_stripe_long_horizon(self):
        # the sup needs a handful of breakpoints, however long the horizon
        # and however narrow the stripe
        eigs = eigs_of(-1.0, 1.0)
        reg = UndampedRegion(stripes=((-0.01, 0.01),))
        tracemalloc.start()
        try:
            sup, _ = sup_undamped_measure(eigs, reg, 1000.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sup == pytest.approx(0.02, abs=1e-12 * 1000.0)
        assert peak < 100 * 2**20

    def test_memory_bounded_in_stripes(self):
        # 32 stripes x 4 speeds: about 12 000 breakpoints each for the
        # horizon and for t = 10, against 128 windows; one sweep over all
        # of them at once peaks at about 130 MB
        edges = np.sort(np.random.default_rng(3).uniform(-8.0, 8.0, 64))
        reg = UndampedRegion(stripes=tuple(zip(edges[::2], edges[1::2])))
        eigs = eigs_of(-2.3, -0.7, 1.1, 3.7)
        tracemalloc.start()
        try:
            conservation_horizon(eigs, reg)
            sup_undamped_measure(eigs, reg, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            sup_undamped_measure(eigs_of(1.0, 0.0), CENTERED, 1.0)

    def test_pass_size_moves_no_bit(self, monkeypatch):
        # the sweep's passes split only the points, so passes of a handful
        # of points give the bits of one pass over all of them, at every
        # breakpoint; 4 speeds x 5 stripes, so sums of 8 or more windows
        rng = np.random.default_rng(67)
        for _ in range(10):
            speeds = rng.uniform(0.3, 4.0, 4) * rng.choice([-1.0, 1.0], size=4)
            edges = np.sort(rng.uniform(-4.0, 4.0, 10))
            reg = UndampedRegion(stripes=tuple(zip(edges[::2], edges[1::2])))
            xs = chartimes._breakpoints(speeds, reg, 2.5)
            want = chartimes._union_measures(speeds, reg, xs, 2.5)
            monkeypatch.setattr(chartimes, "SWEEP_ENTRIES", 1)
            got = chartimes._union_measures(speeds, reg, xs, 2.5)
            monkeypatch.undo()
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


class TestTauBar:
    def test_mixed_sign_groups(self):
        assert residence_bound(eigs_of(-1, 2, 4), CENTERED) == pytest.approx(2.0, rel=1e-12)

    def test_same_sign_sum(self):
        assert residence_bound(eigs_of(3, 2, 1), CENTERED) == pytest.approx(
            11.0 / 3.0, rel=1e-12
        )

    def test_two_stripes_two_speeds(self):
        reg = UndampedRegion(stripes=((0.0, 1.0), (2.0, 4.0)))
        assert residence_bound(eigs_of(1, 2), reg) == pytest.approx(4.5, rel=1e-12)


class TestThreeSpeedGeometry:
    def test_overlap_case_values(self):
        g = three_speed_geometry(3.0, 2.0, 1.0, 1.0)
        assert g.case == "overlap"
        assert g.x2 == pytest.approx(3.0, rel=1e-12)
        assert g.t2 == pytest.approx(4.0, rel=1e-12)
        assert g.x1 == pytest.approx(5.0, rel=1e-12)
        assert g.t1 == pytest.approx(6.0, rel=1e-12)
        assert g.t_lambda == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_geometric_case(self):
        g = three_speed_geometry(4.0, 2.0, 1.0, 1.0)
        assert g.case == "geometric"
        assert g.t_lambda == 0.0

    def test_gap_case(self):
        g = three_speed_geometry(6.0, 2.0, 1.0, 1.0)
        assert g.case == "gap"
        assert g.t_lambda == 0.0

    def test_rejects_unsorted_or_flat(self):
        with pytest.raises(ValueError):
            three_speed_geometry(1.0, 2.0, 3.0, 1.0)
        with pytest.raises(ValueError):
            three_speed_geometry(3.0, 3.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            three_speed_geometry(3.0, 2.0, 1.0, 0.0)

    def test_matches_window_scan(self):
        for s1, s2, s3, r in ((3.0, 2.0, 1.0, 1.0), (5.0, 1.5, 0.7, 0.8), (4.0, 2.0, 1.0, 2.0)):
            g = three_speed_geometry(s1, s2, s3, r)
            o = three_speed_scan_oracle(s1, s2, s3, r)
            assert o["t2"] == pytest.approx(g.t2, abs=1e-6)
            assert o["x2"] == pytest.approx(g.x2, abs=1e-5)
            assert o["t1"] == pytest.approx(g.t1, abs=1e-6)
            assert o["x1"] == pytest.approx(g.x1, abs=1e-5)
            assert o["t_lambda"] == pytest.approx(g.t_lambda, abs=1e-6)


def check_closed_forms(speeds, horizon, forms):
    """The generic horizon on the centered unit stripe is ``horizon``, the
    closed forms (slow-pair lower, exact three-speed, upper) are ``forms``
    (``None`` where one does not apply), and the horizon lies between the
    bounds and meets the exact value, all to 1e-12 relative."""
    h, _ = conservation_horizon(eigs_of(*speeds), CENTERED)
    assert h == pytest.approx(horizon, rel=1e-12)
    b = horizon_closed_forms(speeds, CENTERED.total_length)
    for value, want in zip((b.slow_pair_lower, b.exact_three_speed, b.upper), forms):
        assert (value is None) == (want is None)
        if want is not None:
            assert value == pytest.approx(want, rel=1e-12)
    if b.slow_pair_lower is not None:
        assert b.slow_pair_lower <= h * (1.0 + 1e-12)
    if b.exact_three_speed is not None:
        assert h == pytest.approx(b.exact_three_speed, rel=1e-12)
    assert h <= b.upper * (1.0 + 1e-12)
    assert b.upper == pytest.approx(residence_bound(eigs_of(*speeds), CENTERED), rel=1e-12)


class TestHorizonBounds:
    def test_overlap_triple(self):
        check_closed_forms((3, 2, 1), 10 / 3, (3.0, 10 / 3, 11 / 3))

    def test_geometric_triple_exact_meets_upper(self):
        check_closed_forms((4, 2, 1), 3.5, (3.0, 3.5, 3.5))

    def test_gap_triple(self):
        check_closed_forms((6, 2, 1), 3.0, (3.0, 3.0, 10 / 3))
        # a gap too, but the chain at the fast/middle abutment is longer
        check_closed_forms((2, 4 / 3, 1), 4.0, (3.5, 4.0, 4.5))

    def test_ordering(self):
        # lower <= horizon <= upper is asserted for every case here
        check_closed_forms((5, 2.5, 0.5), 4.9, (4.8, 4.9, 5.2))

    @settings(max_examples=100, deadline=None)
    @given(
        speeds=st.sets(
            st.builds(Fraction, st.integers(1, 12), st.integers(1, 4)), min_size=3, max_size=3
        ),
        r=st.builds(Fraction, st.integers(1, 8), st.integers(1, 4)),
    )
    def test_exact_matches_window_scan_on_commensurate_triples(self, speeds, r):
        # The horizon is the longest unbroken stretch of the union of the
        # three stripe windows seen from one of the two scanned abutment
        # points: where the middle window starts as the slow one ends
        # (x2, t2), or as the fast one ends (x1, t1).  Small-fraction speeds
        # keep every overlap or gap far above the scan's resolution.
        s3, s2, s1 = (float(s) for s in sorted(speeds))
        r = float(r)
        h, _ = conservation_horizon(eigs_of(s1, s2, s3), UndampedRegion.centered(r))
        o = three_speed_scan_oracle(s1, s2, s3, r)
        longest = 0.0
        for x0, t0 in ((o["x2"], o["t2"]), (o["x1"], o["t1"])):
            windows = sorted(
                (crossing_window(s, (-r, r), x0, t0) for s in (s1, s2, s3)),
                key=lambda w: w.t_en,
            )
            start, end = windows[0].t_en, windows[0].t_ex
            for w in windows[1:]:
                if w.t_en > end + 1e-6:
                    longest, start = max(longest, end - start), w.t_en
                end = max(end, w.t_ex)
            longest = max(longest, end - start)
        assert h == pytest.approx(longest, abs=1e-6)

    def test_single_speed_has_no_chained_bound(self):
        check_closed_forms((1,), 2.0, (None, None, 2.0))
        check_closed_forms((-1, 1), 2.0, (None, None, 2.0))

    def test_tied_sign_groups_both_attain(self):
        # 2/3 + 2/1.5 = 2/1: the leftward pair ties the lone rightward speed
        check_closed_forms((-3, -1.5, 1), 2.0, (2.0, None, 2.0))

    def test_pair_outside_the_attaining_group_gives_no_bound(self):
        check_closed_forms((-3, -1.5, 0.5), 4.0, (None, None, 4.0))


class TestGeometricRatio:
    """Three same-sign speeds chain into one run as long as the residence
    bound exactly when s2^2 = s1 s3; fewer speeds always do."""

    @staticmethod
    def meets_bound(*speeds):
        h, _ = conservation_horizon(eigs_of(*speeds), CENTERED)
        bound = residence_bound(eigs_of(*speeds), CENTERED)
        return abs(h - bound) <= 1e-12 * bound

    def test_exact_ratio_holds(self):
        assert self.meets_bound(4, 2, 1)
        assert self.meets_bound(-4, -2, -1)

    def test_broken_ratio(self):
        assert not self.meets_bound(3, 2, 1)

    def test_two_speeds_vacuous(self):
        assert self.meets_bound(2, 1)
        check_closed_forms((1, 2), 3.0, (3.0, None, 3.0))

    @settings(max_examples=100, deadline=None)
    @given(
        s3=st.builds(Fraction, st.integers(1, 8), st.integers(1, 4)),
        q=st.builds(Fraction, st.integers(5, 16), st.integers(1, 4)),
        stretch=st.one_of(
            st.just(Fraction(1)), st.builds(Fraction, st.integers(1, 24), st.integers(1, 8))
        ),
        r=st.builds(Fraction, st.integers(1, 8), st.integers(1, 4)),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_meets_the_bound_exactly_at_geometric_speeds(self, s3, q, stretch, r, sign):
        # Three same-sign speeds: the windows chain into one run of the
        # residence bound's length only when s2^2 = s1 s3, where rounding
        # can leave the touching windows a few ulps apart.
        s2 = s3 * q
        s1 = s2 * q * stretch
        assume(s1 > s2)
        eigs = eigs_of(*(sign * float(s) for s in (s1, s2, s3)))
        reg = UndampedRegion.centered(float(r))
        h, _ = conservation_horizon(eigs, reg)
        bound = residence_bound(eigs, reg)
        assert (abs(h - bound) <= 1e-12 * bound) == (s2 * s2 == s1 * s3)


class TestConservationHorizon:
    def test_two_stripes(self):
        # stripes_two's geometry: the horizon stays below the residence bound
        reg = UndampedRegion(stripes=((0.0, 1.0), (2.0, 4.0)))
        h, _ = conservation_horizon(eigs_of(1, 2), reg)
        assert h == pytest.approx(3.0, rel=1e-12)
        assert residence_bound(eigs_of(1, 2), reg) == pytest.approx(4.5, rel=1e-12)

    def test_matches_fine_grid_on_any_stripes(self):
        # Independent oracle: merge each point's windows with
        # ``undamped_union`` at a t past all of them.  No point of a wide
        # grid beats the horizon, and a fine grid around its argument
        # reaches it within the run's largest slope in x, 2 / min|lam|.
        rng = np.random.default_rng(97)
        for _ in range(8):
            speeds, reg = random_geometry(rng)
            eigs = diagonalize(np.diag(speeds))
            h, arg = conservation_horizon(eigs, reg)
            reach = max(abs(arg), 4.0) + 1.0
            t = 4.0 * reach / np.abs(speeds).min()
            dx = 1e-4
            wide = [longest_run(eigs, reg, x, t) for x in np.linspace(-reach, reach, 1601)]
            near = [longest_run(eigs, reg, x, t) for x in arg + dx * np.arange(-400, 401)]
            assert max(wide + near) <= h * (1.0 + 1e-12)
            assert h - max(near) <= 2.0 * dx / np.abs(speeds).min()

    def test_invariances(self):
        # faster speeds shorten the horizon in proportion; moving or
        # mirroring the whole geometry leaves it alone
        rng = np.random.default_rng(101)
        for _ in range(30):
            speeds, reg = random_geometry(rng)
            h, _ = conservation_horizon(diagonalize(np.diag(speeds)), reg)
            c = rng.uniform(0.2, 5.0)
            scaled, _ = conservation_horizon(diagonalize(np.diag(c * speeds)), reg)
            assert scaled == pytest.approx(h / c, rel=1e-12)
            shift = rng.uniform(-3.0, 3.0)
            moved = UndampedRegion(stripes=tuple((a + shift, b + shift) for a, b in reg.stripes))
            assert conservation_horizon(
                diagonalize(np.diag(speeds)), moved
            )[0] == pytest.approx(h, rel=1e-12)
            mirror = UndampedRegion(stripes=tuple((-b, -a) for a, b in reversed(reg.stripes)))
            assert conservation_horizon(
                diagonalize(np.diag(-speeds)), mirror
            )[0] == pytest.approx(h, rel=1e-12)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            conservation_horizon(eigs_of(1.0, 0.0), CENTERED)


class TestSharpDelay:
    def test_scalar_past_saturation(self):
        assert sharp_delay(eigs_of(1.0), CENTERED, 5.0) == pytest.approx(3.0, abs=1e-9)

    def test_three_speed_past_saturation(self):
        d = sharp_delay(eigs_of(3, 2, 1), CENTERED, 10.0)
        assert d == pytest.approx(10.0 - 11.0 / 3.0, abs=1e-9)

    def test_full_coverage_window(self):
        # some point's whole history stays covered up to twice the stripe
        # half-width over the slow speed, and no longer
        eigs = eigs_of(3, 2, 1)
        assert sharp_delay(eigs, CENTERED, 1.5) == pytest.approx(0.0, abs=1e-9)
        assert sharp_delay(eigs, CENTERED, 2.0) == pytest.approx(0.0, abs=1e-9)
        assert sharp_delay(eigs, CENTERED, 2.2) > 1e-3

    def test_three_speed_mid_transition_value(self):
        # between full coverage and saturation: best point covers 26/9 of
        # its history of length 10/3, leaving a gap of 4/9
        d = sharp_delay(eigs_of(3, 2, 1), CENTERED, 10.0 / 3.0)
        assert d == pytest.approx(4.0 / 9.0, abs=1e-12)

    def test_table_rows_consistent(self):
        # the rows of `locdamp times`: the sup grows with t, delay = t - sup
        eigs = eigs_of(2, 1)
        ts = [0.0, 1.0, 2.0, 4.0, 8.0]
        sups = [sup_undamped_measure(eigs, CENTERED, t)[0] for t in ts]
        assert sups == sorted(sups)
        for t, sup in zip(ts, sups):
            assert sharp_delay(eigs, CENTERED, t) == t - sup
