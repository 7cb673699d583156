"""Residence-time calculus: frozen hand-derived values plus cross-checks
between the closed forms and the window-level brute-force scans."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import three_speed_scan_oracle
from locdamp.chartimes import (
    UndampedRegion,
    crossing_window,
    geometric_ratio_holds,
    residence_time,
    sharp_delay,
    sup_undamped_measure,
    residence_bound,
    horizon_bounds,
    three_speed_geometry,
    undamped_union,
)
from locdamp.model import EigenStructure


def eigs_of(*speeds):
    return EigenStructure.from_speeds(speeds)


CENTERED = UndampedRegion.centered(1.0)


class TestRegion:
    def test_properties(self):
        reg = UndampedRegion(stripes=((0.0, 1.0), (2.0, 4.0)))
        assert reg.total_length == 3.0
        assert reg.bounds == (0.0, 4.0)
        assert reg.min_width == 1.0
        assert reg.contains(0.5) and reg.contains(3.0)
        assert not reg.contains(1.5) and not reg.contains(1.0)

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
            eigs = EigenStructure.from_speeds(speeds)
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
            eigs = EigenStructure.from_speeds(speeds)
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
            k = int(rng.integers(1, 5))
            eigs = EigenStructure.from_speeds(
                rng.uniform(0.3, 4.0, k) * rng.choice([-1.0, 1.0], size=k)
            )
            edges = np.sort(rng.uniform(-4.0, 4.0, 2 * int(rng.integers(1, 4))))
            reg = UndampedRegion(stripes=tuple(zip(edges[::2], edges[1::2])))
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


class TestHorizonBounds:
    def test_overlap_triple(self):
        b = horizon_bounds(eigs_of(3, 2, 1), CENTERED)
        assert b.slow_pair_lower == pytest.approx(3.0, rel=1e-12)
        assert b.exact_three_speed == pytest.approx(10.0 / 3.0, rel=1e-12)
        assert b.upper == pytest.approx(11.0 / 3.0, rel=1e-12)

    def test_geometric_triple_exact_meets_upper(self):
        b = horizon_bounds(eigs_of(4, 2, 1), CENTERED)
        assert b.exact_three_speed == pytest.approx(3.5, rel=1e-12)
        assert b.upper == pytest.approx(3.5, rel=1e-12)

    def test_gap_triple(self):
        b = horizon_bounds(eigs_of(6, 2, 1), CENTERED)
        assert b.exact_three_speed == pytest.approx(3.0, rel=1e-12)
        assert b.upper == pytest.approx(10.0 / 3.0, rel=1e-12)

    def test_ordering(self):
        for speeds in ((3, 2, 1), (4, 2, 1), (6, 2, 1), (5, 2.5, 0.5)):
            b = horizon_bounds(eigs_of(*speeds), CENTERED)
            assert b.slow_pair_lower <= b.exact_three_speed + 1e-12
            assert b.exact_three_speed <= b.upper + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        speeds=st.sets(
            st.builds(Fraction, st.integers(1, 12), st.integers(1, 4)), min_size=3, max_size=3
        ),
        r=st.builds(Fraction, st.integers(1, 8), st.integers(1, 4)),
    )
    def test_exact_matches_window_scan_on_commensurate_triples(self, speeds, r):
        # The exact horizon is the longest unbroken stretch of the union of
        # the three stripe windows seen from the scanned abutment point,
        # where the middle window starts as the slow one ends.  Small-
        # fraction speeds keep every overlap or gap far above the scan's
        # resolution.
        s3, s2, s1 = (float(s) for s in sorted(speeds))
        r = float(r)
        b = horizon_bounds(eigs_of(s1, s2, s3), UndampedRegion.centered(r))
        o = three_speed_scan_oracle(s1, s2, s3, r)
        windows = sorted(
            (crossing_window(s, (-r, r), o["x2"], o["t2"]) for s in (s1, s2, s3)),
            key=lambda w: w.t_en,
        )
        longest, start, end = 0.0, windows[0].t_en, windows[0].t_ex
        for w in windows[1:]:
            if w.t_en > end + 1e-6:
                longest, start = max(longest, end - start), w.t_en
            end = max(end, w.t_ex)
        longest = max(longest, end - start)
        assert b.exact_three_speed == pytest.approx(longest, abs=1e-6)

    def test_single_speed_has_no_chained_bound(self):
        b = horizon_bounds(eigs_of(1.0), CENTERED)
        assert b.slow_pair_lower is None
        assert b.exact_three_speed is None
        assert b.upper == pytest.approx(2.0, rel=1e-12)

    def test_tied_sign_groups_both_attain(self):
        # 2/3 + 2/1.5 = 2/1: the leftward pair ties the lone rightward speed
        b = horizon_bounds(eigs_of(-3, -1.5, 1), CENTERED)
        assert b.upper == pytest.approx(2.0, rel=1e-12)
        assert b.slow_pair_lower == pytest.approx(2.0, rel=1e-12)

    def test_pair_outside_the_attaining_group_gives_no_bound(self):
        b = horizon_bounds(eigs_of(-3, -1.5, 0.5), CENTERED)
        assert b.upper == pytest.approx(4.0, rel=1e-12)
        assert b.slow_pair_lower is None

    def test_multi_stripe_rejected(self):
        reg = UndampedRegion(stripes=((0.0, 1.0), (2.0, 3.0)))
        with pytest.raises(ValueError, match="single-stripe"):
            horizon_bounds(eigs_of(1, 2), reg)


class TestGeometricRatio:
    def test_exact_ratio_holds(self):
        assert geometric_ratio_holds(eigs_of(4, 2, 1), CENTERED)

    def test_broken_ratio(self):
        assert not geometric_ratio_holds(eigs_of(3, 2, 1), CENTERED)

    def test_two_speeds_vacuous(self):
        assert geometric_ratio_holds(eigs_of(2, 1), CENTERED)


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
