"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (or ``-s`` to see the
criterion lines while passing).  Each test prints exactly one
``[criterion NN] name: PASS|FAIL`` line and fails loudly with the list of
unmet conditions.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    damped_wave_system,
    fit_decay_rate,
    fit_loglog_slope,
    horizon_closed_forms,
    random_valid_system,
    spectral_abscissa,
    symbol,
    three_speed_geometry,
    three_speed_scan_oracle,
    three_speed_system,
)
from locdamp import harness
from locdamp.chartimes import (
    UndampedRegion,
    conservation_horizon,
    sharp_delay,
    sup_undamped_measure,
    residence_bound,
)
from locdamp.model import (
    HyperbolicSystem,
    diagonalize,
    coupling_check_eigvec,
    coupling_check_rank,
    validate_system,
)
from locdamp.solver import Bump, InitialDataSpec, run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class Criterion:
    """Collects named conditions and prints one PASS/FAIL line on exit."""

    def __init__(self, num: int, name: str):
        self.num = num
        self.name = name
        self.failures: list[str] = []

    def check(self, desc: str, cond) -> None:
        if not cond:
            self.failures.append(desc)

    def __enter__(self) -> "Criterion":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        passed = exc_type is None and not self.failures
        print(f"[criterion {self.num:02d}] {self.name}: {'PASS' if passed else 'FAIL'}")
        if exc_type is None and self.failures:
            raise AssertionError(
                f"criterion {self.num:02d} unmet: " + "; ".join(self.failures)
            )
        return False


def test_criterion_01_admissibility_battery():
    with Criterion(1, "admissibility battery") as c:
        t0 = time.perf_counter()
        rep = validate_system(damped_wave_system())
        c.check("damped wave admissible", rep.ok)
        c.check(
            "six named checks",
            {x.name for x in rep.checks}
            == {
                "velocity_symmetric",
                "damping_coercive",
                "speeds_distinct",
                "speeds_nonzero",
                "coupling_eigvec",
                "coupling_rank",
            },
        )
        c.check("three-speed admissible", validate_system(three_speed_system()).ok)

        rep = validate_system(HyperbolicSystem(a=np.eye(2), n1=1, dd=np.eye(1)))
        c.check("identity velocity rejected", not rep.ok)
        c.check(
            "repeated speeds flagged",
            "speeds_distinct" in {x.name for x in rep.checks if not x.passed},
        )
        rep = validate_system(
            HyperbolicSystem(a=np.diag([0.0, 1.0]), n1=1, dd=np.eye(1))
        )
        c.check("zero speed rejected", not rep.ok)

        rng = np.random.default_rng(11)
        for i in range(40):
            want_false = i % 2 == 0
            s = random_valid_system(rng, uncoupled=want_false)
            r1 = coupling_check_eigvec(s.a, s.b)
            r2 = coupling_check_rank(s.a, s.b)
            c.check(f"coupling routes agree on system {i}", r1 == r2)
            if want_false:
                c.check(f"blocked system {i} reported uncoupled", not r1)
        c.check("battery finished within 5 s", time.perf_counter() - t0 < 5.0)


def test_criterion_02_spectral_dichotomy():
    with Criterion(2, "coupling decides frequency-wise decay") as c:
        t0 = time.perf_counter()
        rng = np.random.default_rng(20250823)
        xis = np.logspace(-2, 2, 9)
        n_true = n_false = 0
        for i in range(500):
            want_false = (i % 5) in (0, 1)
            s = random_valid_system(rng, uncoupled=want_false)
            r1 = coupling_check_eigvec(s.a, s.b)
            r2 = coupling_check_rank(s.a, s.b)
            c.check(f"routes agree on system {i}", r1 == r2)
            if want_false:
                c.check(f"blocked system {i} reported uncoupled", not r1)
            mx = max(spectral_abscissa(symbol(s, x)) for x in xis)
            if r1:
                n_true += 1
                c.check(f"coupled system {i} decays at all frequencies", mx < -1e-12)
            else:
                n_false += 1
                c.check(f"uncoupled system {i} keeps a neutral mode", mx >= -1e-9)
        c.check("corpus split 300/200", (n_true, n_false) == (300, 200))
        c.check("scan finished within 30 s", time.perf_counter() - t0 < 30.0)


def test_criterion_03_second_order_splitting():
    with Criterion(3, "splitting error shrinks 4x per refinement") as c:
        sys = damped_wave_system()
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(
                Bump(kind="gaussian", component=0, center=3.0, width=0.25),
                Bump(kind="gaussian", component=1, center=-3.0, width=0.25),
            )
        )
        finals = []
        for cells in (2000, 4000, 8000):
            traj = run(
                sys,
                region,
                data,
                x_min=-20.0,
                x_max=20.0,
                t_final=6.0,
                stride=10**9,
                n_cells=cells,
            )
            finals.append(float(traj.l2_total[-1]))
        e1, e2, e3 = finals
        ratio = (e1 - e2) / (e2 - e3)
        c.check("refinements still differ", abs(e2 - e3) > 0.0)
        c.check(f"error ratio {ratio:.4f} in [3.5, 4.5]", 3.5 <= ratio <= 4.5)


def test_criterion_04_reference_decay_fits():
    with Criterion(4, "reference evolution matches fitted rates") as c:
        t0 = time.perf_counter()
        scenario = harness.load_scenario(SCENARIOS / "fullspace_damped_wave.json")
        result = harness.run_scenario(scenario)
        series = result.series
        from locdamp.spectral import gamma_estimate

        gamma = gamma_estimate(scenario.system).gamma
        fit_high = fit_decay_rate(series.times, series.l2_high, 2.0, 20.0)
        c.check(
            f"high-band rate {fit_high.rate:.5f} within 10% of scan rate {gamma:.5f}",
            abs(fit_high.rate - gamma) <= 0.1 * gamma,
        )
        fit_low = fit_loglog_slope(series.times, series.linf_low, 10.0, 100.0)
        c.check(
            f"low-band slope {fit_low.rate:.5f} in [-0.6, -0.4]",
            -0.6 <= fit_low.rate <= -0.4,
        )
        c.check("fits finished within 30 s", time.perf_counter() - t0 < 30.0)


def test_criterion_05_transport_conserves_energy():
    with Criterion(5, "damping off conserves energy over 10000 steps") as c:
        # a stripe over the whole domain: no cell is damped
        traj = run(
            damped_wave_system(),
            UndampedRegion(stripes=((-120.0, 120.0),)),
            InitialDataSpec(
                bumps=(Bump(kind="gaussian", component=0, center=0.0, width=0.25),)
            ),
            x_min=-120.0,
            x_max=120.0,
            t_final=100.0,
            stride=1000,
            n_cells=24000,
        )
        c.check(
            "ran 10000 steps", round(traj.times[-1] / traj.grid.dt) == 10000
        )
        drift = float(np.abs(traj.l2_total / traj.l2_total[0] - 1.0).max())
        c.check(f"relative energy drift {drift:.3e} <= 1e-12", drift <= 1e-12)


@pytest.mark.parametrize(
    "scenario_name", ["damped_wave.json", "three_speed_321.json"]
)
def test_criterion_06_delayed_envelopes(scenario_name):
    num = 6
    label = f"delayed decay envelopes hold ({scenario_name.removesuffix('.json')})"
    with Criterion(num, label) as c:
        t0 = time.perf_counter()
        result = harness.run_scenario(harness.load_scenario(SCENARIOS / scenario_name))
        env = result.envelope
        c.check("system admissible", result.validation.ok)
        c.check("scan tail stabilized", result.scan.tail_stabilized)
        c.check("envelope report present", env is not None)
        if env is not None:
            c.check("checked at least 100 sample times", env.n_checked >= 100)
            c.check(
                f"no violations (got {len(env.violations)})", not env.violations
            )
        c.check("run finished within 60 s", time.perf_counter() - t0 < 60.0)


def test_criterion_07_horizon_closed_forms():
    label = "single-stripe horizon closed forms match scans and the generic horizon"
    with Criterion(7, label) as c:
        rng = np.random.default_rng(424242)
        cases = {"overlap": 0, "gap": 0, "geometric": 0}
        for i in range(100):
            s3 = rng.uniform(0.5, 2.0)
            s2 = s3 * rng.uniform(1.1, 3.0)
            s1 = s2 * rng.uniform(1.1, 3.0)
            r = rng.uniform(0.5, 2.0)
            geo = three_speed_geometry(s1, s2, s3, r)
            oracle = three_speed_scan_oracle(s1, s2, s3, r)
            cases[geo.case] += 1
            for field in ("t2", "t1", "t_lambda"):
                c.check(
                    f"triple {i} {field} matches scan",
                    abs(getattr(geo, field) - oracle[field]) <= 1e-6,
                )
            for field in ("x2", "x1"):
                c.check(
                    f"triple {i} {field} matches scan",
                    abs(getattr(geo, field) - oracle[field]) <= 1e-5,
                )
            exact = horizon_closed_forms((s1, s2, s3), 2.0 * r).exact_three_speed
            h, _ = conservation_horizon(
                diagonalize(np.diag([s1, s2, s3])), UndampedRegion.centered(r)
            )
            c.check(
                f"triple {i} generic horizon {h!r} matches closed form {exact!r}",
                abs(h - exact) <= 1e-12 * exact,
            )
        c.check("both window regimes sampled", cases["overlap"] > 0 and cases["gap"] > 0)


def test_criterion_08_three_speed_residence_landmarks():
    with Criterion(8, "speeds (3,2,1) residence landmarks") as c:
        eigs = diagonalize(np.diag([1.0, 2.0, 3.0]))
        region = UndampedRegion.centered(1.0)

        sup4, arg4 = sup_undamped_measure(eigs, region, 4.0)
        c.check(f"sup at t=4 is 10/3 (got {sup4:.6f})", abs(sup4 - 10.0 / 3.0) <= 0.01)
        c.check(f"argmax at t=4 is x=3 (got {arg4:.4f})", abs(arg4 - 3.0) <= 0.05)

        delay = sharp_delay(eigs, region, 10.0 / 3.0)
        c.check(
            f"delay at t=10/3 is 4/9 (got {delay:.6f})", abs(delay - 4.0 / 9.0) <= 0.01
        )

        tb = residence_bound(eigs, region)
        c.check(f"residence bound 11/3 (got {tb:.12f})", abs(tb - 11.0 / 3.0) <= 1e-9)
        saturated = None
        for t in np.arange(5.5, 6.5001, 0.05):
            sup, _ = sup_undamped_measure(eigs, region, float(t))
            if sup >= tb * (1.0 - 1e-9):
                saturated = float(t)
                break
        c.check("supremum saturates", saturated is not None)
        if saturated is not None:
            c.check(
                f"saturation near t=6 (got {saturated:.3f})",
                abs(saturated - 6.0) <= 0.05 + 1e-9,
            )


def test_criterion_09_conservation_probes():
    with Criterion(9, "probe onsets match crossing predictions") as c:
        onsets = {}
        for name in ("probe_scalar", "probe_321", "probe_421"):
            result = harness.run_scenario(
                harness.load_scenario(SCENARIOS / f"{name}.json")
            )
            p = result.probe
            c.check(f"{name}: probe report present", p is not None)
            if p is None:
                continue
            c.check(
                f"{name}: plateau >= 0.99 (got {p.plateau_min:.6f})",
                p.plateau_min >= 0.99,
            )
            c.check(
                f"{name}: onset {p.onset:.4f} within one stride of "
                f"prediction {p.t_pred:.4f}",
                abs(p.onset - p.t_pred) <= p.stride_dt + 1e-9,
            )
            onsets[name] = p.onset
        c.check(
            "slower stripe exit never precedes faster",
            onsets["probe_421"] >= onsets["probe_321"] >= onsets["probe_scalar"],
        )


def test_criterion_10_multi_stripe_residence_cap():
    with Criterion(10, "two-stripe residence never exceeds its bound") as c:
        scenario = harness.load_scenario(SCENARIOS / "stripes_two.json")
        eigs = diagonalize(scenario.system.a)
        region = scenario.region
        tb = residence_bound(eigs, region)
        sups = []
        for t in np.arange(0.0, 50.0001, 2.5):
            sup, _ = sup_undamped_measure(eigs, region, float(t))
            sups.append(sup)
            c.check(
                f"sup at t={t:g} below bound {tb:.6f} (got {sup:.6f})",
                sup <= tb + 1e-9,
            )
        c.check(
            f"bound attained in the long run (final sup {sups[-1]:.6f})",
            sups[-1] >= tb - 1e-6,
        )
