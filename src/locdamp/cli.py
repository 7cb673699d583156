"""Command-line front end.

Subcommands: ``check`` (admissibility report), ``times`` (residence-time
table and horizon bounds), ``spectrum`` (decay-rate scan), ``simulate``
(run a scenario and export CSV + summary), ``verify`` (run and check the
decay envelopes; exits nonzero on violations).
"""

from __future__ import annotations

import argparse
import math
import sys as _sys

import numpy as np

from locdamp import harness
from locdamp.chartimes import sharp_delay_table, residence_bound, horizon_bounds
from locdamp.model import diagonalize, validate_system
from locdamp.solver import BoundaryError
from locdamp.spectral import MatrixExpError, gamma_estimate


def _load(path: str) -> harness.Scenario | None:
    try:
        return harness.load_scenario(path)
    except harness.ScenarioError as exc:
        print(f"error: scenario rejected ({len(exc.errors)} problem(s))")
        for msg in exc.errors:
            print(f"  - {msg}")
        return None


def _run(scenario: harness.Scenario) -> harness.ScenarioResult | None:
    # A run can still reject a scenario the loader accepted (data that would
    # reach the edge guard band, data zero on the grid, box bumps for a
    # calibration); ``GridError`` is a ``ValueError``.
    try:
        return harness.run_scenario(scenario)
    except (ValueError, BoundaryError, MatrixExpError) as exc:
        print(f"error: {exc}")
        return None


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 2
    report = validate_system(scenario.system)
    print(f"scenario: {scenario.name}")
    for c in report.checks:
        print(f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    if report.eigs is not None:
        speeds = ", ".join(f"{v:.12g}" for v in report.eigs.lambdas)
        print(f"  speeds: {speeds}  (leftward movers: {report.eigs.p})")
    print(f"  damped-block coercivity: {report.coercivity:.12g}")
    print("admissible" if report.ok else "NOT admissible")
    return 0 if report.ok else 1


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"--t-grid: expected start:stop:step, got {spec!r}")
    start, stop, step = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ValueError("--t-grid: start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise ValueError("--t-grid: need stop >= start and step > 0")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _cmd_times(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 2
    eigs = diagonalize(scenario.system.a)
    region = scenario.region
    tb = residence_bound(eigs, region)
    print(f"scenario: {scenario.name}")
    print(f"residence delay bound: {tb:.17g}")
    if len(region.stripes) == 1:
        b = horizon_bounds(eigs, region)
        if b.slow_pair_lower_defined:
            print(f"conservation horizon lower bound: {b.slow_pair_lower:.17g}")
        if b.exact_three_speed is not None:
            print(f"conservation horizon exact: {b.exact_three_speed:.17g}")
        print(f"conservation horizon upper bound: {b.upper:.17g}")
    try:
        grid = _parse_grid(args.t_grid) if args.t_grid else np.linspace(0.0, 2.0 * tb, 9)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(f"{'t':>24} {'sup_undamped':>24} {'delay':>24}")
    for t, sup, delay in sharp_delay_table(eigs, region, grid):
        print(f"{t:>24.17g} {sup:>24.17g} {delay:>24.17g}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 2
    try:
        scan = gamma_estimate(scenario.system, xi_max=args.xi_max, samples=args.samples)
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    print(f"scenario: {scenario.name}")
    print(f"uniform decay rate: {scan.gamma:.17g}")
    print(f"  attained at frequency {scan.gamma_argmax_xi:.12g}")
    print(f"  tail stabilized: {scan.tail_stabilized}")
    print(f"low-frequency curvature: {scan.c_low:.17g}")
    print(f"  fit residual: {scan.c_low_residual:.3e}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 2
    result = _run(scenario)
    if result is None:
        return 2
    csv_path, summary_path = harness.export(result, args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 2
    if scenario.kind != "verify-envelope":
        print(f"error: scenario kind is {scenario.kind!r}; verify needs 'verify-envelope'")
        return 2
    result = _run(scenario)
    if result is None:
        return 2
    if args.out:
        harness.export(result, args.out)
    env = result.envelope
    assert env is not None
    print(f"scenario: {scenario.name}")
    print(f"delay bound: {env.residence_bound:.12g}  rate: {env.gamma:.12g}")
    print(f"constants: high {env.c_high:.12g}  low {env.c_low:.12g}")
    print(f"checked {env.n_checked} sample times past the delay")
    if env.violations:
        print(f"VIOLATIONS: {len(env.violations)}")
        for v in env.violations:
            print(
                f"  t={v.t:.6g} band={v.band} measured={v.measured:.6g} "
                f"allowed={v.allowed:.6g}"
            )
        return 1
    print("envelopes hold")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="locdamp",
        description="Stripe-damped 1D transport: checks, timings, spectra, runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="admissibility report for a scenario's system")
    p.add_argument("scenario")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("times", help="residence-time table and horizon bounds")
    p.add_argument("scenario")
    p.add_argument("--t-grid", help="time grid as start:stop:step", default=None)
    p.set_defaults(fn=_cmd_times)

    p = sub.add_parser("spectrum", help="frequency scan of the decay rate")
    p.add_argument("scenario")
    p.add_argument("--xi-max", type=float, default=100.0)
    p.add_argument("--samples", type=int, default=400)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("simulate", help="run a scenario and export norms + summary")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("verify", help="run and check the decay envelopes")
    p.add_argument("scenario")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    _sys.exit(main())
