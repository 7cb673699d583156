"""Command-line front end.

Subcommands: ``check`` (admissibility report), ``times`` (residence
bound, conservation horizon and sharp-delay table), ``spectrum``
(decay-rate scan), ``simulate`` (run a scenario and export CSV +
summary), ``verify`` (run and check the decay envelopes).

Exit 1 means ``check`` found the system inadmissible or ``verify`` found an
envelope violation.  Exit 2 means rejected input, handled in ``main`` alone:
a rejected scenario file prints one line per problem, anything else (a bad
option, a system ``times`` cannot use, a run the solver refuses, a ``verify``
horizon with no sample past the delay or rate the scan cannot resolve, an
allocation the machine refuses, an ``--out`` that cannot be written) one line.
"""

from __future__ import annotations

import argparse
import math
import sys as _sys

import numpy as np

from locdamp import harness
from locdamp.chartimes import conservation_horizon, residence_bound, sup_undamped_measure
from locdamp.model import validate_system
from locdamp.solver import BoundaryError
from locdamp.spectral import MatrixExpError, gamma_estimate


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = harness.load_scenario(args.scenario)
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
    if start < 0:
        raise ValueError("--t-grid: start must not be negative")
    if step <= 0 or stop < start:
        raise ValueError("--t-grid: need stop >= start and step > 0")
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _cmd_times(args: argparse.Namespace) -> int:
    scenario = harness.load_scenario(args.scenario)
    region = scenario.region
    # Compute everything before printing, so that a rejected system or
    # --t-grid prints one error line and nothing else.
    eigs = scenario.system.eigs
    tb = residence_bound(eigs, region)
    grid = _parse_grid(args.t_grid) if args.t_grid else np.linspace(0.0, 2.0 * tb, 9)
    horizon, _ = conservation_horizon(eigs, region)
    rows = [(float(t), sup_undamped_measure(eigs, region, float(t))[0]) for t in grid]
    print(f"scenario: {scenario.name}")
    print(f"residence delay bound: {tb:.17g}")
    print(f"conservation horizon: {horizon:.17g}")
    print(f"{'t':>24} {'sup_undamped':>24} {'delay':>24}")
    for t, sup in rows:
        print(f"{t:>24.17g} {sup:>24.17g} {t - sup:>24.17g}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    scenario = harness.load_scenario(args.scenario)
    scan = gamma_estimate(scenario.system, xi_max=args.xi_max, samples=args.samples)
    print(f"scenario: {scenario.name}")
    print(f"uniform decay rate: {scan.gamma:.17g}")
    print(f"  attained at frequency {scan.gamma_argmax_xi:.12g}")
    print(f"  tail stabilized: {scan.tail_stabilized}")
    unresolved = "" if scan.resolved else "  (rate not resolved)"
    print(f"  scan resolution: {scan.resolution:.3e}{unresolved}")
    print(f"low-frequency curvature: {scan.c_low:.17g}")
    print(f"  fit residual: {scan.c_low_residual:.3e}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    result = harness.run_scenario(harness.load_scenario(args.scenario))
    csv_path, summary_path = harness.export(result, args.out)
    print(f"wrote {csv_path}")
    print(f"wrote {summary_path}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = harness.load_scenario(args.scenario)
    if scenario.kind != "verify-envelope":
        raise ValueError(f"scenario kind is {scenario.kind!r}; verify needs 'verify-envelope'")
    result = harness.run_scenario(scenario)
    env = result.envelope
    assert env is not None
    if env.n_checked == 0:
        stride = result.series.times[1] - result.series.times[0]
        raise ValueError(
            f"verify: no sample time to check: t_final {scenario.t_final:.12g} ends "
            f"before the delay {env.residence_bound:.12g} plus one stride {stride:.12g}"
        )
    if args.out:
        harness.export(result, args.out)
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

    p = sub.add_parser("times", help="residence bound, conservation horizon and delay table")
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
    # ScenarioError is a ValueError, so it goes first.  A run can still reject
    # a loaded scenario: edge guard band, zero data, box bumps to calibrate.
    # The loader turns its own OSError into a ScenarioError, so an OSError
    # here comes from writing the outputs.
    try:
        return args.fn(args)
    except harness.ScenarioError as exc:
        print(f"error: scenario rejected ({len(exc.errors)} problem(s))")
        for msg in exc.errors:
            print(f"  - {msg}")
    except (ValueError, BoundaryError, MatrixExpError, MemoryError, OSError) as exc:
        print(f"error: {exc}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    _sys.exit(main())
