"""Scenario orchestration: load, run, verify, export.

A scenario JSON file fixes the system, the stripe geometry, the grid, and
the initial data.  Three kinds are supported: ``verify-envelope`` runs the
localized-damping solver and checks its norms against delayed decay
envelopes whose constants are read off the constant-damping system's
symbol; ``conservation-probe``
tracks the loss-free plateau of a bump seeded on one characteristic inside
a stripe; ``fullspace`` runs the periodic reference evolution alone.

Reruns of the same scenario write byte-identical CSV and summary files.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from locdamp import solver
from locdamp.chartimes import UndampedRegion, residence_bound
from locdamp.model import EigenStructure, HyperbolicSystem, ValidationReport, validate_system
from locdamp.norms import NORM_COLUMNS, NormSeries, low_band_bound, low_band_envelope, low_band_sup
from locdamp.spectral import (
    RATE_RESOLUTION_FACTOR,
    SpectralScan,
    fullspace_evolve,
    gamma_estimate,
    propagator_sup,
)

SCENARIO_KINDS = ("verify-envelope", "conservation-probe", "fullspace")
# Envelope bookkeeping: multiplicative slack allowed at verification time,
# and the relative norm floor below which a band is considered numerically
# empty.
ENVELOPE_SLACK = 1.05
NORM_FLOOR_RTOL = 1e-14
# Coercive damping never adds energy: a run whose l2_total rises between
# two samples by more than this share of its peak is refused.
ENERGY_RISE_RTOL = 1e-12
# The probe's plateau ends when total energy first drops below this
# fraction of its initial value.
ONSET_FRACTION = 0.99
# The ``fullspace`` kind's default resolution: grid points per narrowest
# bump width.
REF_POINTS_PER_SIGMA = 4

CSV_NAME = "norms.csv"
SUMMARY_NAME = "summary.json"


class ScenarioError(ValueError):
    """Scenario file rejected; ``errors`` lists one message per problem."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str
    system: HyperbolicSystem
    region: UndampedRegion
    x_min: float
    x_max: float
    n_cells: int | None
    t_final: float
    stride: int
    data: solver.InitialDataSpec


# ---------------------------------------------------------------------------
# strict loader
# ---------------------------------------------------------------------------

# The scenario-file schema, shaped like the JSON it checks.  A dict is an
# object; its keys ending in "?" are optional.  A one-item list is a list of
# that item.  ``float`` is a finite number, ``int`` an integer, ``str`` a
# string.  A triple ``(rule, test, message)`` adds a value rule, tried once
# ``rule`` holds.  A pair ``(rule, build)`` turns a value that passed
# ``rule`` into ``build(**value)``; a ``ValueError`` from ``build`` names a
# field of ``value``, and the walker puts the path of ``value`` in front: the
# shapes and values of the system, region and data are their builders' rules.
_BUMP = {"kind": str, "component": int, "center": float, "width": float, "amplitude?": float}
SCHEMA = {
    "name": str,
    "kind": (str, lambda v: v in SCENARIO_KINDS, f"expected one of {SCENARIO_KINDS}, got {{!r}}"),
    "system": ({"a": [[float]], "n1": int, "dd": [[float]]}, HyperbolicSystem),
    "region": ({"stripes": [[float]]}, UndampedRegion),
    "domain": {"x_min": float, "x_max": float, "n_cells?": int},
    "time": {
        "t_final": (float, lambda v: v > 0.0, "must be positive"),
        "stride": (int, lambda v: v >= 1, "must be at least 1"),
    },
    "initial_data": ({"bumps": [(_BUMP, solver.Bump)], "basis?": str}, solver.InitialDataSpec),
}
_EXPECTED = {str: "a string", int: "an integer"}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value: Any) -> bool:
    # JSON admits NaN and Infinity, and integers too large for a float.
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def _check(value: Any, rule: Any, path: str, errors: list[str]) -> Any:
    """Check ``value`` against the schema ``rule``, appending one message per
    problem, with its path, to ``errors``.  Returns the value as converted
    (``float`` numbers, built objects); it is valid only if none was appended."""
    before = len(errors)
    if isinstance(rule, tuple):
        value = _check(value, rule[0], path, errors)
        if len(errors) == before and len(rule) == 3 and not rule[1](value):
            errors.append(f"{path}: {rule[2].format(value)}")
        elif len(errors) == before and len(rule) == 2:
            try:
                return rule[1](**value)
            except ValueError as exc:
                errors.append(f"{path}.{exc}")
        return value
    if isinstance(rule, dict):
        if not isinstance(value, dict):
            errors.append(f"{path}: expected an object")
            return value
        prefix = f"{path}." if path else ""
        keys = {key.rstrip("?"): key for key in rule}
        errors.extend(f"{prefix}{key}: unknown key" for key in value if key not in keys)
        out = {}
        for name, key in keys.items():
            if name in value:
                out[name] = _check(value[name], rule[key], prefix + name, errors)
            elif not key.endswith("?"):
                errors.append(f"{prefix}{name}: missing required key")
        return out
    if isinstance(rule, list):
        if not isinstance(value, list):
            errors.append(f"{path}: expected a list")
            return value
        return [_check(item, rule[0], f"{path}[{i}]", errors) for i, item in enumerate(value)]
    if rule is float:
        if _is_finite(value):
            return float(value)
        errors.append(f"{path}: expected {'a finite number' if _is_number(value) else 'a number'}")
    elif not (isinstance(value, rule) and not isinstance(value, bool)):
        errors.append(f"{path}: expected {_EXPECTED[rule]}")
    return value


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file against ``SCHEMA``.

    Unknown keys are rejected, and every problem at any depth, the value
    rules of the system, region and initial-data constructors included, is
    reported once with the path of its field.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError([f"{path}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"{path}: invalid JSON ({exc})"]) from exc
    if not isinstance(raw, dict):
        raise ScenarioError([f"{path}: top level must be an object"])

    errors: list[str] = []
    doc = _check(raw, SCHEMA, "", errors)
    if errors:
        raise ScenarioError(errors)
    system, data = doc["system"], doc["initial_data"]
    errors = [
        f"initial_data.bumps[{i}].component: out of range for {system.n} components"
        for i, b in enumerate(data.bumps)
        if not 0 <= b.component < system.n
    ]
    if errors:
        raise ScenarioError(errors)

    domain, time = doc["domain"], doc["time"]
    return Scenario(
        name=doc["name"],
        kind=doc["kind"],
        system=system,
        region=doc["region"],
        x_min=domain["x_min"],
        x_max=domain["x_max"],
        n_cells=domain.get("n_cells"),
        t_final=time["t_final"],
        stride=time["stride"],
        data=data,
    )


# ---------------------------------------------------------------------------
# calibration and envelope verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeCalibration:
    """Constants of the constant-damping semigroup that bound the delayed
    envelopes: the uniform rate ``gamma`` and ``c_high`` above wavenumber
    one, the diffusive rate ``kappa`` and ``c_low`` at or below it."""

    gamma: float
    c_high: float
    c_low: float
    kappa: float


def calibrate(sys: HyperbolicSystem, scan: SpectralScan, max_lag: float) -> EnvelopeCalibration:
    """The envelope constants of ``sys``, read off its symbol
    M(xi) = -i xi Lambda - S on the frequencies of ``scan`` at lags t up to
    ``max_lag`` (``propagator_sup``): ``c_high`` the largest
    e^(gamma t) ||exp(t M(xi))||_2 over xi >= 1, ``kappa`` the least
    -abscissa / xi^2 over xi in (0, 1], and ``c_low`` the largest
    e^(kappa xi^2 t) ||exp(t M(xi))||_2 there.  Refuses a rate ``gamma``
    that the scan does not resolve or that is not positive."""
    gamma = scan.gamma
    if not (scan.resolved and gamma > 0.0):
        raise ValueError(
            f"calibrate: uniform decay rate {gamma:.6g} must be positive and exceed "
            f"2^{math.log2(RATE_RESOLUTION_FACTOR):g} times the scan's resolution "
            f"{scan.resolution:.6g}"
        )
    xi = scan.xi
    low = (xi > 0.0) & (xi <= 1.0)
    kappa = float(np.min(-scan.abscissa[low] / xi[low] ** 2))
    return EnvelopeCalibration(
        gamma=gamma,
        c_high=propagator_sup(sys, xi[xi >= 1.0], gamma, max_lag),
        c_low=propagator_sup(sys, xi[low], kappa * xi[low] ** 2, max_lag),
        kappa=kappa,
    )


@dataclass(frozen=True)
class Violation:
    t: float
    band: str
    measured: float
    allowed: float


@dataclass(frozen=True)
class EnvelopeReport:
    """Delayed-envelope verification outcome for one trajectory, against
    the constants ``calibration``."""

    residence_bound: float
    calibration: EnvelopeCalibration
    n_checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_envelope(traj: solver.Trajectory, cal: EnvelopeCalibration) -> EnvelopeReport:
    """Check both decay envelopes, each delayed by the residence bound of
    the stripes the run simulated (``traj.grid.region``).

    High band: energy above wavenumber one under C_high
    exp(-gamma (t - tau)) l2_0.  Low band: sup of the smoothed field under
    (l1_0 C_low / L) sum_k m_k exp(-kappa xi_k^2 (t - tau)) over the run's
    low bins (``low_band_envelope``).  Times earlier than one
    sampling stride past the delay are exempt; a 5% multiplicative slack
    absorbs discretisation.
    The low-band sup is synthesized (``low_band_sup``) only at checked
    samples where ``low_band_bound``, read off the stored modes, does not
    already settle the check, so the verdicts and measured values are
    those of the sup at every checked sample.
    A constant or initial norm that is not finite would make every bound
    vacuous, so it is refused.
    """
    l2_0 = float(traj.l2_total[0])
    l1_0 = float(traj.l1[0])
    values = {"c_high": cal.c_high, "c_low": cal.c_low, "l2_0": l2_0, "l1_0": l1_0}
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"verify: not finite: {', '.join(bad)}")
    tb = residence_bound(traj.eigs, traj.grid.region)
    times = traj.times
    floor_high = NORM_FLOOR_RTOL * l2_0
    floor_low = NORM_FLOOR_RTOL * l1_0
    checked = np.flatnonzero(times >= tb + traj.stride_dt * (1.0 - 1e-9))
    lags = times[checked] - tb
    allowed_lows = low_band_envelope(traj.grid.bands, cal.kappa, lags, l1_0 * cal.c_low)

    violations: list[Violation] = []
    for i, lag, allowed_low in zip(checked.tolist(), lags.tolist(), allowed_lows.tolist()):
        t = float(times[i])
        allowed_high = cal.c_high * math.exp(-cal.gamma * lag) * l2_0
        measured_high = float(traj.l2_high[i])
        if measured_high > floor_high and measured_high > allowed_high * ENVELOPE_SLACK:
            violations.append(Violation(t, "high", measured_high, allowed_high))
        limit_low = max(floor_low, allowed_low * ENVELOPE_SLACK)
        modes = traj.low_modes[i]
        if low_band_bound(modes, traj.n_cells) > limit_low:
            measured_low = low_band_sup(modes, traj.n_cells)
            if measured_low > limit_low:
                violations.append(Violation(t, "low", measured_low, allowed_low))
    return EnvelopeReport(
        residence_bound=tb,
        calibration=cal,
        n_checked=checked.size,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# conservation probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeReport:
    """Plateau/onset measurement for a single-characteristic bump."""

    component: int
    speed: float
    t_pred: float
    onset: float
    plateau_min: float
    stride_dt: float

    @property
    def within_one_stride(self) -> bool:
        return abs(self.onset - self.t_pred) <= self.stride_dt * (1.0 + 1e-9)


def probe_prediction(
    eigs: EigenStructure, region: UndampedRegion, data: solver.InitialDataSpec
) -> tuple[int, float, float]:
    """(component, speed, predicted loss onset) for a probe data spec.

    The data must live on exactly one characteristic component, entirely
    inside one stripe (``UndampedRegion.stripe_holding``); the prediction
    is the time its leading edge crosses the downstream stripe edge.
    """
    if data.basis != "characteristic":
        raise ValueError("probe: initial data must be given on characteristic components")
    comps = {b.component for b in data.bumps}
    if len(comps) != 1:
        raise ValueError("probe: all bumps must sit on the same component")
    comp = comps.pop()
    lam = float(eigs.lambdas[comp])
    lo, hi = data.support()
    stripe = region.stripe_holding(lo, hi)
    if stripe is None:
        raise ValueError("probe: initial data must lie inside a single stripe")
    if lam > 0.0:
        t_pred = (stripe[1] - hi) / lam
    else:
        t_pred = (lo - stripe[0]) / (-lam)
    return comp, lam, max(0.0, t_pred)


def conservation_probe(traj: solver.Trajectory, data: solver.InitialDataSpec) -> ProbeReport:
    """Measure the loss-free plateau and the onset of decay, against the
    onset predicted on the stripes the run simulated (``traj.grid.region``).

    ``plateau_min`` is the worst energy ratio up to the predicted onset,
    within a relative 1e-12 of it; ``onset`` the first sampled time with
    total energy below 99% of its initial value (inf if never; the
    summary writes null).
    """
    comp, lam, t_pred = probe_prediction(traj.eigs, traj.grid.region, data)
    times = traj.times
    ratio = traj.l2_total / traj.l2_total[0]
    before = times <= t_pred * (1.0 + 1e-12)
    plateau_min = float(ratio[before].min()) if before.any() else float("nan")
    dropped = np.flatnonzero(ratio < ONSET_FRACTION)
    onset = float(times[dropped[0]]) if dropped.size else float("inf")
    return ProbeReport(
        component=comp,
        speed=lam,
        t_pred=t_pred,
        onset=onset,
        plateau_min=plateau_min,
        stride_dt=traj.stride_dt,
    )


# ---------------------------------------------------------------------------
# scenario dispatch and export
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    validation: ValidationReport
    series: NormSeries
    scan: SpectralScan | None
    envelope: EnvelopeReport | None
    probe: ProbeReport | None


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute a scenario according to its kind."""
    s = scenario
    validation = validate_system(s.system)

    if s.kind == "fullspace":
        series = _run_fullspace(s)
        _check_energy(series, validation)
        return ScenarioResult(s, validation, series, None, None, None)

    traj = solver.run(
        s.system, s.region, s.data, x_min=s.x_min, x_max=s.x_max,
        t_final=s.t_final, stride=s.stride, n_cells=s.n_cells,
    )
    _check_energy(traj, validation)
    if s.kind == "conservation-probe":
        probe = conservation_probe(traj, s.data)
        return ScenarioResult(s, validation, traj, None, None, probe)

    scan = gamma_estimate(s.system)
    cal = calibrate(s.system, scan, traj.times[-1] - residence_bound(traj.eigs, traj.grid.region))
    envelope = verify_envelope(traj, cal)
    return ScenarioResult(s, validation, traj, scan, envelope, None)


def _check_energy(series: NormSeries, validation: ValidationReport) -> None:
    """Refuse a run under coercive damping whose ``l2_total`` rises between
    two samples by more than ``ENERGY_RISE_RTOL`` of its peak."""
    l2 = series.l2_total
    rise = np.diff(l2)
    i = int(np.argmax(rise))
    if validation.coercivity > 0.0 and rise[i] > ENERGY_RISE_RTOL * l2.max():
        raise ValueError(
            f"l2_total rose by {rise[i] / l2.max():.3g} of its peak from t = "
            f"{series.times[i]:.6g} to {series.times[i + 1]:.6g}, but coercive damping "
            "cannot add energy"
        )


def _run_fullspace(s: Scenario) -> NormSeries:
    """The reference run on the stepping grid's cells and sample times, of
    the data given in either basis and mapped to physical components;
    ``fullspace_evolve`` refuses a mapping that overflows.  It steps no
    stripe, so its default resolution comes from the data:
    ``REF_POINTS_PER_SIGMA`` cells per narrowest bump width."""
    n_cells = s.n_cells
    if n_cells is None:
        n_cells = math.ceil(
            (s.x_max - s.x_min) / (min(b.width for b in s.data.bumps) / REF_POINTS_PER_SIGMA)
        )
    n_cells, dx, v_unit, _ = solver.lay_out(s.system.eigs, s.region, s.x_min, s.x_max, n_cells)
    dt = dx / v_unit
    steps = solver.sample_steps(s.t_final, dt, s.stride)
    x = s.x_min + dx * np.arange(n_cells)
    samples = s.data.sample(x, s.system.n)
    with np.errstate(over="ignore"):
        u0 = samples if s.data.basis == "physical" else s.system.eigs.basis @ samples
    return fullspace_evolve(s.system, x, u0, (k * dt for k in steps))


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv(series: NormSeries, path: Path) -> None:
    """Norm history as CSV: ``t``, the ``NORM_COLUMNS`` and one ``comp_k``
    per component; floats at full precision so reruns are byte-identical."""
    header = ["t", *NORM_COLUMNS, *(f"comp_{k + 1}" for k in range(series.n_components))]
    table = np.column_stack(
        [series.times, *(getattr(series, name) for name in NORM_COLUMNS), series.comp_l2.T]
    )
    lines = [",".join(header), *(",".join(map(_fmt, row)) for row in table.tolist())]
    path.write_text("\n".join(lines) + "\n")


def summarize(result: ScenarioResult) -> dict[str, Any]:
    """Flat summary of everything a reader needs without the CSV."""
    s = result.scenario
    out: dict[str, Any] = {
        "name": s.name,
        "kind": s.kind,
        "n_components": s.system.n,
        "validation_ok": result.validation.ok,
        "checks": {c.name: c.passed for c in result.validation.checks},
        "t_final": s.t_final,
        "time_snap_error": abs(s.t_final - float(result.series.times[-1])),
        "n_samples": int(result.series.times.size),
    }
    if isinstance(result.series, solver.Trajectory):
        g = result.series.grid
        out.update(dx=g.dx, dt=g.dt, stripe_snap_error=g.snap_error, shifts=g.shifts.tolist())
    if result.scan is not None:
        sc = result.scan
        out.update(gamma=sc.gamma, c_low_curvature=sc.c_low, tail_stabilized=sc.tail_stabilized)
    if result.envelope is not None:
        e = result.envelope
        out.update(
            residence_bound=e.residence_bound,
            c_high=e.calibration.c_high,
            c_low=e.calibration.c_low,
            kappa=e.calibration.kappa,
            envelope_checked=e.n_checked,
            envelope_violations=[
                {"t": v.t, "band": v.band, "measured": v.measured, "allowed": v.allowed}
                for v in e.violations
            ],
            envelope_ok=e.ok,
        )
    if result.probe is not None:
        p = result.probe
        out.update(
            probe_component=p.component,
            probe_speed=p.speed,
            probe_t_pred=p.t_pred,
            probe_onset=p.onset if math.isfinite(p.onset) else None,
            probe_plateau_min=p.plateau_min,
            probe_within_one_stride=p.within_one_stride,
        )
    return out


def export(result: ScenarioResult, out_dir: str | Path) -> tuple[Path, Path]:
    """Write norms.csv and summary.json under ``out_dir``.  The summary is
    strict JSON: a non-finite value in it raises ``ValueError`` before
    either file is written."""
    text = json.dumps(summarize(result), indent=2, sort_keys=True, allow_nan=False) + "\n"
    out = Path(out_dir)
    os.makedirs(out, exist_ok=True)
    csv_path = out / CSV_NAME
    write_csv(result.series, csv_path)
    summary_path = out / SUMMARY_NAME
    summary_path.write_text(text)
    return csv_path, summary_path


__all__ = [
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "EnvelopeCalibration",
    "EnvelopeReport",
    "ProbeReport",
    "load_scenario",
    "run_scenario",
    "calibrate",
    "verify_envelope",
    "conservation_probe",
    "probe_prediction",
    "write_csv",
    "summarize",
    "export",
]
