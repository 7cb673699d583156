"""Scenario orchestration: load, run, verify, export.

A scenario JSON file fixes the system, the stripe geometry, the grid, and
the initial data.  Three kinds are supported: ``verify-envelope`` runs the
localized-damping solver and checks its norms against delayed decay
envelopes calibrated on the constant-damping reference; ``conservation-probe``
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
from locdamp.norms import NORM_COLUMNS, NormSeries, low_band_bound, low_band_sup
from locdamp.spectral import (
    RATE_RESOLUTION_FACTOR,
    SpectralScan,
    fullspace_evolve,
    gamma_estimate,
)

SCENARIO_KINDS = ("verify-envelope", "conservation-probe", "fullspace")
# Envelope bookkeeping: multiplicative headroom baked into the calibrated
# constants, multiplicative slack allowed at verification time, and the
# relative norm floor below which a band is considered numerically empty.
CALIBRATION_HEADROOM = 1.1
ENVELOPE_SLACK = 1.05
NORM_FLOOR_RTOL = 1e-14
# Coercive damping never adds energy: a run whose l2_total rises between
# two samples by more than this share of its peak is refused.
ENERGY_RISE_RTOL = 1e-12
# The probe's plateau ends when total energy first drops below this
# fraction of its initial value.
ONSET_FRACTION = 0.99
# Reference-evolution layout: grid points per gaussian width and the cap
# on how many trajectory times the calibration re-evaluates.
REF_POINTS_PER_SIGMA = 4
REF_MAX_TIMES = 33

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
# string; MATRIX is a nonempty list of equal-length rows of finite numbers
# and PAIR a ``[left, right]`` pair of finite numbers.  A triple ``(rule,
# test, message)`` adds a value rule, tried once ``rule`` holds.  A pair
# ``(rule, build)`` turns a value that passed ``rule`` into
# ``build(**value)``; a ``ValueError`` from ``build`` names a field of
# ``value``, and the walker puts the path of ``value`` in front.
MATRIX = "matrix"
PAIR = "pair"
_BUMP = {"kind": str, "component": int, "center": float, "width": float, "amplitude?": float}
SCHEMA = {
    "name": str,
    "kind": (str, lambda v: v in SCENARIO_KINDS, f"expected one of {SCENARIO_KINDS}, got {{!r}}"),
    "system": ({"a": MATRIX, "n1": int, "dd": MATRIX}, HyperbolicSystem),
    "region": ({"stripes": [PAIR]}, UndampedRegion),
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
    if rule is MATRIX:
        if not isinstance(value, list) or not value:
            errors.append(f"{path}: expected a nonempty list of rows")
            return value
        for i, row in enumerate(value):
            if not isinstance(row, list) or not all(map(_is_finite, row)):
                errors.append(f"{path}[{i}]: expected a list of numbers")
        if len(errors) == before:
            width = len(value[0])
            errors.extend(
                f"{path}[{i}]: expected length {width} as in row 0, got {len(row)}"
                for i, row in enumerate(value)
                if len(row) != width
            )
    elif rule is PAIR:
        if not (isinstance(value, list) and len(value) == 2 and all(map(_is_finite, value))):
            errors.append(f"{path}: expected a pair [left, right]")
    elif rule is float:
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
    """Constants tying the localized run to the constant-damping reference."""

    gamma: float
    c_high: float
    c_low: float
    ref: NormSeries


def calibrate(
    sys: HyperbolicSystem,
    data: solver.InitialDataSpec,
    times,
    scan: SpectralScan,
) -> EnvelopeCalibration:
    """Fix the envelope constants from a constant-damping reference run.

    The high-band constant makes the reference satisfy its own envelope
    with 10% headroom; likewise the low-band constant for the dispersive
    sup bound.  Needs gaussian data (band-limited on a modest grid) and a
    positive uniform rate that the ``scan`` resolves.
    """
    gamma = scan.gamma
    if not (scan.resolved and gamma > 0.0):
        raise ValueError(
            f"calibrate: uniform decay rate {gamma:.6g} must be positive and exceed "
            f"2^{math.log2(RATE_RESOLUTION_FACTOR):g} times the scan's resolution "
            f"{scan.resolution:.6g}"
        )
    if any(b.kind != "gaussian" for b in data.bumps):
        raise ValueError("calibrate: reference calibration needs gaussian bumps")

    t_arr = np.asarray(list(times), dtype=float)
    t_pos = t_arr[t_arr > 0.0]
    if t_pos.size == 0:
        raise ValueError("calibrate: need at least one positive sample time")
    if t_pos.size > REF_MAX_TIMES:
        idx = np.linspace(0, t_pos.size - 1, REF_MAX_TIMES).round().astype(int)
        t_pos = t_pos[np.unique(idx)]
    t_max = float(t_pos.max())

    lo, hi = data.support()
    sigma_min = min(b.width for b in data.bumps)
    vmax = float(np.abs(sys.eigs.lambdas).max())
    span = (hi - lo) + 2.0 * vmax * t_max + 16.0 * sigma_min + 8.0
    dx_ref = sigma_min / REF_POINTS_PER_SIGMA
    m = 1 << int(np.ceil(np.log2(span / dx_ref)))
    length = m * dx_ref
    mid = 0.5 * (lo + hi)
    x = (mid - 0.5 * length) + dx_ref * np.arange(m)

    ref = _reference(sys, data, x, [0.0, *t_pos])

    l2_0 = float(ref.l2_total[0])
    l1_0 = float(ref.l1[0])
    if l2_0 <= 0.0 or l1_0 <= 0.0:
        raise ValueError("calibrate: initial data has zero mass")
    # A high band under the norm floor is round-off, not decay:
    # verify_envelope ignores it, and exp(gamma t) would blow it up here.
    high = ref.l2_high > NORM_FLOOR_RTOL * l2_0
    high_ratios = ref.l2_high[high] * np.exp(gamma * ref.times[high]) / l2_0
    c_high = CALIBRATION_HEADROOM * float(high_ratios.max(initial=0.0))
    pos = ref.times > 0.0
    low_ratios = ref.linf_low[pos] * np.sqrt(ref.times[pos]) / l1_0
    c_low = CALIBRATION_HEADROOM * float(low_ratios.max())
    return EnvelopeCalibration(gamma=gamma, c_high=c_high, c_low=c_low, ref=ref)


@dataclass(frozen=True)
class Violation:
    t: float
    band: str
    measured: float
    allowed: float


@dataclass(frozen=True)
class EnvelopeReport:
    """Delayed-envelope verification outcome for one trajectory."""

    residence_bound: float
    gamma: float
    c_high: float
    c_low: float
    n_checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_envelope(traj: solver.Trajectory, cal: EnvelopeCalibration) -> EnvelopeReport:
    """Check both decay envelopes, each delayed by the residence bound of
    the stripes the run simulated (``traj.grid.region``).

    High band: energy above wavenumber one under C * exp(-gamma (t - tau)).
    Low band: sup of the smoothed field under C_low (t - tau)^(-1/2) times
    the initial integral.  Times earlier than one sampling stride past the
    delay are exempt; a 5% multiplicative slack absorbs discretisation.
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

    violations: list[Violation] = []
    n_checked = 0
    t_start = tb + traj.stride_dt * (1.0 - 1e-9)
    for i, t in enumerate(times):
        if t < t_start:
            continue
        n_checked += 1
        lag = t - tb
        allowed_high = cal.c_high * math.exp(-cal.gamma * lag) * l2_0
        measured_high = float(traj.l2_high[i])
        if measured_high > floor_high and measured_high > allowed_high * ENVELOPE_SLACK:
            violations.append(Violation(float(t), "high", measured_high, allowed_high))
        allowed_low = cal.c_low * l1_0 / math.sqrt(lag)
        limit_low = max(floor_low, allowed_low * ENVELOPE_SLACK)
        modes = traj.low_modes[i]
        if low_band_bound(modes, traj.n_cells) > limit_low:
            measured_low = low_band_sup(modes, traj.n_cells)
            if measured_low > limit_low:
                violations.append(Violation(float(t), "low", measured_low, allowed_low))
    return EnvelopeReport(
        residence_bound=tb,
        gamma=cal.gamma,
        c_high=cal.c_high,
        c_low=cal.c_low,
        n_checked=n_checked,
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
    cal = calibrate(s.system, s.data, traj.times, scan)
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
    grid = solver.build_grid(s.system.eigs, s.region, s.x_min, s.x_max, s.n_cells)
    steps = solver.sample_steps(s.t_final, grid.dt, s.stride)
    x = grid.x_min + grid.dx * np.arange(grid.n_cells)
    return _reference(s.system, s.data, x, [k * grid.dt for k in steps])


def _reference(
    sys: HyperbolicSystem,
    data: solver.InitialDataSpec,
    x: np.ndarray,
    times: list[float],
) -> NormSeries:
    """Constant-damping reference run of ``data`` sampled on the uniform
    grid ``x``, given in either basis, mapped to physical components."""
    samples = data.sample(x, sys.n)
    u0 = samples if data.basis == "physical" else sys.eigs.basis @ samples
    return fullspace_evolve(sys, x, u0, times)


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
            c_high=e.c_high,
            c_low=e.c_low,
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
