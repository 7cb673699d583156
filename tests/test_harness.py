"""Scenario loading, fits, calibration, envelope verification, export, CLI.

The strict loader is exercised with systematically corrupted copies of a
known-good scenario; the envelope machinery is checked both on a passing
run and with artificially shrunken constants that must trip violations.
"""

import argparse
import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import locdamp
from helpers import (
    BESIDE_DAMPING,
    eager_low_band_sup,
    eigenbasis_symbol,
    fit_decay_rate,
    fit_loglog_slope,
    propagator_sup,
    spectral_abscissa,
    stripe_beside_data,
)
from locdamp import cli, harness, norms, solver, spectral
from locdamp.chartimes import UndampedRegion, residence_bound
from locdamp.model import diagonalize
from locdamp.solver import Bump, InitialDataSpec, Trajectory
from locdamp.norms import BandSplit, NormSeries, low_band_sup
from locdamp.spectral import gamma_estimate

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
ENVELOPE_SCENARIOS = sorted(
    p.stem for p in SCENARIOS.glob("*.json") if harness.load_scenario(p).kind == "verify-envelope"
)


def _good_raw() -> dict:
    return json.loads((SCENARIOS / "probe_scalar.json").read_text())


def _write(tmp_path: Path, raw) -> Path:
    p = tmp_path / "scenario.json"
    p.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    return p


def _scenario_path(tmp_path: Path, name: str) -> Path:
    """A shipped scenario's file, or ``stripe_beside_data`` at 248 cells."""
    if name == "stripe_beside_data":
        return _write(tmp_path, stripe_beside_data(248))
    return SCENARIOS / f"{name}.json"


def _scan(system, **fields) -> spectral.SpectralScan:
    """The system's rate scan with ``fields`` replaced."""
    return dataclasses.replace(gamma_estimate(system), **fields)


def _errors_of(tmp_path: Path, raw) -> list[str]:
    with pytest.raises(harness.ScenarioError) as err:
        harness.load_scenario(_write(tmp_path, raw))
    return err.value.errors


def _long_run(raw: dict) -> None:
    raw["time"]["t_final"] = 500.0


def _zero_amplitudes(raw: dict) -> None:
    for bump in raw["initial_data"]["bumps"]:
        bump["amplitude"] = 0.0


def _overflowing_data(raw: dict) -> None:
    # each amplitude is a finite number, but their sum on the grid is not
    bump = dict(raw["initial_data"]["bumps"][0], amplitude=1.5e308)
    raw["initial_data"]["bumps"] = [bump, dict(bump)]


def _narrow_bumps(raw: dict) -> None:
    # widths of 1/20 of a cell, centred on cell edges: the nearest cell
    # centres lie 10 widths out, beyond a gaussian's support
    for bump in raw["initial_data"]["bumps"]:
        bump["width"] = 0.0005


def _set(section: str, **values):
    return lambda raw: raw[section].update(values)


# (id, edit, message): runs that reject a stepping scenario or a fullspace one.
STEPPING_REJECTIONS = [
    ("edge", _long_run, "mass reached the edge guard band near t = 15.23; enlarge the domain or shorten the run"),
    ("zero", _zero_amplitudes, "initial data is zero on the grid"),
    ("narrow", _narrow_bumps, "initial data is zero on the grid"),
    ("overflow", _overflowing_data, "initial data is not finite on the grid"),
    # speeds far from 1: one that rounds to 0 as a small fraction, and a
    # time step too short for the run's steps to be counted
    (
        "slow_speeds",
        _set("system", a=[[0.0, 1e-300], [1e-300, 0.0]]),
        "speeds: -9.999999999999999e-301 is not a ratio of small integers; "
        "exact shifting needs commensurate speeds",
    ),
    (
        "fast_speeds",
        _set("system", a=[[0.0, 1e300], [1e300, 0.0]]),
        "t_final: 1.2e+303 time steps of 1e-302 are more than a run can count",
    ),
]
FULLSPACE_REJECTIONS = [
    ("no_cells", _set("domain", n_cells=0), "n_cells: need at least 16, got 0"),
    (
        "reversed_domain",
        _set("domain", x_min=128.0, x_max=-128.0),
        "domain: need x_min < x_max, got [128.0, -128.0]",
    ),
    ("empty_domain", _set("domain", x_min=0.0, x_max=0.0), "domain: need x_min < x_max, got [0.0, 0.0]"),
    ("short_run", _set("time", t_final=1e-6), "t_final: shorter than one time step"),
    ("zero", _zero_amplitudes, "initial data is zero on the grid"),
    ("overflow", _overflowing_data, "initial data is not finite on the grid"),
    # the sample times still come from the stepping grid's time lock
    (
        "incommensurate_speeds",
        _set("system", a=[[0.1, 1.0], [1.0, 0.0]]),
        "speeds: -0.9512492197250392 is not a ratio of small integers; "
        "exact shifting needs commensurate speeds",
    ),
]


class TestLoader:
    def test_roundtrip(self):
        s = harness.load_scenario(SCENARIOS / "probe_scalar.json")
        assert s.name == "probe_scalar"
        assert s.kind == "conservation-probe"
        assert s.system.n == 1 and s.system.n1 == 0
        assert s.region.stripes == ((-1.0, 1.0),)
        assert (s.x_min, s.x_max, s.n_cells) == (-2.0, 4.0, 600)
        assert (s.t_final, s.stride) == (4.0, 10)
        assert s.data.basis == "characteristic"
        assert s.data.bumps[0] == Bump(
            kind="box", component=0, center=-0.95, width=0.1, amplitude=1.0
        )

    def test_all_shipped_scenarios_load(self):
        for path in sorted(SCENARIOS.glob("*.json")):
            s = harness.load_scenario(path)
            assert s.kind in harness.SCENARIO_KINDS

    def test_missing_file(self, tmp_path):
        with pytest.raises(harness.ScenarioError):
            harness.load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        errors = _errors_of(tmp_path, "{nope")
        assert any("invalid JSON" in e for e in errors)

    def test_top_level_not_object(self, tmp_path):
        errors = _errors_of(tmp_path, "[1, 2]")
        assert any("top level must be an object" in e for e in errors)

    def test_unknown_top_key(self, tmp_path):
        raw = _good_raw()
        raw["extra"] = 1
        assert any("extra: unknown key" in e for e in _errors_of(tmp_path, raw))

    def test_missing_stride(self, tmp_path):
        raw = _good_raw()
        del raw["time"]["stride"]
        errors = _errors_of(tmp_path, raw)
        assert any("time.stride: missing required key" in e for e in errors)

    def test_bool_is_not_a_number(self, tmp_path):
        raw = _good_raw()
        raw["time"]["t_final"] = True
        errors = _errors_of(tmp_path, raw)
        assert any("time.t_final: expected a number" in e for e in errors)

    def test_bad_matrix_row(self, tmp_path):
        raw = _good_raw()
        raw["system"]["a"] = [[1.0], "x"]
        errors = _errors_of(tmp_path, raw)
        assert any("system.a[1]: expected a list" in e for e in errors)

    def test_bad_kind(self, tmp_path):
        raw = _good_raw()
        raw["kind"] = "explode"
        assert any("kind: expected one of" in e for e in _errors_of(tmp_path, raw))

    def test_bad_stripe_pair(self, tmp_path):
        raw = _good_raw()
        raw["region"]["stripes"] = [[0.0]]
        errors = _errors_of(tmp_path, raw)
        assert any("region.stripes[0]: expected a pair" in e for e in errors)

    def test_overlapping_stripes_rejected(self, tmp_path):
        raw = _good_raw()
        raw["region"]["stripes"] = [[-1.0, 1.0], [0.5, 2.0]]
        assert _errors_of(tmp_path, raw)

    def test_nonpositive_time(self, tmp_path):
        raw = _good_raw()
        raw["time"]["t_final"] = 0.0
        assert any("must be positive" in e for e in _errors_of(tmp_path, raw))

    def test_zero_stride(self, tmp_path):
        raw = _good_raw()
        raw["time"]["stride"] = 0
        assert any("at least 1" in e for e in _errors_of(tmp_path, raw))

    def test_empty_bumps(self, tmp_path):
        raw = _good_raw()
        raw["initial_data"]["bumps"] = []
        assert _errors_of(tmp_path, raw) == ["initial_data.bumps: at least one bump is required"]

    def test_bad_bump_kind(self, tmp_path):
        raw = _good_raw()
        raw["initial_data"]["bumps"][0]["kind"] = "spike"
        errors = _errors_of(tmp_path, raw)
        assert any("initial_data.bumps[0]" in e and "unknown kind" in e for e in errors)

    def test_bad_bump_width(self, tmp_path):
        raw = _good_raw()
        raw["initial_data"]["bumps"][0]["width"] = -1.0
        assert any("must be positive" in e for e in _errors_of(tmp_path, raw))

    def test_component_out_of_range(self, tmp_path):
        raw = _good_raw()
        raw["initial_data"]["bumps"][0]["component"] = 3
        assert any("out of range" in e for e in _errors_of(tmp_path, raw))

    def test_multiple_problems_collected(self, tmp_path):
        raw = _good_raw()
        raw["kind"] = "explode"
        raw["time"]["stride"] = 0
        raw["initial_data"]["bumps"][0]["width"] = -1.0
        assert len(_errors_of(tmp_path, raw)) >= 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name, path",
        [
            ("time.t_final", ("time", "t_final")),
            ("domain.x_min", ("domain", "x_min")),
            ("domain.x_max", ("domain", "x_max")),
            ("initial_data.bumps[0].center", ("initial_data", "bumps", 0, "center")),
            ("initial_data.bumps[0].width", ("initial_data", "bumps", 0, "width")),
            ("initial_data.bumps[0].amplitude", ("initial_data", "bumps", 0, "amplitude")),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, name, path, value):
        raw = _good_raw()
        _at(raw, path[:-1])[path[-1]] = value
        assert _errors_of(tmp_path, raw) == [f"{name}: expected a finite number"]

    def test_integer_beyond_float_range_rejected(self, tmp_path):
        raw = _good_raw()
        raw["domain"]["x_max"] = 10**400
        assert _errors_of(tmp_path, raw) == ["domain.x_max: expected a finite number"]

    def test_non_list_matrix_reported_once(self, tmp_path):
        raw = _good_raw()
        raw["system"]["a"] = 5
        assert _errors_of(tmp_path, raw) == ["system.a: expected a list"]

    def test_bad_matrix_entry_names_the_entry(self, tmp_path):
        raw = _good_raw()
        raw["system"]["a"] = [[1.0, "x"], [1.0, 0.0]]
        raw["region"]["stripes"] = [[0.0, None]]
        assert _errors_of(tmp_path, raw) == [
            "system.a[0][1]: expected a number",
            "region.stripes[0][1]: expected a number",
        ]

    def test_ragged_matrix_names_the_row(self, tmp_path):
        raw = _good_raw()
        raw["system"] = {"a": [[0, 1], [1]], "n1": 1, "dd": [[1.0]]}
        assert _errors_of(tmp_path, raw) == ["system.a[1]: expected length 2 as in row 0, got 1"]

    def test_unknown_basis_prefixed_once(self, tmp_path):
        raw = _good_raw()
        raw["initial_data"]["basis"] = "eigen"
        assert _errors_of(tmp_path, raw) == ["initial_data.basis: unknown basis 'eigen'"]

    @pytest.mark.parametrize(
        "field, value, message",
        [("kind", "tri", "kind: unknown kind 'tri'"), ("width", 0.0, "width: must be positive")],
    )
    def test_bump_rule_prefixed_once(self, tmp_path, field, value, message):
        raw = _good_raw()
        raw["initial_data"]["bumps"][0][field] = value
        assert _errors_of(tmp_path, raw) == [f"initial_data.bumps[0].{message}"]

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(harness.ScenarioError) as err:
            harness.load_scenario(path)
        [message] = err.value.errors
        assert message.startswith(f"{path}: ") and "utf-8" in message

    def test_problems_inside_sections_reported_with_top_level_ones(self, tmp_path):
        raw = _good_raw()
        raw["name"] = 5
        raw["time"]["stride"] = 0
        assert _errors_of(tmp_path, raw) == [
            "name: expected a string",
            "time.stride: must be at least 1",
        ]

    def test_constructor_rules_reported_together(self, tmp_path):
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        raw["system"]["n1"] = 5
        raw["region"]["stripes"] = [[1, 2], [-1, 0.5]]
        raw["initial_data"]["basis"] = "eigen"
        assert _errors_of(tmp_path, raw) == [
            "system.n1: need 0 <= n1 < 2, got 5",
            "region.stripes[1]: stripes must be sorted and disjoint",
            "initial_data.basis: unknown basis 'eigen'",
        ]

    def test_every_bump_component_out_of_range_reported(self, tmp_path):
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        for bump in raw["initial_data"]["bumps"]:
            bump["component"] = 2
        assert _errors_of(tmp_path, raw) == [
            f"initial_data.bumps[{i}].component: out of range for 2 components" for i in (0, 1)
        ]


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def _paths(node, prefix=()):
    """The path of every node in a parsed JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.lists(st.floats(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


class TestLoaderFuzz:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_mutated_scenario_raises_only_scenario_error(self, tmp_path, data):
        shipped = data.draw(st.sampled_from(sorted(SCENARIOS.glob("*.json"))))
        raw = json.loads(shipped.read_text())
        for _ in range(data.draw(st.integers(1, 3))):
            op = data.draw(st.sampled_from(["drop", "add", "retype", "non-finite"]))
            if op == "add":
                dicts = [p for p in _paths(raw) if isinstance(_at(raw, p), dict)]
                if dicts:
                    node = _at(raw, data.draw(st.sampled_from(dicts)))
                    node[data.draw(st.text(min_size=1, max_size=8))] = data.draw(_JSON_VALUES)
                continue
            inner = [p for p in _paths(raw) if p]
            if not inner:
                continue
            path = data.draw(st.sampled_from(inner))
            parent = _at(raw, path[:-1])
            if op == "drop":
                del parent[path[-1]]
            else:
                non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
                parent[path[-1]] = data.draw(_JSON_VALUES if op == "retype" else non_finite)
        path = _write(tmp_path, raw)
        try:
            harness.load_scenario(path)
        except harness.ScenarioError as exc:
            assert exc.errors and all(isinstance(e, str) and e for e in exc.errors)
            _assert_message_shape(exc.errors, str(path), raw)


def _schema_keys(rule) -> set[str]:
    if isinstance(rule, dict):
        return {key.rstrip("?") for key in rule}.union(*map(_schema_keys, rule.values()))
    if isinstance(rule, (list, tuple)):
        return set().union(*map(_schema_keys, rule))
    return set()


def _assert_message_shape(errors: list[str], file_path: str, raw: dict) -> None:
    """Each message is reported once, under the file path or under a field
    path that starts at a top-level schema key and never repeats a key."""
    assert len(set(errors)) == len(errors), errors
    keys = _schema_keys(harness.SCHEMA)
    # An unknown key is arbitrary text, so its message is matched whole; its
    # field path is that of the object holding it.
    unknown = {}
    for path in _paths(raw):
        if isinstance(_at(raw, path), dict):
            field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]
            for key in _at(raw, path):
                name = f"{field}.{key}" if path else key
                unknown[f"{name}: unknown key"] = [k for k in path if isinstance(k, str)]
    for message in errors:
        if message.startswith(f"{file_path}: "):
            continue
        if message in unknown:
            segments = unknown[message]
            if not segments:
                continue
        else:
            segments = [seg for seg in re.split(r"\.|\[\d+\]", message.partition(": ")[0]) if seg]
        assert segments[0] in harness.SCHEMA, message
        assert set(segments) <= keys and len(set(segments)) == len(segments), message


class TestFits:
    def test_exponential_rate_recovered_exactly(self):
        t = np.linspace(0.0, 5.0, 26)
        fit = fit_decay_rate(t, 3.0 * np.exp(-0.7 * t), 0.0, 5.0)
        assert fit.rate == pytest.approx(0.7, abs=1e-12)
        assert fit.log_intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert fit.n_points == 26
        assert fit.max_residual <= 1e-12

    def test_window_restricts_points(self):
        t = np.linspace(0.0, 5.0, 26)
        fit = fit_decay_rate(t, np.exp(-t), 1.0, 4.0)
        assert fit.n_points == 16

    def test_too_few_points(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="at least 10"):
            fit_decay_rate(t, np.exp(-t), 0.0, 1.0)

    def test_nonpositive_values_dropped(self):
        t = np.linspace(0.0, 5.0, 26)
        v = np.exp(-t)
        v[::2] = 0.0
        with pytest.raises(ValueError, match="at least 10"):
            fit_decay_rate(t, v, 0.0, 1.0)

    def test_power_law_slope_recovered(self):
        t = np.linspace(1.0, 50.0, 40)
        fit = fit_loglog_slope(t, 2.0 * t**-0.5, 1.0, 50.0)
        assert fit.rate == pytest.approx(-0.5, abs=1e-12)
        assert fit.log_intercept == pytest.approx(np.log(2.0), abs=1e-12)


@pytest.fixture(scope="module")
def damped_wave_result():
    scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
    return scenario, harness.run_scenario(scenario)


class TestRunScenario:
    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
    def test_one_eigendecomposition_per_run(self, name, monkeypatch):
        # every layer reads the system's one cached eigenstructure
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(1) or real(m))
        harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.json"))
        assert len(calls) == 1


    def test_refuses_energy_gain_under_coercive_damping(self, tmp_path, capsys):
        # the fullspace reference at dd = 1e10 gains energy; without
        # coercive damping (dd = -0.1) a gain is physics, not a fault
        raw = json.loads((SCENARIOS / "fullspace_damped_wave.json").read_text())
        for dd, want in ((1e10, 2), (-0.1, 0)):
            raw["system"]["dd"] = [[dd]]
            out_dir = tmp_path / f"run_{dd}"
            code = cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(out_dir)])
            lines = capsys.readouterr().out.splitlines()
            assert code == want, lines
            if want == 2:
                [line] = lines
                assert re.fullmatch(
                    r"error: l2_total rose by \S+ of its peak from t = \S+ to \S+, "
                    r"but coercive damping cannot add energy",
                    line,
                )
                assert not out_dir.exists()
            else:
                l2 = np.loadtxt(out_dir / "norms.csv", delimiter=",", skiprows=1)[:, 1]
                assert l2[-1] > l2[0]


def _run_calibration(result: harness.ScenarioResult) -> harness.EnvelopeCalibration:
    """The constants ``run_scenario`` checked ``result`` against."""
    max_lag = result.series.times[-1] - result.envelope.residence_bound
    return harness.calibrate(result.scenario.system, result.scan, max_lag)


def _oracle(sys, scan: spectral.SpectralScan, max_lag: float) -> tuple[float, float, float]:
    """``(c_high, c_low, kappa)`` for ``calibrate``'s frequencies and lags,
    one frequency and one lag at a time."""
    xi = scan.xi
    low = xi[(xi > 0.0) & (xi <= 1.0)]
    kappa = min(-spectral_abscissa(eigenbasis_symbol(sys, sys.eigs, x)) / x**2 for x in low)
    lags = np.linspace(0.0, max_lag, spectral.SUP_LAGS)
    return (
        propagator_sup(sys, xi[xi >= 1.0], scan.gamma, lags),
        propagator_sup(sys, low, kappa * low**2, lags),
        kappa,
    )


class TestCalibrate:
    """The constants against an independent oracle (``helpers.propagator_sup``:
    scipy's ``expm`` and 2-norm, one frequency and one lag at a time)."""

    # (c_high, c_low, kappa), as measured at the shipped lags
    MEASURED = {
        "damped_wave": (1.73083, 1.73083, 0.5),
        "three_speed_321": (3.04451, 2.53437, 0.43627),
        "stripe_beside_data": (1.0, 1.0, BESIDE_DAMPING),
    }

    def test_rejects_nonpositive_rate(self):
        scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
        # 0 is not resolved; -0.5 is, but is not positive
        for gamma in (0.0, -0.5):
            scan = _scan(scenario.system, gamma=gamma)
            with pytest.raises(ValueError, match="positive"):
                harness.calibrate(scenario.system, scan, 1.0)

    def test_rejects_a_rate_the_scan_cannot_resolve(self):
        scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
        with pytest.raises(ValueError) as err:
            harness.calibrate(
                scenario.system, _scan(scenario.system, gamma=1e-9, resolution=1e-14), 1.0
            )
        assert str(err.value) == (
            "calibrate: uniform decay rate 1e-09 must be positive and exceed "
            "2^20 times the scan's resolution 1e-14"
        )

    def test_verify_refuses_unresolved_rates_in_one_line(self, tmp_path, capsys):
        # damped_wave on a coarser grid and a shorter run, with dd = [[k]]
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        raw["domain"]["n_cells"] = 1000
        raw["time"]["t_final"] = 6.0
        codes = {}
        for j in range(-300, 301, 4):
            raw["system"]["dd"] = [[10.0 ** j]]
            codes[j] = cli.main(["verify", str(_write(tmp_path, raw))])
            out = capsys.readouterr().out.splitlines()
            if codes[j] == 2:
                assert len(out) == 1, (j, out)
                assert re.fullmatch(
                    r"error: calibrate: uniform decay rate \S+ must be positive and exceed "
                    r"2\^20 times the scan's resolution \S+",
                    out[0],
                ), (j, out)
            else:
                assert codes[j] in (0, 1), (j, out)
        assert [j for j, code in codes.items() if code != 2] == [-4, 0, 4]

    @pytest.mark.parametrize("name", sorted(MEASURED))
    def test_constants_equal_the_oracle(self, tmp_path, name):
        scenario = harness.load_scenario(_scenario_path(tmp_path, name))
        sys = scenario.system
        scan = gamma_estimate(sys)
        max_lag = scenario.t_final - residence_bound(sys.eigs, scenario.region)
        cal = harness.calibrate(sys, scan, max_lag)
        got = (cal.c_high, cal.c_low, cal.kappa)
        assert cal.gamma == scan.gamma
        assert got == pytest.approx(_oracle(sys, scan, max_lag), rel=1e-12)
        assert got == pytest.approx(self.MEASURED[name], rel=1e-5)

    def test_no_lag_gives_unit_constants(self, monkeypatch):
        # a horizon that ends at or before the delay reads lag 0 alone,
        # where every propagator is the identity: no exponential is taken
        scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
        scan = gamma_estimate(scenario.system)
        with monkeypatch.context() as patch:
            patch.setattr(spectral, "_matrix_exp_batch", _refuse)
            for max_lag in (0.0, -0.5):
                cal = harness.calibrate(scenario.system, scan, max_lag)
                assert (cal.c_high, cal.c_low) == (1.0, 1.0)
        summary = harness.summarize(
            harness.run_scenario(harness.load_scenario(SCENARIOS / "stripes_two.json"))
        )
        assert (summary["c_high"], summary["c_low"], summary["envelope_checked"]) == (1.0, 1.0, 0)

    @pytest.mark.parametrize("name", ["damped_wave", "stripes_two", "three_speed_321"])
    def test_one_exponential_per_distinct_step_count(self, name, monkeypatch):
        # each band's lags are whole multiples of one step, so its
        # propagators are powers of one exponential; stripes_two reads lag
        # 0 alone and takes none
        exponentials = 0 if name == "stripes_two" else 2
        result = harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.json"))
        calls = []
        original = spectral._matrix_exp_batch
        monkeypatch.setattr(
            spectral, "_matrix_exp_batch", lambda ms: calls.append(1) or original(ms)
        )
        _run_calibration(result)
        assert len(calls) == exponentials

    def test_reference_satisfies_its_own_envelopes(self, monkeypatch):
        # the fully damped evolution of damped_wave's data, and of a box,
        # sits under the envelopes undelayed and without slack; a box is
        # not band-limited, so the evolver's refusal of such data is lifted
        scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
        sys = scenario.system
        monkeypatch.setattr(spectral, "ALIASING_RTOL", math.inf)
        times = np.linspace(0.0, 12.0, 49)
        cal = harness.calibrate(sys, gamma_estimate(sys), 12.0)
        m = scenario.n_cells
        dx = (scenario.x_max - scenario.x_min) / m
        x = scenario.x_min + dx * np.arange(m)
        box = InitialDataSpec(bumps=(Bump(kind="box", component=0, center=0.0, width=1.0),))
        for data in (scenario.data, box):
            ref = spectral.fullspace_evolve(sys, x, data.sample(x, sys.n), times)
            l2_0, l1_0 = float(ref.l2_total[0]), float(ref.l1[0])
            assert np.all(ref.l2_high <= cal.c_high * np.exp(-cal.gamma * times) * l2_0)
            split = BandSplit.of(m, dx)
            allowed_low = norms.low_band_envelope(split, cal.kappa, times, l1_0 * cal.c_low)
            assert np.all(low_band_sup(ref.low_modes, m) <= allowed_low)

    def test_horizon_past_the_one_shot_guard(self):
        # 240 in 16 lags: the step's exponential has an argument of
        # Frobenius norm about 2100 at xi = 100, and its 16th power still
        # equals the oracle
        scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
        sys = scenario.system
        scan = gamma_estimate(sys)
        cal = harness.calibrate(sys, scan, 240.0)
        got = (cal.c_high, cal.c_low, cal.kappa)
        assert got == pytest.approx(_oracle(sys, scan, 240.0), rel=1e-12)


def _refuse(*args):
    raise AssertionError("no exponential is needed")


class TestVerifyEnvelope:
    def test_shipped_scenario_passes(self, damped_wave_result):
        _, result = damped_wave_result
        env = result.envelope
        assert env is not None
        assert env.ok
        assert env.n_checked > 100
        assert env.residence_bound == pytest.approx(2.0, rel=1e-12)
        assert env.calibration == _run_calibration(result)
        assert env.calibration.gamma == pytest.approx(0.5, abs=1e-9)

    def test_shrunken_constants_trip_violations(self, damped_wave_result):
        scenario, result = damped_wave_result
        traj = result.series
        assert isinstance(traj, Trajectory)
        cal = _run_calibration(result)
        starved = dataclasses.replace(
            cal, c_high=cal.c_high / 50.0, c_low=cal.c_low / 50.0
        )
        report = harness.verify_envelope(traj, starved)
        assert not report.ok
        bands = {v.band for v in report.violations}
        assert bands == {"high", "low"}
        for v in report.violations:
            assert v.measured > v.allowed

    def test_delay_read_from_simulated_stripes(self, tmp_path):
        # 3999 cells snap the file's stripe (-1, 1) to a width of 1.99050
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        raw["domain"]["n_cells"] = 3999
        result = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw)))
        assert result.series.grid.region.total_length == pytest.approx(1.99050, abs=5e-6)
        assert result.envelope.residence_bound == pytest.approx(1.99050, abs=5e-6)
        assert result.envelope.ok

    def test_stripe_edge_on_a_cell_midpoint(self, tmp_path):
        # at dx = 0.005 the edge 1.0175 is a cell midpoint: it snaps by half
        # a cell, which rounding makes 0.5000000000006 cells
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        raw["domain"] = {"x_min": -40.0, "x_max": 40.0, "n_cells": 16000}
        raw["region"]["stripes"] = [[-1.0, 1.0175]]
        result = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw)))
        grid = result.series.grid
        assert grid.snap_error == pytest.approx(grid.dx / 2, rel=1e-9)
        assert result.envelope.n_checked == 399
        assert result.envelope.ok

    @pytest.mark.parametrize("field", ["c_high", "c_low"])
    def test_non_finite_constant_refused(self, damped_wave_result, field):
        _, result = damped_wave_result
        constants = {"c_high": 1.0, "c_low": 1.0, field: math.nan}
        cal = harness.EnvelopeCalibration(gamma=0.5, kappa=0.5, **constants)
        with pytest.raises(ValueError, match=f"^verify: not finite: {field}$"):
            harness.verify_envelope(result.series, cal)

    @pytest.mark.parametrize("n_cells", [248, 992])
    def test_stripe_beside_the_data_holds(self, tmp_path, capsys, n_cells):
        # the constants fitted to a reference run of the data put the exact
        # solution's high band 6% over its envelope at t = 4.75; the
        # symbol's constants hold it
        code = cli.main(["verify", str(_write(tmp_path, stripe_beside_data(n_cells)))])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.splitlines()[-1] == "envelopes hold"

    @pytest.mark.parametrize("name, caught", [("damped_wave", 147), ("stripe_beside_data", 4)])
    def test_dropping_the_delay_is_caught(self, tmp_path, monkeypatch, name, caught):
        # with the delay taken as 0 the high band exceeds its envelope
        scenario = harness.load_scenario(_scenario_path(tmp_path, name))
        monkeypatch.setattr(harness, "residence_bound", lambda eigs, region: 0.0)
        env = harness.run_scenario(scenario).envelope
        assert env.residence_bound == 0.0
        assert [v.band for v in env.violations] == ["high"] * caught

    def test_checks_start_one_stride_past_delay(self, damped_wave_result):
        scenario, result = damped_wave_result
        traj = result.series
        env = result.envelope
        stride_dt = traj.times[1] - traj.times[0]
        expected = int(np.sum(traj.times >= env.residence_bound + stride_dt * (1 - 1e-9)))
        assert env.n_checked == expected


class TestProbe:
    def test_prediction_scalar(self):
        s = harness.load_scenario(SCENARIOS / "probe_scalar.json")
        eigs = diagonalize(np.diag([1.0]))
        comp, lam, t_pred = harness.probe_prediction(eigs, s.region, s.data)
        assert comp == 0 and lam == 1.0
        assert t_pred == pytest.approx(1.9, rel=1e-12)

    def test_prediction_read_from_simulated_stripe(self, tmp_path):
        # 1333 cells move the right edge of the stripe from 1 to 1.00375
        raw = json.loads((SCENARIOS / "probe_321.json").read_text())
        raw["domain"]["n_cells"] = 1333
        p = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw))).probe
        assert p.t_pred == pytest.approx(1.90375, abs=5e-6)
        assert p.within_one_stride

    def test_prediction_requires_characteristic_basis(self):
        eigs = diagonalize(np.diag([1.0]))
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="box", component=0, center=0.0, width=0.1),)
        )
        with pytest.raises(ValueError, match="characteristic"):
            harness.probe_prediction(eigs, region, data)

    def test_prediction_requires_single_component(self):
        eigs = diagonalize(np.diag([-1.0, 1.0]))
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(
                Bump(kind="box", component=0, center=0.0, width=0.1),
                Bump(kind="box", component=1, center=0.0, width=0.1),
            ),
            basis="characteristic",
        )
        with pytest.raises(ValueError, match="same component"):
            harness.probe_prediction(eigs, region, data)

    def test_prediction_requires_data_inside_stripe(self):
        eigs = diagonalize(np.diag([1.0]))
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="box", component=0, center=2.0, width=0.1),),
            basis="characteristic",
        )
        with pytest.raises(ValueError, match="inside a single stripe"):
            harness.probe_prediction(eigs, region, data)

    def test_data_touching_a_stripe_edge_anywhere(self):
        # probe_scalar's box [-1, -0.9] touches its stripe's left edge; moved
        # by whole cells of 0.01, the two edges round apart by an ulp, and
        # the data stays inside the stripe
        eigs = diagonalize(np.diag([1.0]))
        refused = []
        for k in range(-200, 201):
            shift = k * 0.01
            region = UndampedRegion(stripes=((-1.0 + shift, 1.0 + shift),))
            data = InitialDataSpec(
                bumps=(Bump(kind="box", component=0, center=-0.95 + shift, width=0.1),),
                basis="characteristic",
            )
            try:
                _, _, t_pred = harness.probe_prediction(eigs, region, data)
            except ValueError:
                refused.append(k)
                continue
            assert t_pred == pytest.approx(1.9, rel=1e-12), k
        assert refused == []

    @pytest.mark.parametrize("name", ["probe_scalar", "probe_321"])
    @pytest.mark.parametrize("e", [-44, -40, 20])
    def test_plateau_is_unit_free(self, tmp_path, name, e):
        # lengths and times times 2^e, damping times 2^-e: the same run in
        # other units, so the same plateau and an onset 2^e later
        raw = json.loads((SCENARIOS / f"{name}.json").read_text())
        base = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw))).probe
        raw["system"]["dd"] = np.ldexp(raw["system"]["dd"], -e).tolist()
        raw["region"]["stripes"] = np.ldexp(raw["region"]["stripes"], e).tolist()
        for key in ("x_min", "x_max"):
            raw["domain"][key] = math.ldexp(raw["domain"][key], e)
        raw["time"]["t_final"] = math.ldexp(raw["time"]["t_final"], e)
        for bump in raw["initial_data"]["bumps"]:
            bump["center"] = math.ldexp(bump["center"], e)
            bump["width"] = math.ldexp(bump["width"], e)
        p = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw))).probe
        assert p.plateau_min == base.plateau_min
        assert (p.t_pred, p.onset) == (math.ldexp(base.t_pred, e), math.ldexp(base.onset, e))

    def test_scalar_probe_run(self):
        s = harness.load_scenario(SCENARIOS / "probe_scalar.json")
        result = harness.run_scenario(s)
        p = result.probe
        assert p is not None and result.scan is None and result.envelope is None
        assert p.t_pred == pytest.approx(1.9, rel=1e-12)
        assert p.plateau_min == 1.0
        assert p.onset == pytest.approx(2.0, rel=1e-12)
        assert p.within_one_stride


class TestFullspaceScenario:
    def test_run_and_shape(self):
        s = harness.load_scenario(SCENARIOS / "fullspace_damped_wave.json")
        result = harness.run_scenario(s)
        series = result.series
        assert type(series) is NormSeries
        assert series.times[0] == 0.0
        assert series.times[-1] == pytest.approx(100.0)
        assert series.times.size == 101
        assert series.l2_total[-1] < series.l2_total[0]
        summary = harness.summarize(result)
        assert summary["kind"] == "fullspace"
        assert summary["n_samples"] == 101

    def test_samples_on_the_solver_schedule(self, tmp_path):
        # 1200 steps sampled every 7 leave a short last chunk of 3 steps
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        raw["kind"] = "fullspace"
        raw["time"]["stride"] = 7
        s = harness.load_scenario(_write(tmp_path, raw))
        traj = solver.run(
            s.system,
            s.region,
            s.data,
            x_min=s.x_min,
            x_max=s.x_max,
            t_final=s.t_final,
            stride=s.stride,
            n_cells=s.n_cells,
        )
        assert round(traj.times[-1] / traj.grid.dt) % s.stride != 0
        assert np.array_equal(harness.run_scenario(s).series.times, traj.times)

    def test_long_horizon_completes(self, tmp_path):
        # the reference advances by 18.75 per sample
        raw = json.loads((SCENARIOS / "fullspace_damped_wave.json").read_text())
        raw["domain"] = {"x_min": -512.0, "x_max": 512.0, "n_cells": 8192}
        raw["time"] = {"t_final": 450.0, "stride": 150}
        series = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw))).series
        assert series.times.tolist() == [18.75 * k for k in range(25)]
        assert np.all(np.isfinite(np.vstack([series.l2_total, series.l2_high, series.comp_l2])))
        assert np.all(np.diff(series.l2_total) <= 1e-12 * series.l2_total.max())

    def test_long_stride_completes(self, tmp_path):
        # one propagator over all 400 time units, argument norm about 1.4e4
        raw = json.loads((SCENARIOS / "fullspace_damped_wave.json").read_text())
        raw["time"] = {"t_final": 400.0, "stride": 40000}
        series = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw))).series
        assert series.times.tolist() == [0.0, 400.0]
        assert np.all(np.isfinite(np.vstack([series.l2_total, series.l2_high, series.l2_low,
                                             series.linf, series.l1, series.comp_l2])))
        assert np.all(np.diff(series.l2_total) <= 0.0)
        raw["time"]["stride"] = 8
        fine = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw))).series
        for name in ("l2_total", "l1", "linf"):
            assert getattr(series, name)[-1] == pytest.approx(getattr(fine, name)[-1], rel=1e-10)


class TestPublicNames:
    @pytest.mark.parametrize("module", [locdamp, harness], ids=["locdamp", "harness"])
    def test_all_names_resolve_once(self, module):
        names = module.__all__
        assert len(names) == len(set(names))
        for name in names:
            assert hasattr(module, name), name

    def test_readme_quick_start_prints_its_comments(self):
        # each print line of the quick start ends in "# <value>: ...", and
        # the script, run as a user would, prints that value
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
        want = [
            re.search(r"#\s*([^:\s]+)", line).group(1)
            for line in code.splitlines() if line.startswith("print(")
        ]
        src = str(Path(locdamp.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout.split()
        assert len(out) == len(want) > 0
        for got, value in zip(out, want):
            if value in ("True", "False"):
                assert got == value
            else:
                assert float(got) == pytest.approx(float(value), rel=1e-12), value


    def test_readme_command_lines_run(self, tmp_path, monkeypatch, capsys):
        # each `locdamp` line of the command-line block, run from the repo
        # root with its --out under tmp_path, exits 0 and writes no stderr
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text()
        block = re.search(r"## Command line.*?```sh\n(.*?)```", readme, flags=re.S).group(1)
        lines = [l.split("#")[0].split() for l in block.splitlines() if l.startswith("locdamp ")]
        assert len(lines) == 6
        monkeypatch.chdir(root)
        for words in lines:
            argv = words[1:]
            if "--out" in argv:
                i = argv.index("--out") + 1
                argv[i] = str(tmp_path / argv[i])
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, ""), words

    def test_readme_command_line_names_the_parsers_options(self):
        # the README's command-line section states rules for the options the
        # parser defines, no more and no fewer
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = re.search(r"^## Command line\n(.*?)(?=^## |\Z)", readme, flags=re.S | re.M)
        stated = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section.group(1)))
        parser = cli._parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        defined = {
            option
            for p in (parser, *sub.choices.values())
            for action in p._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        assert defined
        assert stated == defined


class TestExport:
    def test_header_and_determinism(self, tmp_path):
        s = harness.load_scenario(SCENARIOS / "probe_scalar.json")
        paths = []
        for name in ("one", "two"):
            result = harness.run_scenario(s)
            paths.append(harness.export(result, tmp_path / name))
        (csv1, sum1), (csv2, sum2) = paths
        assert csv1.read_bytes() == csv2.read_bytes()
        assert sum1.read_bytes() == sum2.read_bytes()
        first_line = csv1.read_text().splitlines()[0]
        assert first_line == "t,l2_total,l2_high,l2_low,linf,l1,comp_1"

    def test_csv_rows_match_series(self, tmp_path):
        s = harness.load_scenario(SCENARIOS / "probe_scalar.json")
        result = harness.run_scenario(s)
        csv_path, _ = harness.export(result, tmp_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + result.series.times.size
        last = lines[-1].split(",")
        assert float(last[0]) == result.series.times[-1]
        assert float(last[1]) == result.series.l2_total[-1]

    def test_summary_fields(self, tmp_path, damped_wave_result):
        _, result = damped_wave_result
        _, summary_path = harness.export(result, tmp_path)
        blob = json.loads(summary_path.read_text())
        assert blob["name"] == "damped_wave"
        assert blob["validation_ok"] is True
        assert blob["envelope_ok"] is True
        assert blob["envelope_violations"] == []
        assert set(blob["checks"]) == {
            "velocity_symmetric",
            "damping_coercive",
            "speeds_distinct",
            "speeds_nonzero",
            "coupling_eigvec",
            "coupling_rank",
        }
        assert blob["shifts"] == [-1, 1]

    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
    def test_shipped_runs_end_at_t_final(self, name):
        result = harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.json"))
        assert result.series.times[-1] == result.scenario.t_final
        assert harness.summarize(result)["time_snap_error"] == 0.0

    def test_time_snap_error_is_the_distance_to_the_last_sample(self, tmp_path):
        # the run takes whole steps of 0.01, so it ends at 4.01, not 4.0123
        raw = json.loads((SCENARIOS / "probe_scalar.json").read_text())
        raw["time"]["t_final"] = 4.0123
        result = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw)))
        summary = harness.summarize(result)
        assert summary["t_final"] == 4.0123
        assert result.series.times[-1] == pytest.approx(4.01, rel=1e-15)
        assert summary["time_snap_error"] == 4.0123 - result.series.times[-1]
        assert summary["time_snap_error"] == pytest.approx(0.0023, rel=1e-12)


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"not strict JSON: {constant}")

    return json.loads(text, parse_constant=refuse)


class TestStrictSummary:
    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
    def test_shipped_summaries_parse_strictly(self, tmp_path, name):
        result = harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.json"))
        _, summary_path = harness.export(result, tmp_path)
        assert _strict_json(summary_path.read_text())["name"] == name

    def test_unreached_onset_is_null(self, tmp_path):
        # the run ends before the predicted onset 0.95, so the energy never drops
        raw = json.loads((SCENARIOS / "probe_321.json").read_text())
        raw["time"]["t_final"] = 0.5
        result = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw)))
        assert result.probe.onset == math.inf
        _, summary_path = harness.export(result, tmp_path / "run")
        assert _strict_json(summary_path.read_text())["probe_onset"] is None

    def test_non_finite_value_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        summarize = harness.summarize
        monkeypatch.setattr(harness, "summarize", lambda r: {**summarize(r), "gamma": math.nan})
        out_dir = tmp_path / "run"
        code = cli.main(["simulate", str(SCENARIOS / "probe_scalar.json"), "--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().out.startswith("error: ")
        assert not out_dir.exists()


class TestDefaultResolution:
    # the default resolution is the shipped n_cells of each: 200 cells
    # across the narrowest stripe for a stepping kind, and for a fullspace
    # run, which steps no stripe, REF_POINTS_PER_SIGMA per narrowest bump width
    @pytest.mark.parametrize(
        "name",
        [
            "probe_scalar", "probe_321", "probe_421", "damped_wave", "three_speed_321",
            "fullspace_damped_wave",
        ],
    )
    def test_default_cell_count_matches_shipped(self, tmp_path, name):
        raw = json.loads((SCENARIOS / f"{name}.json").read_text())
        del raw["domain"]["n_cells"]
        shipped = harness.load_scenario(SCENARIOS / f"{name}.json")
        default = harness.load_scenario(_write(tmp_path, raw))
        assert default.n_cells is None
        outputs = []
        for label, scenario in (("shipped", shipped), ("default", default)):
            files = harness.export(harness.run_scenario(scenario), tmp_path / label)
            outputs.append([f.read_bytes() for f in files])
        assert outputs[0] == outputs[1]


class TestLazyLowBandSup:
    """The low band's sup is synthesized from the stored low modes only
    where it is read: bit-equal to transforming the whole masked spectrum
    back at each sample, never paid for by a run or an export, and taken
    by the envelope check only at the samples it cannot settle otherwise."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
    def test_equals_eager_formula(self, name, monkeypatch):
        eager = []
        split, rescale = norms.freq_split, norms.scale_columns

        def recording_split(what, bands):
            # one spectrum per sample of the stack
            eager.extend(eager_low_band_sup(w, bands.n_cells, bands.dx) for w in what)
            return split(what, bands)

        def recording_rescale(columns, e):
            # the columns of a stack, or of a whole run, taken on fields
            # over 2**e, one exponent or one per sample; so were the eager
            # sups recorded for them
            k = np.size(columns["l2_total"])
            exponents = np.broadcast_to(e, (k,))
            eager[-k:] = [math.ldexp(v, int(x)) for v, x in zip(eager[-k:], exponents)]
            return rescale(columns, e)

        monkeypatch.setattr(norms, "freq_split", recording_split)
        monkeypatch.setattr(norms, "scale_columns", recording_rescale)
        result = harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.json"))
        series = result.series
        assert np.array_equal(low_band_sup(series.low_modes, series.n_cells), np.array(eager))

    @pytest.mark.parametrize(
        "name",
        sorted(
            p.stem
            for p in SCENARIOS.glob("*.json")
            if harness.load_scenario(p).kind in ("conservation-probe", "fullspace")
        ),
    )
    def test_runs_that_do_not_read_it_never_synthesize_it(self, name, monkeypatch, tmp_path):
        # samples brought back to the grid, one per row of a stack
        samples = []
        irfft = np.fft.irfft

        def counting_irfft(a, *args, **kwargs):
            samples.append(len(a) if np.ndim(a) == 3 else 1)
            return irfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        result = harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.json"))
        harness.export(result, tmp_path / "run")
        n_samples = result.series.times.size
        # fullspace_evolve brings each sample back to the grid once; the
        # norm layer adds no transform of its own
        evolved = n_samples if result.scenario.kind == "fullspace" else 0
        assert sum(samples) == evolved

    @pytest.mark.parametrize("name", ENVELOPE_SCENARIOS)
    def test_check_synthesizes_only_unsettled_samples(self, name, monkeypatch):
        # the trajectory's sups are synthesized only where the bound on the
        # stored modes does not settle a checked sample, and on the shipped
        # scenarios it settles every one
        calls = []
        sup = harness.low_band_sup

        def counting_sup(modes, n_cells):
            calls.append(n_cells)
            return sup(modes, n_cells)

        monkeypatch.setattr(harness, "low_band_sup", counting_sup)
        harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.json"))
        assert calls == []


class TestLowBandShortcut:
    """The envelope check skips ``low_band_sup`` where ``low_band_bound``
    settles a sample, so its verdicts are those of the sup everywhere."""

    @pytest.fixture(scope="class")
    def envelope_runs(self):
        runs = {}
        for name in ENVELOPE_SCENARIOS:
            result = harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.json"))
            runs[name] = (result.series, _run_calibration(result))
        return runs

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.1, 1e-3])
    @pytest.mark.parametrize("name", ENVELOPE_SCENARIOS)
    def test_verdicts_equal_exhaustive_check(self, envelope_runs, monkeypatch, name, scale):
        traj, cal = envelope_runs[name]
        starved = dataclasses.replace(cal, c_low=cal.c_low * scale)
        report = harness.verify_envelope(traj, starved)
        # with a bound that settles nothing, the check synthesizes the sup
        # at every checked sample
        monkeypatch.setattr(harness, "low_band_bound", lambda modes, n_cells: math.inf)
        exhaustive = harness.verify_envelope(traj, starved)
        assert report.n_checked == exhaustive.n_checked
        assert report.violations == exhaustive.violations
        low = [v for v in exhaustive.violations if v.band == "low"]
        assert [v.measured for v in low] == [
            low_band_sup(traj.low_modes[np.flatnonzero(traj.times == v.t)[0]], traj.n_cells)
            for v in low
        ]


class TestCli:
    def test_check_ok(self, capsys):
        code = cli.main(["check", str(SCENARIOS / "probe_scalar.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "admissible" in out

    def test_check_rejects_inadmissible(self, tmp_path, capsys):
        raw = _good_raw()
        raw["system"] = {"a": [[1.0, 0.0], [0.0, 1.0]], "n1": 1, "dd": [[1.0]]}
        raw["initial_data"]["bumps"][0]["component"] = 0
        code = cli.main(["check", str(_write(tmp_path, raw))])
        out = capsys.readouterr().out
        assert code == 1
        assert "NOT admissible" in out

    @pytest.mark.parametrize("command", ["check", "times", "spectrum", "simulate", "verify"])
    @pytest.mark.parametrize(
        "content",
        [None, "{nope", b"\xff\xfe{}", '{"name": "x"}'],
        ids=["missing", "invalid-json", "non-utf8", "schema"],
    )
    def test_rejected_file_exits_2(self, tmp_path, capsys, command, content):
        path = tmp_path / "scenario.json"
        if isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        out_args = ["--out", str(tmp_path / "run")] if command in ("simulate", "verify") else []
        code = cli.main([command, str(path), *out_args])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.startswith("error: scenario rejected (")
        assert captured.err == ""
        assert not (tmp_path / "run").exists()

    def test_times_table(self, capsys):
        code = cli.main(["times", str(SCENARIOS / "damped_wave.json")])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.splitlines()
        assert "residence delay bound: 2" in lines
        assert "conservation horizon: 2" in lines
        assert "sup_undamped" in out

    def test_times_two_stripes(self, capsys):
        # the horizon is printed for any stripes, below the residence bound
        code = cli.main(["times", str(SCENARIOS / "stripes_two.json")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert "residence delay bound: 4.5" in lines
        (horizon,) = [ln for ln in lines if ln.startswith("conservation horizon: ")]
        assert float(horizon.split(": ")[1]) == pytest.approx(3.0, rel=1e-12)

    def test_times_custom_grid(self, capsys):
        code = cli.main(
            ["times", str(SCENARIOS / "damped_wave.json"), "--t-grid", "0:4:1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len([l for l in out.splitlines() if l.lstrip()[:1].isdigit()]) >= 5

    def test_times_to_the_end_of_the_float_range(self, capsys):
        # the sup saturates, so the last rows read the saturated value
        code = cli.main(
            ["times", str(SCENARIOS / "three_speed_321.json"), "--t-grid", "0:1e308:5e307"]
        )
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        rows = [l.split() for l in captured.out.splitlines() if l.lstrip()[:1].isdigit()]
        assert [float(t) for t, _, _ in rows] == [5e307 * k for k in range(3)]
        assert [float(sup) for _, sup, _ in rows[1:]] == [pytest.approx(11.0 / 3.0, rel=1e-12)] * 2

    def test_times_bad_grid(self, capsys):
        code = cli.main(
            ["times", str(SCENARIOS / "damped_wave.json"), "--t-grid", "1:2"]
        )
        assert code == 2
        assert "start:stop:step" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["0:inf:1", "nan:4:1", "0:4:nan", "0:4:inf"])
    def test_times_non_finite_grid(self, capsys, spec):
        code = cli.main(["times", str(SCENARIOS / "damped_wave.json"), "--t-grid", spec])
        out = capsys.readouterr().out
        assert code == 2
        assert out.splitlines()[-1] == "error: --t-grid: start, stop and step must be finite"

    # 1e308 / 1e-10 overflows to inf: refused before any row is allocated
    @pytest.mark.parametrize("spec", ["0:1e308:1e-10", "0:1:5e-324"])
    def test_times_row_count_not_finite_exits_2(self, capsys, spec):
        code = cli.main(["times", str(SCENARIOS / "damped_wave.json"), "--t-grid", spec])
        out = capsys.readouterr().out
        assert code == 2
        assert out.splitlines() == [
            "error: --t-grid: (stop - start) / step is not a finite row count"
        ]

    def test_times_negative_start_exits_2(self, capsys):
        code = cli.main(["times", str(SCENARIOS / "damped_wave.json"), "--t-grid=-2:1:1"])
        out = capsys.readouterr().out
        assert code == 2
        assert out.splitlines() == ["error: --t-grid: start must not be negative"]

    # 711 PiB, more than any 64-bit address space holds: numpy's request
    # is refused up front, so these allocate nothing
    def test_times_grid_too_large_to_allocate_exits_2(self, capsys):
        code = cli.main(["times", str(SCENARIOS / "damped_wave.json"), "--t-grid", "0:1e17:1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(out) == 1 and out[0].startswith("error: Unable to allocate 711. PiB")

    def test_simulate_grid_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        raw = _good_raw()
        raw["domain"]["n_cells"] = 10**17
        code = cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(tmp_path / "run")])
        out = capsys.readouterr().out.splitlines()
        assert code == 2
        assert len(out) == 1 and out[0].startswith("error: Unable to allocate 711. PiB")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "a, message",
        [
            ([[0.0, 1.0], [0.5, 0.0]], "velocity matrix must be symmetric"),
            ([[0.0, 0.0], [0.0, 1.0]], "characteristic speed must be nonzero"),
        ],
        ids=["non-symmetric", "standing-component"],
    )
    def test_times_inadmissible_exits_2(self, tmp_path, capsys, a, message):
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        raw["system"]["a"] = a
        code = cli.main(["times", str(_write(tmp_path, raw))])
        out = capsys.readouterr().out
        assert code == 2
        assert out.splitlines() == [f"error: {message}"]

    @staticmethod
    def _wave_with_speed(tmp_path: Path, speed: float) -> Path:
        """``damped_wave`` with speeds +-``speed``."""
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        raw["system"]["a"] = [[0.0, speed], [speed, 0.0]]
        return _write(tmp_path, raw)

    def test_spectrum_refuses_a_speed_past_the_scan_range(self, tmp_path, capsys):
        # 1.8e306 times the top frequency 100 passes the float range
        code = cli.main(["spectrum", str(self._wave_with_speed(tmp_path, 1.8e306))])
        out = capsys.readouterr().out
        assert code == 2
        assert out.splitlines() == [
            "error: gamma_estimate: the largest speed times the top frequency 100 must be finite"
        ]

    def test_spectrum(self, capsys):
        code = cli.main(["spectrum", str(SCENARIOS / "damped_wave.json")])
        out = capsys.readouterr().out
        assert code == 0
        rate_line = next(l for l in out.splitlines() if "uniform decay rate" in l)
        assert float(rate_line.split(":")[1]) == pytest.approx(0.5, abs=1e-9)
        assert re.search(r"^  scan resolution: \S+$", out, re.MULTILINE)
        kappa_line = next(l for l in out.splitlines() if l.startswith("diffusive rate (kappa): "))
        assert float(kappa_line.split(":")[1]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("name", ["damped_wave", "three_speed_321"])
    def test_spectrum_summary_and_verify_show_one_kappa(self, tmp_path, capsys, name):
        # spectrum prints kappa to 17 digits, the summary holds it whole and
        # verify's constants line prints it to 12
        path = str(SCENARIOS / f"{name}.json")
        assert cli.main(["spectrum", path]) == 0
        out = capsys.readouterr().out.splitlines()
        kappa = next(l for l in out if l.startswith("diffusive rate (kappa): ")).split(": ")[1]
        assert cli.main(["verify", path, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out.splitlines()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert f"{summary['kappa']:.17g}" == kappa
        constants = next(l for l in out if l.startswith("constants: "))
        assert constants.endswith(f"  kappa {float(kappa):.12g}")

    def test_spectrum_marks_an_unresolved_rate(self, tmp_path, capsys):
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        raw["system"]["dd"] = [[1e10]]
        code = cli.main(["spectrum", str(_write(tmp_path, raw))])
        out = capsys.readouterr().out
        assert code == 0
        assert re.search(r"^  scan resolution: \S+  \(rate not resolved\)$", out, re.MULTILINE)

    def test_spectrum_resolution_finite_at_the_largest_frequency(self, tmp_path, capsys):
        # 1.7e306 times the top frequency 100 is finite, but the square of a
        # matrix norm there is not
        code = cli.main(["spectrum", str(self._wave_with_speed(tmp_path, 1.7e306))])
        out = capsys.readouterr().out
        assert code == 0
        resolution = re.search(r"^  scan resolution: (\S+)", out, re.MULTILINE)
        assert math.isfinite(float(resolution.group(1))), out

    def test_simulate_writes_outputs(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = cli.main(
            ["simulate", str(SCENARIOS / "probe_scalar.json"), "--out", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert (out_dir / "norms.csv").exists()
        assert (out_dir / "summary.json").exists()
        assert out.splitlines() == [
            f"wrote {out_dir / 'norms.csv'}",
            f"wrote {out_dir / 'summary.json'}",
        ]

    @pytest.mark.parametrize(
        "command, scenario", [("simulate", "probe_scalar"), ("verify", "damped_wave")]
    )
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, command, scenario):
        taken = tmp_path / "taken.txt"
        taken.write_text("keep\n")
        code = cli.main([command, str(SCENARIOS / f"{scenario}.json"), "--out", str(taken)])
        captured = capsys.readouterr()
        assert code == 2
        [line] = captured.out.splitlines()
        assert line.startswith("error: ") and str(taken) in line
        assert captured.err == ""
        assert taken.read_text() == "keep\n"

    def test_verify_wrong_kind(self, capsys):
        code = cli.main(["verify", str(SCENARIOS / "probe_scalar.json")])
        assert code == 2
        assert "verify-envelope" in capsys.readouterr().out

    def test_verify_violations_exit_1(self, monkeypatch, capsys):
        original = harness.calibrate

        def starved(*args, **kw):
            cal = original(*args, **kw)
            return dataclasses.replace(cal, c_high=cal.c_high / 50.0, c_low=cal.c_low / 50.0)

        monkeypatch.setattr(harness, "calibrate", starved)
        code = cli.main(["verify", str(SCENARIOS / "damped_wave.json")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        head = next(i for i, l in enumerate(lines) if l.startswith("VIOLATIONS: "))
        listed = lines[head + 1:]
        assert int(lines[head].split()[1]) == len(listed) > 0
        assert all(re.fullmatch(r"  t=\S+ band=(high|low) measured=\S+ allowed=\S+", l) for l in listed)

    def test_verify_non_finite_constants_exit_2(self, monkeypatch, capsys):
        original = harness.calibrate

        def broken(*args, **kw):
            return dataclasses.replace(original(*args, **kw), c_low=math.nan)

        monkeypatch.setattr(harness, "calibrate", broken)
        code = cli.main(["verify", str(SCENARIOS / "damped_wave.json")])
        assert code == 2
        assert capsys.readouterr().out.splitlines() == ["error: verify: not finite: c_low"]

    def test_verify_with_nothing_to_check_exits_2(self, tmp_path, capsys):
        # the horizon 4 ends before the delay 4.5: no sample time is checked
        out_dir = tmp_path / "run"
        code = cli.main(["verify", str(SCENARIOS / "stripes_two.json"), "--out", str(out_dir)])
        assert code == 2
        assert capsys.readouterr().out.splitlines() == [
            "error: verify: no sample time to check: t_final 4 ends before "
            "the delay 4.5 plus one stride 0.05"
        ]
        assert not out_dir.exists()

    def test_probe_outside_simulated_stripe_exits_2(self, tmp_path, capsys):
        # 1408 cells snap the stripe's left edge from -1 to -0.99858, past
        # the left end of the box
        raw = _good_raw()
        raw["domain"]["n_cells"] = 1408
        code = cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().out.splitlines() == [
            "error: probe: initial data must lie inside a single stripe"
        ]
        assert not (tmp_path / "run").exists()

    def test_verify_passes(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = cli.main(
            ["verify", str(SCENARIOS / "damped_wave.json"), "--out", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "envelopes hold" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        c_high, c_low, kappa = (summary[key] for key in ("c_high", "c_low", "kappa"))
        assert f"constants: high {c_high:.12g}  low {c_low:.12g}  kappa {kappa:.12g}" in out

    @pytest.mark.parametrize(
        "command, scenario, edit, message",
        [
            pytest.param(command, "damped_wave", edit, message, id=f"{name}-{command}")
            for name, edit, message in STEPPING_REJECTIONS
            for command in ("simulate", "verify")
        ]
        + [
            pytest.param(
                "simulate", "fullspace_damped_wave", edit, message, id=f"fullspace_{name}-simulate"
            )
            for name, edit, message in FULLSPACE_REJECTIONS
        ],
    )
    def test_run_rejection_exits_2(self, tmp_path, capsys, command, scenario, edit, message):
        raw = json.loads((SCENARIOS / f"{scenario}.json").read_text())
        edit(raw)
        code = cli.main([command, str(_write(tmp_path, raw)), "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out.splitlines() == [f"error: {message}"]
        assert captured.err == ""
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "kind, command",
        [
            pytest.param(kind, command, id=f"{kind}-{command}")
            for kind in ("box", "cosine")
            for command in ("simulate", "verify")
        ],
    )
    def test_runs_box_and_cosine_data(self, tmp_path, capsys, kind, command):
        # the envelope constants read no data, so any bump kind is verified
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        for bump in raw["initial_data"]["bumps"]:
            bump["kind"] = kind
        out_dir = tmp_path / "run"
        code = cli.main([command, str(_write(tmp_path, raw)), "--out", str(out_dir)])
        assert code == 0, capsys.readouterr().out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["envelope_ok"] and summary["envelope_checked"] == 200

    @pytest.mark.parametrize("stripes", [[[200.0, 201.0]], [[0.0, 0.01]]], ids=["outside", "narrow"])
    def test_fullspace_reads_no_stripes(self, tmp_path, stripes):
        # a stripe outside the domain, and one narrower than a cell
        raw = json.loads((SCENARIOS / "fullspace_damped_wave.json").read_text())
        raw["region"]["stripes"] = stripes
        runs = [
            cli.main(["simulate", str(path), "--out", str(out)])
            for path, out in [
                (SCENARIOS / "fullspace_damped_wave.json", tmp_path / "shipped"),
                (_write(tmp_path, raw), tmp_path / "edited"),
            ]
        ]
        assert runs == [0, 0]
        csv = [(tmp_path / d / harness.CSV_NAME).read_bytes() for d in ("shipped", "edited")]
        assert csv[0] == csv[1]

    def test_simulate_zero_probe_exits_2(self, tmp_path, capsys):
        raw = _good_raw()
        raw["initial_data"]["bumps"][0]["amplitude"] = 0.0
        code = cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().out.splitlines() == ["error: initial data is zero on the grid"]

    def test_simulate_overflowing_probe_exits_2(self, tmp_path, capsys):
        raw = _good_raw()
        _overflowing_data(raw)
        code = cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("error: initial data is not finite on the grid\n", "")

    def test_overflow_after_mapping_to_physical_components_exits_2(self, tmp_path, capsys):
        # finite characteristic data whose physical components overflow
        raw = json.loads((SCENARIOS / "fullspace_damped_wave.json").read_text())
        bump = dict(raw["initial_data"]["bumps"][0], amplitude=1.7e308)
        raw["initial_data"] = {"basis": "characteristic", "bumps": [bump, dict(bump, component=1)]}
        code = cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(tmp_path / "run")])
        captured = capsys.readouterr()
        assert code == 2
        assert (captured.out, captured.err) == ("error: initial data is not finite on the grid\n", "")

    def test_verify_rejects_non_finite_amplitude(self, tmp_path, capsys):
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        raw["initial_data"]["bumps"][0]["amplitude"] = math.nan
        code = cli.main(["verify", str(_write(tmp_path, raw))])
        out = capsys.readouterr().out
        assert code == 2
        assert "initial_data.bumps[0].amplitude: expected a finite number" in out
        assert "envelopes hold" not in out


def _non_finite(node, key=None) -> list:
    """Non-finite numbers in a parsed summary, as ``(key, value)`` pairs."""
    if isinstance(node, dict):
        return [bad for k, v in node.items() for bad in _non_finite(v, k)]
    if isinstance(node, list):
        return [bad for v in node for bad in _non_finite(v, key)]
    if isinstance(node, float) and not math.isfinite(node):
        return [(key, node)]
    return []


class TestEndToEndFuzz:
    """Perturbed copies of the shipped scenarios through all five
    subcommands, in-process: every run exits 0, 1 or 2 without a traceback,
    every exported value is finite, and a passing ``verify`` has checked at
    least one sample time.
    """

    @settings(
        max_examples=40,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_subcommands_exit_cleanly_with_finite_outputs(self, tmp_path, capsys, data):
        shipped = data.draw(st.sampled_from(sorted(SCENARIOS.glob("*.json"))))
        raw = json.loads(shipped.read_text())
        raw["time"]["t_final"] *= data.draw(st.floats(0.1, 1.5))
        raw["time"]["stride"] = data.draw(st.integers(1, 50))
        # at most 2000 cells, so that the test stays within seconds
        cells = raw["domain"]["n_cells"]
        raw["domain"]["n_cells"] = data.draw(st.integers(min(cells // 4, 500), min(cells, 2000)))
        kind = data.draw(st.sampled_from([None, *solver.BUMP_KINDS]))
        for bump in raw["initial_data"]["bumps"]:
            bump["kind"] = kind or bump["kind"]
            bump["width"] *= data.draw(st.floats(0.5, 2.0))
            bump["center"] += data.draw(st.floats(-0.5, 0.5))
            bump["amplitude"] = math.ldexp(1.0, data.draw(st.integers(-1000, 1000)))
        path = str(_write(tmp_path, raw))
        out = tmp_path / "run"
        shutil.rmtree(out, ignore_errors=True)
        for argv in (["check", path], ["times", path], ["spectrum", path],
                     ["simulate", path, "--out", str(out)]):
            assert cli.main(argv) in (0, 1, 2), argv
        capsys.readouterr()
        code = cli.main(["verify", path])
        assert code in (0, 1, 2)
        if code == 0:
            checked = re.search(r"^checked (\d+) sample times", capsys.readouterr().out, re.M)
            assert checked is not None and int(checked.group(1)) > 0
        if (out / harness.SUMMARY_NAME).exists():
            summary = json.loads((out / harness.SUMMARY_NAME).read_text())
            assert _non_finite(summary) == [], summary
            rows = (out / harness.CSV_NAME).read_text().splitlines()[1:]
            assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
