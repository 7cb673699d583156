"""Scenario loading, fits, calibration, envelope verification, export, CLI.

The strict loader is exercised with systematically corrupted copies of a
known-good scenario; the envelope machinery is checked both on a passing
run and with artificially shrunken constants that must trip violations.
"""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import locdamp
from helpers import eager_linf_low
from locdamp import cli, harness, solver, spectral
from locdamp.chartimes import UndampedRegion
from locdamp.model import EigenStructure
from locdamp.solver import Bump, InitialDataSpec, Trajectory
from locdamp.spectral import NormSeries

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _good_raw() -> dict:
    return json.loads((SCENARIOS / "probe_scalar.json").read_text())


def _write(tmp_path: Path, raw) -> Path:
    p = tmp_path / "scenario.json"
    p.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    return p


def _errors_of(tmp_path: Path, raw) -> list[str]:
    with pytest.raises(harness.ScenarioError) as err:
        harness.load_scenario(_write(tmp_path, raw))
    return err.value.errors


def _long_run(raw: dict) -> None:
    raw["time"]["t_final"] = 500.0


def _box_bumps(raw: dict) -> None:
    for bump in raw["initial_data"]["bumps"]:
        bump["kind"] = "box"


def _zero_amplitudes(raw: dict) -> None:
    for bump in raw["initial_data"]["bumps"]:
        bump["amplitude"] = 0.0


def _set(section: str, **values):
    return lambda raw: raw[section].update(values)


# (id, edit, message): runs that reject a stepping scenario or a fullspace one.
STEPPING_REJECTIONS = [
    ("edge", _long_run, "initial data would reach the edge guard band before t_final; enlarge the domain"),
    ("box", _box_bumps, "calibrate: reference calibration needs gaussian bumps"),
    ("zero", _zero_amplitudes, "initial data is zero on the grid"),
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
        assert any("system.a[1]: expected a list of numbers" in e for e in errors)

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
        assert any("must not be empty" in e for e in _errors_of(tmp_path, raw))

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
        assert _errors_of(tmp_path, raw) == ["system.a: expected a nonempty list of rows"]

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
        fit = harness.fit_decay_rate(t, 3.0 * np.exp(-0.7 * t), 0.0, 5.0)
        assert fit.rate == pytest.approx(0.7, abs=1e-12)
        assert fit.log_intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert fit.n_points == 26
        assert fit.max_residual <= 1e-12

    def test_window_restricts_points(self):
        t = np.linspace(0.0, 5.0, 26)
        fit = harness.fit_decay_rate(t, np.exp(-t), 1.0, 4.0)
        assert fit.n_points == 16

    def test_too_few_points(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="at least 10"):
            harness.fit_decay_rate(t, np.exp(-t), 0.0, 1.0)

    def test_nonpositive_values_dropped(self):
        t = np.linspace(0.0, 5.0, 26)
        v = np.exp(-t)
        v[::2] = 0.0
        with pytest.raises(ValueError, match="at least 10"):
            harness.fit_decay_rate(t, v, 0.0, 1.0)

    def test_power_law_slope_recovered(self):
        t = np.linspace(1.0, 50.0, 40)
        fit = harness.fit_loglog_slope(t, 2.0 * t**-0.5, 1.0, 50.0)
        assert fit.rate == pytest.approx(-0.5, abs=1e-12)
        assert fit.log_intercept == pytest.approx(np.log(2.0), abs=1e-12)


@pytest.fixture(scope="module")
def damped_wave_result():
    scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
    return scenario, harness.run_scenario(scenario)


class TestCalibrate:
    def test_rejects_nonpositive_rate(self):
        data = InitialDataSpec(
            bumps=(Bump(kind="gaussian", component=0, center=0.0, width=0.25),)
        )
        scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
        with pytest.raises(ValueError, match="positive"):
            harness.calibrate(scenario.system, data, [1.0, 2.0], 0.0)

    def test_rejects_nongaussian_data(self):
        data = InitialDataSpec(
            bumps=(Bump(kind="box", component=0, center=0.0, width=0.5),)
        )
        scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
        with pytest.raises(ValueError, match="gaussian"):
            harness.calibrate(scenario.system, data, [1.0, 2.0], 0.5)

    def test_rejects_times_without_a_positive_sample(self):
        scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
        with pytest.raises(ValueError, match="at least one positive sample time"):
            harness.calibrate(scenario.system, scenario.data, [0.0], 0.5)

    @pytest.mark.parametrize("name", ["damped_wave", "stripes_two", "three_speed_321"])
    def test_one_exponential_per_distinct_step_count(self, name, monkeypatch):
        # Trajectory times are float multiples of dt whose differences
        # disagree in the last bits; equal step counts must still share
        # one propagator.
        scenario = harness.load_scenario(SCENARIOS / f"{name}.json")
        traj = solver.run(
            scenario.system,
            scenario.region,
            scenario.data,
            x_min=scenario.x_min,
            x_max=scenario.x_max,
            t_final=scenario.t_final,
            stride=scenario.stride,
            n_cells=scenario.n_cells,
        )
        calls = []
        original = spectral._matrix_exp_batch
        monkeypatch.setattr(
            spectral, "_matrix_exp_batch", lambda ms: calls.append(1) or original(ms)
        )
        cal = harness.calibrate(scenario.system, scenario.data, traj.times, 0.5)
        steps = np.rint(np.diff(cal.ref.times) / traj.grid.dt).astype(int)
        assert len(calls) == len(set(steps[steps > 0].tolist()))

    def test_reference_satisfies_its_own_envelopes(self):
        scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
        times = np.linspace(0.0, 8.0, 17)
        cal = harness.calibrate(scenario.system, scenario.data, times, 0.5)
        ref = cal.ref
        l2_0, l1_0 = float(ref.l2_total[0]), float(ref.l1[0])
        # the constants were chosen with 10% headroom over the worst ratio,
        # so the reference run sits strictly below its own envelopes
        bound_high = cal.c_high * np.exp(-cal.gamma * ref.times) * l2_0
        assert np.all(ref.l2_high <= bound_high * (1.0 + 1e-9))
        pos = ref.times > 0.0
        bound_low = cal.c_low * l1_0 / np.sqrt(ref.times[pos])
        assert np.all(ref.linf_low[pos] <= bound_low * (1.0 + 1e-9))
        assert cal.gamma == 0.5

    def test_horizon_past_the_one_shot_guard(self):
        # t_max * 4 pi / sigma = 240 * 4 pi / 0.25 exceeds the 1e4 norm guard
        # of a single exponential; late high bands sit at round-off and
        # must not inflate the constant
        scenario = harness.load_scenario(SCENARIOS / "damped_wave.json")
        short = harness.calibrate(scenario.system, scenario.data, np.linspace(0.0, 8.0, 17), 0.5)
        cal = harness.calibrate(scenario.system, scenario.data, np.linspace(0.0, 240.0, 33), 0.5)
        assert cal.ref.times[-1] == 240.0
        assert np.all(np.isfinite(cal.ref.l2_total))
        assert cal.c_high == pytest.approx(short.c_high, rel=0.05)
        assert cal.c_low == pytest.approx(short.c_low, rel=0.05)


class TestVerifyEnvelope:
    def test_shipped_scenario_passes(self, damped_wave_result):
        _, result = damped_wave_result
        env = result.envelope
        assert env is not None
        assert env.ok
        assert env.n_checked > 100
        assert env.residence_bound == pytest.approx(2.0, rel=1e-12)
        assert env.gamma == pytest.approx(0.5, abs=1e-9)

    def test_shrunken_constants_trip_violations(self, damped_wave_result):
        scenario, result = damped_wave_result
        traj = result.series
        assert isinstance(traj, Trajectory)
        scan = result.scan
        cal = harness.calibrate(
            scenario.system, scenario.data, traj.times, scan.gamma
        )
        starved = dataclasses.replace(
            cal, c_high=cal.c_high / 50.0, c_low=cal.c_low / 50.0
        )
        report = harness.verify_envelope(traj, scenario.region, starved)
        assert not report.ok
        bands = {v.band for v in report.violations}
        assert bands == {"high", "low"}
        for v in report.violations:
            assert v.measured > v.allowed

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
        eigs = EigenStructure.from_speeds([1.0])
        comp, lam, t_pred = harness.probe_prediction(eigs, s.region, s.data)
        assert comp == 0 and lam == 1.0
        assert t_pred == pytest.approx(1.9, rel=1e-12)

    def test_prediction_requires_characteristic_basis(self):
        eigs = EigenStructure.from_speeds([1.0])
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="box", component=0, center=0.0, width=0.1),)
        )
        with pytest.raises(ValueError, match="characteristic"):
            harness.probe_prediction(eigs, region, data)

    def test_prediction_requires_single_component(self):
        eigs = EigenStructure.from_speeds([-1.0, 1.0])
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
        eigs = EigenStructure.from_speeds([1.0])
        region = UndampedRegion(stripes=((-1.0, 1.0),))
        data = InitialDataSpec(
            bumps=(Bump(kind="box", component=0, center=2.0, width=0.1),),
            basis="characteristic",
        )
        with pytest.raises(ValueError, match="inside a single stripe"):
            harness.probe_prediction(eigs, region, data)

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
        # one exponential over t = 450 would exceed the norm guard; the
        # reference advances by 18.75 per sample instead
        raw = json.loads((SCENARIOS / "fullspace_damped_wave.json").read_text())
        raw["domain"] = {"x_min": -512.0, "x_max": 512.0, "n_cells": 8192}
        raw["time"] = {"t_final": 450.0, "stride": 150}
        series = harness.run_scenario(harness.load_scenario(_write(tmp_path, raw))).series
        assert series.times.tolist() == [18.75 * k for k in range(25)]
        assert np.all(np.isfinite(np.vstack([series.l2_total, series.l2_high, series.comp_l2])))
        assert np.all(np.diff(series.l2_total) <= 1e-12 * series.l2_total.max())


class TestPublicNames:
    @pytest.mark.parametrize("module", [locdamp, harness], ids=["locdamp", "harness"])
    def test_all_names_resolve_once(self, module):
        names = module.__all__
        assert len(names) == len(set(names))
        for name in names:
            assert hasattr(module, name), name


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


class TestLazyLowBandSup:
    """``linf_low`` is synthesized from the stored low modes on first read:
    bit-equal to transforming the whole masked spectrum back at each
    sample, and never paid for by runs that do not read it."""

    @pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
    def test_equals_eager_formula(self, name, monkeypatch):
        eager = []
        refs = []
        split, cal = spectral.freq_split, harness.calibrate

        def recording_split(w, dx):
            eager.append(eager_linf_low(w, dx))
            return split(w, dx)

        def recording_calibrate(*args, **kwargs):
            out = cal(*args, **kwargs)
            refs.append(out.ref)
            return out

        monkeypatch.setattr(spectral, "freq_split", recording_split)
        monkeypatch.setattr(harness, "calibrate", recording_calibrate)
        result = harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.json"))
        lazy = np.concatenate([result.series.linf_low, *(r.linf_low for r in refs)])
        assert len(refs) == (result.scenario.kind == "verify-envelope")
        assert np.array_equal(lazy, np.array(eager))

    @pytest.mark.parametrize(
        "name",
        sorted(
            p.stem
            for p in SCENARIOS.glob("*.json")
            if harness.load_scenario(p).kind in ("conservation-probe", "fullspace")
        ),
    )
    def test_runs_that_do_not_read_it_never_synthesize_it(self, name, monkeypatch, tmp_path):
        calls = []
        irfft = np.fft.irfft

        def counting_irfft(*args, **kwargs):
            calls.append(1)
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        result = harness.run_scenario(harness.load_scenario(SCENARIOS / f"{name}.json"))
        harness.export(result, tmp_path / "run")
        n_samples = result.series.times.size
        # fullspace_evolve brings each sample back to the grid once; the
        # norm layer adds no transform of its own
        evolved = n_samples if result.scenario.kind == "fullspace" else 0
        assert len(calls) == evolved
        first = result.series.linf_low
        assert result.series.linf_low is first
        assert len(calls) == evolved + n_samples


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
        assert "residence delay bound: 2" in out
        assert "conservation horizon upper bound" in out
        assert "sup_undamped" in out

    def test_times_custom_grid(self, capsys):
        code = cli.main(
            ["times", str(SCENARIOS / "damped_wave.json"), "--t-grid", "0:4:1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert len([l for l in out.splitlines() if l.lstrip()[:1].isdigit()]) >= 5

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

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--xi-max", "0.5", "xi_max must be finite and exceed 1"),
            ("--xi-max", "nan", "xi_max must be finite and exceed 1"),
            ("--xi-max", "inf", "xi_max must be finite and exceed 1"),
            ("--samples", "4", "need at least 16 samples"),
        ],
    )
    def test_spectrum_bad_scan_options(self, capsys, option, value, message):
        code = cli.main(["spectrum", str(SCENARIOS / "damped_wave.json"), option, value])
        out = capsys.readouterr().out
        assert code == 2
        assert out.splitlines() == [f"error: gamma_estimate: {message}"]

    def test_spectrum(self, capsys):
        code = cli.main(
            ["spectrum", str(SCENARIOS / "damped_wave.json"), "--samples", "64"]
        )
        out = capsys.readouterr().out
        assert code == 0
        rate_line = next(l for l in out.splitlines() if "uniform decay rate" in l)
        assert float(rate_line.split(":")[1]) == pytest.approx(0.5, abs=1e-9)

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

    def test_verify_passes(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = cli.main(
            ["verify", str(SCENARIOS / "damped_wave.json"), "--out", str(out_dir)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "envelopes hold" in out
        assert (out_dir / "summary.json").exists()

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
        out = capsys.readouterr().out
        assert code == 2
        assert out.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "run").exists()

    def test_simulate_zero_probe_exits_2(self, tmp_path, capsys):
        raw = _good_raw()
        raw["initial_data"]["bumps"][0]["amplitude"] = 0.0
        code = cli.main(["simulate", str(_write(tmp_path, raw)), "--out", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().out.splitlines() == ["error: initial data is zero on the grid"]

    def test_verify_rejects_non_finite_amplitude(self, tmp_path, capsys):
        raw = json.loads((SCENARIOS / "damped_wave.json").read_text())
        raw["initial_data"]["bumps"][0]["amplitude"] = math.nan
        code = cli.main(["verify", str(_write(tmp_path, raw))])
        out = capsys.readouterr().out
        assert code == 2
        assert "initial_data.bumps[0].amplitude: expected a finite number" in out
        assert "envelopes hold" not in out
