"""Metamorphic invariants: a transformed scenario and the original, both
run through ``run_scenario``, must give the same norms and verdicts.

Mirror: the system is invariant under x -> -x once ``a`` is negated.  The
domain, the stripes and the bump centres are reflected; negating ``a``
reverses the order of the speeds, so characteristic-basis data also
reverse their components, while physical components keep their index.
The two runs take different rounding paths (reversed sums and
transforms, and the eigensolver on ``-a``), so the norms agree to a
tolerance relative to each column's peak, not bit for bit.

Translation: the system is invariant under x -> x + s.  The domain, the
stripes and the bump centres move by a whole number of cells.  On a
dyadic grid the shifted geometry is exact and so is the sampled data; on
the shipped grids the shift rounds, so the grid, the snapped stripes and
the data move by a few ulps, and the norms again agree to a tolerance
relative to each column's peak.  The drawn scenarios vary the number of
samples, so the boundaries of the blocks the norms are taken in move
from draw to draw.

Units: with c = 2**k, scaling a unit changes only exponents.  Rates: ``a``
and ``dd`` times c and ``t_final`` over c give the same field at times
over c, so every norm is bit-identical; the residence bound, the sample
times and the probe's times scale by 1/c, speeds and the rate by c.
Lengths: the domain, the stripes and the bumps times c, ``t_final`` times
c and ``dd`` over c give the same cell values on cells c times as wide,
so the pointwise sup is unchanged, ``l1`` scales by c and ``l2_total``
and the component norms by c**(1/2), exactly for even k.  The band norms,
the rate scan and the envelope constants do not scale under lengths: the
band split (wavenumber 1) and the scan range (wavenumbers 1 to 100) are
fixed wavenumbers; both summaries still carry the same keys.  Under rates
the symbol on the scan's frequencies scales by c and the lags by 1/c, so
the envelope constants are unchanged and the rates, uniform (``gamma``)
and diffusive (``kappa``), scale by c.

Amplitude: the system is linear, so data times 2**k give norms times
2**k exactly and the same summary, also near both ends of the float
range, where squaring the raw field, or summing its Fourier coefficients
unscaled, would overflow or underflow.

Probe coherence: a conservation probe's box rides one characteristic
inside its stripe until the predicted onset, so no damped cell holds any
of it and ``plateau_min`` is 1 to the rounding of the energy sums.

Lossless limit: one stripe spanning the domain leaves no cell damped, so
the shifts only move values and ``l2_total`` is conserved to rounding.
"""

import copy
import functools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from locdamp import harness, solver
from locdamp.norms import NORM_COLUMNS, low_band_sup
from locdamp.spectral import gamma_estimate

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# Largest difference allowed between a norm column and its mirror's, over
# the column's peak.  The worst measured is 5.7e-15 on the shipped
# scenarios (three_speed_321) and 2.2e-14 on the drawn ones (``l1`` of a
# fullspace run, which sums the transforms' rounding floor over every cell).
MIRROR_RTOL = 1e-13
# Hypothesis draws of the physical-basis property.
MIRROR_DRAWS = 50
# Largest difference allowed between a norm column and its translate's,
# over the column's peak, and between their sample times, relative.
TRANSLATION_RTOL = 1e-13
# Hypothesis draws of the translation property.
TRANSLATION_DRAWS = 40
# Largest relative difference allowed between a rate-scan value scaled by
# its units and its image's; the worst measured on the shipped scenarios is
# 9.6e-16 (``stripes_two``'s ``kappa`` at c = 2**-5).
UNITS_RTOL = 1e-13
# Hypothesis draws of each units property and of the lossless limit.
UNITS_DRAWS = 8
LOSSLESS_DRAWS = 8
# Largest change of ``l2_total`` allowed over a lossless run, over its
# initial value.
LOSSLESS_RTOL = 1e-14
# Data scales 2**k of the amplitude property, out to the top and the
# bottom of the float range, past where squaring the raw field would
# overflow or underflow.
AMPLITUDE_EXPONENTS = (-1000, -600, 600, 1020)
# Rate scales 2**k of the envelope-constants property.
CONSTANTS_EXPONENTS = range(-20, 5)
# Hypothesis draws of the probe coherence property, and the largest
# distance of a probe's ``plateau_min`` from 1 allowed.
PROBE_DRAWS = 30
PLATEAU_ATOL = 1e-14


def mirrored(raw: dict) -> dict:
    """The scenario document ``raw`` under x -> -x."""
    out = copy.deepcopy(raw)
    out["system"]["a"] = [[-v for v in row] for row in raw["system"]["a"]]
    out["region"]["stripes"] = [[-b, -a] for a, b in reversed(raw["region"]["stripes"])]
    out["domain"]["x_min"] = -raw["domain"]["x_max"]
    out["domain"]["x_max"] = -raw["domain"]["x_min"]
    n = len(raw["system"]["a"])
    reverse = raw["initial_data"].get("basis") == "characteristic"
    for bump in out["initial_data"]["bumps"]:
        bump["center"] = -bump["center"]
        if reverse:
            bump["component"] = n - 1 - bump["component"]
    return out


def translated(raw: dict, cells: int) -> dict:
    """The scenario document ``raw`` under x -> x + ``cells`` cell widths."""
    domain = raw["domain"]
    shift = cells * (domain["x_max"] - domain["x_min"]) / domain["n_cells"]
    out = copy.deepcopy(raw)
    out["region"]["stripes"] = [[a + shift, b + shift] for a, b in raw["region"]["stripes"]]
    out["domain"]["x_min"] = domain["x_min"] + shift
    out["domain"]["x_max"] = domain["x_max"] + shift
    for bump in out["initial_data"]["bumps"]:
        bump["center"] += shift
    return out


def rate_scaled(raw: dict, k: int) -> dict:
    """The scenario document ``raw`` with ``a`` and ``dd`` times 2**k and
    ``t_final`` over 2**k."""
    out = copy.deepcopy(raw)
    for key in ("a", "dd"):
        out["system"][key] = [[math.ldexp(v, k) for v in row] for row in raw["system"][key]]
    out["time"]["t_final"] = math.ldexp(raw["time"]["t_final"], -k)
    return out


def length_scaled(raw: dict, k: int) -> dict:
    """The scenario document ``raw`` with every length and ``t_final``
    times 2**k and ``dd`` over 2**k."""
    out = copy.deepcopy(raw)
    out["system"]["dd"] = [[math.ldexp(v, -k) for v in row] for row in raw["system"]["dd"]]
    out["region"]["stripes"] = [[math.ldexp(v, k) for v in s] for s in raw["region"]["stripes"]]
    for section, keys in (("domain", ("x_min", "x_max")), ("time", ("t_final",))):
        for key in keys:
            out[section][key] = math.ldexp(raw[section][key], k)
    for bump in out["initial_data"]["bumps"]:
        bump["center"] = math.ldexp(bump["center"], k)
        bump["width"] = math.ldexp(bump["width"], k)
    return out


def amplitude_scaled(raw: dict, k: int) -> dict:
    """The scenario document ``raw`` with every bump's amplitude times
    2**k."""
    out = copy.deepcopy(raw)
    for bump in out["initial_data"]["bumps"]:
        bump["amplitude"] = math.ldexp(bump["amplitude"], k)
    return out


def _load(tmp_path: Path, raw: dict, label: str) -> harness.Scenario:
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(raw))
    return harness.load_scenario(path)


def _run(tmp_path: Path, raw: dict, label: str) -> harness.ScenarioResult:
    return harness.run_scenario(_load(tmp_path, raw, label))


@functools.lru_cache(maxsize=None)
def _shipped_run(stem: str) -> harness.ScenarioResult:
    """The run of a shipped scenario, shared by the properties that
    compare it with an image."""
    return harness.run_scenario(harness.load_scenario(SCENARIOS / f"{stem}.json"))


def _shipped() -> list[tuple[dict, harness.ScenarioResult]]:
    """Each shipped scenario document with its run."""
    paths = sorted(SCENARIOS.glob("*.json"))
    return [(json.loads(p.read_text()), _shipped_run(p.stem)) for p in paths]


def _verdicts(result: harness.ScenarioResult) -> dict:
    summary = harness.summarize(result)
    keys = ("validation_ok", "checks", "tail_stabilized", "envelope_checked", "envelope_ok",
            "probe_onset", "probe_within_one_stride")
    return {k: summary[k] for k in keys if k in summary}


def norm_gap(
    tmp_path: Path,
    raw: dict,
    image: dict,
    times_rtol: float = 0.0,
    base: harness.ScenarioResult | None = None,
) -> float:
    """Run ``raw`` (unless its run is given as ``base``) and its ``image``,
    assert equal sample times (within ``times_rtol``) and verdicts, and
    return the largest norm difference over its column's peak, taken over
    the ``NORM_COLUMNS`` and the physical components."""
    if base is None:
        base = _run(tmp_path, raw, "base")
    other = _run(tmp_path, image, "image")
    assert base.series.times.shape == other.series.times.shape
    assert np.allclose(base.series.times, other.series.times, rtol=times_rtol, atol=0.0)
    assert _verdicts(base) == _verdicts(other)
    columns = [(getattr(base.series, k), getattr(other.series, k)) for k in NORM_COLUMNS]
    columns += list(zip(base.series.comp_l2, other.series.comp_l2))
    return max(float(np.abs(x - y).max() / np.abs(x).max()) for x, y in columns)


def mirror_gap(tmp_path: Path, raw: dict, base: harness.ScenarioResult | None = None) -> float:
    """``norm_gap`` of ``raw`` and its mirror, whose sample times are
    equal."""
    return norm_gap(tmp_path, raw, mirrored(raw), base=base)


class TestMirror:
    def test_shipped_scenarios(self, tmp_path):
        for raw, base in _shipped():
            gap = mirror_gap(tmp_path, raw, base)
            assert gap <= MIRROR_RTOL, (raw["name"], gap)

    @settings(
        max_examples=MIRROR_DRAWS,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_drawn_physical_scenarios(self, tmp_path, data):
        raw = data.draw(dyadic_physical_scenarios())
        gap = mirror_gap(tmp_path, raw)
        assert gap <= MIRROR_RTOL, (raw, gap)


class TestTranslation:
    @pytest.mark.parametrize("cells", [-1000, -7, 1, 333])
    def test_shipped_scenarios(self, tmp_path, cells):
        for raw, base in _shipped():
            gap = norm_gap(tmp_path, raw, translated(raw, cells), TRANSLATION_RTOL, base)
            assert gap <= TRANSLATION_RTOL, (raw["name"], gap)

    @settings(
        max_examples=TRANSLATION_DRAWS,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_drawn_physical_scenarios(self, tmp_path, data):
        raw = data.draw(dyadic_physical_scenarios())
        cells = data.draw(st.integers(-4000, 4000))
        gap = norm_gap(tmp_path, raw, translated(raw, cells), TRANSLATION_RTOL)
        assert gap <= TRANSLATION_RTOL, (raw, cells, gap)


def _scaled_summary(summary: dict, factors: dict) -> dict:
    """``summary``'s entries named in ``factors`` times their factor (an
    absent probe onset stays absent)."""
    return {
        key: None if summary[key] is None else summary[key] * f
        for key, f in factors.items()
        if key in summary
    }


def assert_shipped_keys(*tables):
    """Every key the ``tables`` name is in some shipped scenario's summary,
    so that no entry of a table, which the checks skip where it is absent,
    goes unchecked on every scenario."""
    shipped = set().union(*(harness.summarize(run).keys() for _, run in _shipped()))
    named = set().union(*tables)
    assert named <= shipped, sorted(named - shipped)


def assert_rate_scaling(base: harness.ScenarioResult, image: harness.ScenarioResult, k: int):
    """``image`` is ``base`` with ``a`` and ``dd`` times c = 2**k and
    times over c: the same norms at times over c, equal verdicts."""
    c = math.ldexp(1.0, k)
    a, b = base.series, image.series
    assert np.array_equal(b.times, a.times / c)
    for name in NORM_COLUMNS:
        assert np.array_equal(getattr(b, name), getattr(a, name)), name
    assert np.array_equal(b.comp_l2, a.comp_l2)
    sa, sb = harness.summarize(base), harness.summarize(image)
    exact = {"dx": 1.0, "dt": 1 / c, "stripe_snap_error": 1.0, "time_snap_error": 1 / c,
             "residence_bound": 1 / c, "probe_speed": c, "probe_t_pred": 1 / c,
             "probe_onset": 1 / c, "probe_plateau_min": 1.0}
    assert _scaled_summary(sa, exact) == {key: sb[key] for key in _scaled_summary(sa, exact)}
    # The scan's eigenvalues, and so the rate and the constants read with
    # it, may differ in the last bits.
    close = {"gamma": c, "kappa": c, "c_high": 1.0, "c_low": 1.0}
    for key, value in _scaled_summary(sa, close).items():
        assert sb[key] == pytest.approx(value, rel=UNITS_RTOL, abs=0.0), key
    keys = ("validation_ok", "checks", "tail_stabilized", "envelope_checked", "envelope_ok",
            "probe_within_one_stride", "shifts", "n_samples")
    assert {key: sa.get(key) for key in keys} == {key: sb.get(key) for key in keys}
    assert sa.keys() == sb.keys()
    assert_shipped_keys(exact, close, keys)


def assert_length_scaling(base: harness.ScenarioResult, image: harness.ScenarioResult, k: int):
    """``image`` is ``base`` with lengths and times times c = 2**k, k even,
    and ``dd`` over c: the same cell values on cells c times as wide."""
    c, root_c = math.ldexp(1.0, k), math.ldexp(1.0, k // 2)
    a, b = base.series, image.series
    assert np.array_equal(b.times, a.times * c)
    assert np.array_equal(b.linf, a.linf)
    assert np.array_equal(b.l1, a.l1 * c)
    assert np.array_equal(b.l2_total, a.l2_total * root_c)
    assert np.array_equal(b.comp_l2, a.comp_l2 * root_c)
    sa, sb = harness.summarize(base), harness.summarize(image)
    exact = {"dx": c, "dt": c, "stripe_snap_error": c, "time_snap_error": c, "residence_bound": c,
             "probe_speed": 1.0, "probe_t_pred": c, "probe_onset": c, "probe_plateau_min": 1.0}
    assert _scaled_summary(sa, exact) == {key: sb[key] for key in _scaled_summary(sa, exact)}
    keys = ("validation_ok", "checks", "envelope_checked", "probe_within_one_stride", "shifts",
            "n_samples")
    assert {key: sa.get(key) for key in keys} == {key: sb.get(key) for key in keys}
    assert sa.keys() == sb.keys()
    assert_shipped_keys(exact, keys)


class TestUnits:
    @pytest.mark.parametrize("k", [2, -5])
    def test_rates_shipped_scenarios(self, tmp_path, k):
        for raw, base in _shipped():
            assert_rate_scaling(base, _run(tmp_path, rate_scaled(raw, k), "image"), k)

    @pytest.mark.parametrize("k", [2, -2])
    def test_lengths_shipped_scenarios(self, tmp_path, k):
        for raw, base in _shipped():
            assert_length_scaling(base, _run(tmp_path, length_scaled(raw, k), "image"), k)

    @settings(
        max_examples=UNITS_DRAWS,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_drawn_physical_scenarios(self, tmp_path, data):
        raw = data.draw(dyadic_physical_scenarios())
        base = _run(tmp_path, raw, "base")
        k = data.draw(st.sampled_from([-3, 2, 5]))
        assert_rate_scaling(base, _run(tmp_path, rate_scaled(raw, k), "rates"), k)
        k = data.draw(st.sampled_from([-2, 2, 4]))
        assert_length_scaling(base, _run(tmp_path, length_scaled(raw, k), "lengths"), k)

    @pytest.mark.parametrize("k", CONSTANTS_EXPONENTS)
    def test_envelope_constants_under_rates(self, tmp_path, k):
        # ``calibrate`` alone, at the shipped envelope scenarios' longest
        # lags, from 2**-20 to 2**4
        c = math.ldexp(1.0, k)
        for raw, base in _shipped():
            if raw["kind"] == "verify-envelope":
                image = _load(tmp_path, rate_scaled(raw, k), "image")
                max_lag = base.scenario.t_final - base.envelope.residence_bound
                a = harness.calibrate(base.scenario.system, base.scan, max_lag)
                b = harness.calibrate(image.system, gamma_estimate(image.system), max_lag / c)
                got = (b.gamma, b.kappa, b.c_high, b.c_low)
                want = (a.gamma * c, a.kappa * c, a.c_high, a.c_low)
                assert got == pytest.approx(want, rel=UNITS_RTOL, abs=0.0), raw["name"]


class TestAmplitude:
    @pytest.mark.parametrize("k", AMPLITUDE_EXPONENTS)
    def test_shipped_scenarios(self, tmp_path, k):
        for raw, base in _shipped():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                image = _run(tmp_path, amplitude_scaled(raw, k), "image")
            for name in (*NORM_COLUMNS, "comp_l2"):
                expected = np.ldexp(getattr(base.series, name), k)
                assert np.array_equal(getattr(image.series, name), expected), (raw["name"], name)
            sups = [low_band_sup(r.series.low_modes, r.series.n_cells) for r in (base, image)]
            assert np.array_equal(sups[1], np.ldexp(sups[0], k)), raw["name"]
            assert harness.summarize(image) == harness.summarize(base), raw["name"]


class TestProbeCoherence:
    def test_shipped_probes(self):
        for raw, base in _shipped():
            if raw["kind"] == "conservation-probe":
                assert abs(base.probe.plateau_min - 1.0) <= PLATEAU_ATOL, raw["name"]

    @settings(
        max_examples=PROBE_DRAWS,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_drawn_probes(self, tmp_path, data):
        raw = data.draw(dyadic_probe_scenarios())
        probe = _run(tmp_path, raw, "probe").probe
        assert probe.t_pred < raw["time"]["t_final"]
        assert abs(probe.plateau_min - 1.0) <= PLATEAU_ATOL, (raw, probe)


def lossless(raw: dict) -> dict:
    """The scenario document ``raw`` with one stripe spanning its domain."""
    out = copy.deepcopy(raw)
    out["region"]["stripes"] = [[raw["domain"]["x_min"], raw["domain"]["x_max"]]]
    return out


def assert_conserved(series) -> None:
    l2 = series.l2_total
    assert np.abs(l2 - l2[0]).max() <= LOSSLESS_RTOL * l2[0], np.abs(l2 / l2[0] - 1.0).max()


class TestLosslessLimit:
    def test_shipped_probes(self, tmp_path):
        for raw, _ in _shipped():
            if raw["kind"] == "conservation-probe":
                assert_conserved(_run(tmp_path, lossless(raw), "lossless").series)

    @settings(
        max_examples=LOSSLESS_DRAWS,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_drawn_physical_scenarios(self, tmp_path, data):
        path = tmp_path / "lossless.json"
        path.write_text(json.dumps(lossless(data.draw(dyadic_physical_scenarios()))))
        s = harness.load_scenario(path)
        traj = solver.run(
            s.system, s.region, s.data, x_min=s.x_min, x_max=s.x_max,
            t_final=s.t_final, stride=s.stride, n_cells=s.n_cells,
        )
        assert not traj.grid.damp_mask.any()
        assert_conserved(traj)


@st.composite
def dyadic_physical_scenarios(draw) -> dict:
    """A verify-envelope or fullspace scenario with physical-basis gaussian
    data, at most 2000 cells of width 2**-p, and stripe edges, bump
    centres and domain edges on whole cells, so that the reflected
    geometry is exact.  The speeds are whole numbers in a random
    orthogonal basis and the domain holds the data's 9-sigma support
    carried by the fastest speed for the whole run."""
    speeds, system = draw(whole_speed_systems())
    n = len(speeds)
    dx = 2.0 ** -draw(st.integers(2, 5))
    width = draw(st.integers(4, 10))  # cells per sigma
    steps = draw(st.integers(20, 150))
    reach = 9 * width + max(abs(v) for v in speeds) * steps + 8
    spread = draw(st.integers(0, 40))
    half = reach + spread + 40
    stripe_cells, left = [], -40
    for _ in range(draw(st.integers(1, 3))):
        lo = left + draw(st.integers(2, 12))
        left = lo + draw(st.integers(2, 24))
        stripe_cells.append((lo, left))
    bumps = [
        {
            "kind": "gaussian",
            "component": draw(st.integers(0, n - 1)),
            "center": draw(st.integers(-spread, spread)) * dx,
            "width": width * dx,
            "amplitude": draw(st.sampled_from([0.5, 1.0, 2.0])),
        }
        for _ in range(draw(st.integers(1, 3)))
    ]
    return {
        "name": "drawn",
        "kind": draw(st.sampled_from(["verify-envelope", "fullspace"])),
        "system": system,
        "region": {"stripes": [[lo * dx, hi * dx] for lo, hi in stripe_cells]},
        "domain": {"x_min": -half * dx, "x_max": half * dx, "n_cells": 2 * half},
        "time": {"t_final": steps * dx, "stride": draw(st.integers(1, 20))},
        "initial_data": {"basis": "physical", "bumps": bumps},
    }


@st.composite
def whole_speed_systems(draw) -> tuple[list[int], dict]:
    """Distinct whole speeds of 1 to 3 components, in increasing order, and
    a system document with those speeds in a random orthogonal basis and
    coercive damping on a random trailing block."""
    n = draw(st.integers(1, 3))
    speeds = draw(
        st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=n, max_size=n, unique=True)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(np.array(speeds, dtype=float)) @ q.T
    n1 = draw(st.integers(0, n - 1))
    g = rng.standard_normal((n - n1, n - n1))
    dd = g @ g.T + (0.3 + rng.random()) * np.eye(n - n1)
    return sorted(speeds), {"a": a.tolist(), "n1": n1, "dd": dd.tolist()}


@st.composite
def dyadic_probe_scenarios(draw) -> dict:
    """A conservation probe on cells of width 2**-p: a box of whole cells
    on one characteristic component, inside a stripe whose edges are cell
    edges, maybe beside a second stripe, run past the time its leading
    edge reaches the stripe's downstream edge, on a domain that holds
    whatever the fastest speed carries over the run."""
    speeds, system = draw(whole_speed_systems())
    component = draw(st.integers(0, len(speeds) - 1))
    speed = speeds[component]
    dx = 2.0 ** -draw(st.integers(2, 5))
    box = draw(st.integers(2, 12))
    # stripe cells ahead of the box's leading edge and behind its trailing one
    lead, trail = draw(st.integers(0, 80)), draw(st.integers(0, 20))
    width = box + lead + trail
    left = trail if speed > 0 else lead  # the box's first cell in the stripe
    steps = lead // abs(speed) + draw(st.integers(1, 40))  # run length in dx / speed 1
    margin = max(abs(v) for v in speeds) * steps + 24
    stripe_cells = [(0, width)]
    if draw(st.booleans()):
        gap, other = draw(st.integers(1, 8)), draw(st.integers(2, 12))
        side = draw(st.sampled_from([-1, 1]))
        start = width + gap if side > 0 else -gap - other
        stripe_cells.append((start, start + other))
    return {
        "name": "drawn_probe",
        "kind": "conservation-probe",
        "system": system,
        "region": {"stripes": [[lo * dx, hi * dx] for lo, hi in sorted(stripe_cells)]},
        "domain": {"x_min": -margin * dx, "x_max": (width + margin) * dx,
                   "n_cells": width + 2 * margin},
        "time": {"t_final": steps * dx, "stride": draw(st.integers(1, 5))},
        "initial_data": {
            "basis": "characteristic",
            "bumps": [{
                "kind": "box",
                "component": component,
                "center": (left + 0.5 * box) * dx,
                "width": box * dx,
                "amplitude": draw(st.sampled_from([0.3, 1.0, 1.7])),
            }],
        },
    }
