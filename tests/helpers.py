"""Shared system builders and independent oracles for the test suite."""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm, norm

from locdamp.chartimes import UndampedRegion
from locdamp.model import EigenStructure, HyperbolicSystem, source_matrix

# Relative tolerance deciding the geometric (borderline) three-speed case,
# and "both sign groups attain the delay bound" ties, in the closed forms.
CLOSED_FORM_RTOL = 1e-12
MIN_FIT_POINTS = 10

# Exact rational orthogonal matrix (columns have squared entries 4/9, 4/9,
# 1/9), used to manufacture full symmetric systems with chosen speeds.
SPEED_BASIS_3 = np.array(
    [[2.0, -2.0, 1.0], [2.0, 1.0, -2.0], [1.0, 2.0, 2.0]]
) / 3.0


def damped_wave_system() -> HyperbolicSystem:
    return HyperbolicSystem(
        a=np.array([[0.0, 1.0], [1.0, 0.0]]), n1=1, dd=np.array([[1.0]])
    )


def three_speed_system(speeds=(1.0, 2.0, 3.0), n1=1) -> HyperbolicSystem:
    """Dense symmetric system with the given three speeds, damping on the
    trailing components."""
    b = SPEED_BASIS_3
    a = b @ np.diag(np.asarray(speeds, dtype=float)) @ b.T
    a = 0.5 * (a + a.T)
    return HyperbolicSystem(a=a, n1=n1, dd=np.eye(3 - n1))


def _random_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    if k == 1:
        return np.array([[1.0]])
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def random_valid_system(
    rng: np.random.Generator, n: int | None = None, *, uncoupled: bool = False
) -> HyperbolicSystem:
    """Random admissible system; with ``uncoupled`` the velocity matrix is
    block diagonal so an eigenvector hides inside the damping kernel."""
    if n is None:
        n = int(rng.integers(2, 6))
    mags = 0.5 + np.cumsum(rng.uniform(0.2, 1.0, size=n))
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    lams = np.sort(mags * signs)
    if uncoupled:
        n1 = int(rng.integers(1, n))
    else:
        n1 = int(rng.integers(0, n))
    d = n - n1
    if uncoupled:
        a = np.zeros((n, n))
        q1 = _random_orthogonal(rng, n1)
        q2 = _random_orthogonal(rng, d)
        a[:n1, :n1] = q1 @ np.diag(lams[:n1]) @ q1.T
        a[n1:, n1:] = q2 @ np.diag(lams[n1:]) @ q2.T
    else:
        q = _random_orthogonal(rng, n)
        a = q @ np.diag(lams) @ q.T
    a = 0.5 * (a + a.T)
    g = rng.standard_normal((d, d))
    dd = g @ g.T + (0.3 + rng.random()) * np.eye(d)
    if rng.random() < 0.3:
        k = rng.standard_normal((d, d))
        dd = dd + 0.2 * (k - k.T)
    return HyperbolicSystem(a=a, n1=n1, dd=dd)


def symbol(sys: HyperbolicSystem, xi: float) -> np.ndarray:
    """Per-frequency evolution matrix -i*xi*A - B in the physical basis."""
    return -1j * float(xi) * sys.a - sys.b


def eigenbasis_symbol(sys: HyperbolicSystem, eigs: EigenStructure, xi: float) -> np.ndarray:
    """The symbol at one frequency in the transport eigenbasis,
    -i*xi*diag(lambdas) - S, built one frequency at a time."""
    return -1j * float(xi) * np.diag(eigs.lambdas) - source_matrix(sys, eigs)


def propagator_sup(sys: HyperbolicSystem, xi, rate, lags) -> float:
    """The largest e^(rate t) ||exp(t M(xi))||_2 over the frequencies ``xi``
    and the ``lags``, with ``rate`` one value or one per frequency, one
    frequency and one lag at a time: scipy's ``expm`` of the eigenbasis
    symbol and its 2-norm."""
    xi = np.asarray(xi, dtype=float)
    return max(
        math.exp(r * t) * norm(expm(t * eigenbasis_symbol(sys, sys.eigs, x)), 2)
        for x, r in zip(xi, np.broadcast_to(rate, xi.shape))
        for t in lags
    )


# The scalar system whose one stripe lies beside its data: speed -2, so
# the stripe [-9.25, -7] takes 1.125 to cross, and damping rate d.
BESIDE_DAMPING = 1.1192159864499238
BESIDE_DELAY = 1.125


def stripe_beside_data(n_cells: int, t_final: float = 5.0, stride: int = 2) -> dict:
    """The verify-envelope scenario of that system on [-31, 31]: a unit
    gaussian at 0, whose left tail starts inside the stripe."""
    return {
        "name": "stripe_beside_data",
        "kind": "verify-envelope",
        "system": {"a": [[-2.0]], "n1": 0, "dd": [[BESIDE_DAMPING]]},
        "region": {"stripes": [[-9.25, -7.0]]},
        "domain": {"x_min": -31.0, "x_max": 31.0, "n_cells": n_cells},
        "time": {"t_final": t_final, "stride": stride},
        "initial_data": {
            "bumps": [{"kind": "gaussian", "component": 0, "center": 0.0, "width": 1.0}]
        },
    }


def eager_low_band_sup(what: np.ndarray, m: int, dx: float) -> float:
    """Sup of the pointwise norm of the xi <= 1 band of the field on ``m``
    cells of width ``dx`` whose real FFT is ``what``, computed eagerly: the
    whole spectrum with the high band zeroed, as Fourier coefficients
    (bins over ``m``), transformed back on every cell."""
    high = 2.0 * np.pi * np.arange(what.shape[1]) / (m * dx) > 1.0
    w_low = np.fft.irfft(what * ~high / m, n=m, axis=1, norm="forward")
    return float(np.sqrt(np.sum(w_low ** 2, axis=0)).max())


def spectral_abscissa(m) -> float:
    """Largest real part over the spectrum."""
    return float(np.linalg.eigvals(np.asarray(m, dtype=complex)).real.max())


def near_bumps(bumps, xs: np.ndarray) -> np.ndarray:
    """Where the points ``xs`` lie within ``half_extent`` of some bump: the
    support the sampler gives the data."""
    near = np.zeros(xs.shape, dtype=bool)
    for b in bumps:
        near |= np.abs(xs - b.center) <= b.half_extent
    return near


# ---------------------------------------------------------------------------
# the scalar window oracle: one point, one window at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacteristicWindow:
    """Entry/exit times of one backward characteristic through one stripe."""

    t_en: float
    t_ex: float

    @property
    def length(self) -> float:
        return self.t_ex - self.t_en

    @property
    def empty(self) -> bool:
        return self.t_ex <= self.t_en


def crossing_window(
    lam: float, stripe: tuple[float, float], x0: float, t0: float
) -> CharacteristicWindow:
    """Time window during which the speed-``lam`` characteristic through
    ``(x0, t0)`` sits inside ``stripe``, clamped to ``[0, t0]``.

    The characteristic is at ``x0 - lam (t0 - t)`` at time t, so it passes
    an edge e at ``t0 - (x0 - e) / lam``: it enters through the upstream
    edge (left for rightward movers, right for leftward movers) and leaves
    through the other.
    """
    lam, x0, t0 = float(lam), float(x0), float(t0)
    if lam == 0.0:
        raise ValueError("characteristic speed must be nonzero")
    a, b = float(stripe[0]), float(stripe[1])
    upstream, downstream = (a, b) if lam > 0.0 else (b, a)
    t_en = t0 - (x0 - upstream) / lam
    t_ex = t0 - (x0 - downstream) / lam
    return CharacteristicWindow(t_en=min(max(t_en, 0.0), t0), t_ex=min(max(t_ex, 0.0), t0))


def undamped_union(
    eigs: EigenStructure, region: UndampedRegion, x0: float, t0: float
) -> tuple[list[tuple[float, float]], float]:
    """Merged union of crossing windows over every component and stripe.

    Returns the sorted disjoint intervals and their total measure.
    Zero-length windows are dropped.
    """
    raw = []
    for lam in eigs.lambdas:
        for stripe in region.stripes:
            w = crossing_window(lam, stripe, x0, t0)
            if w.length > 0.0:
                raw.append((w.t_en, w.t_ex))
    raw.sort()
    merged: list[tuple[float, float]] = []
    for s, e in raw:
        if merged and s <= merged[-1][1]:
            if e > merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return merged, sum(e - s for s, e in merged)


def three_speed_scan_oracle(
    s1: float, s2: float, s3: float, R: float, resolution: float = 1e-9
) -> dict[str, float]:
    """Locate the abutment times by bisection along the slow characteristic
    ``x(t) = -R + s3 t`` using only ``crossing_window``.

    Independent of the closed forms in ``three_speed_geometry``; used to
    validate them and ``conservation_horizon``.  Returns t2/x2, t1/x1 and
    the middle/fast overlap at the scanned (x2, t2), all accurate to
    ``resolution`` in time.
    """
    stripe = (-R, R)

    def point(t0: float) -> tuple[float, float]:
        return -R + s3 * t0, t0

    def slow_exit_gap(t0: float) -> float:
        x0, _ = point(t0)
        w3 = crossing_window(s3, stripe, x0, t0)
        w2 = crossing_window(s2, stripe, x0, t0)
        return w2.t_en - w3.t_ex

    def mid_exit_gap(t0: float) -> float:
        x0, _ = point(t0)
        w2 = crossing_window(s2, stripe, x0, t0)
        w1 = crossing_window(s1, stripe, x0, t0)
        return w1.t_en - w2.t_ex

    def bisect(fn) -> float:
        lo = 2.0 * R / s3
        hi = lo * 2.0
        while fn(hi) <= 0.0:
            hi *= 2.0
            if hi > 1e12 * lo:
                raise RuntimeError("scan oracle: abutment bracket not found")
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if fn(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    t2 = bisect(slow_exit_gap)
    t1 = bisect(mid_exit_gap)
    x2, _ = point(t2)
    x1, _ = point(t1)
    w2 = crossing_window(s2, stripe, x2, t2)
    w1 = crossing_window(s1, stripe, x2, t2)
    return {
        "t2": t2,
        "x2": x2,
        "t1": t1,
        "x1": x1,
        "t_lambda": max(0.0, w2.t_ex - w1.t_en),
    }


# ---------------------------------------------------------------------------
# the paper's closed forms for one stripe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeSpeedGeometry:
    """Abutment geometry of three same-sign speeds s1 > s2 > s3 crossing a
    centered stripe of half-width R, observed along the slow characteristic
    entering the stripe at time zero.

    ``(x2, t2)`` is where the middle window starts exactly when the slow
    window ends; ``(x1, t1)`` is where the fast window starts exactly when
    the middle window ends.  ``t_lambda`` is the middle/fast overlap
    duration at ``(x2, t2)`` (zero in the gap and geometric cases).
    """

    s1: float
    s2: float
    s3: float
    R: float
    x2: float
    t2: float
    x1: float
    t1: float
    t_lambda: float
    case: str


def three_speed_geometry(s1: float, s2: float, s3: float, R: float) -> ThreeSpeedGeometry:
    s1, s2, s3, R = float(s1), float(s2), float(s3), float(R)
    if not (s1 > s2 > s3 > 0.0):
        raise ValueError("three_speed_geometry: need s1 > s2 > s3 > 0")
    if R <= 0.0:
        raise ValueError("three_speed_geometry: need R > 0")
    x2 = R * (s2 + s3) / (s2 - s3)
    t2 = 2.0 * R * s2 / (s3 * (s2 - s3))
    x1 = R * (s1 + s2) / (s1 - s2)
    t1 = 2.0 * R * s1 / (s3 * (s1 - s2))
    disc = s2 * s2 - s1 * s3
    if abs(disc) <= CLOSED_FORM_RTOL * max(s2 * s2, s1 * s3):
        case, t_lambda = "geometric", 0.0
    elif disc > 0.0:
        case, t_lambda = "overlap", 2.0 * R * disc / (s1 * s2 * (s2 - s3))
    else:
        case, t_lambda = "gap", 0.0
    return ThreeSpeedGeometry(
        s1=s1, s2=s2, s3=s3, R=R, x2=x2, t2=t2, x1=x1, t1=t1,
        t_lambda=t_lambda, case=case,
    )


@dataclass(frozen=True)
class HorizonClosedForms:
    """The paper's conservation-horizon values for one stripe; ``None``
    where the closed form does not apply."""

    slow_pair_lower: float | None
    exact_three_speed: float | None
    upper: float


def horizon_closed_forms(speeds, width: float) -> HorizonClosedForms:
    """Lower/exact/upper conservation horizon for one stripe of ``width``.

    The upper value is the delay bound, the larger sign-group sum of
    width / |speed|.  Each sign group attaining it (within
    ``CLOSED_FORM_RTOL``) with two or more speeds chains its two slowest
    through the stripe for the lower bound; with all three speeds of a
    three-speed system it gives the exact value.  That value is the
    longest run seen from an abutment point: where the middle window
    starts as the slow one ends (x2; with the middle/fast overlap removed)
    or, in the gap case, also where the fast window ends as the middle
    one starts (x1), whose all-three chain is the longer one for speeds
    such as (2, 4/3, 1).
    """
    speeds = [float(v) for v in speeds]
    groups = [sorted(-v for v in speeds if v < 0), sorted(v for v in speeds if v > 0)]
    totals = [(width * sum(1.0 / v for v in g), g) for g in groups if g]
    upper = max(total for total, _ in totals)
    attaining = [g for total, g in totals if total >= upper * (1.0 - CLOSED_FORM_RTOL)]
    pairs = [width / g[0] + width / g[1] for g in attaining if len(g) >= 2]
    exact = None
    for g in attaining:
        if len(speeds) == 3 and len(g) == 3:
            s3, s2, s1 = g  # ascending -> slow, middle, fast
            geo = three_speed_geometry(s1, s2, s3, width / 2.0)
            if geo.case == "gap":
                # at x1 the slow window ends t1 before, the fast one starts
                # (x1 - R) / s1 before
                at_x1 = geo.t1 - (geo.x1 - geo.R) / s1
                exact = max(width / s3 + width / s2, at_x1)
            else:
                exact = upper - geo.t_lambda
    return HorizonClosedForms(max(pairs) if pairs else None, exact, upper)


def residence_time(lam: float, region: UndampedRegion, x0: float, t0: float) -> float:
    """Total undamped time of one component's history: the sum of its
    stripe windows.  Bounded by ``total_length / |lam|``."""
    return sum(crossing_window(lam, stripe, x0, t0).length for stripe in region.stripes)


def region_contains(region: UndampedRegion, x: float) -> bool:
    return any(a < x < b for a, b in region.stripes)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    rate: float
    log_intercept: float
    n_points: int
    max_residual: float


def _log_linear_fit(name: str, times, values, t_min, t_max, *, log_time: bool) -> FitResult:
    """Least squares of log(values) against times, or against log(times)
    with ``log_time``, over [t_min, t_max]; ``rate`` is the fitted slope."""
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    mask = (t >= t_min) & (t <= t_max) & (v > 0.0)
    if log_time:
        mask &= t > 0.0
    if mask.sum() < MIN_FIT_POINTS:
        raise ValueError(f"{name}: need at least {MIN_FIT_POINTS} points in [{t_min}, {t_max}]")
    xs = np.log(t[mask]) if log_time else t[mask]
    logs = np.log(v[mask])
    slope, intercept = np.polyfit(xs, logs, 1)
    resid = float(np.max(np.abs(logs - (slope * xs + intercept))))
    return FitResult(
        rate=float(slope),
        log_intercept=float(intercept),
        n_points=int(mask.sum()),
        max_residual=resid,
    )


def fit_decay_rate(times, values, t_min: float, t_max: float) -> FitResult:
    """Exponential-rate fit: least squares on log(values) over [t_min, t_max].

    Positive ``rate`` means decay.  Requires at least 10 usable points.
    """
    fit = _log_linear_fit("fit_decay_rate", times, values, t_min, t_max, log_time=False)
    return replace(fit, rate=-fit.rate)


def fit_loglog_slope(times, values, t_min: float, t_max: float) -> FitResult:
    """Power-law fit: slope of log(values) against log(times)."""
    return _log_linear_fit("fit_loglog_slope", times, values, t_min, t_max, log_time=True)
