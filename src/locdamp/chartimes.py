"""Characteristic residence-time calculus for transport through undamped stripes.

Everything in this module is exact interval arithmetic on backward
characteristics.  A component travelling at speed ``lam`` observed at
``(x0, t0)`` spent a (possibly empty) time window inside each undamped
stripe; unions of those windows over all components measure for how long
the damping was inactive along the history of a point; its supremum over
points is exact, taken at the measure's breakpoints.  The closed forms
(delay bound, conservation-horizon bounds, three-speed abutment geometry)
are all cross-checkable against that supremum and ``undamped_union``,
built from nothing but ``crossing_window``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from locdamp.model import EigenStructure

# Relative tolerance deciding the geometric (borderline) three-speed case.
GEOMETRIC_RTOL = 1e-12
# Relative tolerance for "both sign groups attain the delay bound" ties.
GROUP_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class UndampedRegion:
    """Union of disjoint open stripes on which the damping is switched off.

    Stripes are stored sorted left to right and must be pairwise disjoint
    with positive length.  A rejected stripe raises ``ValueError`` naming
    it (``stripes[1]: ...``); the scenario loader puts the path in front.
    """

    stripes: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        coerced = tuple((float(a), float(b)) for a, b in self.stripes)
        if not coerced:
            raise ValueError("stripes: at least one stripe is required")
        for j, (a, b) in enumerate(coerced):
            if not (np.isfinite(a) and np.isfinite(b)):
                raise ValueError(f"stripes[{j}]: endpoints must be finite")
            if not a < b:
                raise ValueError(f"stripes[{j}]: need a < b, got [{a}, {b}]")
        for j in range(len(coerced) - 1):
            if not coerced[j][1] < coerced[j + 1][0]:
                raise ValueError(
                    f"stripes[{j + 1}]: stripes must be sorted and disjoint"
                )
        object.__setattr__(self, "stripes", coerced)

    @classmethod
    def centered(cls, half_width: float) -> "UndampedRegion":
        """Single stripe [-R, R]."""
        r = float(half_width)
        return cls(stripes=((-r, r),))

    @property
    def total_length(self) -> float:
        return sum(b - a for a, b in self.stripes)

    @property
    def bounds(self) -> tuple[float, float]:
        return self.stripes[0][0], self.stripes[-1][1]

    @property
    def min_width(self) -> float:
        return min(b - a for a, b in self.stripes)

    def contains(self, x: float) -> bool:
        return any(a < x < b for a, b in self.stripes)


@dataclass(frozen=True)
class CharacteristicWindow:
    """Entry/exit times of one backward characteristic through one stripe
    (arrays of them for an array of observation points)."""

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

    The characteristic enters through the upstream edge (left edge for
    rightward movers, right edge for leftward movers), so entry precedes
    exit for either sign of the speed.  ``x0`` may be an array; the window
    times then have its shape.
    """
    if lam == 0.0:
        raise ValueError("characteristic speed must be nonzero")
    a, b = float(stripe[0]), float(stripe[1])
    c = 0.5 * (a + b)
    r = 0.5 * (b - a)
    sgn = 1.0 if lam > 0 else -1.0
    t_en = np.clip(t0 - (x0 - c + r * sgn) / lam, 0.0, t0)
    t_ex = np.clip(t0 - (x0 - c - r * sgn) / lam, 0.0, t0)
    return CharacteristicWindow(t_en=t_en, t_ex=t_ex)


def residence_time(
    lam: float, region: UndampedRegion, x0: float, t0: float
) -> float:
    """Total undamped time of one component's history: sum of its stripe
    windows.  Bounded by ``total_length / |lam|``."""
    return sum(
        crossing_window(lam, stripe, x0, t0).length for stripe in region.stripes
    )


def undamped_union(
    eigs: "EigenStructure",
    region: UndampedRegion,
    x0: float,
    t0: float,
) -> tuple[list[tuple[float, float]], float]:
    """Merged union of crossing windows over every component and stripe.

    Returns the sorted disjoint intervals and their total measure.
    Zero-length windows are dropped.
    """
    raw: list[tuple[float, float]] = []
    for lam in np.asarray(eigs.lambdas, dtype=float):
        for stripe in region.stripes:
            w = crossing_window(float(lam), stripe, x0, t0)
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


# ---------------------------------------------------------------------------
# exact supremum over observation points
# ---------------------------------------------------------------------------


def _breakpoints(lambdas: np.ndarray, region: UndampedRegion, t: float) -> np.ndarray:
    """Ascending x at which the union measure at time ``t`` can change slope.

    Every window endpoint is the time ``t - (x - e) / lam`` at which the
    speed-``lam`` characteristic from ``x`` passes a stripe edge ``e``,
    clamped to ``[0, t]``.  It kinks where it reaches ``t`` (``x = e``) or 0
    (``x = e + lam t``), and two endpoints trade order where two
    characteristics from ``x`` pass their edges at the same time in
    ``[0, t]``.  Between breakpoints the measure is linear in x and beyond
    the outermost it is constant, so its sup is attained at one of them.
    """
    e, lam = (m.ravel() for m in np.meshgrid(np.ravel(region.stripes), lambdas))
    i, j = np.triu_indices(e.size, k=1)
    keep = lam[i] != lam[j]
    i, j = i[keep], j[keep]
    back = (e[i] - e[j]) / (lam[j] - lam[i])  # how long before t they pass
    meet = (back >= 0.0) & (back <= t)
    cross = e[i][meet] + lam[i][meet] * back[meet]
    return np.unique(np.concatenate([e, e + lam * t, cross]))


def _union_measures(
    lambdas: np.ndarray, region: UndampedRegion, xs: np.ndarray, t0: float
) -> np.ndarray:
    """Union measure of all crossing windows at each x in ``xs`` (vectorised
    sweep over windows sorted by entry time)."""
    windows = [
        crossing_window(lam, stripe, xs, t0) for lam in lambdas for stripe in region.stripes
    ]
    s = np.vstack([w.t_en for w in windows])
    e = np.vstack([w.t_ex for w in windows])
    order = np.argsort(s, axis=0, kind="stable")
    s = np.take_along_axis(s, order, axis=0)
    e = np.take_along_axis(e, order, axis=0)
    run_end = np.maximum.accumulate(e, axis=0)
    prev = np.vstack([np.full((1, s.shape[1]), -np.inf), run_end[:-1]])
    contrib = np.clip(e - np.maximum(s, prev), 0.0, None)
    return contrib.sum(axis=0)


def sup_undamped_measure(
    eigs: "EigenStructure", region: UndampedRegion, t: float
) -> tuple[float, float]:
    """Supremum over x of the union measure at time ``t``, exact up to
    rounding: the sweep evaluated at every breakpoint of the measure.

    Returns ``(sup, arg_x)``; on ties the smallest x wins.  This is the
    oracle the closed forms are checked against, so it deliberately knows
    nothing about them: the breakpoints are generic window geometry.
    """
    lambdas = np.asarray(eigs.lambdas, dtype=float)
    xs = _breakpoints(lambdas, region, float(t))
    measures = _union_measures(lambdas, region, xs, float(t))
    idx = int(np.argmax(measures))  # argmax returns the first (smallest x) tie
    return float(measures[idx]), float(xs[idx])


def sharp_delay(eigs: "EigenStructure", region: UndampedRegion, t: float) -> float:
    """Effective dissipation time ``t - sup_x |union(x, t)|``.

    Zero while some point's whole history is covered by crossing windows;
    grows towards ``t - residence_bound`` once every window has saturated.
    """
    sup, _ = sup_undamped_measure(eigs, region, t)
    return float(t) - sup


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _sign_groups(
    eigs: "EigenStructure", region: UndampedRegion
) -> list[tuple[float, list[float]]]:
    """``(total_length * sum of 1/|lam|, ascending |lam|)`` for each
    nonempty sign group of the speeds, leftward movers first."""
    arr = np.asarray(eigs.lambdas, dtype=float)
    if np.any(arr == 0.0):
        raise ValueError("characteristic speed must be nonzero")
    width = region.total_length
    groups = (sorted(abs(v) for v in arr if v < 0), sorted(abs(v) for v in arr if v > 0))
    return [(width * sum(1.0 / s for s in speeds), speeds) for speeds in groups if speeds]


def residence_bound(eigs: "EigenStructure", region: UndampedRegion) -> float:
    """Upper bound on the undamped-residence union: the larger of the two
    sign-group sums of (stripe width / speed) over all stripes."""
    return max(total for total, _ in _sign_groups(eigs, region))


def _attaining_groups(
    eigs: "EigenStructure", region: UndampedRegion
) -> tuple[float, list[list[float]]]:
    """The residence bound and the speeds of each sign group whose total
    attains it within ``GROUP_TIE_RTOL``."""
    groups = _sign_groups(eigs, region)
    top = max(total for total, _ in groups)
    return top, [speeds for total, speeds in groups if total >= top * (1.0 - GROUP_TIE_RTOL)]


def geometric_ratio_holds(eigs: "EigenStructure", region: UndampedRegion) -> bool:
    """True when consecutive speed ratios are equal (within 1e-12 relative)
    in a sign group attaining the delay bound.  Groups with two or fewer
    members satisfy the condition vacuously."""
    _, attaining = _attaining_groups(eigs, region)
    for speeds in attaining:
        if len(speeds) <= 2:
            return True
        ratios = [speeds[i + 1] / speeds[i] for i in range(len(speeds) - 1)]
        if all(
            abs(r - ratios[0]) <= GEOMETRIC_RTOL * max(abs(r), abs(ratios[0]))
            for r in ratios[1:]
        ):
            return True
    return False


@dataclass(frozen=True)
class HorizonBounds:
    """Bounds on the conservation horizon (the last time up to which some
    energy parcel can remain entirely undamped)."""

    slow_pair_lower: float | None
    exact_three_speed: float | None
    upper: float


def horizon_bounds(eigs: "EigenStructure", region: UndampedRegion) -> HorizonBounds:
    """Lower/exact/upper conservation-horizon values for a single stripe.

    The lower bound chains the two slowest same-sign speeds through the
    stripe; the exact value exists for three same-sign speeds; the upper
    bound is the delay bound itself.  Without two same-sign speeds in an
    attaining group there is no lower bound, and it is ``None``.
    """
    if len(region.stripes) != 1:
        raise ValueError("horizon_bounds: defined for a single-stripe region")
    width = region.total_length
    upper, attaining = _attaining_groups(eigs, region)
    pairs = [width / speeds[0] + width / speeds[1] for speeds in attaining if len(speeds) >= 2]

    exact: float | None = None
    n = len(np.asarray(eigs.lambdas))
    for speeds in attaining:
        if n == 3 and len(speeds) == 3:
            s3, s2, s1 = speeds  # ascending -> slow, middle, fast
            geo = three_speed_geometry(s1, s2, s3, width / 2.0)
            if geo.case == "gap":
                exact = width / s3 + width / s2
            else:
                exact = upper - geo.t_lambda
    return HorizonBounds(
        slow_pair_lower=max(pairs) if pairs else None,
        exact_three_speed=exact,
        upper=upper,
    )


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


def three_speed_geometry(
    s1: float, s2: float, s3: float, R: float
) -> ThreeSpeedGeometry:
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
    tol = GEOMETRIC_RTOL * max(s2 * s2, s1 * s3)
    if abs(disc) <= tol:
        case = "geometric"
        t_lambda = 0.0
    elif disc > 0.0:
        case = "overlap"
        t_lambda = 2.0 * R * disc / (s1 * s2 * (s2 - s3))
    else:
        case = "gap"
        t_lambda = 0.0
    return ThreeSpeedGeometry(
        s1=s1, s2=s2, s3=s3, R=R, x2=x2, t2=t2, x1=x1, t1=t1,
        t_lambda=t_lambda, case=case,
    )

