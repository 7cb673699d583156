"""Characteristic residence-time calculus for transport through undamped stripes.

Everything in this module is exact interval arithmetic on backward
characteristics.  A component travelling at speed ``lam`` observed at
``(x0, t0)`` spent a (possibly empty) time window inside each undamped
stripe; unions of those windows over all components measure for how long
the damping was inactive along the history of a point.  Two suprema over
points answer the paper's questions, both exact up to rounding and taken
at the same breakpoints by the same sweep: the union's measure at a time
t (the sharp delay) and, once t is past every window, the union's longest
unbroken run (the conservation horizon: how long energy can hide from the
damping).  The residence bound caps both.  The tests check them against
a scalar merge of each point's windows on fine grids and against the
paper's closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from locdamp.model import EigenStructure

# The horizon is attained where two windows just touch, and rounding of a
# few ulps of the sweep's time can split them: a run treats a gap of at
# most this fraction of that time as closed.
TOUCH_RTOL = 16.0 * np.finfo(float).eps
# Window entries (windows times points) one pass of the sweep holds, so
# that its memory does not grow with the number of breakpoints.
SWEEP_ENTRIES = 1 << 16
# An interval may reach past a stripe's edges by this fraction of its width
# and still lie inside it (``UndampedRegion.stripe_holding``): a probe's
# data that touches an edge is not refused for the rounding of a shift.
EDGE_RTOL = 1e-9


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

    def stripe_holding(self, lo: float, hi: float) -> tuple[float, float] | None:
        """The stripe that holds [lo, hi] up to ``EDGE_RTOL`` of its width
        past either edge, or None.  The slack absorbs the rounding of
        positions moved by the same amount, such as snapped edges and a
        support that touches them."""
        for a, b in self.stripes:
            slack = EDGE_RTOL * (b - a)
            if a - slack <= lo and hi <= b + slack:
                return a, b
        return None


# ---------------------------------------------------------------------------
# exact supremum over observation points
# ---------------------------------------------------------------------------


def _nonzero_speeds(eigs: "EigenStructure") -> np.ndarray:
    lambdas = np.asarray(eigs.lambdas, dtype=float)
    if np.any(lambdas == 0.0):
        raise ValueError("characteristic speed must be nonzero")
    return lambdas


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
) -> tuple[np.ndarray, np.ndarray]:
    """Union measure of all crossing windows at each x in ``xs``, and the
    union's longest unbroken run there (one vectorised sweep over windows
    sorted by entry time).  A run bridges gaps of at most ``TOUCH_RTOL *
    t0``; the measure bridges none.

    The speed-``lam`` characteristic through ``(x, t0)`` sits in the stripe
    of center ``c`` and half-width ``r`` between the times at which it
    passes the upstream and the downstream edge, ``t0 - (x - c ± r
    sgn(lam)) / lam``, clipped to ``[0, t0]``; entry precedes exit for
    either sign.  The windows form one table, speeds outer and stripes inner,
    swept over the points ``SWEEP_ENTRIES`` window entries at a time.
    """
    stripes = np.array(region.stripes)
    c = 0.5 * (stripes[:, 0] + stripes[:, 1])
    r = 0.5 * (stripes[:, 1] - stripes[:, 0])
    lam = np.repeat(lambdas, c.size)[:, None]
    r_sgn = np.outer(np.where(lambdas > 0, 1.0, -1.0), r).reshape(-1, 1)
    c = np.tile(c, lambdas.size)[:, None]
    # array_split evens the passes out, so with 4 or more points to a pass
    # each holds two or more: numpy sums the columns of a table row by
    # row, but a single column pairwise, in another order.
    n_passes = -(-xs.size // max(4, SWEEP_ENTRIES // lam.size))
    measures, runs = [], []
    for x in np.array_split(xs, n_passes):
        d = x - c
        s = np.clip(t0 - (d + r_sgn) / lam, 0.0, t0)
        e = np.clip(t0 - (d - r_sgn) / lam, 0.0, t0)
        order = np.argsort(s, axis=0, kind="stable")
        s = np.take_along_axis(s, order, axis=0)
        e = np.take_along_axis(e, order, axis=0)
        run_end = np.maximum.accumulate(e, axis=0)
        prev = np.vstack([np.full((1, s.shape[1]), -np.inf), run_end[:-1]])
        measures.append(np.clip(e - np.maximum(s, prev), 0.0, None).sum(axis=0))
        # runs start ascending, so the latest start so far is the running max
        start = np.where(s > prev + TOUCH_RTOL * t0, s, -np.inf)
        runs.append((run_end - np.maximum.accumulate(start, axis=0)).max(axis=0))
    return np.concatenate(measures), np.concatenate(runs)


def _saturation(lambdas: np.ndarray, region: UndampedRegion) -> tuple[np.ndarray, float]:
    """The finite ``_breakpoints`` at t = inf, and a time past every
    window of each of them: edges are among them, so every window of one
    ends at most ``2 max|xs| / min|lam|`` before t."""
    xs = _breakpoints(lambdas, region, np.inf)
    xs = xs[np.isfinite(xs)]
    return xs, 4.0 * float(np.abs(xs).max()) / float(np.abs(lambdas).min())


def sup_undamped_measure(
    eigs: "EigenStructure", region: UndampedRegion, t: float
) -> tuple[float, float]:
    """Supremum over x of the union measure at time ``t``, exact up to
    rounding: the sweep evaluated at every breakpoint of the measure.

    A point's measure never decreases in t and ends at its value once t
    is past all its windows.  The largest such value is attained at a
    finite breakpoint at t = inf, and each of those has its value from
    the ``_saturation`` time on, so the sup is constant from then on.  A
    later ``t`` is evaluated there: window times taken at a t whose ulp
    nears their length would lose the windows.

    Returns ``(sup, arg_x)``; on ties the smallest x wins.
    """
    lambdas = _nonzero_speeds(eigs)
    t = min(float(t), _saturation(lambdas, region)[1])
    xs = _breakpoints(lambdas, region, t)
    measures, _ = _union_measures(lambdas, region, xs, t)
    idx = int(np.argmax(measures))  # argmax returns the first (smallest x) tie
    return float(measures[idx]), float(xs[idx])


def sharp_delay(eigs: "EigenStructure", region: UndampedRegion, t: float) -> float:
    """Effective dissipation time ``t - sup_x |union(x, t)|``.

    Zero while some point's whole history is covered by crossing windows;
    grows towards ``t - residence_bound`` once every window has saturated.
    """
    sup, _ = sup_undamped_measure(eigs, region, t)
    return float(t) - sup


def conservation_horizon(
    eigs: "EigenStructure", region: UndampedRegion
) -> tuple[float, float]:
    """How long energy can stay undamped: the sup over x of the longest
    unbroken run in the union of a point's crossing windows, exact up to
    rounding, for any stripes and speeds.

    Once t is past every window of a point, each window ends a fixed
    ``(x - e) / lam`` before t, so the union moves rigidly with t and its
    runs no longer depend on it.  Each run end is then linear in x, and
    the order of the ends changes only at a stripe edge or where two
    characteristics from x pass their edges at the same time: the finite
    ``_breakpoints`` at t = inf.  The sweep evaluates the runs there, at
    the ``_saturation`` time, past every window of every one of them.

    Returns ``(horizon, arg_x)``; on ties the smallest x wins.
    """
    lambdas = _nonzero_speeds(eigs)
    xs, t = _saturation(lambdas, region)
    _, runs = _union_measures(lambdas, region, xs, t)
    idx = int(np.argmax(runs))
    return float(runs[idx]), float(xs[idx])


# ---------------------------------------------------------------------------
# delay bound
# ---------------------------------------------------------------------------


def residence_bound(eigs: "EigenStructure", region: UndampedRegion) -> float:
    """Upper bound on the undamped-residence union: the larger of the two
    sign-group sums of (stripe width / speed) over all stripes."""
    arr = _nonzero_speeds(eigs)
    width = region.total_length
    groups = (sorted(-v for v in arr if v < 0), sorted(v for v in arr if v > 0))
    return max(width * sum(1.0 / s for s in speeds) for speeds in groups)
