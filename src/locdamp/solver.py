"""Exact-shift transport solver with stripe-masked relaxation.

The time step is locked to the grid so that every characteristic speed
advances a whole number of cells per step; advection is then a lossless
memory shift and the only discretisation error left is the symmetric
splitting against the damping term.  Speeds must be commensurate for such
a step to exist; irrational ratios are rejected up front rather than
approximated silently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from locdamp import kernels
from locdamp.chartimes import UndampedRegion
from locdamp.model import EigenStructure, HyperbolicSystem
from locdamp.norms import BandSplit, NormSeries, field_norms, in_blocks, unit_scale
from locdamp.spectral import matrix_exp

# Rational reconstruction of speed ratios: denominator cap, acceptance
# tolerance, and the largest admissible common grid refinement.
SPEED_DENOMINATOR_MAX = 1000
SPEED_RATIONAL_RTOL = 1e-9
SPEED_LCM_MAX = 10_000
# Cells per narrowest stripe when no resolution is requested.
DEFAULT_CELLS_PER_STRIPE = 200
# Mass in the edge guard band above this fraction of the initial sup-norm
# aborts the run.
GUARD_RTOL = 1e-14


class GridError(ValueError):
    """Domain, resolution, or speed set unusable for exact shifting."""


class BoundaryError(RuntimeError):
    """Mass reached the edge guard band before the run finished."""


def rational_shifts(lambdas: Sequence[float]) -> tuple[float, np.ndarray]:
    """Decompose speeds as integer multiples of a common grid velocity.

    Returns ``(v_unit, shifts)`` with ``lambdas[i] == shifts[i] * v_unit``
    exactly in rational arithmetic.  Raises ``GridError`` when a speed is
    not close to a small fraction or the common denominator explodes.
    """
    lams = [float(v) for v in lambdas]
    if any(v == 0.0 for v in lams):
        raise GridError("speeds: zero speed cannot be advanced by shifting")
    fracs = []
    for v in lams:
        f = Fraction(v).limit_denominator(SPEED_DENOMINATOR_MAX)
        if abs(float(f) - v) > SPEED_RATIONAL_RTOL * max(1.0, abs(v)):
            raise GridError(
                f"speeds: {v!r} is not a ratio of small integers; "
                "exact shifting needs commensurate speeds"
            )
        fracs.append(f)
    denom_lcm = math.lcm(*(f.denominator for f in fracs))
    if denom_lcm > SPEED_LCM_MAX:
        raise GridError(
            f"speeds: common denominator {denom_lcm} exceeds {SPEED_LCM_MAX}; "
            "refine the ratios or rescale time"
        )
    ints = [f.numerator * (denom_lcm // f.denominator) for f in fracs]
    g = math.gcd(*(abs(k) for k in ints))
    v_unit = g / denom_lcm
    shifts = np.array([k // g for k in ints], dtype=np.int64)
    return v_unit, shifts


def default_cell_count(region: UndampedRegion, x_min: float, x_max: float) -> int:
    """Resolution putting 200 cells across the narrowest stripe."""
    dx = region.min_width / DEFAULT_CELLS_PER_STRIPE
    return int(np.ceil((x_max - x_min) / dx))


def sample_steps(t_final: float, dt: float, stride: int) -> list[int]:
    """Step counts a run samples at: 0, every ``stride`` steps, and the last step."""
    stride = int(stride)
    if stride < 1:
        raise ValueError("stride: must be a positive step count")
    n_total = int(round(float(t_final) / dt))
    if n_total < 1:
        raise ValueError("t_final: shorter than one time step")
    return [*range(0, n_total, stride), n_total]


@dataclass(frozen=True)
class Grid:
    """Uniform cell grid with the locked time step and stripe mask."""

    x_min: float
    x_max: float
    n_cells: int
    dx: float
    dt: float
    v_unit: float
    shifts: np.ndarray
    centers: np.ndarray
    damp_mask: np.ndarray  # uint8, 1 where damping acts
    region: UndampedRegion  # snapped to cell edges
    snap_error: float
    guard_cells: int

    @functools.cached_property
    def bands(self) -> BandSplit:
        """The band split of fields on this grid, built on first use."""
        return BandSplit.of(self.n_cells, self.dx)


def build_grid(
    eigs: EigenStructure,
    region: UndampedRegion,
    x_min: float,
    x_max: float,
    n_cells: int | None = None,
) -> Grid:
    """Lay out the domain, lock the time step, snap stripes to cell edges.

    Stripe edges move to the nearest cell edge (never more than half a
    cell); the damping mask is decided by cell centers, which cannot sit
    on a snapped edge.
    """
    x_min, x_max = float(x_min), float(x_max)
    if not x_min < x_max:
        raise GridError(f"domain: need x_min < x_max, got [{x_min}, {x_max}]")
    lo, hi = region.bounds
    if lo < x_min or hi > x_max:
        raise GridError("domain: undamped region must lie inside the domain")
    if n_cells is None:
        n_cells = default_cell_count(region, x_min, x_max)
    n_cells = int(n_cells)
    if n_cells < 16:
        raise GridError(f"n_cells: need at least 16, got {n_cells}")
    dx = (x_max - x_min) / n_cells
    v_unit, shifts = rational_shifts(eigs.lambdas)
    dt = dx / v_unit

    snapped = []
    snap_err = 0.0
    for a, b in region.stripes:
        sa = x_min + round((a - x_min) / dx) * dx
        sb = x_min + round((b - x_min) / dx) * dx
        snap_err = max(snap_err, abs(sa - a), abs(sb - b))
        if sb - sa < dx / 2:
            raise GridError(
                f"stripe [{a}, {b}] is narrower than a cell at this resolution"
            )
        snapped.append((sa, sb))
    try:
        snapped_region = UndampedRegion(stripes=tuple(snapped))
    except ValueError as exc:
        raise GridError(f"stripes collide after snapping: {exc}") from exc

    centers = x_min + dx * (np.arange(n_cells) + 0.5)
    undamped = np.zeros(n_cells, dtype=bool)
    for a, b in snapped_region.stripes:
        undamped |= (centers > a) & (centers < b)
    mask = (~undamped).astype(np.uint8)

    guard = max(2, int(np.abs(shifts).max()))
    return Grid(
        x_min=x_min,
        x_max=x_max,
        n_cells=n_cells,
        dx=dx,
        dt=dt,
        v_unit=v_unit,
        shifts=shifts,
        centers=centers,
        damp_mask=mask,
        region=snapped_region,
        snap_error=snap_err,
        guard_cells=guard,
    )


BUMP_KINDS = ("gaussian", "box", "cosine")


@dataclass(frozen=True)
class Bump:
    """One localized profile on one component.

    ``width`` is the standard deviation for a gaussian, the full width for
    a box, and the half-support for a cosine arch.
    """

    kind: str
    component: int
    center: float
    width: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in BUMP_KINDS:
            raise ValueError(f"kind: unknown kind {self.kind!r}")
        if not self.width > 0.0:
            raise ValueError("width: must be positive")

    @property
    def half_extent(self) -> float:
        # Gaussian tails beyond 8 sigma are treated as zero where a support
        # is needed: the reference calibration's box and the probe's
        # predicted onset.
        if self.kind == "gaussian":
            return 8.0 * self.width
        if self.kind == "box":
            return 0.5 * self.width
        return self.width

    def profile(self, xs: np.ndarray) -> np.ndarray:
        z = xs - self.center
        if self.kind == "gaussian":
            return self.amplitude * np.exp(-0.5 * (z / self.width) ** 2)
        if self.kind == "box":
            return np.where(np.abs(z) <= 0.5 * self.width, self.amplitude, 0.0)
        arch = np.cos(0.5 * np.pi * z / self.width) ** 2
        return self.amplitude * np.where(np.abs(z) <= self.width, arch, 0.0)


@dataclass(frozen=True)
class InitialDataSpec:
    """Sum of bumps, given either on physical components or directly on
    characteristic (eigenbasis) components.  A rejected value raises
    ``ValueError`` naming the field (``basis: ...``); the scenario loader
    puts the field's path in front."""

    bumps: tuple[Bump, ...]
    basis: str = "physical"

    def __post_init__(self) -> None:
        if not self.bumps:
            raise ValueError("bumps: at least one bump is required")
        if self.basis not in ("physical", "characteristic"):
            raise ValueError(f"basis: unknown basis {self.basis!r}")
        object.__setattr__(self, "bumps", tuple(self.bumps))

    def support(self) -> tuple[float, float]:
        lo = min(b.center - b.half_extent for b in self.bumps)
        hi = max(b.center + b.half_extent for b in self.bumps)
        return lo, hi

    def sample(self, xs: np.ndarray, n: int) -> np.ndarray:
        out = np.zeros((n, xs.size))
        for b in self.bumps:
            if not 0 <= b.component < n:
                raise ValueError(
                    f"component: index {b.component} out of range for {n} components"
                )
            out[b.component] += b.profile(xs)
        return out


@dataclass(frozen=True)
class Trajectory(NormSeries):
    """Sampled norm history of one run plus the final characteristic field."""

    grid: Grid
    eigs: EigenStructure
    final_w: np.ndarray

    @property
    def stride_dt(self) -> float:
        """The sampling stride in time; ``sample_steps`` samples twice or more."""
        return float(self.times[1] - self.times[0])


def _norm_row(w: np.ndarray, grid: Grid, basis: np.ndarray) -> dict[str, np.ndarray]:
    """``field_norms`` of a stack of fields on ``grid``, or of one field."""
    return field_norms(w, grid.bands, basis)


def half_relaxation(sys: HyperbolicSystem, dt: float) -> np.ndarray:
    """The half step ``exp(-dt/2 S)`` of the damping in the eigenbasis.

    ``S = basis^T blockdiag(0, dd) basis``, so the exponential is
    ``basis^T blockdiag(I, exp(-dt/2 dd)) basis``: only the coercive block
    needs one, and it contracts, so no rounding in its scaling and
    squaring can grow the energy or touch the undamped directions,
    however strong the damping.
    """
    relax = np.eye(sys.n)
    relax[sys.n1:, sys.n1:] = matrix_exp(-0.5 * dt * sys.dd).real
    basis = sys.eigs.basis
    return np.ascontiguousarray(basis.T @ relax @ basis)


def _edge_contact(t_hit: float) -> BoundaryError:
    return BoundaryError(
        f"mass reached the edge guard band near t = {t_hit:.6g}; "
        "enlarge the domain or shorten the run"
    )


def run(
    sys: HyperbolicSystem,
    region: UndampedRegion,
    data: InitialDataSpec,
    *,
    x_min: float,
    x_max: float,
    t_final: float,
    stride: int,
    n_cells: int | None = None,
) -> Trajectory:
    """Evolve initial data and sample norms every ``stride`` steps.

    The kernel's edge guard is the one rule for a domain that is too
    small: mass above ``GUARD_RTOL`` of the initial sup-norm in the
    ``guard_cells`` band at either edge raises ``BoundaryError`` with the
    time of contact.  The sampled initial field is held to the same rule,
    since a step would shift data in the outermost cells out unseen.
    Samples are normed in stacks (``in_blocks``), one ``_norm_row`` per
    stack.
    """
    eigs = sys.eigs
    grid = build_grid(eigs, region, x_min, x_max, n_cells)
    steps = sample_steps(t_final, grid.dt, stride)

    # step data with sup in [1/2, 1), so the bits do not depend on its scale
    u0, e0 = unit_scale(data.sample(grid.centers, sys.n))
    if data.basis == "characteristic":
        w = np.ascontiguousarray(u0, dtype=np.float64)
    else:
        w = np.ascontiguousarray(eigs.basis.T @ u0, dtype=np.float64)
    if not w.any():
        raise ValueError("initial data is zero on the grid")

    damp_half = half_relaxation(sys, grid.dt)
    guard_tol = GUARD_RTOL * float(np.abs(w).max())
    guard = grid.guard_cells
    if max(np.abs(w[:, :guard]).max(), np.abs(w[:, -guard:]).max()) > guard_tol:
        raise _edge_contact(0.0)

    def sampled() -> Iterator[np.ndarray]:
        yield w
        for start, stop in zip(steps, steps[1:]):
            code = kernels.advance(
                w, grid.shifts, damp_half, grid.damp_mask, stop - start, 1,
                guard, guard_tol,
            )
            if code:
                raise _edge_contact((start + code) * grid.dt)
            yield w

    blocks = [
        _norm_row(stack, grid, eigs.basis)
        for stack in in_blocks(sampled(), len(steps), w.size)
    ]
    times = [k * grid.dt for k in steps]
    return Trajectory.from_blocks(
        times, blocks, exponent=e0, n_cells=grid.n_cells, grid=grid, eigs=eigs,
        final_w=np.ldexp(w, e0, out=w),
    )
