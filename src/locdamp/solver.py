"""Exact-shift transport solver with stripe-masked relaxation.

The time step is locked to the grid so that every characteristic speed
advances a whole number of cells per step; advection is then a lossless
memory shift and the only discretisation error left is the symmetric
splitting against the damping term.  Speeds must be commensurate for such
a step to exist; irrational ratios are rejected up front rather than
approximated silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from locdamp import kernels
from locdamp.chartimes import UndampedRegion
from locdamp.model import EigenStructure, HyperbolicSystem, diagonalize, source_matrix
from locdamp.spectral import NormSeries, field_norms, matrix_exp

# Rational reconstruction of speed ratios: denominator cap, acceptance
# tolerance, and the largest admissible common grid refinement.
SPEED_DENOMINATOR_MAX = 1000
SPEED_RATIONAL_RTOL = 1e-9
SPEED_LCM_MAX = 10_000
# Stripe edges may move at most half a cell when snapped to the grid.
SNAP_MAX_FRACTION = 0.5
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
    if snap_err > SNAP_MAX_FRACTION * dx * (1.0 + 1e-12):
        raise GridError("stripe snapping exceeded half a cell")  # unreachable via round
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
        # Gaussian tails below 8 sigma are treated as zero for margins.
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
    characteristic (eigenbasis) components."""

    bumps: tuple[Bump, ...]
    basis: str = "physical"

    def __post_init__(self) -> None:
        if not self.bumps:
            raise ValueError("initial_data.bumps: at least one bump is required")
        if self.basis not in ("physical", "characteristic"):
            raise ValueError(f"initial_data.basis: unknown basis {self.basis!r}")
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


def _norm_row(w: np.ndarray, grid: Grid, basis: np.ndarray) -> dict[str, object]:
    return field_norms(w, grid.dx, basis)


def advance_segment(
    w: np.ndarray,
    grid: Grid,
    damp_half: np.ndarray,
    n_steps: int,
    apply_damping: bool,
    *,
    guard_tol: float,
    mask: np.ndarray | None = None,
    t_base: float = 0.0,
) -> None:
    """Run the kernel for ``n_steps`` steps in place; mass above
    ``guard_tol`` in the edge guard band raises."""
    use_mask = grid.damp_mask if mask is None else mask
    code = kernels.advance(
        w,
        grid.shifts,
        damp_half,
        use_mask,
        int(n_steps),
        1 if apply_damping else 0,
        grid.guard_cells,
        guard_tol,
    )
    if code != 0:
        t_hit = t_base + code * grid.dt
        raise BoundaryError(
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
    eigs: EigenStructure | None = None,
    apply_damping: bool = True,
    full_damping: bool = False,
) -> Trajectory:
    """Evolve initial data and sample norms every ``stride`` steps.

    ``full_damping=True`` activates the relaxation on every cell (the
    stripe geometry is kept only for grid layout), which is the discrete
    counterpart of the constant-damping reference evolution.
    ``apply_damping=False`` runs pure transport.
    """
    if eigs is None:
        eigs = diagonalize(sys.a)
    grid = build_grid(eigs, region, x_min, x_max, n_cells)
    t_final = float(t_final)
    steps = sample_steps(t_final, grid.dt, stride)

    lo, hi = data.support()
    lam = eigs.lambdas
    margin = (grid.guard_cells + 1) * grid.dx
    lo_final = lo + t_final * min(0.0, float(lam.min()))
    hi_final = hi + t_final * max(0.0, float(lam.max()))
    if lo_final < grid.x_min + margin or hi_final > grid.x_max - margin:
        raise GridError(
            "initial data would reach the edge guard band before t_final; "
            "enlarge the domain"
        )

    u0 = data.sample(grid.centers, sys.n)
    if data.basis == "characteristic":
        w = np.ascontiguousarray(u0, dtype=np.float64)
    else:
        w = np.ascontiguousarray(eigs.basis.T @ u0, dtype=np.float64)
    if not w.any():
        raise ValueError("initial data is zero on the grid")

    src = source_matrix(sys, eigs)
    damp_half = np.ascontiguousarray(matrix_exp(-0.5 * grid.dt * src).real)
    mask = np.ones_like(grid.damp_mask) if full_damping else grid.damp_mask
    guard_tol = GUARD_RTOL * float(np.abs(w).max())

    rows = [_norm_row(w, grid, eigs.basis)]
    for start, stop in zip(steps, steps[1:]):
        advance_segment(
            w, grid, damp_half, stop - start, apply_damping,
            guard_tol=guard_tol, mask=mask, t_base=start * grid.dt,
        )
        rows.append(_norm_row(w, grid, eigs.basis))

    times = [k * grid.dt for k in steps]
    return Trajectory.from_rows(
        times, rows, n_cells=grid.n_cells, grid=grid, eigs=eigs, final_w=w
    )
