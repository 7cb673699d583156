"""The stepping kernel: masked half-relaxation, integer-cell shifts, edge guard.

Each split step is half-relax (masked cells only), a shift of every row
by a whole number of cells with zero inflow, an edge-band guard, then the
second half-relax.

The stepper's run state is a ``Cone``, built once per run on the field it
steps and handed to every call, which starts from it and writes back
where it ended: the row views, each row's shift and their reach, the
guard band's views, the ``bool`` mask with its undamped runs, which rows
are live, and the light-cone window ``[lo, hi)`` outside which every
entry is +0.0.  A call without one builds it by one scan of ``v``, and
a call given one built for another field, other shift or mask arrays or
another guard band refuses it.

A row is live unless it is +0.0 throughout.  Shifting moves no value
into a dead row, so it is never copied, and the window follows the live
rows alone: after a step it is ``[lo + min, hi + max)`` of their shifts,
clipped to the grid.  Only a relaxation on a damped cell mixes rows, so
one whose window holds a damped cell makes every row live, and a cone
with dead rows skips one whose window holds none, which would write
nothing.  A field that fills the domain gives the full-width window.

A step picks its copy from the window it carries.  While the window is
at least ``reach = max|shifts|`` cells from both edges (the interior
step), every row's source and destination lie on the grid: each moving
row is shifted by one slice copy over the union of its old and new
window, which reads the zeros beside the window, and the window moves
unclipped.  Every other move of a row is one ``_move`` of its window
``d`` cells on: it copies the window, drops what leaves the grid and
sets the cells it vacates to +0.0.  Within ``reach`` of an edge (the
edge step) that is ``d = shift``, and the window is clipped to the grid.

A step whose window stays inside one undamped run (the whole grid when
damping is off) and at least ``max(guard, reach)`` cells from both edges
is pure transport: its relaxations write no damped cell, and its guard
bands hold only zeros, so none can trip.  A call takes as many such steps
as lie ahead, j, in one jump: each moving live row is moved
``d = j * shift`` cells, the bits j steps would leave.

A half-relaxation is one matrix product over the whole window, written
back on its damped cells only; a column rounds the same in any product
of two or more columns, so this gives the bits of a product over the
damped cells alone.  A step's second half and the next step's first act
on the same window, so within one call they run as two products back to
back with one write-back: a column of a product depends only on the same
column of its input, so the damped columns come out as two write-backs
would leave them.  The guard scans an edge band only once the window
reaches it: outside the window every entry is zero and cannot trip it.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np


class Cone:
    """The stepper's run state on the field ``v`` (components × cells), for
    the given shifts, damping mask and guard band.  Besides the state named
    in the module docstring it counts the work so far: ``cells``, rows
    times window width summed over the steps taken, jumped ones included,
    and how many steps were ``jumped`` and how many ``stepped``."""

    def __init__(
        self, v: np.ndarray, shifts: np.ndarray, mask: np.ndarray, guard_cells: int
    ) -> None:
        m = v.shape[1]
        # what it was built for, which a call must pass again
        self.built_for = (v, shifts, mask, guard_cells)
        self.rows = list(v)
        self.shifts = [int(s) for s in shifts]
        # a window at least this far from both edges has every row's source
        # and destination on the grid
        self.reach = max(abs(s) for s in self.shifts)
        self.damped = mask.astype(bool, copy=False)
        self.guard = guard = min(int(guard_cells), m)
        self.left = v[:, :guard]
        self.right = v[:, m - guard:]
        self.lo, self.hi, self.live = _nonzero_window(v)
        # the undamped runs [start, end), and where a jump may take the window,
        # clear of guard and reach: indexed by whether damping applies, the
        # whole grid or inside one undamped run
        padded = np.ones(m + 2, dtype=bool)
        padded[1:-1] = self.damped
        edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
        self.runs = (edges[0::2], edges[1::2])
        margin = max(guard, self.reach)
        self.zones = tuple(
            _clip(starts, ends, margin, m - margin) for starts, ends in (([0], [m]), self.runs)
        )
        self.cells = self.jumped = self.stepped = 0
        self._follow_live_rows()

    def _follow_live_rows(self) -> None:
        """The live rows that move, each with the cells its window gains on
        the left (a negative shift) and on the right (a positive one), and
        the live shifts' extremes, which move the window."""
        live = [(row, s) for row, s, on in zip(self.rows, self.shifts, self.live) if on]
        self.moving = [(row, s, min(s, 0), max(s, 0)) for row, s in live if s != 0]
        self.grow_left = min((s for _, s in live), default=0)
        self.grow_right = max((s for _, s in live), default=0)
        self.dormant = not all(self.live)

    def mixes(self, lo: int, hi: int) -> bool:
        """Whether a relaxation of the window ``[lo, hi)`` mixes the rows,
        that is, whether the window holds a damped cell."""
        starts, ends = self.runs
        i = bisect_right(starts, lo) - 1
        return lo < hi and not (i >= 0 and hi <= ends[i])

    def wake(self) -> None:
        """Make every row live, as a relaxation that mixes the rows does."""
        self.live = [True] * len(self.rows)
        self._follow_live_rows()

    def fits(
        self, v: np.ndarray, shifts: np.ndarray, mask: np.ndarray, guard_cells: int
    ) -> bool:
        """Whether the cone was built on ``v`` for these arguments."""
        field, built_shifts, built_mask, built_guard = self.built_for
        return (
            field is v and built_shifts is shifts and built_mask is mask
            and built_guard == guard_cells
        )


def _clip(starts: list[int], ends: list[int], a: int, b: int) -> tuple[list[int], list[int]]:
    """The nonempty intersections of the ranges ``[starts[i], ends[i])``
    with ``[a, b)``, as their starts and their ends."""
    kept = [(max(s, a), min(e, b)) for s, e in zip(starts, ends) if max(s, a) < min(e, b)]
    return [s for s, _ in kept], [e for _, e in kept]


def _nonzero_window(v: np.ndarray) -> tuple[int, int, list[bool]]:
    """Half-open column range holding every entry of ``v`` that is not
    +0.0, and per row whether it holds one; the range is empty
    (``(0, 0)``) when none does."""
    bits = v.view(np.uint64)
    cols = np.flatnonzero(bits.any(axis=0))
    if not cols.size:
        return 0, 0, [False] * len(v)
    lo, hi = int(cols[0]), int(cols[-1]) + 1
    return lo, hi, bits[:, lo:hi].any(axis=1).tolist()


def _move(row: np.ndarray, lo: int, hi: int, d: int) -> None:
    """Move the window ``[lo, hi)`` of ``row`` ``d != 0`` cells on: copy
    it, drop what leaves the grid, and set the cells it vacates to +0.0."""
    a, b = max(0, lo + d), min(row.shape[0], hi + d)
    if a < b:
        row[a:b] = row[a - d:b - d]
    if d > 0:
        row[lo:min(hi, lo + d)] = 0.0
    else:
        row[max(lo, hi + d):hi] = 0.0


def _relax(
    v: np.ndarray, damp_half: np.ndarray, damped: np.ndarray, lo: int, hi: int, halves: int = 1
) -> None:
    """Half-relax the damped cells of the window ``[lo, hi)`` ``halves``
    times, one product each, and write them back once."""
    if hi - lo < 2:
        if lo == hi:
            return
        # numpy hands a one-column product to BLAS's matrix-vector code,
        # which rounds unlike the same column of a wider product, so widen
        # the window into a zero column at whichever end the grid allows
        lo, hi = (lo, hi + 1) if hi < v.shape[1] else (lo - 1, hi)
    window = w = v[:, lo:hi]
    for _ in range(halves):
        w = damp_half @ w
    np.copyto(window, w, where=damped[lo:hi])


def advance(
    v: np.ndarray,
    shifts: np.ndarray,
    damp_half: np.ndarray,
    mask: np.ndarray,
    n_steps: int,
    apply_damping: int,
    guard_cells: int,
    guard_tol: float,
    cone: Cone | None = None,
) -> int:
    """Run ``n_steps`` split steps on ``v`` (components × cells) in place.

    Returns 0 on completion, or the 1-based step index at which some entry
    within ``guard_cells`` of either edge exceeded ``guard_tol >= 0`` in
    magnitude (checked after the shift, before the second half-relax).
    ``mask`` is true (nonzero) where damping acts; ``apply_damping`` false
    skips the relaxations, and a mask with no damped cell leaves the same
    bits at the cost of the products, so a caller that knows its mask
    passes ``apply_damping`` for it once.  ``cone``, when given, is the
    run state built on ``v`` for these ``shifts``, ``mask`` and
    ``guard_cells``, which the call reads from it; it is left holding the
    state of the result and the work done.  A cone built on another array
    or for other shift or mask objects or another guard band raises
    ``ValueError``.  Without it the call builds one by a scan of ``v``.
    """
    if cone is None:
        cone = Cone(v, shifts, mask, guard_cells)
    elif not cone.fits(v, shifts, mask, guard_cells):
        raise ValueError("cone: built for another field, shifts, mask or guard band")
    n, m = v.shape
    relax = bool(apply_damping)
    damped, guard, reach = cone.damped, cone.guard, cone.reach
    left, right = cone.left, cone.right
    zone_starts, zone_ends = cone.zones[relax]
    lo, hi = cone.lo, cone.hi
    n_steps = int(n_steps)
    step = cells = jumped = code = 0
    # half-relaxations owed to the window: step 1's first half, then each
    # step's second half and, but after the last step, the next step's first
    owed = 1 if relax and n_steps > 0 else 0

    while True:
        if owed:
            if cone.dormant and cone.mixes(lo, hi):
                cone.wake()
            if not cone.dormant:
                _relax(v, damp_half, damped, lo, hi, owed)
        if step == n_steps or lo == hi:
            break  # done, or a zero field, which stays zero
        moving, grow_left, grow_right = cone.moving, cone.grow_left, cone.grow_right

        # jump while the window after each step stays in one zone
        i = bisect_right(zone_starts, lo + grow_left) - 1
        if i >= 0 and hi + grow_right <= zone_ends[i]:
            j = n_steps - step
            if grow_left < 0:
                j = min(j, (lo - zone_starts[i]) // -grow_left)
            if grow_right > 0:
                j = min(j, (zone_ends[i] - hi) // grow_right)
            for row, s, _, _ in moving:
                _move(row, lo, hi, j * s)
            cells += n * (j * (hi - lo) + (grow_right - grow_left) * j * (j + 1) // 2)
            lo += j * grow_left
            hi += j * grow_right
            step += j
            jumped += j
            owed = 0  # the jumped steps' relaxations write nothing
            continue

        step += 1
        if reach <= lo and hi <= m - reach:
            # row[x] = row[x - s] by one copy over the union of the row's old
            # and new window, which reads the zeros beside the old one
            for row, _, neg, pos in moving:
                row[lo + neg:hi + pos] = row[lo - pos:hi - neg]
            lo += grow_left
            hi += grow_right
        else:
            # near an edge: each row's window moves clipped to the grid
            for row, s, _, _ in moving:
                _move(row, lo, hi, s)
            lo, hi = max(0, lo + grow_left), min(m, hi + grow_right)
            if lo >= hi:
                lo = hi = 0  # every row has left the grid
        cells += n * (hi - lo)

        if (lo < guard and np.abs(left).max() > guard_tol) or (
            hi > m - guard and np.abs(right).max() > guard_tol
        ):
            code = step
            break
        owed = (2 if step < n_steps else 1) if relax else 0
    cone.lo, cone.hi = lo, hi
    cone.cells += cells
    cone.jumped += jumped
    cone.stepped += step - jumped
    return code
