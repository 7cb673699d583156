"""The stepping kernel: masked half-relaxation, integer-cell shifts, edge guard.

Each split step is half-relax (masked cells only), a shift of every row
by a whole number of cells with zero inflow, an edge-band guard, then the
second half-relax.

Work is confined to the light cone of the initial nonzero columns: the
kernel keeps a half-open column window ``[lo, hi)`` outside which ``v``
is exactly zero, and relaxes and shifts only inside it.  Row i moves
``shifts[i]`` cells, so after a step the window is ``[lo + min(shifts),
hi + max(shifts))`` clipped to the grid: the cone follows the data on
both sides, and a cell-local relaxation cannot spread it.  The window is
run state (``Cone``): a run builds it once from its first field and hands
it to every call, which starts from it and writes back where it ended,
along with the cells it touched; without one a call scans ``v`` for it.
A field that fills the domain gives the full-width window.

A row is shifted by one copy over the union of its old and new window,
which reads the zeros beside the window, so no zero fill is needed but
for inflow at a grid edge.  A step picks its copy from the window it
carries.  While the window is at least ``reach = max|shifts|`` cells
from both edges (the interior step), every row's source and destination
lie on the grid: each moving row is one slice copy, and the window moves
by ``min(shifts)`` and ``max(shifts)`` unclipped.  Within ``reach`` of an
edge (the edge step) the copy is clipped to the grid, the cells whose
source lies off it get zero inflow, and the window is clipped too.

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

from dataclasses import dataclass

import numpy as np


@dataclass
class Cone:
    """The light-cone window ``[lo, hi)`` of a field, outside which it is
    exactly zero (empty when ``lo == hi``), and the cells stepped so far:
    rows times window width, summed over the steps taken."""

    lo: int
    hi: int
    cells: int = 0

    @classmethod
    def of(cls, v: np.ndarray) -> Cone:
        """The window of the nonzero columns of ``v``, by one scan."""
        return cls(*_nonzero_window(v))


def _nonzero_window(v: np.ndarray) -> tuple[int, int]:
    """Half-open column range holding every nonzero entry of ``v``; empty
    (``(0, 0)``) when ``v`` is zero."""
    cols = np.flatnonzero(v.any(axis=0))
    return (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)


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
    passes ``apply_damping`` for it once.  ``cone``, when given,
    holds the window of ``v`` and is left holding the window of the result
    and the cells stepped; without it the window is found by a scan.
    """
    if cone is None:
        cone = Cone.of(v)
    n, m = v.shape
    damped = mask.astype(bool, copy=False)
    relax = bool(apply_damping)
    moves = [int(s) for s in shifts]
    # each moving row with the cells its window gains on the left (a
    # negative shift) and on the right (a positive one)
    rows = [(v[i], s, min(s, 0), max(s, 0)) for i, s in enumerate(moves) if s != 0]
    grow_left, grow_right = min(moves), max(moves)
    # a window at least this far from both edges has every row's source and
    # destination on the grid
    reach = max(-grow_left, grow_right)
    guard = min(int(guard_cells), m)
    left = v[:, :guard]
    right = v[:, m - guard:]
    lo, hi = cone.lo, cone.hi
    n_steps = int(n_steps)
    cells = code = 0
    if relax and n_steps > 0:
        _relax(v, damp_half, damped, lo, hi)

    for step in range(n_steps):
        if lo == hi:
            break  # a zero field stays zero
        # row[x] = row[x - s] by one copy over the union of the row's old and
        # new window, which reads the zeros beside the old one
        if reach <= lo and hi <= m - reach:
            for row, _, neg, pos in rows:
                row[lo + neg:hi + pos] = row[lo - pos:hi - neg]
            lo += grow_left
            hi += grow_right
        else:
            # near an edge: clip the union [a, b) to the grid, and give zero
            # inflow to its cells whose source x - s lies off the grid
            for row, s, neg, pos in rows:
                a, b = max(0, lo + neg), min(m, hi + pos)
                c, d = max(a, s), min(b, m + s)
                if c < d:
                    row[c:d] = row[c - s:d - s]
                    if a < c:
                        row[a:c] = 0.0
                    if d < b:
                        row[d:b] = 0.0
                else:
                    row[a:b] = 0.0
            lo, hi = max(0, lo + grow_left), min(m, hi + grow_right)
            if lo >= hi:
                lo = hi = 0  # every row has left the grid
        cells += n * (hi - lo)

        if (lo < guard and np.abs(left).max() > guard_tol) or (
            hi > m - guard and np.abs(right).max() > guard_tol
        ):
            code = step + 1
            break

        if relax:
            # this step's second half and, but after the last step, the
            # next step's first
            _relax(v, damp_half, damped, lo, hi, 2 if step + 1 < n_steps else 1)
    cone.lo, cone.hi = lo, hi
    cone.cells += cells
    return code
