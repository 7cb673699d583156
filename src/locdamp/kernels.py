"""The stepping kernel: masked half-relaxation, integer-cell shifts, edge guard.

Each split step is half-relax (masked cells only), a shift of every row
by a whole number of cells with zero inflow, an edge-band guard, then the
second half-relax.

Work is confined to the light cone of the initial nonzero columns: the
kernel keeps a half-open column window outside which ``v`` is exactly
zero, relaxes and shifts only inside it, and widens it after each shift
by the largest left and right shift.  A field that fills the domain gives
the full-width window.  A half-relaxation is one matrix product over the
whole window, written back on its damped cells only; a column rounds
the same in any product of two or more columns, so this gives the bits
of a product over the damped cells alone.  A step's second half and the
next step's first act on the same window, so within one call they run
as two products back to back with one write-back: a column of a product
depends only on the same column of its input, so the damped columns come
out as two write-backs would leave them.  The guard scans an edge
band only once the window reaches it: outside the window every entry is
zero and cannot trip it.
"""

from __future__ import annotations

import numpy as np


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
    w = v[:, lo:hi]
    for _ in range(halves):
        w = damp_half @ w
    np.copyto(v[:, lo:hi], w, where=damped[lo:hi])


def advance(
    v: np.ndarray,
    shifts: np.ndarray,
    damp_half: np.ndarray,
    mask: np.ndarray,
    n_steps: int,
    apply_damping: int,
    guard_cells: int,
    guard_tol: float,
) -> int:
    """Run ``n_steps`` split steps on ``v`` (components × cells) in place.

    Returns 0 on completion, or the 1-based step index at which some entry
    within ``guard_cells`` of either edge exceeded ``guard_tol >= 0`` in
    magnitude (checked after the shift, before the second half-relax).
    """
    m = v.shape[1]
    damped = mask != 0
    relax = bool(apply_damping) and bool(damped.any())
    moves = [int(s) for s in shifts]
    row_shifts = [(i, s) for i, s in enumerate(moves) if s != 0]
    grow_left, grow_right = min(0, *moves), max(0, *moves)
    guard = min(int(guard_cells), m)
    left = v[:, :guard]
    right = v[:, m - guard:]
    lo, hi = _nonzero_window(v)
    n_steps = int(n_steps)
    if relax and n_steps > 0:
        _relax(v, damp_half, damped, lo, hi)

    for step in range(n_steps):
        # copy the part of the window that stays on the grid to its shifted
        # place, then zero the window cells beside it (a test beats an empty slice)
        for i, s in row_shifts:
            row = v[i]
            a, b = max(lo, -s), min(hi, m - s)
            if a < b:
                row[a + s:b + s] = row[a:b]
            c, d = min(hi, a + s), max(lo, b + s)
            if lo < c:
                row[lo:c] = 0.0
            if d < hi:
                row[d:hi] = 0.0
        lo, hi = max(0, lo + grow_left), min(m, hi + grow_right)

        if (lo < guard and np.abs(left).max() > guard_tol) or (
            hi > m - guard and np.abs(right).max() > guard_tol
        ):
            return step + 1

        if relax:
            # this step's second half and, but after the last step, the
            # next step's first
            _relax(v, damp_half, damped, lo, hi, 2 if step + 1 < n_steps else 1)
    return 0
