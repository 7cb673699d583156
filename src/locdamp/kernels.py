"""The stepping kernel: masked half-relaxation, integer-cell shifts, edge guard.

Each split step is half-relax (masked cells only), a shift of every row
by a whole number of cells with zero inflow, an edge-band guard, then the
second half-relax.  The relaxation is applied to each contiguous run of
the mask as one matrix product; a stripe mask has at most one run more
than it has stripes.

Work is confined to the light cone of the initial nonzero columns: the
kernel keeps a half-open column window outside which ``v`` is exactly
zero, relaxes and shifts only inside it, and widens it after each shift
by the largest left and right shift.  A field that fills the domain gives
the full-width window.
"""

from __future__ import annotations

import numpy as np


def _mask_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` index ranges of the nonzero runs of ``mask``."""
    on = mask != 0
    bounds = (np.flatnonzero(on[1:] != on[:-1]) + 1).tolist()
    if on[0]:
        bounds.insert(0, 0)
    if on[-1]:
        bounds.append(on.size)
    return list(zip(bounds[::2], bounds[1::2]))


def _nonzero_window(v: np.ndarray) -> tuple[int, int]:
    """Half-open column range holding every nonzero entry of ``v``; empty
    (``(0, 0)``) when ``v`` is zero."""
    cols = np.flatnonzero(v.any(axis=0))
    return (int(cols[0]), int(cols[-1]) + 1) if cols.size else (0, 0)


def _relax(
    v: np.ndarray, damp_half: np.ndarray, runs: list[tuple[int, int]], lo: int, hi: int
) -> None:
    """Half-relax the part of each mask run that meets the window ``[lo, hi)``."""
    for a, b in runs:
        if a < hi and lo < b:
            # numpy hands a one-column product to BLAS's matrix-vector code,
            # which rounds unlike the same column of a wider product, so keep
            # two columns where the run has them; the extra one lies outside
            # the window and is zero
            a, b = max(a, min(lo, b - 2)), min(b, max(hi, a + 2))
            v[:, a:b] = damp_half @ v[:, a:b]


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
    within ``guard_cells`` of either edge exceeded ``guard_tol`` in
    magnitude (checked after the shift, before the second half-relax).
    """
    m = v.shape[1]
    runs = _mask_runs(mask) if apply_damping else []
    moves = [int(s) for s in shifts]
    row_shifts = [(i, s) for i, s in enumerate(moves) if s != 0]
    grow_left, grow_right = min(0, *moves), max(0, *moves)
    guard = min(int(guard_cells), m)
    left = v[:, :guard]
    right = v[:, m - guard:]
    lo, hi = _nonzero_window(v)

    for step in range(int(n_steps)):
        _relax(v, damp_half, runs, lo, hi)

        # copy the window to its shifted place, clipped to the domain, and
        # zero the window cells the copy left behind
        for i, s in row_shifts:
            row = v[i]
            if s > 0:
                stop = min(hi + s, m)
                if lo + s < stop:
                    row[lo + s:stop] = row[lo:stop - s]
                row[lo:min(lo + s, hi)] = 0.0
            else:
                start = max(lo + s, 0)
                if start < hi + s:
                    row[start:hi + s] = row[start - s:hi]
                row[max(hi + s, lo):hi] = 0.0
        lo, hi = max(0, lo + grow_left), min(m, hi + grow_right)

        if guard > 0 and (
            np.abs(left).max() > guard_tol or np.abs(right).max() > guard_tol
        ):
            return step + 1

        _relax(v, damp_half, runs, lo, hi)
    return 0
