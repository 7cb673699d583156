"""The stepping kernel: masked half-relaxation, integer-cell shifts, edge guard.

Each split step is half-relax (masked cells only), a shift of every row
by a whole number of cells with zero inflow, an edge-band guard, then the
second half-relax.  The relaxation is applied to each contiguous run of
the mask as one matrix product; a stripe mask has at most one run more
than it has stripes.
"""

from __future__ import annotations

import numpy as np


def _mask_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Half-open ``(start, stop)`` index ranges of the nonzero runs of ``mask``."""
    edges = np.diff(np.concatenate(([0], (mask != 0).view(np.int8), [0])))
    starts = np.flatnonzero(edges == 1).tolist()
    stops = np.flatnonzero(edges == -1).tolist()
    return list(zip(starts, stops))


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
    row_shifts = [(i, int(s)) for i, s in enumerate(shifts) if s != 0]
    guard = min(int(guard_cells), m)
    left = v[:, :guard]
    right = v[:, m - guard:]

    for step in range(int(n_steps)):
        for a, b in runs:
            v[:, a:b] = damp_half @ v[:, a:b]

        # a shift of m or more cells empties both slices and clears the row
        for i, s in row_shifts:
            row = v[i]
            if s > 0:
                row[s:] = row[:-s]
                row[:s] = 0.0
            else:
                row[:s] = row[-s:]
                row[s:] = 0.0

        if guard > 0 and (
            np.abs(left).max() > guard_tol or np.abs(right).max() > guard_tol
        ):
            return step + 1

        for a, b in runs:
            v[:, a:b] = damp_half @ v[:, a:b]
    return 0
