"""Frequency-side reference computations for the constant-damping system.

With the damping active everywhere, each spatial frequency evolves
independently under a small complex matrix.  This module provides that
matrix, a scaling-and-squaring exponential for it, the decay-rate scan
(uniform rate at high frequency, diffusive curvature at low frequency),
and a pseudospectral evolver on a periodic box used as the reference
solution that the localized-damping envelopes are calibrated against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from locdamp.model import EigenStructure, HyperbolicSystem, diagonalize, source_matrix

TAYLOR_TERMS = 20
SCALING_THETA = 0.5
NORM_GUARD = 1e4
# Low-frequency window for the diffusive-curvature fit.
CURVATURE_XI_MAX = 0.1
# Initial data must be band-limited: relative spectral mass allowed in the
# top two frequency bins.
ALIASING_RTOL = 1e-8


class MatrixExpError(RuntimeError):
    """Argument norm exceeds the scaling guard."""


def symbol(sys: HyperbolicSystem, xi: float) -> np.ndarray:
    """Per-frequency evolution matrix -i*xi*A - B."""
    return -1j * float(xi) * sys.a - sys.b


def _symbol_stack(sys: HyperbolicSystem, eigs: EigenStructure, xi: np.ndarray) -> np.ndarray:
    """Stack of eigenbasis symbols -i*xi*diag(lambdas) - S, one per entry of
    ``xi``; each shares its spectrum with ``symbol`` at that frequency."""
    d = np.diag(eigs.lambdas)
    return -1j * xi[:, None, None] * d - source_matrix(sys, eigs)


def matrix_exp(m) -> np.ndarray:
    """exp of a single square matrix; see ``_matrix_exp_batch``."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix_exp: expected a square matrix, got shape {arr.shape}")
    return _matrix_exp_batch(arr[None])[0]


def _matrix_exp_batch(ms: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring exponential of a (k, n, n) stack.

    Scales every matrix by the same power of two chosen from the largest
    Frobenius norm, runs a 20-term Horner Taylor evaluation, and squares
    back.  Norms above 1e4 are refused rather than silently squared into
    garbage.
    """
    ms = np.asarray(ms, dtype=complex)
    norms = np.sqrt(np.sum(np.abs(ms) ** 2, axis=(-2, -1)))
    nmax = float(norms.max()) if norms.size else 0.0
    if not np.isfinite(nmax):
        raise MatrixExpError("matrix norm is not finite")
    if nmax > NORM_GUARD:
        raise MatrixExpError(f"matrix norm {nmax:.3e} exceeds guard {NORM_GUARD:.0e}")
    s = 0 if nmax <= SCALING_THETA else int(np.ceil(np.log2(nmax / SCALING_THETA)))
    x = ms / (2.0 ** s)
    n = ms.shape[-1]
    eye = np.broadcast_to(np.eye(n, dtype=complex), ms.shape)
    p = eye + x / TAYLOR_TERMS
    for j in range(TAYLOR_TERMS - 1, 0, -1):
        p = eye + (x / j) @ p
    for _ in range(s):
        p = p @ p
    return p


@dataclass(frozen=True)
class SpectralScan:
    """Decay-rate scan over frequency.

    ``gamma`` is the uniform high-frequency rate (negated worst abscissa
    over xi >= 1); ``c_low`` the diffusive curvature fitted on the
    quadratic dip near xi = 0.  ``tail_stabilized`` records whether the
    worst abscissa was attained away from the end of the scan range.
    """

    xi: np.ndarray
    abscissa: np.ndarray
    gamma: float
    gamma_argmax_xi: float
    c_low: float
    c_low_residual: float
    tail_stabilized: bool


def gamma_estimate(
    sys: HyperbolicSystem,
    *,
    xi_max: float = 100.0,
    samples: int = 400,
    eigs: EigenStructure | None = None,
) -> SpectralScan:
    """Scan the per-frequency abscissa and extract both decay parameters.

    The grid spends half its samples linearly on [0, 1) and half
    logarithmically on [1, xi_max].  Only xi >= 1 feeds the uniform rate;
    only 0 < xi <= 0.1 feeds the curvature fit.
    """
    if not (np.isfinite(xi_max) and xi_max > 1.0):
        raise ValueError("gamma_estimate: xi_max must be finite and exceed 1")
    if samples < 16:
        raise ValueError("gamma_estimate: need at least 16 samples")
    if eigs is None:
        eigs = diagonalize(sys.a)
    n_low = samples // 2
    xi = np.concatenate(
        [
            np.linspace(0.0, 1.0, n_low, endpoint=False),
            np.logspace(0.0, np.log10(xi_max), samples - n_low),
        ]
    )
    absc = np.linalg.eigvals(_symbol_stack(sys, eigs, xi)).real.max(axis=1)

    high = xi >= 1.0
    hi_absc = absc[high]
    k = int(np.argmax(hi_absc))
    gamma = -float(hi_absc[k])
    arg_xi = float(xi[high][k])
    # Stabilized when the scan's last quarter does not push the worst
    # abscissa up, so extending the range would not change the rate.
    split = 3 * hi_absc.size // 4
    rest_max = float(hi_absc[:split].max())
    tail_max = float(hi_absc[split:].max())
    tail_stabilized = tail_max <= rest_max + 1e-9 * max(1.0, abs(rest_max))

    fit = (xi > 0.0) & (xi <= CURVATURE_XI_MAX)
    xs = xi[fit]
    ys = absc[fit]
    denom = float(np.sum(xs ** 4))
    c_low = -float(np.sum(ys * xs ** 2)) / denom if denom > 0.0 else float("nan")
    resid = float(np.max(np.abs(ys + c_low * xs ** 2))) if denom > 0.0 else float("nan")
    return SpectralScan(
        xi=xi,
        abscissa=absc,
        gamma=gamma,
        gamma_argmax_xi=arg_xi,
        c_low=c_low,
        c_low_residual=resid,
        tail_stabilized=tail_stabilized,
    )


@dataclass(frozen=True)
class NormSeries:
    """Sampled norm history of a characteristic field.

    Bands split at wavenumber 1 (high band strict); ``comp_l2`` holds the
    physical components, shape ``(n, len(times))``.  The low band is kept
    as its modes: ``low_modes`` stacks each sample's real-FFT bins with
    xi <= 1, shape ``(len(times), n, n_low)`` with ``n_low`` about
    ``L / 2 pi + 1`` for a box of length ``L``, and ``n_cells`` is the grid
    size they were taken on.  Its sup, ``linf_low``, is synthesized from
    them on first read, so runs that never read it never pay for it.
    """

    times: np.ndarray
    l2_total: np.ndarray
    l2_high: np.ndarray
    l2_low: np.ndarray
    linf: np.ndarray
    low_modes: np.ndarray
    n_cells: int
    l1: np.ndarray
    comp_l2: np.ndarray

    @property
    def n_components(self) -> int:
        return self.comp_l2.shape[0]

    @functools.cached_property
    def linf_low(self) -> np.ndarray:
        """Sup over cells of the pointwise norm of the low band, per sample."""
        return np.array([low_band_sup(c, self.n_cells) for c in self.low_modes])

    @classmethod
    def from_rows(cls, times: Sequence[float], rows: Sequence[dict], **extra):
        """Stack ``field_norms`` rows, one per sample time; ``extra`` holds
        ``n_cells`` and the fields of a subclass."""
        return cls(
            times=np.array(times),
            l2_total=np.array([r["l2_total"] for r in rows]),
            l2_high=np.array([r["l2_high"] for r in rows]),
            l2_low=np.array([r["l2_low"] for r in rows]),
            linf=np.array([r["linf"] for r in rows]),
            low_modes=np.stack([r["low_modes"] for r in rows]),
            l1=np.array([r["l1"] for r in rows]),
            comp_l2=np.column_stack([r["comp_l2"] for r in rows]),
            **extra,
        )


def freq_split(w: np.ndarray, dx: float) -> tuple[float, float, np.ndarray]:
    """(high, low, low modes) of a characteristic field.

    The split is at wavenumber 1, high band strict; energies follow the
    real-FFT Parseval weights so the two bands sum to the total.  The low
    modes are the real-FFT bins with xi <= 1, a prefix since xi increases.
    """
    m = w.shape[1]
    what = np.fft.rfft(w, axis=1)
    nf = what.shape[1]
    xi = 2.0 * np.pi * np.arange(nf) / (m * dx)
    high = xi > 1.0
    low = ~high
    # Parseval weights: every bin but the zero bin and, for even m, the
    # Nyquist bin stands for a conjugate pair
    power = np.sum(np.abs(what) ** 2, axis=0)
    power[1:nf - 1 + m % 2] *= 2.0
    scale = dx / m
    l2_high = float(np.sqrt(scale * np.sum(power * high)))
    l2_low = float(np.sqrt(scale * np.sum(power * low)))
    # a copy, so the row does not keep the whole spectrum alive
    return l2_high, l2_low, what[:, :np.count_nonzero(low)].copy()


def low_band_sup(low_modes: np.ndarray, n_cells: int) -> float:
    """Sup over ``n_cells`` cells of the pointwise norm of the field whose
    real-FFT bins are ``low_modes`` followed by zeros."""
    w_low = np.fft.irfft(low_modes, n=n_cells, axis=1)
    return float(np.sqrt(np.sum(w_low ** 2, axis=0).max()))


def field_norms(w: np.ndarray, dx: float, basis: np.ndarray) -> dict[str, object]:
    """One ``NormSeries`` row of the characteristic field ``w`` on cells
    of width ``dx``; ``basis`` maps it to physical components.  The basis
    is orthogonal, so pointwise norms are taken on ``w`` directly."""
    sq = w ** 2
    point = np.sqrt(np.sum(sq, axis=0))
    l2_high, l2_low, low_modes = freq_split(w, dx)
    u = basis @ w
    return {
        "l2_total": float(np.sqrt(np.sum(sq) * dx)),
        "l2_high": l2_high,
        "l2_low": l2_low,
        "linf": float(point.max()),
        "low_modes": low_modes,
        "l1": float(point.sum() * dx),
        "comp_l2": np.sqrt(np.sum(u ** 2, axis=1) * dx),
    }


def fullspace_evolve(
    sys: HyperbolicSystem,
    x: Sequence[float],
    u0: np.ndarray,
    times: Iterable[float],
    *,
    eigs: EigenStructure | None = None,
) -> NormSeries:
    """Evolve initial data under everywhere-active damping on a periodic box.

    Works per frequency in the transport eigenbasis on the xi >= 0 half of
    the spectrum (data and symbol are real, so the other half is its
    conjugate) and advances from sample to sample; times must be
    non-negative and non-decreasing.  Increments that agree within
    ``tol = 4 * spacing(max(times))`` share one propagator and increments
    at or under ``tol`` are not stepped, so the j-th sample is evolved
    over a time within ``j * tol`` of its own.  The grid must be uniform
    and the data nonzero and band-limited: spectral mass in the top two
    bins beyond 1e-8 of the peak is rejected as aliased.
    """
    x = np.asarray(x, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if x.ndim != 1 or x.size < 8:
        raise ValueError("fullspace: need a 1d grid with at least 8 points")
    dx = x[1] - x[0]
    if not np.allclose(np.diff(x), dx, rtol=1e-9, atol=1e-12 * abs(dx)):
        raise ValueError("fullspace: grid must be uniform")
    if u0.shape != (sys.n, x.size):
        raise ValueError(f"fullspace: data shape {u0.shape} != ({sys.n}, {x.size})")
    if not u0.any():
        raise ValueError("initial data is zero on the grid")
    t_list = [float(t) for t in times]
    if not t_list or any(b < a for a, b in zip([0.0, *t_list], t_list)):
        raise ValueError("fullspace: times must be nonempty, non-negative and non-decreasing")
    if eigs is None:
        eigs = diagonalize(sys.a)

    m = x.size
    what = np.fft.rfft(eigs.basis.T @ u0, axis=1)
    xi = 2.0 * np.pi * np.fft.rfftfreq(m, d=dx)

    # The top two bins of the full spectrum: the two highest rfft bins for
    # even m, one conjugate pair (the highest rfft bin) for odd m.
    top = what[:, -2:] if m % 2 == 0 else what[:, -1:]
    peak = float(np.abs(what).max())
    if peak > 0.0 and float(np.abs(top).max()) > ALIASING_RTOL * peak:
        raise ValueError(
            "fullspace: initial data is not resolved on this grid (top-bin spectral mass)"
        )

    e_all = _symbol_stack(sys, eigs, xi)

    tol = 4.0 * float(np.spacing(t_list[-1]))
    props: list[tuple[float, np.ndarray]] = []
    rows = []
    t_prev = 0.0
    for t in t_list:
        inc = t - t_prev
        t_prev = t
        if inc > tol:
            prop = next((p for key, p in props if abs(inc - key) <= tol), None)
            if prop is None:
                prop = _matrix_exp_batch(e_all * inc)
                props.append((inc, prop))
            what = np.einsum("kij,jk->ik", prop, what)
        rows.append(field_norms(np.fft.irfft(what, n=m, axis=1), dx, eigs.basis))
    return NormSeries.from_rows(t_list, rows, n_cells=m)
