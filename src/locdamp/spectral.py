"""Frequency-side reference computations for the constant-damping system.

With the damping active everywhere, each spatial frequency evolves
independently under a small complex matrix.  This module provides that
matrix, a scaling-and-squaring exponential for whole stacks of them (a
degree-20 Taylor polynomial evaluated by Paterson–Stockmeyer on a
batch-last layout), the decay-rate scan (uniform rate at high frequency,
diffusive curvature at low frequency), and a pseudospectral evolver on a
periodic box used as the reference solution that the localized-damping
envelopes are calibrated against.  The evolver takes a sample's band
norms from the spectrum it evolves and transforms back to the grid once,
for the pointwise norms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from locdamp.model import EigenStructure, HyperbolicSystem, source_matrix

TAYLOR_DEGREE = 20
# Paterson–Stockmeyer block size.  It divides the degree, so the top block
# is the scalar 1/20! and costs no product.
PS_BLOCK = 4
# Scaled arguments have Frobenius norm at most this, so the Taylor
# remainder is below 1/21! (about 2e-20).
SCALING_THETA = 1.0
# Matrix entries per pass of the exponential (1024 matrices of 2 x 2), so
# that its temporaries, about ten stacks of one pass, do not grow with the
# stack and stay in cache.
EXP_CHUNK_ENTRIES = 4096
_TAYLOR_COEFFS = np.array([1.0 / math.factorial(j) for j in range(TAYLOR_DEGREE + 1)])
# Low-frequency window for the diffusive-curvature fit.
CURVATURE_XI_MAX = 0.1
# The scan's linear half, samples // 2 points j / (samples // 2) on [0, 1),
# puts its first positive point in that window from this many samples on.
MIN_SCAN_SAMPLES = 2 * math.ceil(1.0 / CURVATURE_XI_MAX)
# A uniform rate within this factor of the scan's resolution is not told
# apart from rounding; ``calibrate`` refuses it.
RATE_RESOLUTION_FACTOR = 2.0 ** 20
# Initial data must be band-limited: relative spectral mass allowed in the
# top two frequency bins.
ALIASING_RTOL = 1e-8
# The scalar norms of a ``NormSeries``, in the order a norms CSV lists them.
NORM_COLUMNS = ("l2_total", "l2_high", "l2_low", "linf", "l1")
# Fields whose sup lies within a factor 2**SCALE_EXPONENT of 1 are squared as
# they are; see ``_pow2_normalize``.
SCALE_EXPONENT = 400


class MatrixExpError(RuntimeError):
    """The argument or its exponential is not finite."""


def _symbol_stack(sys: HyperbolicSystem, eigs: EigenStructure, xi: np.ndarray) -> np.ndarray:
    """Stack of eigenbasis evolution matrices -i*xi*diag(lambdas) - S, one
    per entry of ``xi``; each shares its spectrum with the physical-basis
    matrix -i*xi*A - B at that frequency."""
    d = np.diag(eigs.lambdas)
    return -1j * xi[:, None, None] * d - source_matrix(sys, eigs)


def matrix_exp(m) -> np.ndarray:
    """exp of a single square matrix; see ``_matrix_exp_batch``."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"matrix_exp: expected a square matrix, got shape {arr.shape}")
    return _matrix_exp_batch(arr[:, :, None])[:, :, 0]


def _batch_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[:, :, j] @ b[:, :, j]`` for every ``j`` of two batch-last
    ``(n, n, k)`` stacks, as ``n`` broadcast multiply-adds: for the small
    ``n`` of a symbol this is several times faster than ``matmul`` on a
    ``(k, n, n)`` stack."""
    out = a[:, :1] * b[:1]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[j:j + 1]
    return out


def _matrix_exp_batch(ms: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring exponential of a batch-last ``(n, n, k)`` stack.

    Scales every matrix by the same power of two ``2**-s``, the least that
    brings the largest Frobenius norm to ``SCALING_THETA`` = 1 or below,
    so the degree-20 Taylor polynomial is exact to within 1/21!.  Then
    evaluates it and squares ``s`` times (``_taylor_squared``), a pass of
    ``EXP_CHUNK_ENTRIES`` matrix entries at a time.  A non-finite
    argument is refused, and so is a result that overflows in the
    squaring.
    """
    ms = np.asarray(ms, dtype=complex)
    peak = float(np.abs(ms).max()) if ms.size else 0.0
    if not np.isfinite(peak):
        raise MatrixExpError("matrix is not finite")
    s = 0
    if peak:
        # the norms of the entries over 2**e, the binary exponent of the
        # largest: an exact division, so the squares cannot overflow
        e = int(np.frexp(peak)[1])
        unit = _ldexp(ms, -e)
        nmax = float(np.sqrt(np.sum(unit.real ** 2 + unit.imag ** 2, axis=(0, 1))).max())
        s = max(0, e + int(np.ceil(np.log2(nmax / SCALING_THETA))))
    out = np.empty_like(ms)
    step = max(1, EXP_CHUNK_ENTRIES // ms.shape[0] ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, ms.shape[-1], step):
            chunk = slice(lo, lo + step)
            out[:, :, chunk] = _taylor_squared(_ldexp(ms[:, :, chunk], -s), s)
    if not np.isfinite(out).all():
        raise MatrixExpError("matrix exponential overflows: result is not finite")
    return out


def _taylor_squared(x: np.ndarray, s: int) -> np.ndarray:
    """The degree-20 Taylor polynomial of exp at a batch-last stack ``x``,
    squared ``s`` times.  Evaluated by Paterson–Stockmeyer: the powers
    X^2, X^3, X^4, then Horner in X^4 over blocks of four coefficients, 7
    products in place of Horner's 20."""
    powers = [x]
    for _ in range(PS_BLOCK - 1):
        powers.append(_batch_matmul(powers[-1], x))
    top = powers.pop()
    diag = np.arange(x.shape[0])

    def add_block(p: np.ndarray, i: int) -> np.ndarray:
        # p + sum of c[q*i + j] X^j over j < q, in place, for block size q
        c = _TAYLOR_COEFFS[PS_BLOCK * i:PS_BLOCK * (i + 1)]
        for cj, xj in zip(c[1:], powers):
            p += cj * xj
        p[diag, diag] += c[0]
        return p

    n_blocks = TAYLOR_DEGREE // PS_BLOCK
    p = add_block(_TAYLOR_COEFFS[-1] * top, n_blocks - 1)
    for i in range(n_blocks - 2, -1, -1):
        p = add_block(_batch_matmul(p, top), i)
    del powers, top  # the squarings need only p
    for _ in range(s):
        p = _batch_matmul(p, p)
    return p


@dataclass(frozen=True)
class SpectralScan:
    """Decay-rate scan over frequency.

    ``gamma`` is the uniform high-frequency rate (negated worst abscissa
    over xi >= 1); ``c_low`` the diffusive curvature fitted on the
    quadratic dip near xi = 0.  ``tail_stabilized`` records whether the
    worst abscissa was attained away from the end of the scan range.
    ``resolution``, n eps times the largest Frobenius norm of the scanned
    matrices, bounds the rounding of every abscissa; a rate within
    ``RATE_RESOLUTION_FACTOR`` of it is not ``resolved``.
    """

    xi: np.ndarray
    abscissa: np.ndarray
    gamma: float
    gamma_argmax_xi: float
    c_low: float
    c_low_residual: float
    tail_stabilized: bool
    resolution: float

    @property
    def resolved(self) -> bool:
        return abs(self.gamma) > RATE_RESOLUTION_FACTOR * self.resolution


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
    only 0 < xi <= 0.1 feeds the curvature fit.  The eigenstructure is
    ``sys.eigs`` unless one is given.
    """
    if not (np.isfinite(xi_max) and xi_max > 1.0):
        raise ValueError("gamma_estimate: xi_max must be finite and exceed 1")
    if samples < MIN_SCAN_SAMPLES:
        raise ValueError(f"gamma_estimate: need at least {MIN_SCAN_SAMPLES} samples")
    if eigs is None:
        eigs = sys.eigs
    n_low = samples // 2
    xi = np.concatenate(
        [
            np.linspace(0.0, 1.0, n_low, endpoint=False),
            np.logspace(0.0, np.log10(xi_max), samples - n_low),
        ]
    )
    stack = _symbol_stack(sys, eigs, xi)
    absc = np.linalg.eigvals(stack).real.max(axis=1)
    # the largest Frobenius norm, taken over the largest entry so that no
    # square overflows
    mag = np.abs(stack)
    peak = float(mag.max()) or 1.0
    fro = peak * math.sqrt(float(np.sum(np.square(mag / peak), axis=(1, 2)).max()))
    resolution = eigs.n * float(np.finfo(float).eps) * fro

    high = xi >= 1.0
    hi_absc = absc[high]
    k = int(np.argmax(hi_absc))
    gamma = -float(hi_absc[k])
    arg_xi = float(xi[high][k])
    # Stabilized when the scan's last quarter does not push the worst
    # abscissa up by more than 1e-9 of it or the resolution, so extending
    # the range would not change the rate.
    split = 3 * hi_absc.size // 4
    rest_max = float(hi_absc[:split].max())
    tail_max = float(hi_absc[split:].max())
    tail_stabilized = tail_max <= rest_max + max(1e-9 * abs(rest_max), resolution)

    fit = (xi > 0.0) & (xi <= CURVATURE_XI_MAX)
    xs = xi[fit]
    ys = absc[fit]
    c_low = -float(np.sum(ys * xs ** 2)) / float(np.sum(xs ** 4))
    resid = float(np.max(np.abs(ys + c_low * xs ** 2)))
    return SpectralScan(
        xi=xi,
        abscissa=absc,
        gamma=gamma,
        gamma_argmax_xi=arg_xi,
        c_low=c_low,
        c_low_residual=resid,
        tail_stabilized=tail_stabilized,
        resolution=resolution,
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
    them on first read, so runs that never read it never pay for it;
    the reference calibration reads it, while the envelope check
    synthesizes single samples, only where a bound on the modes does not
    settle them.
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
        """Sup over cells of the pointwise norm of the low band, per sample:
        one ``low_band_sup`` per sample, all at once."""
        return np.array([low_band_sup(c, self.n_cells) for c in self.low_modes])

    @classmethod
    def from_rows(cls, times: Sequence[float], rows: Sequence[dict], *, exponent: int = 0, **extra):
        """Stack ``field_norms`` rows, one per sample time, taken on a field
        ``2**exponent`` times smaller than the one the series describes
        (``scale_row``); ``extra`` holds ``n_cells`` and the fields of a
        subclass."""
        columns = {name: np.array([r[name] for r in rows]) for name in NORM_COLUMNS}
        columns["low_modes"] = np.stack([r["low_modes"] for r in rows])
        columns["comp_l2"] = np.column_stack([r["comp_l2"] for r in rows])
        return cls(times=np.array(times), **scale_row(columns, exponent), **extra)


def freq_split(what: np.ndarray, n_cells: int, dx: float) -> tuple[float, float, np.ndarray]:
    """(high, low, low modes) of a characteristic field on ``n_cells``
    cells of width ``dx``, given by its real FFT along the cells, ``what``.

    The split is at wavenumber 1, high band strict; energies follow the
    real-FFT Parseval weights so the two bands sum to the total.  The low
    modes are the real-FFT bins with xi <= 1, a prefix since xi increases.
    """
    m = n_cells
    nf = what.shape[1]
    xi = 2.0 * np.pi * np.arange(nf) / (m * dx)
    high = xi > 1.0
    low = ~high
    # Parseval weights: every bin but the zero bin and, for even m, the
    # Nyquist bin stands for a conjugate pair
    power = np.abs(what)
    power = np.sum(np.square(power, out=power), axis=0)
    power[1:nf - 1 + m % 2] *= 2.0
    scale = dx / m
    l2_high = float(np.sqrt(scale * np.sum(power * high)))
    l2_low = float(np.sqrt(scale * np.sum(power * low)))
    # a copy, so the row does not keep the whole spectrum alive
    return l2_high, l2_low, what[:, :np.count_nonzero(low)].copy()


def _ldexp(a: np.ndarray, e: int) -> np.ndarray:
    """``a * 2**e`` for a real or complex array; complex entries scale
    through their real and imaginary parts."""
    if not e:
        return a
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a)
        return np.ldexp(a.view(np.float64), e).view(a.dtype)
    return np.ldexp(a, e)


def unit_scale(w: np.ndarray) -> tuple[np.ndarray, int]:
    """``(w / 2**e, e)`` with ``e`` the binary exponent of the sup of
    ``|w|``, so the result's sup lies in [1/2, 1); ``(w, 0)`` for a zero
    field.  Dividing by a power of two is exact, so a linear evolution of
    the result is that of ``w`` scaled by ``2**-e``, the same bits whatever
    the data's scale."""
    e = int(np.frexp(float(np.abs(w).max()))[1])
    return _ldexp(w, -e), e


def _pow2_normalize(w: np.ndarray) -> tuple[np.ndarray, int]:
    """``unit_scale(w)`` when the sup of ``|w|`` lies outside
    [2**-SCALE_EXPONENT, 2**SCALE_EXPONENT], where squaring ``w`` could
    overflow or underflow; ``(w, 0)`` otherwise."""
    sup = float(max(w.max(), -w.min()))
    if sup == 0.0 or 2.0 ** -SCALE_EXPONENT <= sup <= 2.0 ** SCALE_EXPONENT:
        return w, 0
    return unit_scale(w)


def scale_row(row: dict[str, object], e: int) -> dict[str, object]:
    """A norm row of a field, or the stacked rows of a series, rescaled in
    place for that field times ``2**e``: every norm and the low modes."""
    if e:
        for name in NORM_COLUMNS:
            row[name] = np.ldexp(row[name], e)
        for name in ("comp_l2", "low_modes"):
            # complex bins scale through their real and imaginary parts
            parts = row[name].view(np.float64)
            np.ldexp(parts, e, out=parts)
    return row


def low_band_sup(low_modes: np.ndarray, n_cells: int) -> float:
    """Sup over ``n_cells`` cells of the pointwise norm of the field whose
    real-FFT bins are ``low_modes`` followed by zeros."""
    w_low, e = _pow2_normalize(np.fft.irfft(low_modes, n=n_cells, axis=1))
    return float(np.ldexp(np.sqrt(np.sum(w_low ** 2, axis=0).max()), e))


def low_band_bound(low_modes: np.ndarray, n_cells: int) -> float:
    """An upper bound on ``low_band_sup(low_modes, n_cells)`` read off the
    modes, without a transform back to the grid.

    Component i of the synthesized field is (1/m) times the sum of c_0,
    2 Re(c_k e^(2 pi i j k / m)) over the paired bins and, when the prefix
    holds the Nyquist bin of an even m, +-c_N; so its magnitude is at most
    B_i = (|c_0| + 2 sum |c_k| + |c_N|) / m, and the pointwise norm at most
    hypot(B_i).  Each |c_k| is divided by m before the sums and the
    components are combined with ``math.hypot``, so the bound neither
    overflows nor underflows at amplitudes of 2**+-1000.

    It is returned times a margin for the rounding of both sides, in units
    of eps = 2**-53: 8 per factor of two of m for the transform, n_low for
    the sums of nonnegative terms, n for the norm over n components, plus
    8, all doubled.  The margin is an estimate, not a proof: 8 eps per
    factor of two is an allowance for Cooley-Tukey passes, and pocketfft
    transforms an m with a large prime factor by Bluestein's algorithm
    instead, a convolution of length at least 2m.  Measured
    on modes phase-aligned at one cell, where B is attained, the
    synthesized sup exceeds the exact bound by at most 4 eps for m < 16,
    where the margin is at least 36 eps, and by at most 18 eps for m from
    16 to 131 071, primes included, where it is at least 84 eps; the worst
    cases are a single bin at a prime m.
    """
    n, n_low = low_modes.shape
    m = int(n_cells)
    weights = np.full(n_low, 2.0)
    weights[0] = 1.0
    if 2 * (n_low - 1) == m:
        weights[-1] = 1.0
    per_component = (np.abs(low_modes) / m) @ weights
    margin = 1.0 + 2.0 ** -52 * (8.0 * math.log2(m) + n_low + n + 8.0)
    return math.hypot(*per_component) * margin


def field_norms(
    w: np.ndarray, dx: float, basis: np.ndarray, what: np.ndarray | None = None
) -> dict[str, object]:
    """One ``NormSeries`` row of the characteristic field ``w`` on cells
    of width ``dx``; ``basis`` maps it to physical components.  The basis
    is orthogonal, so pointwise norms are taken on ``w`` directly.  The
    band norms and low modes come from ``what``, the real FFT of ``w``
    along the cells, when the caller holds it, else from a transform of
    ``w``.  The row scales exactly with ``w`` by powers of two
    (``_pow2_normalize``)."""
    w, e = _pow2_normalize(w)
    # only the split is kept, so a transform of ``w`` is freed before the
    # row's own temporaries are made
    l2_high, l2_low, low_modes = freq_split(
        np.fft.rfft(w, axis=1) if what is None else _ldexp(what, -e), w.shape[1], dx
    )
    sq = np.square(w)
    l2_total = float(np.sqrt(np.sum(sq) * dx))
    point = np.sum(sq, axis=0)
    np.sqrt(point, out=point)
    u = basis @ w
    return scale_row({
        "l2_total": l2_total,
        "l2_high": l2_high,
        "l2_low": l2_low,
        "linf": float(point.max()),
        "low_modes": low_modes,
        "l1": float(point.sum() * dx),
        "comp_l2": np.sqrt(np.sum(np.square(u, out=u), axis=1) * dx),
    }, e)


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
    over a time within ``j * tol`` of its own.  Each sample's band norms
    and low modes are read off the evolved spectrum; one inverse FFT gives
    the total, pointwise and component norms.  The grid must be uniform
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
        eigs = sys.eigs

    # evolve data with sup in [1/2, 1), so the bits do not depend on its scale
    u0, e0 = unit_scale(u0)
    m = x.size
    what = np.fft.rfft(eigs.basis.T @ u0, axis=1)
    del u0  # the evolution needs only the spectrum
    xi = 2.0 * np.pi * np.fft.rfftfreq(m, d=dx)

    # The top two bins of the full spectrum: the two highest rfft bins for
    # even m, one conjugate pair (the highest rfft bin) for odd m.
    top = what[:, -2:] if m % 2 == 0 else what[:, -1:]
    peak = float(np.abs(what).max())
    if peak > 0.0 and float(np.abs(top).max()) > ALIASING_RTOL * peak:
        raise ValueError(
            "fullspace: initial data is not resolved on this grid (top-bin spectral mass)"
        )

    # batch-last (n, n, bins), the layout of _matrix_exp_batch
    e_all = np.ascontiguousarray(np.moveaxis(_symbol_stack(sys, eigs, xi), 0, -1))

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
            what = np.einsum("ijk,jk->ik", prop, what)
        rows.append(field_norms(np.fft.irfft(what, n=m, axis=1), dx, eigs.basis, what))
    return NormSeries.from_rows(t_list, rows, exponent=e0, n_cells=m)
