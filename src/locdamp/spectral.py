"""Frequency-side reference computations for the constant-damping system.

With the damping active everywhere, each spatial frequency evolves
independently under a small complex matrix.  This module provides that
matrix, a scaling-and-squaring exponential for whole stacks of them (a
degree-20 Taylor polynomial evaluated by Paterson–Stockmeyer on a
batch-last layout), the decay-rate scan (uniform rate at high frequency,
diffusive curvature at low frequency), and a pseudospectral evolver on a
periodic box used as the reference solution that the localized-damping
envelopes are calibrated against.  The evolver norms its samples in
stacks (``locdamp.norms``): it takes a stack's band norms from the spectra
it evolves and transforms them back to the grid once, for the pointwise
norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from locdamp.model import EigenStructure, HyperbolicSystem, source_matrix
from locdamp.norms import BandSplit, NormSeries, field_norms, in_blocks, pow2_scale, unit_scale

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
    f, e = _largest_frobenius(ms, (0, 1))
    if not math.isfinite(f):
        raise MatrixExpError("matrix is not finite")
    s = max(0, e + int(np.ceil(np.log2(f / SCALING_THETA)))) if f else 0
    out = np.empty_like(ms)
    step = max(1, EXP_CHUNK_ENTRIES // ms.shape[0] ** 2)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, ms.shape[-1], step):
            chunk = slice(lo, lo + step)
            out[:, :, chunk] = _taylor_squared(pow2_scale(ms[:, :, chunk], -s), s)
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
    if not math.isfinite(xi_max * float(np.abs(eigs.lambdas).max())):
        raise ValueError("gamma_estimate: xi_max times the largest speed must be finite")
    n_low = samples // 2
    xi = np.concatenate(
        [
            np.linspace(0.0, 1.0, n_low, endpoint=False),
            np.logspace(0.0, np.log10(xi_max), samples - n_low),
        ]
    )
    stack = _symbol_stack(sys, eigs, xi)
    absc = np.linalg.eigvals(stack).real.max(axis=1)
    f, e = _largest_frobenius(stack, (1, 2))
    resolution = math.ldexp(eigs.n * float(np.finfo(float).eps) * f, e)

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


def _largest_frobenius(stack: np.ndarray, axes: tuple[int, int]) -> tuple[float, int]:
    """``(f, e)`` with ``f * 2**e`` the largest Frobenius norm of the
    matrices that span ``axes`` of ``stack``.  The norms are taken on
    ``unit_scale(stack)``, an exact division, so no square overflows: ``f``
    is finite, at most the root of the matrix size, for any finite stack,
    and not finite otherwise."""
    unit, e = unit_scale(stack)
    return float(np.sqrt(np.sum(unit.real ** 2 + unit.imag ** 2, axis=axes)).max()), e


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
    over a time within ``j * tol`` of its own.  The evolved spectra are
    normed in stacks (``in_blocks``): band norms and low modes are read
    off them, and one inverse FFT per stack gives the total, pointwise and
    component norms.  The grid must be uniform
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

    def evolved(what: np.ndarray) -> Iterator[np.ndarray]:
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
            yield what

    split = BandSplit.of(m, dx)
    stacks = in_blocks(evolved(what), len(t_list), sys.n * m)
    # the generator holds the initial spectrum only until its first step
    del what, top
    blocks = [
        field_norms(np.fft.irfft(stack, n=m, axis=-1), split, eigs.basis, stack)
        for stack in stacks
    ]
    return NormSeries.from_blocks(t_list, blocks, exponent=e0, n_cells=m)
