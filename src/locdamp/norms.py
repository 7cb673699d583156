"""The norm layer: sampled norm histories of characteristic fields.

A run samples its field and keeps, per sample, the total, band, pointwise
and component norms and the low band's modes (``NormSeries``).  Norms are
taken on stacks of samples (``field_norms``), as many at once as
``NORM_BLOCK_ENTRIES`` grid values hold, with one transform and one pass
of each reduction per stack; each reduction runs along the trailing axes,
so a sample's norms are the bits it gets when normed alone.  Every field
is rescaled by its own power of two before it is squared, so norms
neither overflow nor underflow at any amplitude and scale exactly with
the data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# The scalar norms of a ``NormSeries``, in the order a norms CSV lists them.
NORM_COLUMNS = ("l2_total", "l2_high", "l2_low", "linf", "l1")
# Fields whose sup lies within a factor 2**SCALE_EXPONENT of 1 are squared as
# they are; see ``_pow2_normalize``.
SCALE_EXPONENT = 400
# Grid values per stack of samples that the norms take at once (two
# samples of 2 x 4096 cells, four of 2 x 2048), so that a stack's
# temporaries stay small; a larger sample is normed alone, in place.
# Against 2**13, stacks of 2**14 ran the benchmark's reference, envelope
# and probe workloads 5%, 2% and 1% faster in one process; 2**15 raised
# the reference workload's peak resident size by 0.5 MB, and 2**16 ran
# it slower.
NORM_BLOCK_ENTRIES = 2 ** 14


@dataclass(frozen=True)
class NormSeries:
    """Sampled norm history of a characteristic field.

    Bands split at wavenumber 1 (high band strict); ``comp_l2`` holds the
    physical components, shape ``(n, len(times))``.  The low band is kept
    as its Fourier coefficients: ``low_modes`` stacks each sample's
    real-FFT bins with xi <= 1 over ``n_cells``, the grid size they were
    taken on, shape ``(len(times), n, n_low)`` with ``n_low`` about
    ``L / 2 pi + 1`` for a box of length ``L``.  Its sup, ``linf_low``, is
    synthesized from them on first read, one transform per block of samples
    (``samples_per_block``); a run never reads it, and the envelope check
    synthesizes single samples where a bound on the modes does not settle
    them.  A series is built from the ``field_norms`` columns of
    consecutive stacks of samples (``from_blocks``).
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
        one ``low_band_sup`` per block of samples."""
        step = samples_per_block(self.n_components * self.n_cells)
        return np.concatenate([
            low_band_sup(self.low_modes[i:i + step], self.n_cells)
            for i in range(0, self.times.size, step)
        ])

    @classmethod
    def from_blocks(
        cls, times: Sequence[float], blocks: Sequence[dict], *, exponent: int = 0, **extra
    ):
        """Join the ``field_norms`` columns of consecutive stacks of samples,
        taken on fields ``2**exponent`` times smaller than the ones the
        series describes (``scale_columns``); ``extra`` holds ``n_cells``
        and the fields of a subclass."""
        columns = {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
        scale_columns(columns, exponent)
        columns["comp_l2"] = np.ascontiguousarray(columns["comp_l2"].T)
        return cls(times=np.array(times), **columns, **extra)


@dataclass(frozen=True)
class BandSplit:
    """The split at wavenumber 1, high band strict, of the real-FFT bins
    of a field on ``n_cells`` cells of width ``dx``: the low band is the
    prefix of ``n_low`` bins with xi <= 1, since xi increases.  A run
    builds one (``BandSplit.of``) for all its norms."""

    n_cells: int
    dx: float
    n_low: int

    @classmethod
    def of(cls, n_cells: int, dx: float) -> BandSplit:
        xi = 2.0 * np.pi * np.arange(n_cells // 2 + 1) / (n_cells * dx)
        return cls(n_cells, dx, int(np.count_nonzero(xi <= 1.0)))


def _paired_bins(n_bins: int, n_cells: int) -> slice:
    """The bins among the first ``n_bins`` of a real FFT over ``n_cells``
    cells that stand for a conjugate pair: all but the zero bin and, for
    an even ``n_cells``, the Nyquist bin."""
    return slice(1, min(n_bins, (n_cells + 1) // 2))


def bin_weights(n_bins: int, n_cells: int) -> np.ndarray:
    """Parseval weights of the first ``n_bins`` real-FFT bins over
    ``n_cells`` cells: 2 on ``_paired_bins``, else 1."""
    weights = np.ones(n_bins)
    weights[_paired_bins(n_bins, n_cells)] = 2.0
    return weights


def freq_split(what: np.ndarray, split: BandSplit) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(high, low, low modes) of a characteristic field, or of each field
    of a stack, on the grid of ``split``, given by its real FFT along the
    cells (the last axis), ``what``.

    Energies follow the real-FFT Parseval weights so the two bands sum to
    the total, each band summed over every bin with the other's zeroed.
    The low modes are the Fourier coefficients (bins over ``n_cells``) with
    xi <= 1, none larger than the field's sup.
    """
    # Parseval weights: a bin that stands for a conjugate pair counts twice
    power = np.abs(what)
    power = np.square(power, out=power).sum(axis=-2)
    power[..., _paired_bins(power.shape[-1], split.n_cells)] *= 2.0
    # one table of the two bands, each over every bin with the other
    # band's bins zeroed, summed in one pass
    n_low = split.n_low
    bands = np.zeros((2, *power.shape))
    bands[0, ..., n_low:] = power[..., n_low:]
    bands[1, ..., :n_low] = power[..., :n_low]
    l2_high, l2_low = np.sqrt(split.dx / split.n_cells * bands.sum(axis=-1))
    return l2_high, l2_low, what[..., :n_low] / split.n_cells


def field_norms(
    w: np.ndarray, split: BandSplit, basis: np.ndarray, what: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """``NormSeries`` columns of a stack ``(k, n, m)`` of characteristic
    fields on the grid of ``split``, one entry per field along the leading
    axis (``comp_l2`` is ``(k, n)``); a single field ``(n, m)`` gives the
    entries without that axis.  ``basis`` maps a field to physical
    components; it is orthogonal, so pointwise norms are taken on ``w``
    directly.  The band norms and low modes come from ``what``, the real
    FFTs of ``w`` along the cells, when the caller holds them, else from
    one transform of the stack.  Every reduction runs once over the stack
    along its trailing axes, which sums each field as it sums that field
    alone, so a field's entries do not depend on the stack it is in.  Each
    field's entries scale exactly with it by powers of two
    (``_pow2_normalize``)."""
    w, e = _pow2_normalize(w)
    # only the split is kept, so a transform of ``w`` is freed before the
    # stack's own temporaries are made
    l2_high, l2_low, low_modes = freq_split(
        np.fft.rfft(w, axis=-1) if what is None else pow2_scale(what, -e), split
    )
    dx = split.dx
    sq = np.square(w)
    l2_total = np.sqrt(sq.sum(axis=(-2, -1)) * dx)
    point = sq.sum(axis=-2)
    # freed before the components are made, so that one temporary the size
    # of the stack lives at a time
    del sq
    np.sqrt(point, out=point)
    u = basis @ w
    return scale_columns({
        "l2_total": l2_total,
        "l2_high": l2_high,
        "l2_low": l2_low,
        "linf": point.max(axis=-1),
        "low_modes": low_modes,
        "l1": point.sum(axis=-1) * dx,
        "comp_l2": np.sqrt(np.square(u, out=u).sum(axis=-1) * dx),
    }, e)


def samples_per_block(entries: int) -> int:
    """Samples of ``entries`` grid values each that one norm stack takes:
    as many as ``NORM_BLOCK_ENTRIES`` holds, and at least one."""
    return max(1, NORM_BLOCK_ENTRIES // entries)


def in_blocks(samples: Iterable[np.ndarray], n_samples: int, entries: int) -> Iterator[np.ndarray]:
    """The ``n_samples`` arrays of ``samples``, in order, as stacks of
    consecutive ones, ``samples_per_block(entries)`` at a time, for a
    sample that stands for ``entries`` grid values.  Stacks are copied into
    one buffer that every stack reuses, so each is valid only until the
    next is asked for; a sample that fills a stack alone is given as a
    view of itself, uncopied."""
    per_block = min(n_samples, samples_per_block(entries))
    buf = None
    for i, sample in enumerate(samples):
        if per_block == 1:
            yield sample[None]
            continue
        if buf is None:
            buf = np.empty((per_block, *sample.shape), sample.dtype)
        j = i % per_block
        buf[j] = sample
        if j == per_block - 1 or i == n_samples - 1:
            yield buf[:j + 1]


def low_band_sup(low_modes: np.ndarray, n_cells: int) -> float | np.ndarray:
    """Sup over ``n_cells`` cells of the pointwise norm of the field whose
    Fourier coefficients are ``low_modes`` followed by zeros: a float for
    the modes ``(n, n_low)`` of one field, an array for a stack
    ``(k, n, n_low)``, all transformed at once; coefficients far from 1 are
    rescaled by a power of two first (``_pow2_normalize``)."""
    modes, e = _pow2_normalize(np.ascontiguousarray(low_modes).view(np.float64))
    w_low = np.fft.irfft(modes.view(low_modes.dtype), n=n_cells, axis=-1, norm="forward")
    sup = pow2_scale(np.sqrt(np.sum(w_low ** 2, axis=-2).max(axis=-1)), e)
    return sup if sup.ndim else float(sup)


def low_band_bound(low_modes: np.ndarray, n_cells: int) -> float:
    """An upper bound on ``low_band_sup(low_modes, n_cells)`` read off the
    modes, without a transform back to the grid.

    Component i of the synthesized field is the sum of c_0,
    2 Re(c_k e^(2 pi i j k / m)) over the paired bins and, when the prefix
    holds the Nyquist bin of an even m, +-c_N; so its magnitude is at most
    B_i = |c_0| + 2 sum |c_k| + |c_N|, and the pointwise norm at most
    hypot(B_i), combined with ``math.hypot`` so that it neither overflows
    nor underflows at amplitudes of 2**+-1000.

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
    per_component = np.abs(low_modes) @ bin_weights(n_low, m)
    margin = 1.0 + 2.0 ** -52 * (8.0 * math.log2(m) + n_low + n + 8.0)
    return math.hypot(*per_component) * margin


def _pow2_normalize(w: np.ndarray) -> tuple[np.ndarray, np.ndarray | int]:
    """``(w / 2**e, e)`` for a field, or per field of a stack (the last
    two axes), with ``e`` the binary exponent of the field's sup of
    ``|w|``, as in ``unit_scale``, where that sup lies outside
    [2**-SCALE_EXPONENT, 2**SCALE_EXPONENT] and squaring ``w`` could
    overflow or underflow, and 0 elsewhere; ``(w, 0)`` when no field needs
    it."""
    flat = w.reshape(*w.shape[:-2], -1)
    # the few sups of a stack are compared as floats, cheaper than as arrays
    highs = np.ravel(flat.max(axis=-1)).tolist()
    lows = np.ravel(flat.min(axis=-1)).tolist()
    e = [_far_exponent(max(hi, -lo)) for hi, lo in zip(highs, lows)]
    if not any(e):
        return w, 0
    e = np.reshape(e, w.shape[:-2])
    return pow2_scale(w, -e), e


def _far_exponent(sup: float) -> int:
    """The binary exponent of a sup outside [2**-SCALE_EXPONENT,
    2**SCALE_EXPONENT]; 0 for a sup inside it, for 0 and for one that is
    not finite."""
    if sup == 0.0 or 2.0 ** -SCALE_EXPONENT <= sup <= 2.0 ** SCALE_EXPONENT:
        return 0
    return math.frexp(sup)[1]


def scale_columns(columns: dict[str, np.ndarray], e) -> dict[str, np.ndarray]:
    """Norm columns of fields, rescaled in place for those fields times
    ``2**e``, with ``e`` one exponent or one per sample: every norm and the
    low modes."""
    if _nonzero(e):  # field_norms rescales every stack, nearly always by 2**0
        for name, column in columns.items():
            columns[name] = pow2_scale(column, e)
    return columns


def unit_scale(w: np.ndarray) -> tuple[np.ndarray, int]:
    """``(w / 2**e, e)`` with ``e`` the binary exponent of the sup of
    ``|w|``, so the result's sup lies in [1/2, 1); ``(w, 0)`` for a zero
    field.  Dividing by a power of two is exact, so a linear evolution of
    the result is that of ``w`` scaled by ``2**-e``, the same bits whatever
    the data's scale."""
    e = int(np.frexp(float(np.abs(w).max()))[1])
    return pow2_scale(w, -e), e


def _nonzero(e) -> bool:
    """Whether an exponent, or one of an array of them, is nonzero;
    cheaper than ``np.any`` for the int 0 a norm call nearly always has."""
    return bool(e.any()) if isinstance(e, np.ndarray) else e != 0


def pow2_scale(a: np.ndarray, e) -> np.ndarray:
    """``a * 2**e`` for a real or complex array, with ``e`` one exponent
    or one per entry of the leading axes of ``a``; complex entries scale
    through their real and imaginary parts."""
    if not _nonzero(e):
        return a
    if isinstance(e, np.ndarray):
        # an array of exponents is broadcast over the trailing axes; an int
        # stays a scalar, which ldexp takes several times faster
        e = e.reshape(e.shape + (1,) * (np.ndim(a) - e.ndim))
    if np.iscomplexobj(a):
        a = np.ascontiguousarray(a)
        return np.ldexp(a.view(np.float64), e).view(a.dtype)
    return np.ldexp(a, e)
