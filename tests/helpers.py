"""Shared system builders and independent oracles for the test suite."""

import numpy as np

from locdamp.chartimes import crossing_window
from locdamp.model import EigenStructure, HyperbolicSystem, source_matrix

# Exact rational orthogonal matrix (columns have squared entries 4/9, 4/9,
# 1/9), used to manufacture full symmetric systems with chosen speeds.
SPEED_BASIS_3 = np.array(
    [[2.0, -2.0, 1.0], [2.0, 1.0, -2.0], [1.0, 2.0, 2.0]]
) / 3.0


def damped_wave_system() -> HyperbolicSystem:
    return HyperbolicSystem(
        a=np.array([[0.0, 1.0], [1.0, 0.0]]), n1=1, dd=np.array([[1.0]])
    )


def three_speed_system(speeds=(1.0, 2.0, 3.0), n1=1) -> HyperbolicSystem:
    """Dense symmetric system with the given three speeds, damping on the
    trailing components."""
    b = SPEED_BASIS_3
    a = b @ np.diag(np.asarray(speeds, dtype=float)) @ b.T
    a = 0.5 * (a + a.T)
    return HyperbolicSystem(a=a, n1=n1, dd=np.eye(3 - n1))


def _random_orthogonal(rng: np.random.Generator, k: int) -> np.ndarray:
    if k == 1:
        return np.array([[1.0]])
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def random_valid_system(
    rng: np.random.Generator, n: int | None = None, *, uncoupled: bool = False
) -> HyperbolicSystem:
    """Random admissible system; with ``uncoupled`` the velocity matrix is
    block diagonal so an eigenvector hides inside the damping kernel."""
    if n is None:
        n = int(rng.integers(2, 6))
    mags = 0.5 + np.cumsum(rng.uniform(0.2, 1.0, size=n))
    signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    lams = np.sort(mags * signs)
    if uncoupled:
        n1 = int(rng.integers(1, n))
    else:
        n1 = int(rng.integers(0, n))
    d = n - n1
    if uncoupled:
        a = np.zeros((n, n))
        q1 = _random_orthogonal(rng, n1)
        q2 = _random_orthogonal(rng, d)
        a[:n1, :n1] = q1 @ np.diag(lams[:n1]) @ q1.T
        a[n1:, n1:] = q2 @ np.diag(lams[n1:]) @ q2.T
    else:
        q = _random_orthogonal(rng, n)
        a = q @ np.diag(lams) @ q.T
    a = 0.5 * (a + a.T)
    g = rng.standard_normal((d, d))
    dd = g @ g.T + (0.3 + rng.random()) * np.eye(d)
    if rng.random() < 0.3:
        k = rng.standard_normal((d, d))
        dd = dd + 0.2 * (k - k.T)
    return HyperbolicSystem(a=a, n1=n1, dd=dd)


def eigenbasis_symbol(sys: HyperbolicSystem, eigs: EigenStructure, xi: float) -> np.ndarray:
    """The symbol at one frequency in the transport eigenbasis,
    -i*xi*diag(lambdas) - S, built one frequency at a time."""
    return -1j * float(xi) * np.diag(eigs.lambdas) - source_matrix(sys, eigs)


def eager_linf_low(w: np.ndarray, dx: float) -> float:
    """Sup of the pointwise norm of the xi <= 1 band of ``w``, computed
    eagerly: the whole spectrum with the high band zeroed, transformed
    back on every cell."""
    m = w.shape[1]
    what = np.fft.rfft(w, axis=1)
    high = 2.0 * np.pi * np.arange(what.shape[1]) / (m * dx) > 1.0
    w_low = np.fft.irfft(what * ~high, n=m, axis=1)
    return float(np.sqrt(np.sum(w_low ** 2, axis=0)).max())


def spectral_abscissa(m) -> float:
    """Largest real part over the spectrum."""
    return float(np.linalg.eigvals(np.asarray(m, dtype=complex)).real.max())


def three_speed_scan_oracle(
    s1: float, s2: float, s3: float, R: float, resolution: float = 1e-9
) -> dict[str, float]:
    """Locate the abutment times by bisection along the slow characteristic
    ``x(t) = -R + s3 t`` using only ``crossing_window``.

    Independent of the closed forms in ``three_speed_geometry``; used to
    validate them.  Returns t2/x2, t1/x1 and the middle/fast overlap at the
    scanned (x2, t2), all accurate to ``resolution`` in time.
    """
    stripe = (-R, R)

    def point(t0: float) -> tuple[float, float]:
        return -R + s3 * t0, t0

    def slow_exit_gap(t0: float) -> float:
        x0, _ = point(t0)
        w3 = crossing_window(s3, stripe, x0, t0)
        w2 = crossing_window(s2, stripe, x0, t0)
        return w2.t_en - w3.t_ex

    def mid_exit_gap(t0: float) -> float:
        x0, _ = point(t0)
        w2 = crossing_window(s2, stripe, x0, t0)
        w1 = crossing_window(s1, stripe, x0, t0)
        return w1.t_en - w2.t_ex

    def bisect(fn) -> float:
        lo = 2.0 * R / s3
        hi = lo * 2.0
        while fn(hi) <= 0.0:
            hi *= 2.0
            if hi > 1e12 * lo:
                raise RuntimeError("scan oracle: abutment bracket not found")
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            if fn(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    t2 = bisect(slow_exit_gap)
    t1 = bisect(mid_exit_gap)
    x2, _ = point(t2)
    x1, _ = point(t1)
    w2 = crossing_window(s2, stripe, x2, t2)
    w1 = crossing_window(s1, stripe, x2, t2)
    return {
        "t2": t2,
        "x2": x2,
        "t1": t1,
        "x1": x1,
        "t_lambda": max(0.0, w2.t_ex - w1.t_en),
    }
