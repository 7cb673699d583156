"""Frequency-side checks: symbol, exponential, rate scan, reference evolver.

Matrix exponentials are cross-checked against scipy.linalg.expm; decay
rates against closed-form eigenvalues of small symbols.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (
    damped_wave_system,
    eigenbasis_symbol,
    spectral_abscissa,
    symbol,
    three_speed_system,
)
from locdamp import harness, spectral
from locdamp.model import HyperbolicSystem, diagonalize
from locdamp.norms import (
    BandSplit,
    NormSeries,
    field_norms,
    low_band_bound,
    low_band_envelope,
    low_band_sup,
)
from locdamp.spectral import (
    MIN_SCAN_SAMPLES,
    RATE_RESOLUTION_FACTOR,
    MatrixExpError,
    fullspace_evolve,
    gamma_estimate,
    matrix_exp,
)


class TestSymbol:
    def test_damped_wave_at_xi_one(self):
        sys = damped_wave_system()
        e = symbol(sys, 1.0)
        expected = np.array([[0.0, -1j], [-1j, -1.0]])
        assert np.allclose(e, expected, atol=1e-15)

    def test_zero_frequency_is_minus_damping(self):
        sys = damped_wave_system()
        assert np.allclose(symbol(sys, 0.0), -sys.b, atol=0)

    def test_symbol_stack_shares_spectrum(self):
        sys = three_speed_system()
        xis = np.array([0.0, 0.3, 1.0, 7.5])
        stack = spectral._symbol_stack(sys, diagonalize(sys.a), xis)
        for xi, m in zip(xis, stack):
            plain = np.sort_complex(np.linalg.eigvals(symbol(sys, xi)))
            diag = np.sort_complex(np.linalg.eigvals(m))
            assert np.allclose(plain, diag, atol=1e-10)


class TestMatrixExp:
    def test_zero_matrix(self):
        assert np.allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=0)

    def test_nilpotent_truncates_exactly(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(matrix_exp(m), np.eye(2) + m, atol=1e-16)

    def test_against_scipy_small_norms(self):
        rng = np.random.default_rng(20240817)
        for n in (1, 2, 3, 5, 8):
            for scale in (0.01, 0.4, 2.0, 5.0):
                m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                m *= scale / np.linalg.norm(m)
                ref = expm(m)
                got = matrix_exp(m)
                assert np.linalg.norm(got - ref) <= 1e-12 * max(
                    1.0, np.linalg.norm(ref)
                )

    def test_against_scipy_large_skew(self):
        # anti-Hermitian argument with norm 400 exercises many squaring
        # steps while keeping the result unitary (perfectly conditioned)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        k = x - x.conj().T
        k *= 400.0 / np.linalg.norm(k)
        got = matrix_exp(k)
        assert np.linalg.norm(got - expm(k)) <= 1e-10
        assert np.allclose(got @ got.conj().T, np.eye(4), atol=1e-10)

    def test_inverse_pairing(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((3, 3))
        prod = matrix_exp(m) @ matrix_exp(-m)
        assert np.allclose(prod, np.eye(3), atol=1e-12)

    def test_dissipative_symbol_past_norm_1e4(self):
        # the reference propagator over 400 time units at xi = 25: a
        # contraction, so squaring it stays accurate at any norm
        m = 400.0 * symbol(damped_wave_system(), 25.0)
        assert np.linalg.norm(m) > 1e4
        got = matrix_exp(m)
        assert np.abs(got - expm(m)).max() <= 1e-11
        assert np.linalg.norm(got, 2) <= 1.0 + 1e-12

    def test_norm_guard_raises(self):
        # exp(2e4) is not a float: the squaring overflows
        with pytest.raises(MatrixExpError, match="overflows"):
            matrix_exp(2e4 * np.eye(2))

    @pytest.mark.parametrize(
        "m",
        [-1e200 * np.eye(2), -1e160 * np.diag([0.0, 1.0])],
        ids=["minus_1e200_identity", "minus_1e160_diag"],
    )
    def test_against_scipy_past_square_root_of_float_range(self, m):
        # entries whose squares overflow: the norm that sets the squaring
        # count is taken on the entries over a power of two
        assert np.array_equal(matrix_exp(m), expm(m))

    def test_nonfinite_raises(self):
        with pytest.raises(MatrixExpError, match="not finite"):
            matrix_exp(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            matrix_exp(np.zeros((2, 3)))


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _reference_stack(name, m, dx, inc):
    """What the reference exponentiates: the eigenbasis symbols of a
    shipped system at the real-FFT frequencies of ``m`` cells of width
    ``dx``, times the increment ``inc``, batch-last."""
    sys = harness.load_scenario(SCENARIOS / f"{name}.json").system
    xi = 2.0 * np.pi * np.fft.rfftfreq(m, d=dx)
    return np.moveaxis(spectral._symbol_stack(sys, diagonalize(sys.a), xi) * inc, 0, -1)


class TestMatrixExpBatch:
    """The batched exponential on real reference stacks, against scipy's
    ``expm`` matrix by matrix."""

    @pytest.mark.parametrize(
        "name, m, dx, inc",
        [
            ("damped_wave", 4096, 0.125, 10.0),  # 2049 bins
            ("damped_wave", 8192, 0.125, 150.0),  # 4097 bins, long horizon
            ("three_speed_321", 2048, 0.0625, 7.0),  # 3 x 3, 1025 bins
        ],
    )
    def test_matches_scipy_on_reference_stacks(self, name, m, dx, inc, monkeypatch):
        ms = _reference_stack(name, m, dx, inc)
        multiplied = []
        original = spectral._batch_matmul
        monkeypatch.setattr(
            spectral,
            "_batch_matmul",
            lambda a, b: multiplied.append(a.shape[-1]) or original(a, b),
        )
        got = spectral._matrix_exp_batch(ms)
        # squarings: the least s with every Frobenius norm over 2**s at most 1
        norm = float(np.sqrt(np.sum(np.abs(ms) ** 2, axis=(0, 1))).max())
        s = max(0, int(np.ceil(np.log2(norm))))
        # matrix products per matrix of the stack
        assert sum(multiplied) <= (8 + s) * ms.shape[-1]
        # the propagators are contractions, and each squaring at most
        # doubles their rounding error
        tol = 2.0 ** s * np.finfo(float).eps
        assert got.shape == ms.shape
        for j in range(ms.shape[-1]):
            assert np.abs(got[:, :, j] - expm(ms[:, :, j])).max() <= tol, j


class TestAbscissa:
    def test_damped_wave_high_frequency_plateau(self):
        # eigenvalues of the 2x2 symbol solve z^2 + z + xi^2 = 0, so the
        # real part locks at -1/2 once xi >= 1/2
        sys = damped_wave_system()
        for xi in (0.5, 1.0, 2.0, 10.0):
            assert spectral_abscissa(symbol(sys, xi)) == pytest.approx(
                -0.5, abs=1e-12
            )

    def test_damped_wave_low_frequency_branch(self):
        sys = damped_wave_system()
        expected = 0.5 * (-1.0 + np.sqrt(0.96))
        assert spectral_abscissa(symbol(sys, 0.1)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_fully_damped_scalar(self):
        sys = HyperbolicSystem(a=np.array([[1.0]]), n1=0, dd=np.array([[1.0]]))
        for xi in (0.0, 0.3, 5.0):
            assert spectral_abscissa(symbol(sys, xi)) == pytest.approx(
                -1.0, abs=1e-13
            )


class TestGammaEstimate:
    def test_damped_wave_rate_and_curvature(self):
        scan = gamma_estimate(damped_wave_system())
        assert scan.gamma == pytest.approx(0.5, abs=1e-9)
        assert scan.tail_stabilized
        assert scan.gamma_argmax_xi >= 1.0
        # the quadratic dip near xi = 0 has unit curvature for this system
        assert abs(scan.c_low - 1.0) <= 0.02
        assert scan.c_low_residual <= 1e-3
        assert scan.xi.size == 400
        assert scan.abscissa.size == 400

    def test_fully_damped_scalar_rate(self):
        sys = HyperbolicSystem(a=np.array([[1.0]]), n1=0, dd=np.array([[1.0]]))
        scan = gamma_estimate(sys)
        assert scan.gamma == pytest.approx(1.0, abs=1e-12)
        assert scan.tail_stabilized

    def test_decoupled_system_has_no_uniform_rate(self):
        # diagonal transport never mixes the undamped component into the
        # damped one, so a neutral mode survives at every frequency
        sys = HyperbolicSystem(
            a=np.diag([1.0, 2.0]), n1=1, dd=np.array([[1.0]])
        )
        scan = gamma_estimate(sys)
        assert abs(scan.gamma) <= 1e-12
        assert float(np.abs(scan.abscissa[scan.xi >= 1.0]).max()) <= 1e-12

    def test_three_speed_rate_positive(self):
        scan = gamma_estimate(three_speed_system())
        assert scan.gamma > 0.1
        assert scan.tail_stabilized

    @pytest.mark.parametrize("name", ["damped_wave", "stripes_two", "three_speed_321"])
    def test_batched_scan_matches_one_abscissa_per_frequency(self, name):
        path = Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
        sys = harness.load_scenario(path).system
        eigs = sys.eigs
        scan = gamma_estimate(sys)
        one_by_one = [
            spectral_abscissa(eigenbasis_symbol(sys, eigs, xi)) for xi in scan.xi
        ]
        assert np.array_equal(scan.abscissa, one_by_one)

    def test_input_validation(self):
        sys = damped_wave_system()
        with pytest.raises(ValueError, match="xi_max"):
            gamma_estimate(sys, xi_max=1.0)
        with pytest.raises(ValueError, match="at least 20 samples"):
            gamma_estimate(sys, samples=19)

    def test_fewest_samples_reach_the_curvature_window(self):
        # the linear half's first positive point is 1 / (samples // 2)
        assert MIN_SCAN_SAMPLES == 20
        scan = gamma_estimate(damped_wave_system(), samples=MIN_SCAN_SAMPLES)
        assert np.count_nonzero((scan.xi > 0.0) & (scan.xi <= spectral.CURVATURE_XI_MAX)) == 1
        assert math.isfinite(scan.c_low) and math.isfinite(scan.c_low_residual)

    def test_results_scale_with_the_time_unit(self):
        # a and dd times 2^e scale every symbol, so the abscissae, the rate,
        # the curvature and the resolution by exactly 2^e; the tail verdict
        # must not move, also where it reads False
        rng = np.random.default_rng(3)
        verdicts = []
        for _ in range(200):
            m = rng.standard_normal((3, 3))
            g = rng.standard_normal((2, 2))
            a, dd = 0.5 * (m + m.T), g @ g.T + 0.1 * np.eye(2)
            base = gamma_estimate(HyperbolicSystem(a=a, n1=1, dd=dd))
            slow = gamma_estimate(HyperbolicSystem(a=np.ldexp(a, -20), n1=1, dd=np.ldexp(dd, -20)))
            assert np.array_equal(slow.abscissa, np.ldexp(base.abscissa, -20))
            for name in ("gamma", "c_low", "resolution"):
                assert getattr(slow, name) == math.ldexp(getattr(base, name), -20), name
            assert slow.tail_stabilized == base.tail_stabilized
            verdicts.append(base.tail_stabilized)
        assert not all(verdicts)


def damped_wave_rate(k: float) -> float:
    """Exact uniform rate of the damped wave with dd = [[k]]: the worst
    abscissa over xi >= 1, attained at xi = 1 once k > 2."""
    if k <= 2.0:
        return 0.5 * k
    return 2.0 / (k * (1.0 + math.sqrt((1.0 - 2.0 / k) * (1.0 + 2.0 / k))))


class TestRateResolution:
    def test_resolved_rates_match_the_closed_form(self):
        resolved = []
        for j in range(-300, 301, 4):
            k = 10.0 ** j
            scan = gamma_estimate(HyperbolicSystem(a=[[0.0, 1.0], [1.0, 0.0]], n1=1, dd=[[k]]))
            exact = damped_wave_rate(k)
            assert scan.resolution > 0.0
            if scan.gamma > RATE_RESOLUTION_FACTOR * scan.resolution:
                assert scan.resolved
                assert abs(scan.gamma - exact) <= 1e-6 * exact, f"dd = 1e{j}"
                resolved.append(j)
        assert resolved == [-4, 0, 4]

    def test_resolution_bounds_the_rate_error(self):
        for j in range(-14, 15):
            k = 10.0 ** j
            scan = gamma_estimate(HyperbolicSystem(a=[[0.0, 1.0], [1.0, 0.0]], n1=1, dd=[[k]]))
            assert abs(scan.gamma - damped_wave_rate(k)) <= scan.resolution, f"dd = 1e{j}"

    def test_resolution_finite_for_a_finite_stack(self):
        # the largest symbol entry is about 1.8e308: its norm's square overflows
        sys = harness.load_scenario(SCENARIOS / "three_speed_321.json").system
        assert math.isfinite(gamma_estimate(sys, xi_max=5.9e307).resolution)

    def test_decoupled_rate_is_not_resolved(self):
        scan = gamma_estimate(HyperbolicSystem(a=np.diag([1.0, 2.0]), n1=1, dd=[[1.0]]))
        assert not scan.resolved


def _gaussian_data(x, centers, sigma=0.5):
    u0 = np.zeros((len(centers), x.size))
    for i, c in enumerate(centers):
        u0[i] = np.exp(-0.5 * ((x - c) / sigma) ** 2)
    return u0


def _full_spectrum_oracle(sys, x, u0, times):
    """Reference norms from the whole fft, one ``expm(E(xi) t)`` per
    frequency and sample time, and ``ifft(...).real``, normed as one stack."""
    eigs = diagonalize(sys.a)
    dx = x[1] - x[0]
    what = np.fft.fft(eigs.basis.T @ u0, axis=1)
    xi = 2.0 * np.pi * np.fft.fftfreq(x.size, d=dx)
    fields = []
    for t in times:
        evolved = np.column_stack(
            [
                expm(eigenbasis_symbol(sys, eigs, k) * t) @ what[:, j]
                for j, k in enumerate(xi)
            ]
        )
        fields.append(np.fft.ifft(evolved, axis=1).real)
    columns = field_norms(np.stack(fields), BandSplit.of(x.size, dx), eigs.basis)
    return NormSeries.from_blocks(times, [columns], n_cells=x.size)


def _low_modes(rng, m, n, n_low, aligned):
    """Random low modes of ``n`` components; ``aligned`` puts every bin in
    phase at one cell, where ``low_band_bound`` is attained."""
    modes = rng.standard_normal((n, n_low)) + 1j * rng.standard_normal((n, n_low))
    if aligned:
        j = int(rng.integers(0, m))
        modes = np.abs(modes) * np.exp(-2j * np.pi * j * np.arange(n_low) / m)
    return modes


# primes up to 131 071, which pocketfft transforms by Bluestein's algorithm
# (a single bin at a prime m gave the largest rounding excess measured)
BLUESTEIN_PRIMES = [17, 211, 1861, 1931, 4999, 8191, 65521, 131071]


class TestLowBandBound:
    """``low_band_bound`` bounds the synthesized low-band sup from above,
    so a check it settles is the check the sup would make."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(16, 5000),
        n=st.integers(1, 4),
        nyquist=st.booleans(),
        aligned=st.booleans(),
        k=st.integers(-1000, 1000),
    )
    def test_bound_is_above_sup(self, seed, m, n, nyquist, aligned, k):
        rng = np.random.default_rng(seed)
        full = m // 2 + 1
        n_low = full if nyquist else int(rng.integers(1, full))
        modes = _low_modes(rng, m, n, n_low, aligned)
        modes = np.ldexp(modes.view(float), k).view(complex)
        bound = low_band_bound(modes, m)
        assert math.isfinite(bound)
        assert bound >= low_band_sup(modes, m)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from(BLUESTEIN_PRIMES),
        n=st.integers(1, 3),
        width=st.sampled_from(["one", "two", "some", "all"]),
    )
    def test_sup_just_over_the_limit_is_not_settled(self, seed, m, n, width):
        # a check whose limit sits one float below the synthesized sup is a
        # violation, so the bound must not settle it, also at a prime m
        # with the bound attained
        rng = np.random.default_rng(seed)
        full = m // 2 + 1
        n_low = {"one": 1, "two": 2, "some": int(rng.integers(3, 200)), "all": full}[width]
        modes = _low_modes(rng, m, n, n_low, aligned=True)
        limit = math.nextafter(low_band_sup(modes, m), 0.0)
        assert low_band_bound(modes, m) > limit


class TestLowBandEnvelope:
    """``low_band_envelope`` against its sum written out bin by bin, with
    weight 1 on the zero bin and on an even grid's Nyquist bin, else 2."""

    @pytest.mark.parametrize("m, dx", [(4, 4.0), (5, 4.0), (400, 0.25), (401, 0.25)])
    def test_equals_the_sum_over_the_low_bins(self, m, dx):
        split = BandSplit.of(m, dx)
        kappa, scale, length = 0.3, 1.7, m * dx
        lags = [0.0, 0.5, 3.0, 40.0]
        want = [
            scale / length * sum(
                (1.0 if k == 0 or 2 * k == m else 2.0)
                * math.exp(-kappa * (2.0 * math.pi * k / length) ** 2 * t)
                for k in range(split.n_low)
            )
            for t in lags
        ]
        got = low_band_envelope(split, kappa, np.array(lags), scale)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        # the short grids keep every bin, the Nyquist bin of m = 4 included
        assert split.n_low == (m // 2 + 1 if m < 10 else 16)


class TestFullspaceEvolve:
    @pytest.mark.parametrize("m", [256, 255])
    @pytest.mark.parametrize(
        "make_sys, centers",
        [(damped_wave_system, [-1.0, 1.0]), (three_speed_system, [-1.0, 0.0, 1.5])],
    )
    def test_half_spectrum_matches_full_spectrum_oracle(self, m, make_sys, centers):
        sys = make_sys()
        x = -32.0 + 0.25 * np.arange(m)
        u0 = _gaussian_data(x, centers)
        times = [0.0, 0.7, 1.4, 1.4, 3.0, 5.5]
        got = fullspace_evolve(sys, x, u0, times)
        want = _full_spectrum_oracle(sys, x, u0, times)
        for name in ("l2_total", "l2_high", "l2_low", "linf", "l1", "comp_l2"):
            assert np.allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0.0), name
        sups = [low_band_sup(s.low_modes, m) for s in (got, want)]
        assert np.allclose(*sups, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("m", [256, 255])
    @pytest.mark.parametrize(
        "make_sys, centers",
        [(damped_wave_system, [-1.0, 1.0]), (three_speed_system, [-1.0, 0.0, 1.5])],
    )
    def test_spectrum_side_row_matches_the_grid_row(self, m, make_sys, centers, monkeypatch):
        # A stack's band norms and low modes are read off the evolved
        # spectra; ``field_norms`` of their inverse FFTs takes them from a
        # forward FFT of the grid values instead.
        seen = []

        def recording_row(w, split, basis, what):
            # the evolver reuses its buffer of spectra, so keep a copy
            what = what.copy()
            row = field_norms(w, split, basis, what)
            seen.append((what, split, basis, row))
            return row

        monkeypatch.setattr(spectral, "field_norms", recording_row)
        x = -32.0 + 0.25 * np.arange(m)
        times = [0.0, 0.7, 1.4, 3.0, 5.5, 20.0]
        fullspace_evolve(make_sys(), x, _gaussian_data(x, centers), times)
        monkeypatch.undo()
        assert sum(len(what) for what, *_ in seen) == len(times)
        rows = [row for *_, row in seen]
        grid_rows = [
            field_norms(np.fft.irfft(what, n=m, axis=-1), split, basis)
            for what, split, basis, _ in seen
        ]
        for name in ("l2_total", "linf", "l1"):
            assert [r[name].tolist() for r in rows] == [g[name].tolist() for g in grid_rows], name
        for r, g in zip(rows, grid_rows):
            assert np.array_equal(r["comp_l2"], g["comp_l2"])
        for name in ("l2_high", "l2_low", "low_modes"):
            got = np.concatenate([r[name] for r in rows])
            want = np.concatenate([g[name] for g in grid_rows])
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), name

    @pytest.mark.parametrize("m, checked", [(256, 2), (255, 1)])
    def test_aliasing_guard_reads_the_top_full_spectrum_bins(self, m, checked):
        # The guard reads the top two bins of the full spectrum: the two
        # highest rfft bins for even m, one conjugate pair for odd m.  A
        # cosine on rfft bin k is accepted below them and rejected on them.
        sys = damped_wave_system()
        x = 0.125 * np.arange(m)
        highest = m // 2
        for k in range(highest - 2, highest + 1):
            u0 = np.zeros((2, m))
            u0[0] = np.cos(2.0 * np.pi * k * np.arange(m) / m)
            if k > highest - checked:
                with pytest.raises(ValueError, match="not resolved"):
                    fullspace_evolve(sys, x, u0, [0.0, 1.0])
            else:
                res = fullspace_evolve(sys, x, u0, [0.0, 1.0])
                assert np.all(np.isfinite(res.l2_total)), k

    def test_pure_transport_conserves_l2(self):
        sys = HyperbolicSystem(
            a=np.array([[0.0, 1.0], [1.0, 0.0]]), n1=1, dd=np.array([[0.0]])
        )
        x = -32.0 + 0.25 * np.arange(256)
        res = fullspace_evolve(sys, x, _gaussian_data(x, [0.0, 1.0]), [0.0, 2.0, 5.0])
        assert np.allclose(res.l2_total, res.l2_total[0], rtol=1e-12)

    def test_scalar_shift_preserves_profile_norms(self):
        sys = HyperbolicSystem(a=np.array([[1.0]]), n1=0, dd=np.array([[0.0]]))
        x = -32.0 + 0.25 * np.arange(256)
        # integer-cell shifts land the profile back on grid points, so even
        # the pointwise norms reproduce exactly
        res = fullspace_evolve(sys, x, _gaussian_data(x, [0.0]), [0.0, 4.0, 8.0])
        assert np.allclose(res.linf, res.linf[0], rtol=1e-10)
        assert np.allclose(res.l1, res.l1[0], rtol=1e-10)
        assert np.allclose(res.comp_l2[0], res.comp_l2[0][0], rtol=1e-10)

    def test_damped_wave_decays_monotonically(self):
        sys = damped_wave_system()
        x = -32.0 + 0.25 * np.arange(256)
        res = fullspace_evolve(
            sys, x, _gaussian_data(x, [-1.0, 1.0]), [0.0, 1.0, 2.0, 4.0, 8.0]
        )
        assert np.all(np.diff(res.l2_total) < 0.0)
        # the low band only decays algebraically, so the total settles
        # around a quarter of its initial size by t = 8
        assert res.l2_total[-1] < 0.3 * res.l2_total[0]
        assert res.l2_high[-1] < 0.05 * res.l2_high[0]

    def test_band_split_is_pythagorean(self):
        sys = damped_wave_system()
        x = -32.0 + 0.25 * np.arange(256)
        res = fullspace_evolve(sys, x, _gaussian_data(x, [0.0, 2.0]), [0.0, 3.0])
        assert np.allclose(
            res.l2_high**2 + res.l2_low**2, res.l2_total**2, rtol=1e-12
        )

    def test_high_band_decays_at_uniform_rate(self):
        sys = damped_wave_system()
        x = -64.0 + 0.125 * np.arange(1024)
        u0 = _gaussian_data(x, [0.0, 0.0], sigma=0.35)
        u0[1] = 0.0
        times = [4.0, 8.0, 12.0]
        res = fullspace_evolve(sys, x, u0, times)
        rates = -np.diff(np.log(res.l2_high)) / np.diff(times)
        assert np.all(np.abs(rates - 0.5) < 0.02)

    def test_aliasing_guard(self):
        sys = damped_wave_system()
        x = -16.0 + 0.125 * np.arange(256)
        with pytest.raises(ValueError, match="not resolved"):
            fullspace_evolve(sys, x, _gaussian_data(x, [0.0, 0.0], sigma=0.01), [0.0])

    def test_input_validation(self):
        sys = damped_wave_system()
        x = -16.0 + 0.125 * np.arange(256)
        with pytest.raises(ValueError, match="at least 8"):
            fullspace_evolve(sys, x[:4], np.zeros((2, 4)), [0.0])
        with pytest.raises(ValueError, match="uniform"):
            fullspace_evolve(sys, np.cumsum(np.abs(np.sin(x)) + 0.1), np.zeros((2, 256)), [0.0])
        with pytest.raises(ValueError, match="shape"):
            fullspace_evolve(sys, x, np.zeros((3, 256)), [0.0])
        with pytest.raises(ValueError, match="initial data is zero on the grid"):
            fullspace_evolve(sys, x, np.zeros((2, 256)), [0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_refused(self, bad):
        x = -16.0 + 0.125 * np.arange(256)
        u0 = _gaussian_data(x, [0.0, 0.0])
        u0[1, 7] = bad
        with pytest.raises(ValueError, match="initial data is not finite on the grid"):
            fullspace_evolve(damped_wave_system(), x, u0, [0.0, 1.0])

    def test_chained_samples_match_one_time_calls(self):
        sys = damped_wave_system()
        x = -32.0 + 0.25 * np.arange(256)
        u0 = _gaussian_data(x, [-1.0, 1.0])
        times = [0.0, 0.5, 1.0, 1.0, 2.5, 4.0, 8.0]
        chained = fullspace_evolve(sys, x, u0, times)
        for j, t in enumerate(times):
            once = fullspace_evolve(sys, x, u0, [t])
            for name in ("l2_total", "l2_high", "l2_low", "linf", "l1"):
                assert getattr(chained, name)[j] == pytest.approx(
                    getattr(once, name)[0], rel=1e-12
                ), (name, t)
            assert low_band_sup(chained.low_modes[j], 256) == pytest.approx(
                low_band_sup(once.low_modes[0], 256), rel=1e-12
            ), t
            assert np.allclose(chained.comp_l2[:, j], once.comp_l2[:, 0], rtol=1e-12, atol=0.0)

    def test_one_exponential_per_distinct_increment(self, monkeypatch):
        calls = []
        original = spectral._matrix_exp_batch
        monkeypatch.setattr(
            spectral, "_matrix_exp_batch", lambda ms: calls.append(1) or original(ms)
        )
        sys = damped_wave_system()
        x = -32.0 + 0.25 * np.arange(256)
        res = fullspace_evolve(sys, x, _gaussian_data(x, [0.0, 0.0]), [0.0, 1.0, 2.0, 3.0, 5.0])
        # increments 0, 1, 1, 1, 2; a zero increment needs no exponential
        assert len(calls) == 2
        assert res.times.tolist() == [0.0, 1.0, 2.0, 3.0, 5.0]

    def test_rejects_negative_and_decreasing_times(self):
        sys = damped_wave_system()
        x = -32.0 + 0.25 * np.arange(256)
        u0 = _gaussian_data(x, [0.0, 0.0])
        for times in ([-1.0, 0.0], [0.0, 2.0, 1.0], []):
            with pytest.raises(ValueError, match="non-decreasing"):
                fullspace_evolve(sys, x, u0, times)
