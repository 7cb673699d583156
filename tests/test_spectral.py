"""Frequency-side checks: symbol, exponential, rate scan, reference evolver.

Matrix exponentials are cross-checked against scipy.linalg.expm; decay
rates against closed-form eigenvalues of small symbols.
"""

from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from helpers import (
    damped_wave_system,
    eigenbasis_symbol,
    spectral_abscissa,
    three_speed_system,
)
from locdamp import harness, spectral
from locdamp.model import HyperbolicSystem, diagonalize
from locdamp.spectral import (
    MatrixExpError,
    NormSeries,
    field_norms,
    fullspace_evolve,
    gamma_estimate,
    matrix_exp,
    symbol,
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

    def test_norm_guard_raises(self):
        with pytest.raises(MatrixExpError, match="exceeds guard"):
            matrix_exp(2e4 * np.eye(2))

    def test_nonfinite_raises(self):
        with pytest.raises(MatrixExpError, match="not finite"):
            matrix_exp(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            matrix_exp(np.zeros((2, 3)))


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
        eigs = diagonalize(sys.a)
        scan = gamma_estimate(sys, eigs=eigs)
        one_by_one = [
            spectral_abscissa(eigenbasis_symbol(sys, eigs, xi)) for xi in scan.xi
        ]
        assert np.array_equal(scan.abscissa, one_by_one)

    def test_input_validation(self):
        sys = damped_wave_system()
        with pytest.raises(ValueError, match="xi_max"):
            gamma_estimate(sys, xi_max=1.0)
        with pytest.raises(ValueError, match="16 samples"):
            gamma_estimate(sys, samples=15)


def _gaussian_data(x, centers, sigma=0.5):
    u0 = np.zeros((len(centers), x.size))
    for i, c in enumerate(centers):
        u0[i] = np.exp(-0.5 * ((x - c) / sigma) ** 2)
    return u0


def _full_spectrum_oracle(sys, x, u0, times):
    """Reference norms from the whole fft, one ``expm(E(xi) t)`` per
    frequency and sample time, and ``ifft(...).real``."""
    eigs = diagonalize(sys.a)
    dx = x[1] - x[0]
    what = np.fft.fft(eigs.basis.T @ u0, axis=1)
    xi = 2.0 * np.pi * np.fft.fftfreq(x.size, d=dx)
    rows = []
    for t in times:
        evolved = np.column_stack(
            [
                expm(eigenbasis_symbol(sys, eigs, k) * t) @ what[:, j]
                for j, k in enumerate(xi)
            ]
        )
        rows.append(field_norms(np.fft.ifft(evolved, axis=1).real, dx, eigs.basis))
    return NormSeries.from_rows(times, rows, n_cells=x.size)


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
        for name in ("l2_total", "l2_high", "l2_low", "linf", "linf_low", "l1", "comp_l2"):
            assert np.allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0.0), name

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

    def test_chained_samples_match_one_time_calls(self):
        sys = damped_wave_system()
        x = -32.0 + 0.25 * np.arange(256)
        u0 = _gaussian_data(x, [-1.0, 1.0])
        times = [0.0, 0.5, 1.0, 1.0, 2.5, 4.0, 8.0]
        chained = fullspace_evolve(sys, x, u0, times)
        for j, t in enumerate(times):
            once = fullspace_evolve(sys, x, u0, [t])
            for name in ("l2_total", "l2_high", "l2_low", "linf", "linf_low", "l1"):
                assert getattr(chained, name)[j] == pytest.approx(
                    getattr(once, name)[0], rel=1e-12
                ), (name, t)
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
