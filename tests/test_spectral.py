import math

import numpy as np
import pytest

from spindisk import (
    Mixture,
    colouring_spectrum,
    exact_correlation,
    first_harmonic_bound_check,
    gull_diagnostic,
    mixture_correlation,
    new_colouring,
    spectrum,
    triangle_colouring,
)
from spindisk.spectral import FIRST_HARMONIC_COEFF_BOUND, Spectrum, pl_cosine_coeffs

from colour_oracle import _colours_at, segment_spectrum
from conftest import random_colouring, random_mixture

PI = math.pi
TWO_PI = 2 * math.pi


def dft_oracle(c, n, m=4096):
    """Discrete-transform approximation of the colouring coefficient."""
    x = (np.arange(m) + 0.5) * TWO_PI / m
    f = _colours_at(c, x).astype(float)
    return np.mean(f * np.exp(-1j * n * x))


class TestColouringSpectrum:
    @pytest.mark.parametrize("n_max", [1, 7, 99])
    def test_matches_segment_oracle_bytes(self, rng, n_max):
        for k in range(0, 81, 2):
            c = random_colouring(rng, k)
            assert colouring_spectrum(c, n_max).tobytes() == segment_spectrum(c, n_max).tobytes()

    def test_triangle_first_harmonic(self):
        coeffs = colouring_spectrum(triangle_colouring(), 5)
        assert abs(coeffs[1]) == pytest.approx(2 / PI, abs=1e-12)
        assert abs(coeffs[1] - dft_oracle(triangle_colouring(), 1)) < 1e-3

    def test_dft_oracle_agreement(self, rng):
        c = random_colouring(rng, 4)
        coeffs = colouring_spectrum(c, 5)
        for n in range(1, 6):
            assert abs(coeffs[n] - dft_oracle(c, n)) < 2e-3

    def test_mean_and_even_harmonics_vanish(self, rng):
        for k in (0, 2, 4, 6):
            coeffs = colouring_spectrum(random_colouring(rng, k), 20)
            assert abs(coeffs[0]) < 1e-12
            assert np.max(np.abs(coeffs[2::2])) < 1e-12


class TestCorrelationSpectrum:
    def test_triangle_a1_a3(self):
        a = spectrum(triangle_colouring(), 5).cosine_coeffs
        assert a[1] == pytest.approx(-8 / PI**2, abs=1e-12)
        assert a[3] == pytest.approx(-8 / (9 * PI**2), abs=1e-12)

    def test_even_coefficients_vanish(self, rng):
        a = spectrum(random_mixture(rng), 20).cosine_coeffs
        assert np.max(np.abs(a[0::2])) < 1e-12

    def test_nonpositive(self, rng):
        for _ in range(5):
            a = spectrum(random_mixture(rng), 25).cosine_coeffs
            assert np.all(a <= 1e-12)

    def test_wiener_khinchin_consistency(self, rng):
        # squared-transform route vs direct integration of the exact curve
        for _ in range(50):
            k = int(rng.choice([0, 2, 4, 6]))
            c = random_colouring(rng, k)
            via_power = spectrum(c, 25).cosine_coeffs
            via_curve = pl_cosine_coeffs(exact_correlation(c), 25)
            assert np.max(np.abs(via_power - via_curve)) < 1e-10

    def test_mixture_consistency(self, rng):
        m = random_mixture(rng)
        via_power = spectrum(m, 25).cosine_coeffs
        via_curve = pl_cosine_coeffs(mixture_correlation(m), 25)
        assert np.max(np.abs(via_power - via_curve)) < 1e-10

    def test_parseval_partial_sum(self, rng):
        for k in (0, 4, 10):
            s = spectrum(random_colouring(rng, k), 999)
            assert 2 * np.sum(s.power[1:]) == pytest.approx(1.0, abs=1e-2)


class TestColouringCoeffs:
    @pytest.mark.parametrize("n_max", [1, 25])
    def test_proper_mixture_is_all_nan(self, n_max):
        m = Mixture(((0.25, triangle_colouring()), (0.75, new_colouring([0.5, 1.0]))))
        coeffs = spectrum(m, n_max).colouring_coeffs
        assert coeffs.dtype == complex and coeffs.shape == (n_max + 1,)
        assert np.all(np.isnan(coeffs))
        assert np.isnan(coeffs.imag).all()
        # complex(nan, nan), which the spectrum CSV writes as re_fhat=nan, im_fhat=nan
        assert coeffs.tobytes() == np.full(n_max + 1, complex(np.nan, np.nan)).tobytes()

    @pytest.mark.parametrize("k", [0, 2, 6])
    def test_single_colouring_is_its_transform(self, rng, k):
        c = random_colouring(rng, k)
        assert spectrum(c, 25).colouring_coeffs.tobytes() == colouring_spectrum(c, 25).tobytes()


class TestGullDiagnostic:
    def test_quantum_target_single_harmonic(self):
        # -cos alone: a_1 = -1, so E|fhat_1|^2 = 1/2, and nothing else
        power, a = np.zeros(100), np.zeros(100)
        power[1], a[1] = 0.5, -1.0
        report = gull_diagnostic(Spectrum(None, power, a))
        assert report.nonzero_count == 1
        assert report.tail_mass == 0.0
        assert report.parseval_residual == pytest.approx(0.0, abs=1e-15)

    def test_triangle_tail_mass(self):
        report = gull_diagnostic(spectrum(triangle_colouring(), 99))
        assert report.tail_mass == pytest.approx(1 - 8 / PI**2, abs=0.007)

    def test_triangle_parseval_residual(self):
        report = gull_diagnostic(spectrum(triangle_colouring(), 99))
        assert 0.0 <= report.parseval_residual < 0.01

    def test_classical_models_need_many_harmonics(self, rng):
        for _ in range(20):
            s = spectrum(random_mixture(rng), 99)
            assert gull_diagnostic(s).nonzero_count >= 2


class TestFirstHarmonicBound:
    def test_triangle_attains_equality(self):
        check = first_harmonic_bound_check(spectrum(triangle_colouring(), 5))
        assert check.holds
        assert check.a1 == pytest.approx(check.bound, abs=1e-12)

    def test_thirds_strictly_above(self):
        check = first_harmonic_bound_check(spectrum(new_colouring([PI / 3, 2 * PI / 3]), 5))
        assert check.holds
        assert check.a1 > FIRST_HARMONIC_COEFF_BOUND + 1e-3

    def test_random_mixtures_hold(self, rng):
        for _ in range(100):
            check = first_harmonic_bound_check(spectrum(random_mixture(rng), 3))
            assert check.holds
