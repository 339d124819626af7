import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindisk import (
    CHSHSettings,
    chsh,
    chsh_scan,
    exact_correlation,
    mixture_correlation,
    quantum_correlation,
    triangle_colouring,
)

from chsh_oracle import looped_chsh_scan
from conftest import colourings, mixtures, random_mixture

PI = math.pi
CANONICAL = CHSHSettings(0.0, PI / 2, PI / 4, 3 * PI / 4)

# Grid steps: divisors of 2*pi, non-divisors, and n = 2 (4.0) and n = 1 (5.0, 2*pi).
SCAN_STEPS = st.sampled_from(
    [PI / 90, PI / 360, PI / 4, PI / 2, 0.5, 1.0, 3.0, 7.0, 10.0, 4.0, 5.0, 2 * PI]
)
CURVES = st.one_of(
    colourings(16).map(exact_correlation),
    mixtures().map(mixture_correlation),
    st.just(quantum_correlation),
)


class TestQuantumCorrelation:
    def test_values(self):
        assert quantum_correlation(0.0) == -1.0
        assert quantum_correlation(PI) == 1.0
        assert quantum_correlation(PI / 2) == pytest.approx(0.0, abs=1e-15)


class TestCHSH:
    def test_triangle_saturates_classical_bound(self):
        tri = exact_correlation(triangle_colouring())
        assert abs(chsh(tri, CANONICAL)) == pytest.approx(2.0, abs=1e-12)

    def test_quantum_tsirelson(self):
        assert abs(chsh(quantum_correlation, CANONICAL)) == pytest.approx(
            2 * math.sqrt(2), abs=1e-12
        )

    def test_degenerate_settings(self, rng):
        pl = mixture_correlation(random_mixture(rng))
        s = CHSHSettings(0.7, 0.7, 1.9, 1.9)
        assert chsh(pl, s) == pytest.approx(2 * pl.evaluate(0.7 - 1.9), abs=1e-12)

    def test_rotation_invariance(self, rng):
        pl = mixture_correlation(random_mixture(rng))
        base = chsh(pl, CANONICAL)
        for shift in (0.3, 1.7, 4.0):
            rotated = CHSHSettings(
                shift, PI / 2 + shift, PI / 4 + shift, 3 * PI / 4 + shift
            )
            assert chsh(pl, rotated) == pytest.approx(base, abs=1e-12)


class TestCHSHScan:
    def test_triangle_reaches_two(self):
        tri = exact_correlation(triangle_colouring())
        max_s, _ = chsh_scan(tri, PI / 180)
        assert max_s == pytest.approx(2.0, abs=1e-9)

    def test_quantum_near_tsirelson(self):
        max_s, _ = chsh_scan(quantum_correlation, PI / 180)
        assert max_s >= 2 * math.sqrt(2) - 1e-3

    def test_argmax_reproduces_value(self):
        max_s, settings = chsh_scan(quantum_correlation, PI / 90)
        assert abs(chsh(quantum_correlation, settings)) == pytest.approx(max_s, abs=1e-12)

    def test_random_mixtures_respect_classical_bound(self, rng):
        for _ in range(20):
            pl = mixture_correlation(random_mixture(rng))
            max_s, _ = chsh_scan(pl, PI / 90)
            assert max_s <= 2.0 + 1e-9

    def test_bad_step(self):
        with pytest.raises(ValueError):
            chsh_scan(quantum_correlation, 0.0)

    @settings(max_examples=150, deadline=None)
    @given(CURVES, SCAN_STEPS)
    def test_matches_loop_oracle(self, rho, step):
        # Same max, min and single add per element as the loop: equal
        # floats and the same tie-breaking, not just close values.
        assert chsh_scan(rho, step) == looped_chsh_scan(rho, step)

    def test_memory_is_row_blocked(self, rng):
        pl = mixture_correlation(random_mixture(rng))
        tracemalloc.start()
        try:
            chsh_scan(pl, PI / 900)  # n = 1800; an n x n temporary alone is 26 MB
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
