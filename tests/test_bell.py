import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindisk import (
    CHSHSettings,
    LatticeColouring,
    ValidationError,
    chsh,
    chsh_scan,
    empirical_correlation,
    exact_correlation,
    lattice_correlation,
    mixture_correlation,
    quantum_correlation,
    run_experiment,
    sup_optimal_mixture,
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
        assert chsh(pl, s) == pytest.approx(2 * pl.sample(0.7 - 1.9), abs=1e-12)

    def test_rotation_invariance(self, rng):
        pl = mixture_correlation(random_mixture(rng))
        base = chsh(pl, CANONICAL)
        for shift in (0.3, 1.7, 4.0):
            rotated = CHSHSettings(
                shift, PI / 2 + shift, PI / 4 + shift, 3 * PI / 4 + shift
            )
            assert chsh(pl, rotated) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("rho", [exact_correlation(triangle_colouring()), quantum_correlation],
                             ids=["triangle", "cos"])
    def test_settings_whose_differences_overflow(self, rho):
        # 1e308 - (-1e308) is inf; each setting is reduced mod 2*pi first
        raw = [1e308, 0.0, -1e308, 1.0]
        reduced = np.remainder(raw, 2 * PI).tolist()
        assert chsh(rho, CHSHSettings(*raw)) == chsh(rho, CHSHSettings(*reduced))


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

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_step_not_positive_and_finite_is_a_validation_error(self, step):
        # NaN used to fail inside round() and inf to run a one-point scan
        with pytest.raises(ValidationError, match="grid_step"):
            chsh_scan(quantum_correlation, step)

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


class TestChainedBellBound:
    """rho(p*pi/m) >= -1 + 2/m for odd p (Pearle 1970; Braunstein & Caves 1990).

    Antiperiodicity makes the colours at x and x + p*pi differ; of the m
    steps of p*pi/m between them one must flip the colour, so m times the
    flip probability (1 + rho(p*pi/m))/2 is at least 1.  The bound is
    linear in the model, so it holds for mixtures too.
    """

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(colourings(40).map(exact_correlation), mixtures().map(mixture_correlation)))
    def test_classical_curves_respect_the_chain(self, rho):
        for m in range(1, 13):
            gammas = PI * np.arange(1, 2 * m, 2) / m
            assert rho.sample(gammas).min() >= -1 + 2 / m - 1e-12

    def test_lattice_minimum_at_pi_over_5(self):
        # every antiperiodic +-1 vector on 20 cells, the first cell fixed
        # (rho ignores a global sign): at least 4 of the 20 cell pairs 2
        # apart (gamma = pi/5) differ, so rho(pi/5) >= 2*4/20 - 1 = -3/5
        n = 20
        bits = (np.arange(2 ** (n // 2 - 1))[:, None] >> np.arange(n // 2 - 1)) & 1
        half = np.hstack([np.ones((bits.shape[0], 1), np.int64), 1 - 2 * bits])
        col = np.hstack([half, -half])
        assert len({row.tobytes() for row in col}) == 2**9
        mismatches = np.count_nonzero(col != np.roll(col, -2, axis=1), axis=1)
        assert mismatches.min() == 4  # rho = 2 * 4 / 20 - 1 = -3/5 exactly
        # the triangle attains it
        assert lattice_correlation(LatticeColouring(n, ()))[2] == 2 * 4 / n - 1

    def test_triangle_and_s9_mixture_meets_the_bound_in_simulation(self):
        # both components of the sup-optimal mixture read -3/5 at pi/5, the
        # m = 5 bound
        model = sup_optimal_mixture()
        assert mixture_correlation(model).sample(PI / 5) == pytest.approx(-0.6, abs=1e-12)
        n = 200_000
        table = run_experiment(model, [(0.0, PI / 5)], n_runs=n, seed=5)
        (est,), _ = empirical_correlation(table)
        assert abs(est + 0.6) <= 4 * math.sqrt((1 - 0.36) / n)
