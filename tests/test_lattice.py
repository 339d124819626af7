import math

import numpy as np
import pytest

from spindisk import (
    LatticeColouring,
    ValidationError,
    exact_correlation,
    lattice_correlation,
    lift_to_continuous,
)
from spindisk.lattice import colour_vector

PI = math.pi
TWO_PI = 2 * math.pi


def random_lattice_colouring(rng, N=720, max_k=8):
    k = int(rng.choice(np.arange(0, max_k + 1, 2)))
    while True:
        idx = np.sort(rng.choice(np.arange(1, N // 2), size=k, replace=False))
        if k == 0 or np.all(np.diff(idx) > 0):
            return LatticeColouring(N, tuple(int(j) for j in idx))


class TestValidation:
    def test_odd_lattice_rejected(self):
        with pytest.raises(ValidationError):
            LatticeColouring(361, ())

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError):
            LatticeColouring(360, (180, 181))

    def test_odd_count_rejected(self):
        with pytest.raises(ValidationError):
            LatticeColouring(360, (60,))


class TestLatticeCorrelation:
    def test_discrete_triangle(self):
        rho = lattice_correlation(LatticeColouring(360, ()))
        assert rho[0] == -1.0
        assert rho[90] == 0.0
        assert rho[180] == 1.0
        d = np.arange(181)
        assert np.array_equal(rho[:181], 2 * d / 180 - 1.0)

    def test_evenness_and_antiperiodicity(self, rng):
        lc = random_lattice_colouring(rng)
        rho = lattice_correlation(lc)
        N = lc.N
        d = np.arange(1, N)
        assert np.array_equal(rho[d], rho[N - d])
        # counts are exact; the division by N can differ in the last ulp
        assert np.max(np.abs(rho[(d + N // 2) % N] + rho[d])) <= 1e-15

    def test_certainty_exact(self, rng):
        lc = random_lattice_colouring(rng)
        rho = lattice_correlation(lc)
        assert rho[0] == -1.0 and rho[lc.N // 2] == 1.0

    def test_colour_vector_antiperiodic(self, rng):
        lc = random_lattice_colouring(rng)
        col = colour_vector(lc)
        assert np.array_equal(np.roll(col, -lc.N // 2), -col)

    def test_recount_is_identical(self, rng):
        lc = random_lattice_colouring(rng)
        assert np.array_equal(lattice_correlation(lc), lattice_correlation(lc))


class TestLift:
    def test_k0_gives_triangle(self):
        c = lift_to_continuous(LatticeColouring(360, ()))
        assert c.switches == ()

    def test_index_to_angle(self):
        c = lift_to_continuous(LatticeColouring(360, (30, 60)))
        assert c.switches == pytest.approx((PI / 6, PI / 3), abs=1e-15)

    def test_oracle_equivalence(self, rng):
        for _ in range(50):
            lc = random_lattice_colouring(rng, N=720)
            rho = lattice_correlation(lc)
            pl = exact_correlation(lift_to_continuous(lc))
            d = np.arange(720)
            assert np.max(np.abs(pl.sample(TWO_PI * d / 720) - rho)) < 1e-12

