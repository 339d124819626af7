import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from spindisk import (
    Mixture,
    exact_correlation,
    l2_distance_to_cosine,
    mixture_correlation,
    new_colouring,
    sup_distance_to_cosine,
    triangle_colouring,
)
from spindisk.circle import ANGLE_TOL, as_mixture
from spindisk.correlation import (
    PiecewiseLinearCorrelation,
    _half_curve,
    _kinks,
    _l2_distance,
    _sup_distance,
    check_invariants,
)
from spindisk.lattice import LatticeColouring, lattice_correlation
from spindisk.optimize import MIN_L2_DISTANCE

from conftest import colourings, mixtures, random_colouring, random_mixture
from inner_product_oracle import cosine_inner_product, inner_product
from overlap_oracle import overlap_correlation, overlap_mixture_correlation

PI = math.pi
TWO_PI = 2 * math.pi


def triangle_reference(g):
    g = np.remainder(g, TWO_PI)
    return np.where(g <= PI, 2 * g / PI - 1.0, 3.0 - 2 * g / PI)


def assert_matches_oracle(pl, oracle):
    assert pl.breakpoints.shape == oracle.breakpoints.shape
    assert np.max(np.abs(pl.breakpoints - oracle.breakpoints)) <= ANGLE_TOL
    assert np.max(np.abs(pl.values - oracle.values)) <= 1e-12


def l2_quadrature_oracle(fn):
    """Independent numeric oracle for the L2 distance to -cos."""
    val, _ = quad(lambda g: (fn(g) + math.cos(g)) ** 2, 0.0, TWO_PI,
                  points=[PI], limit=200)
    return math.sqrt(val / TWO_PI)


class TestExactCorrelation:
    def test_triangle_wave(self):
        pl = exact_correlation(triangle_colouring())
        g = np.linspace(0.0, PI, 721)
        assert np.max(np.abs(pl.sample(g) - (2 * g / PI - 1.0))) < 1e-12
        g2 = np.linspace(PI, TWO_PI, 721)
        assert np.max(np.abs(pl.sample(g2) - triangle_reference(g2))) < 1e-12

    def test_matches_lattice_oracle_at_thirds(self):
        c = new_colouring([PI / 3, 2 * PI / 3])
        pl = exact_correlation(c)
        lc = LatticeColouring(360, (60, 120))
        rho = lattice_correlation(lc)
        d = np.arange(360)
        assert np.max(np.abs(pl.sample(TWO_PI * d / 360) - rho)) < 1e-12

    def test_certainty_relations(self, rng):
        for k in (0, 2, 4, 6, 8):
            pl = exact_correlation(random_colouring(rng, k))
            assert pl.evaluate(0.0) == pytest.approx(-1.0, abs=1e-12)
            assert pl.evaluate(PI) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_suite(self, rng):
        for k in (0, 2, 4, 6):
            check_invariants(exact_correlation(random_colouring(rng, k)))

    @settings(max_examples=150, deadline=None)
    @given(colourings(16))
    def test_matches_overlap_oracle(self, c):
        assert_matches_oracle(exact_correlation(c), overlap_correlation(c))

    def test_large_k_invariants(self, rng):
        for _ in range(5):
            check_invariants(exact_correlation(random_colouring(rng, 200)))
        m = Mixture(tuple((w, random_colouring(rng, k)) for w, k in ((0.5, 100), (0.3, 60), (0.2, 20))))
        check_invariants(mixture_correlation(m))

    def test_memory_is_quadratic_in_k(self, rng):
        c = random_colouring(rng, 48)
        tracemalloc.start()
        try:
            exact_correlation(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_slope_bound(self, rng):
        for k in (0, 2, 4, 6, 8):
            c = random_colouring(rng, k)
            _, _, slope, _ = exact_correlation(c).pieces()
            assert np.max(np.abs(slope)) <= (2 * k + 2) / PI + 1e-9


class TestEvaluate:
    def test_triangle_values(self):
        pl = exact_correlation(triangle_colouring())
        assert pl.evaluate(PI / 2) == pytest.approx(0.0, abs=1e-15)
        assert pl.evaluate(0.0) == -1.0
        assert pl.evaluate(3 * PI / 2) == pytest.approx(0.0, abs=1e-15)
        v = pl.sample(1.0)
        assert isinstance(v, float) and v == pytest.approx(2 / PI - 1.0, abs=1e-15)

    def test_range(self, rng):
        pl = exact_correlation(random_colouring(rng, 6))
        g = rng.uniform(-10, 10, 200)
        v = pl.sample(g)
        assert np.all(v >= -1.0 - 1e-12) and np.all(v <= 1.0 + 1e-12)


class TestMixtureCorrelation:
    def test_single_component_identity(self):
        c = new_colouring([0.5, 1.0, 1.5, 2.0])
        single = mixture_correlation(Mixture(((1.0, c),)))
        direct = exact_correlation(c)
        g = np.linspace(0, TWO_PI, 400, endpoint=False)
        assert np.max(np.abs(single.sample(g) - direct.sample(g))) < 1e-14

    def test_idempotence(self):
        c = new_colouring([0.5, 1.0])
        m = Mixture(((0.5, c), (0.5, c)))
        g = np.linspace(0, TWO_PI, 400, endpoint=False)
        assert np.max(np.abs(mixture_correlation(m).sample(g) - exact_correlation(c).sample(g))) < 1e-14

    def test_pointwise_average(self):
        c1 = new_colouring([0.4, 1.1])
        c2 = new_colouring([0.9, 2.3])
        m = Mixture(((0.5, c1), (0.5, c2)))
        pl = mixture_correlation(m)
        g = np.linspace(0, TWO_PI, 100, endpoint=False)
        want = 0.5 * exact_correlation(c1).sample(g) + 0.5 * exact_correlation(c2).sample(g)
        assert np.max(np.abs(pl.sample(g) - want)) < 1e-12

    def test_invariants(self, rng):
        for _ in range(5):
            check_invariants(mixture_correlation(random_mixture(rng)))

    @settings(max_examples=100, deadline=None)
    @given(mixtures())
    def test_matches_overlap_oracle(self, m):
        assert_matches_oracle(mixture_correlation(m), overlap_mixture_correlation(m))


class TestL2Distance:
    def test_triangle_vs_quadrature_oracle(self):
        pl = exact_correlation(triangle_colouring())
        oracle = l2_quadrature_oracle(lambda g: float(triangle_reference(g)))
        assert l2_distance_to_cosine(pl) == pytest.approx(oracle, abs=1e-9)

    def test_triangle_closed_form(self):
        # Parseval: D^2 = 5/6 - 8/pi^2 for the triangle wave
        pl = exact_correlation(triangle_colouring())
        assert l2_distance_to_cosine(pl) == pytest.approx(math.sqrt(5 / 6 - 8 / PI**2), abs=1e-12)

    def test_distance_to_self_is_small(self):
        g = np.linspace(0, TWO_PI, 2000, endpoint=False)
        pl = PiecewiseLinearCorrelation(g, -np.cos(g))
        assert l2_distance_to_cosine(pl) < 1e-5

    def test_first_harmonic_lower_bound(self, rng):
        for _ in range(10):
            pl = mixture_correlation(random_mixture(rng))
            assert l2_distance_to_cosine(pl) >= MIN_L2_DISTANCE - 1e-12


class TestOnePassMetrics:
    """The one-pass metrics against the inner products and the full curve."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(colourings(16), mixtures()))
    def test_l2_matches_inner_products(self, model):
        p = mixture_correlation(model)
        want = math.sqrt(inner_product(p, p) + 2.0 * cosine_inner_product(p) + 0.5)
        assert abs(l2_distance_to_cosine(p) - want) <= 1e-11

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(colourings(16), mixtures()))
    def test_half_period_matches_reflected_curve(self, model):
        half = _half_curve(*_kinks(as_mixture(model).components))
        p = mixture_correlation(model)
        assert abs(_l2_distance(*half) - l2_distance_to_cosine(p)) <= 1e-12
        assert abs(_sup_distance(*half) - sup_distance_to_cosine(p)) <= 1e-12


class TestSupDistance:
    def test_triangle_vs_grid_oracle(self):
        pl = exact_correlation(triangle_colouring())
        g = np.linspace(0, TWO_PI, 10**6, endpoint=False)
        oracle = float(np.max(np.abs(triangle_reference(g) + np.cos(g))))
        got = sup_distance_to_cosine(pl)
        assert got == pytest.approx(oracle, abs=1e-6)
        assert got == pytest.approx(0.2105, abs=5e-4)

    def test_distance_to_self_is_small(self):
        g = np.linspace(0, TWO_PI, 2000, endpoint=False)
        pl = PiecewiseLinearCorrelation(g, -np.cos(g))
        assert sup_distance_to_cosine(pl) < 1e-5

    def test_bounded_by_two(self, rng):
        for _ in range(5):
            pl = mixture_correlation(random_mixture(rng))
            d = sup_distance_to_cosine(pl)
            assert 0.0 <= d <= 2.0

    def test_sup_dominates_l2(self, rng):
        for _ in range(5):
            pl = mixture_correlation(random_mixture(rng))
            assert sup_distance_to_cosine(pl) >= l2_distance_to_cosine(pl) - 1e-12


class TestInnerProducts:
    def test_inner_product_vs_quadrature(self, rng):
        p = exact_correlation(random_colouring(rng, 2))
        q = exact_correlation(random_colouring(rng, 4))
        kinks = sorted(set(p.breakpoints.tolist()) | set(q.breakpoints.tolist()))
        want, _ = quad(
            lambda g: p.evaluate(g) * q.evaluate(g), 0, TWO_PI, points=kinks, limit=300
        )
        assert inner_product(p, q) == pytest.approx(want / TWO_PI, abs=1e-10)

    def test_cosine_inner_vs_quadrature(self, rng):
        p = exact_correlation(random_colouring(rng, 4))
        want, _ = quad(
            lambda g: p.evaluate(g) * math.cos(g),
            0,
            TWO_PI,
            points=p.breakpoints.tolist(),
            limit=300,
        )
        assert cosine_inner_product(p) == pytest.approx(want / TWO_PI, abs=1e-10)
