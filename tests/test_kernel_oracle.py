"""The per-evaluation kernels against their old bodies, bit for bit.

`tests/kink_oracle.py` keeps the numpy forms the kernels replaced.  Every
comparison here is exact (`==`, `np.array_equal`), never approximate: the
kernels must compute the same floating-point operations on the same
operands.  Inputs cover colourings with k <= 40, mixtures, switch pairs a
few ANGLE_TOL apart (whose differences dedupe merges), switches next to 0
and pi, raw kink arrays with near-equal positions, and both the
half-period arrays the optimiser measures and the closed full period the
public metrics measure.
"""
import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

import kink_oracle as oracle
from conftest import colourings, mixtures, search_points
from spindisk import Mixture, ValidationError, mixture_correlation, new_colouring
from spindisk.circle import ANGLE_TOL, PI, as_mixture
from spindisk.correlation import (
    _dedupe_sorted,
    _differences,
    _half_curve,
    _kinks,
    _full_period,
    _l2_distance,
    _sup_distance,
)
from spindisk.optimize import (
    _l2_with_gradient,
    _search_point,
    _with_gradient,
)


def tol_gaps():
    """A gap of a few ANGLE_TOL, just over the minimum a Colouring allows."""
    return st.floats(1.01, 4.0).map(lambda u: u * ANGLE_TOL)


@st.composite
def tight_colourings(draw, max_k=40):
    """Colourings made of switch pairs a few ANGLE_TOL apart, optionally one next to 0 and one next to pi."""
    theta = []
    if draw(st.booleans()):
        lo = draw(tol_gaps())
        theta += [lo, lo + draw(tol_gaps())]
    if draw(st.booleans()):
        hi = PI - draw(tol_gaps())
        theta += [hi - draw(tol_gaps()), hi]
    free = draw(st.integers(0 if theta else 1, (max_k - len(theta)) // 2))
    for lo in draw(st.lists(st.floats(1e-3, PI - 1e-3), min_size=free, max_size=free)):
        theta += [lo, lo + draw(tol_gaps())]
    try:
        return new_colouring(theta)
    except ValidationError:
        assume(False)


def closed(bps, values):
    """The closed full period [0, 2*pi] of half-period arrays, by the oracle's reflection and np.append."""
    bps, values = oracle.full_period(bps, values)
    return np.append(bps, 2.0 * PI), np.append(values, values[0])


def assert_equal_arrays(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


MODELS = st.one_of(colourings(40), tight_colourings(), mixtures(), mixtures(40))

NEAR_TRIANGLE = new_colouring([1.5 * ANGLE_TOL, 3.0 * ANGLE_TOL, PI - 3.0 * ANGLE_TOL, PI - 1.5 * ANGLE_TOL])


class TestDedupe:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.0, PI), max_size=30),
        st.lists(st.floats(0.0, 3.0), max_size=30),
    )
    @example([], [])
    @example([0.0], [])
    def test_sorted_arrays_with_near_duplicates(self, points, offsets):
        # each offset puts a point within a few ANGLE_TOL of an earlier one
        a = np.array(points + [points[i % len(points)] + u * ANGLE_TOL for i, u in enumerate(offsets) if points])
        a.sort()
        assert_equal_arrays(_dedupe_sorted(a), oracle.dedupe_sorted(a))


class TestColouringKernels:
    @settings(max_examples=300, deadline=None)
    @given(MODELS)
    @example(NEAR_TRIANGLE)
    @example(Mixture(((0.5, NEAR_TRIANGLE), (0.5, new_colouring([1.0, 1.0 + 2.0 * ANGLE_TOL])))))
    def test_kernels_match_the_old_bodies(self, model):
        components = as_mixture(model).components
        for _, c in components:
            for got, want in zip(_differences(c), oracle.differences(c)):
                assert_equal_arrays(got, want)
        d, w, slope0 = _kinks(components)
        want_d, want_w, want_slope0 = oracle.kinks(components)
        assert_equal_arrays(d, want_d)
        assert_equal_arrays(w, want_w)
        assert slope0 == want_slope0

        half = _half_curve(d, w, slope0)
        for got, want in zip(half, oracle.half_curve(d, w, slope0), strict=True):
            assert_equal_arrays(got, want)
        bps, values = half[:2]

        p = mixture_correlation(model)
        full = closed(bps, values)
        for got, want in zip(full, (p.breakpoints, p.values)):
            assert_equal_arrays(got, want)

        for arrays in ((bps, values), full):
            assert _l2_distance(*arrays) == oracle.l2_distance(*arrays)
            assert _sup_distance(*arrays) == oracle.sup_distance(*arrays)
        assert _sup_distance(*_full_period(bps, values)) == oracle.sup_objective(bps, values)

        dist, grad = _l2_with_gradient(d, w, slope0)
        want_dist, want_grad = oracle.l2_with_gradient(d, w, slope0)
        assert dist == want_dist
        assert_equal_arrays(grad, want_grad)


@st.composite
def raw_kinks(draw):
    """(d, w, slope0) arrays with positions in (0, pi - ANGLE_TOL), some within ANGLE_TOL of each other."""
    d = draw(st.lists(st.floats(ANGLE_TOL, PI - 2.0 * ANGLE_TOL, exclude_min=True), min_size=1, max_size=40))
    near = draw(st.lists(st.tuples(st.integers(0, len(d) - 1), st.floats(-1.0, 1.0)), max_size=20))
    d += [d[i] + u * ANGLE_TOL for i, u in near]
    d = [x for x in d if 0.0 < x < PI - ANGLE_TOL]
    w = draw(st.lists(st.floats(-4.0, 4.0), min_size=len(d), max_size=len(d)))
    return np.array(d), np.array(w), draw(st.floats(0.0, 100.0))


class TestRawKinks:
    @settings(max_examples=300, deadline=None)
    @given(raw_kinks())
    def test_half_curve_and_objectives(self, kinks):
        half = _half_curve(*kinks)
        for got, want in zip(half, oracle.half_curve(*kinks), strict=True):
            assert_equal_arrays(got, want)
        bps, values = half[:2]
        assert _l2_distance(bps, values) == oracle.l2_distance(bps, values)
        assert _sup_distance(*_full_period(bps, values)) == oracle.sup_objective(bps, values)
        assume(_l2_distance(bps, values) > 0.0)
        dist, grad = _l2_with_gradient(*kinks)
        want_dist, want_grad = oracle.l2_with_gradient(*kinks)
        assert dist == want_dist
        assert_equal_arrays(grad, want_grad)


class TestSearchPoint:
    @settings(max_examples=200, deadline=None)
    @given(search_points())
    @example((np.array([2.0, 2.0, 0.7, 2.8]), {0, 1}))
    def test_colouring_and_objectives(self, point):
        theta, _ = point
        value, grad = _with_gradient(_l2_with_gradient)(theta)
        want_value, want_grad = _with_gradient(oracle.l2_with_gradient)(theta)
        assert value == want_value
        assert_equal_arrays(grad, want_grad)
        c, order, keep = _search_point(theta)
        want_c, want_order, want_keep = oracle.search_point(theta)
        assert c == want_c and keep == want_keep
        assert_equal_arrays(order, want_order)
        half = _half_curve(*_kinks(((1.0, c),)))[:2]
        assert _sup_distance(*_full_period(*half)) == oracle.sup_objective(*oracle.half_curve(*oracle.kinks(((1.0, c),)))[:2])
