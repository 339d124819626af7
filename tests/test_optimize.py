import math

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import quad
from scipy.special import expit
from hypothesis import assume, example, given, settings, strategies as st

from spindisk import (
    MIN_L2_DISTANCE,
    SUP_OPTIMUM,
    Mixture,
    ValidationError,
    exact_correlation,
    l2_distance_to_cosine,
    mixture_correlation,
    new_colouring,
    optimise_fixed_k,
    optimise_mixture,
    sup_distance_to_cosine,
    sup_optimal_mixture,
    triangle_colouring,
)
import spindisk.optimize
from spindisk.circle import as_mixture
from spindisk.correlation import (
    _full_period,
    _half_curve,
    _kinks,
    _l2_distance,
    _sup_distance,
    check_invariants,
)
from spindisk.optimize import (
    _BOUNDS,
    _FATOL,
    _METRICS,
    _half,
    _l2_with_gradient,
    _lbfgsb,
    _linear_value,
    _logistic,
    _search_point,
    _start,
    _sup_with_gradient,
    _with_gradient,
)

from conftest import colourings, mixtures, random_colouring, random_mixture, search_points
from inner_product_oracle import cosine_inner_product, inner_product
from nelder_mead_oracle import expit_start, nelder_mead_fixed_k, nelder_mead_sup_fixed_k

PI = math.pi
TWO_PI = 2 * math.pi
D_TRIANGLE = math.sqrt(5 / 6 - 8 / PI**2)


def is_monotone(model):
    """rho of a colouring or mixture is non-decreasing on (0, pi): its public piece slopes there are >= -1e-12."""
    g0, g1, slope, _ = mixture_correlation(model).pieces()
    return bool(slope[0.5 * (g0 + g1) < PI].min() >= -1e-12)


def square_wave(j):
    """S_(2j+1), switching at i*pi/(2j + 1): the triangle's rho at (2j + 1)*gamma, not monotone."""
    m = 2 * j + 1
    return new_colouring([i * PI / m for i in range(1, m)])


@st.composite
def near_pairs(draw):
    """Colourings with k <= 16 holding a switch pair 2e-12 to 1e-6 apart."""
    x = draw(st.floats(1e-3, PI - 1e-3))
    gap = math.exp(draw(st.floats(math.log(2e-12), math.log(1e-6))))
    try:
        return new_colouring([*draw(colourings(14)).switches, x, x + gap])
    except ValidationError:
        assume(False)


def table(model):
    """The Frank-Wolfe table <rho_c, rho_model + cos> of a colouring or mixture."""
    return _linear_value(*_half_curve(*_kinks(as_mixture(model).components))[:2])


def record_lbfgsb(monkeypatch):
    """The list every later optimize._lbfgsb result is appended to."""
    ends = []
    lbfgsb = spindisk.optimize._lbfgsb

    def recording(*args):
        ends.append(lbfgsb(*args))
        return ends[-1]

    monkeypatch.setattr(spindisk.optimize, "_lbfgsb", recording)
    return ends


def trace_is_non_increasing(trace):
    vals = [v for _, v in trace]
    return all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestFixedK:
    def test_k0_returns_triangle(self):
        res = optimise_fixed_k(0)
        assert res.best_model.components[0][1].switches == ()
        assert res.distance == pytest.approx(D_TRIANGLE, abs=1e-12)

    def test_k0_sup_metric(self):
        res = optimise_fixed_k(0, metric="sup")
        assert res.metric == "sup"
        assert res.distance == pytest.approx(
            sup_distance_to_cosine(exact_correlation(triangle_colouring())), abs=1e-12
        )

    def test_k2_at_least_as_good_as_triangle(self):
        res = optimise_fixed_k(2, n_starts=8, seed=1)
        assert res.distance <= D_TRIANGLE + 1e-6
        assert res.distance >= MIN_L2_DISTANCE - 1e-9

    def test_distance_consistent_with_model(self):
        res = optimise_fixed_k(2, n_starts=4, seed=2)
        recomputed = l2_distance_to_cosine(mixture_correlation(res.best_model))
        assert res.distance == pytest.approx(recomputed, abs=1e-10)

    def test_emitted_model_is_valid(self):
        res = optimise_fixed_k(4, n_starts=2, seed=0)
        check_invariants(mixture_correlation(res.best_model))

    def test_trace_monotone(self):
        res = optimise_fixed_k(2, n_starts=8, seed=3)
        assert trace_is_non_increasing(res.trace)

    def test_reproducible(self):
        r1 = optimise_fixed_k(2, n_starts=4, seed=9)
        r2 = optimise_fixed_k(2, n_starts=4, seed=9)
        assert r1.distance == r2.distance
        assert r1.best_model == r2.best_model

    @pytest.mark.parametrize("k", [2, 4, 6, 8])
    def test_reports_the_triangle_not_a_disguise(self, k):
        # every start ends at the triangle or within rounding of it, some
        # with switches at 1e-12 or next to pi: none is a gain
        res = optimise_fixed_k(k, n_starts=32, seed=0)
        assert res.best_model.components[0][1].switches == ()
        assert res.distance == l2_distance_to_cosine(exact_correlation(triangle_colouring()))

    def test_search_end_point_pinned(self, monkeypatch):
        # this start ends after 3 iterations with a pair collapsed on the
        # lower bound and two switches left, D_triangle + 2.9e-12 away, so
        # the triangle is reported; the end point pins the search iterates
        ends = record_lbfgsb(monkeypatch)
        res = optimise_fixed_k(4, n_starts=1, seed=2)
        assert [e.nit for e in ends] == [3]
        assert _search_point(ends[0].x)[0].switches == (1.0686210636248645, 3.1415926535866516)
        assert res.best_model == as_mixture(triangle_colouring())

    @pytest.mark.parametrize("seed", range(10))
    def test_no_start_crawls_to_a_bound(self, monkeypatch, seed):
        # a start that walks a switch onto 0 or pi stops there in a few steps
        ends = record_lbfgsb(monkeypatch)
        optimise_fixed_k(2, n_starts=8, seed=seed)
        assert len(ends) == 8
        assert max(e.nit for e in ends) <= 12

    def test_odd_k_rejected(self):
        with pytest.raises(ValidationError):
            optimise_fixed_k(3)

    @pytest.mark.parametrize("n_starts", [0, -3])
    @pytest.mark.parametrize("monotone", [False, True])
    def test_no_starts_rejected(self, n_starts, monotone):
        with pytest.raises(ValidationError, match="n_starts"):
            optimise_fixed_k(2, n_starts=n_starts, monotone=monotone)

    def test_objective_builds_no_curves(self, monkeypatch):
        """No search, report or Frank-Wolfe step builds a curve object."""

        def refuse(components):
            raise AssertionError("the optimiser built a curve")

        monkeypatch.setattr(spindisk.correlation, "_kink_curve", refuse)
        with pytest.raises(AssertionError, match="built a curve"):
            exact_correlation(triangle_colouring())
        optimise_fixed_k(2, n_starts=2)
        optimise_fixed_k(2, metric="sup", n_starts=2)
        optimise_fixed_k(2, n_starts=2, monotone=True)
        optimise_mixture([0, 2, 4], n_iterations=2, subproblem_starts=2)

        # a real pool search stops at iteration 1 with gap 0; this subproblem's
        # gap is above _MIN_GAIN, the Frank-Wolfe stop, so the step and the
        # mixture bookkeeping run
        def subproblem(lin, pool_ks, seed, n_starts):
            c = new_colouring([2.0, 2.5])
            return c, lin(*_kinks(((1.0, c),)))[0] - 0.06

        monkeypatch.setattr(spindisk.optimize, "_linear_subproblem", subproblem)
        assert optimise_mixture([0, 2], n_iterations=1).gaps[0] > 1e-9

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [2, 4])
    def test_no_worse_than_nelder_mead(self, k, seed):
        res = optimise_fixed_k(k, n_starts=4, seed=seed)
        assert res.distance <= nelder_mead_fixed_k(k, n_starts=4, seed=seed)[0] + 1e-12

    def test_gradient_search_budget(self, monkeypatch):
        ends = record_lbfgsb(monkeypatch)
        optimise_fixed_k(2, n_starts=4)
        spent = [e.nfev for e in ends]
        assert len(spent) == 4
        assert sum(spent) < nelder_mead_fixed_k(2, n_starts=4)[1] / 2

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [2, 4])
    def test_sup_no_worse_than_nelder_mead(self, monkeypatch, k, seed):
        # the same starts as the simplex search the sup metric ran before it had a gradient
        ends = record_lbfgsb(monkeypatch)
        res = optimise_fixed_k(k, metric="sup", n_starts=4, seed=seed)
        best, nfev = nelder_mead_sup_fixed_k(k, n_starts=4, seed=seed)
        assert res.distance <= best + 1e-12
        assert sum(e.nfev for e in ends) < nfev / 2

    @pytest.mark.parametrize("seed", range(3))
    def test_every_k16_sup_start_ends_at_the_triangle(self, monkeypatch, seed):
        # the simplex left 5 of these 6 starts 0.03 to 0.35 above the triangle
        ends = record_lbfgsb(monkeypatch)
        optimise_fixed_k(16, metric="sup", n_starts=2, seed=seed)
        triangle = _sup_distance(*_full_period(*_half(triangle_colouring())[:2]))
        assert len(ends) == 2
        assert all(_sup_distance(*_full_period(*_half(_search_point(e.x)[0])[:2])) <= triangle + 1e-9 for e in ends)


class TestLowerBounds:
    """Each metric's reports are guarded by its own lower bound."""

    def test_sup_optimum_is_attained_by_triangle_plus_s9(self):
        model = sup_optimal_mixture()
        w = (2 - PI * math.sin(PI / 5)) / 20
        s9 = new_colouring([j * PI / 9 for j in range(1, 9)])
        assert model == Mixture(((1 - w, triangle_colouring()), (w, s9)))
        assert 0.0 <= sup_distance_to_cosine(mixture_correlation(model)) - SUP_OPTIMUM <= 1e-15

    def test_dense_sample_of_the_sup_optimal_mixture(self):
        # the peak at pi/5 is smooth (second derivative -cos(pi/5)), so a grid
        # step of ~1.6e-6 misses it by at most ~3e-13
        gammas = np.linspace(0.0, PI, 2_000_001)
        rho = mixture_correlation(sup_optimal_mixture()).sample(gammas)
        assert abs(np.abs(rho + np.cos(gammas)).max() - SUP_OPTIMUM) <= 1e-12

    @pytest.mark.parametrize("metric, bound", [("L2", MIN_L2_DISTANCE), ("sup", SUP_OPTIMUM)])
    def test_distance_below_the_bound_raises(self, monkeypatch, metric, bound):
        monkeypatch.setitem(spindisk.optimize._METRICS, metric, lambda d, w, slope0: (bound - 2e-9, 0.0 * d))
        with pytest.raises(RuntimeError, match=f"{metric} distance .* below the lower bound"):
            optimise_fixed_k(0, metric=metric)
        monkeypatch.setitem(spindisk.optimize._METRICS, metric, lambda d, w, slope0: (bound - 5e-10, 0.0 * d))
        assert optimise_fixed_k(0, metric=metric).distance == bound - 5e-10


class TestMonotone:
    def test_k0_feasible(self):
        res = optimise_fixed_k(0, monotone=True)
        assert res.constraint == "monotone"
        assert res.distance == pytest.approx(D_TRIANGLE, abs=1e-12)

    def test_no_feasible_start_reports_triangle(self):
        # this start is drawn and ends oscillating; the triangle is monotone
        res = optimise_fixed_k(2, n_starts=1, seed=3, monotone=True)
        assert res.best_model == as_mixture(triangle_colouring())
        assert res.feasible_starts == 0
        assert res.trace == [(0, res.distance)]

    def test_k2_result_is_monotone(self):
        res = optimise_fixed_k(2, n_starts=8, seed=1, monotone=True)
        assert is_monotone(res.best_model)
        assert res.feasible_starts is not None
        assert res.distance >= MIN_L2_DISTANCE - 1e-9

    def test_l2_runs_the_gradient_search(self, monkeypatch):
        ends = record_lbfgsb(monkeypatch)
        optimise_fixed_k(2, n_starts=4, monotone=True)
        assert len(ends) == 4

    @pytest.mark.parametrize("metric", ["L2", "sup"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_same_report_as_the_unconstrained_search(self, k, metric):
        # no start here beats the triangle, which is monotone, so the filter drops no reported model
        for seed in range(5):
            free = optimise_fixed_k(k, metric=metric, n_starts=4, seed=seed)
            mono = optimise_fixed_k(k, metric=metric, n_starts=4, seed=seed, monotone=True)
            assert (mono.best_model, mono.distance, mono.trace) == (free.best_model, free.distance, free.trace)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(colourings(16), st.integers(1, 17).map(square_wave), near_pairs()))
    @example(new_colouring([0.3, 2.8]))
    @example(new_colouring([1.0, 1.0 + 2e-12]))
    def test_exact_filter_matches_the_curve_slopes(self, c):
        # the filter reads _half_curve's slopes: exact integers in units of 1/(2*pi), tested without a tolerance
        slopes = _half(c)[2]
        assert np.array_equal(slopes, slopes.round())
        assert bool(slopes.min() >= 0.0) == is_monotone(c)

    def test_wide_k2_colourings_usually_oscillate(self, rng):
        # a large switch gap forces slope sign changes on (0, pi)
        from spindisk import new_colouring

        c = new_colouring([0.3, 2.8])
        assert not is_monotone(c)


class TestArrayObjectives:
    """The objectives on half-period arrays against the public curve path."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(colourings(16), mixtures()))
    def test_half_array_objectives_match_curve(self, model):
        # the values that searches minimise and reports read; the half-period L2 sum differs in the last bits
        kinks = _kinks(as_mixture(model).components)
        pl = mixture_correlation(model)
        assert _METRICS["sup"](*kinks)[0] == sup_distance_to_cosine(pl)
        assert abs(_METRICS["L2"](*kinks)[0] - l2_distance_to_cosine(pl)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(mixtures(), colourings(16))
    def test_frank_wolfe_value_matches_inner_products(self, m, c):
        rho_m = mixture_correlation(m)
        pl = exact_correlation(c)
        want = inner_product(pl, rho_m) + cosine_inner_product(pl)
        assert abs(table(m)(*_kinks(((1.0, c),)))[0] - want) <= 1e-12

    def test_frank_wolfe_table_vs_quadrature(self, rng):
        """<rho_c, rho_m + cos> and the step's ||rho_c - rho_m||^2 against scipy's quad."""
        for _ in range(6):
            m, c = random_mixture(rng), random_colouring(rng, int(rng.choice([0, 2, 4, 6])))
            rho_m, rho_c = mixture_correlation(m), exact_correlation(c)
            points = np.union1d(rho_m.breakpoints, rho_c.breakpoints)

            def mean(f):
                return quad(f, 0.0, TWO_PI, points=points, limit=500)[0] / TWO_PI

            km, kc = _kinks(m.components), _kinks(((1.0, c),))
            lin_m, lin_c = table(m), table(c)
            want = mean(lambda g: rho_c.sample(g) * (rho_m.sample(g) + math.cos(g)))
            assert lin_m(*kc)[0] == pytest.approx(want, abs=1e-10)
            dd = lin_c(*kc)[0] - lin_c(*km)[0] - lin_m(*kc)[0] + lin_m(*km)[0]
            assert dd == pytest.approx(mean(lambda g: (rho_c.sample(g) - rho_m.sample(g)) ** 2), abs=1e-10)


def check_gradient(value_and_grad, value_only, theta, collapsed):
    """The analytic gradient against central differences, entry by entry.

    The angles of a collapsed pair have gradient exactly 0; so do their
    differences, over steps that keep the pair collapsed.
    """
    value, grad = value_and_grad(theta)
    assert value == value_only(theta)
    for i in range(theta.size):
        step = np.zeros(theta.size)
        step[i] = 1e-12 if i in collapsed else 1e-5
        fd = (value_and_grad(theta + step)[0] - value_and_grad(theta - step)[0]) / (2.0 * step[i])
        if i in collapsed:
            assert grad[i] == 0.0 and fd == 0.0
        else:
            assert abs(grad[i] - fd) <= 1e-8


#: A start whose first two angles collapse.
COLLAPSED_START = (np.array([2.0, 2.0, 0.7, 2.8]), {0, 1})

#: The mixture whose Frank-Wolfe table the gradient and search tests share.
TWO_COMPONENTS = Mixture(((0.6, triangle_colouring()), (0.4, new_colouring([0.5, 2.0]))))


class TestGradients:
    """The exact gradients against central differences of their values."""

    @settings(max_examples=100, deadline=None)
    @given(search_points())
    @example(COLLAPSED_START)
    def test_l2_gradient(self, point):
        def value_only(theta):
            return _l2_distance(*_half(_search_point(theta)[0])[:2])

        check_gradient(_with_gradient(_l2_with_gradient), value_only, *point)

    @settings(max_examples=100, deadline=None)
    @given(mixtures(), search_points())
    @example(TWO_COMPONENTS, COLLAPSED_START)
    def test_frank_wolfe_gradient(self, m, point):
        lin = table(m)

        def value_only(theta):
            return lin(*_kinks(((1.0, _search_point(theta)[0]),)))[0]

        check_gradient(_with_gradient(lin), value_only, *point)

    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_sup_gradient(self, k):
        # random starts, not drawn angles: round angles such as [1, 2] put
        # unrelated kinks on the peak, where the sup distance has no gradient
        def value_only(theta):
            return _sup_distance(*_full_period(*_half(_search_point(theta)[0])[:2]))

        rng = np.random.default_rng(k)
        for _ in range(25):
            check_gradient(_with_gradient(_sup_with_gradient), value_only, _start(rng, k)[0], set())


def minimize_lbfgsb(value_and_grad, theta0):
    """The search _lbfgsb runs, through scipy's public minimize."""
    options = {"ftol": _FATOL, "gtol": 1e-12, "maxiter": spindisk.optimize._MAX_ITER}
    bounds = [_BOUNDS] * theta0.size
    return scipy.optimize.minimize(value_and_grad, theta0, method="L-BFGS-B", jac=True, bounds=bounds, options=options)


def assert_same_search(value_and_grad, theta0):
    ours, ref = _lbfgsb(value_and_grad, theta0), minimize_lbfgsb(value_and_grad, theta0)
    assert ours.x.tobytes() == ref.x.tobytes()
    assert (ours.fun, ours.nfev, ours.nit, ours.status, ours.success) == (
        ref.fun, ref.nfev, ref.nit, ref.status, ref.success
    )
    return ours


class TestStartAngles:
    """_start's logistic is scipy's expit bit for bit, so seeded starts, and the searches from them, are unchanged."""

    @pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 64, 200])
    def test_start_equals_expit_start(self, k):
        for seed in range(300):
            z = np.random.default_rng(seed).normal(scale=1.5, size=k)
            assert (PI * np.array([_logistic(v) for v in z.tolist()])).tobytes() == (PI * expit(z)).tobytes()
            if k % 2 == 0:  # a colouring has an even switch count, so _start draws only even k
                ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                assert _start(ours, k)[0].tobytes() == expit_start(ref, k).tobytes()
                assert ours.bit_generator.state == ref.bit_generator.state

    def test_extreme_z(self):
        # exp(-z) overflows below z = -709.78: expit reads 0 there, and the logistic must not raise
        z = [-1e308, -1e5, -710.0, -709.79, -709.78, -709.5, -745.2, -40.0, -1e-300, 0.0, 5e-324, 36.7, 710.0, 1e308]
        z += np.random.default_rng(0).normal(scale=300.0, size=1000).tolist()
        assert np.array([_logistic(v) for v in z]).tobytes() == expit(np.array(z)).tobytes()


class TestLbfgsbOracle:
    """_lbfgsb drives scipy's L-BFGS-B routine itself: the same search as minimize's, field for field."""

    OBJECTIVES = {
        "L2": lambda: _with_gradient(_l2_with_gradient),
        "sup": lambda: _with_gradient(_sup_with_gradient),
        "triangle_table": lambda: _with_gradient(table(triangle_colouring())),
        "mixture_table": lambda: _with_gradient(table(TWO_COMPONENTS)),
    }

    @pytest.mark.parametrize(
        "objective, k",
        [("L2", 2), ("L2", 4), ("L2", 8), ("sup", 2), ("sup", 4), ("sup", 8), ("triangle_table", 2),
         ("triangle_table", 4), ("mixture_table", 2), ("mixture_table", 4)],
    )
    def test_seeded_starts(self, objective, k):
        value_and_grad = self.OBJECTIVES[objective]()
        rng = np.random.default_rng(k)
        for _ in range(36):
            assert_same_search(value_and_grad, _start(rng, k)[0])

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_start_on_and_beyond_the_bounds(self, objective):
        # 0 and pi are clipped onto the bounds, which the others sit on already
        value_and_grad = self.OBJECTIVES[objective]()
        for theta0 in ([_BOUNDS[0], 1.0], [2.5, _BOUNDS[1]], [0.0, 1.0, 2.0, PI], [_BOUNDS[0], 0.4, 1.9, _BOUNDS[1]]):
            assert_same_search(value_and_grad, np.array(theta0))

    @pytest.mark.parametrize("objective", sorted(OBJECTIVES))
    def test_iteration_cap(self, monkeypatch, objective):
        monkeypatch.setattr(spindisk.optimize, "_MAX_ITER", 2)
        value_and_grad = self.OBJECTIVES[objective]()
        rng = np.random.default_rng(7)
        for _ in range(4):
            res = assert_same_search(value_and_grad, _start(rng, 4)[0])
            assert (res.nit, res.status, res.success) == (2, 1, False)


class TestMixture:
    def test_pool_of_triangle_only(self):
        res = optimise_mixture([0], n_iterations=5, seed=0)
        assert res.distance == pytest.approx(D_TRIANGLE, abs=1e-12)
        assert len(res.best_model.components) == 1
        assert res.gaps == [0.0]

    def test_pool_024(self):
        res = optimise_mixture([0, 2, 4], n_iterations=10, seed=1, subproblem_starts=4)
        assert res.distance <= D_TRIANGLE + 1e-6
        assert res.distance >= MIN_L2_DISTANCE - 1e-9
        assert trace_is_non_increasing(res.trace)
        check_invariants(mixture_correlation(res.best_model))
        # the triangle's subproblem value and the gap's lin(m) come from one table
        assert res.gaps == [0.0]

    def test_reproducible(self):
        r1 = optimise_mixture([0, 2], n_iterations=3, seed=4, subproblem_starts=2)
        r2 = optimise_mixture([0, 2], n_iterations=3, seed=4, subproblem_starts=2)
        assert r1.distance == r2.distance

    @pytest.mark.parametrize("seed", range(5))
    def test_subproblem_searches_converge_below_the_cap(self, monkeypatch, seed):
        # every subproblem search converges (status 0) in under 200 iterations,
        # so the fixed-k cap _MAX_ITER never binds it
        ends = record_lbfgsb(monkeypatch)
        optimise_mixture([0, 2, 4, 6, 8], n_iterations=3, subproblem_starts=4, seed=seed)
        assert ends
        assert all(e.status == 0 and e.nit < 200 for e in ends)

    def test_sup_metric_rejected(self):
        with pytest.raises(ValueError):
            optimise_mixture([0, 2], metric="sup")

    @pytest.mark.parametrize("kwargs", [{"n_iterations": 0}, {"subproblem_starts": 0}, {"pool_ks": []}])
    def test_empty_search_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            optimise_mixture(**{"pool_ks": [0, 2], **kwargs})

    def test_frank_wolfe_steps(self, monkeypatch):
        """The step, merge, prune and renormalise bookkeeping, pinned bit for bit.

        The L2 subproblem from the triangle stops at iteration 1, so a stub
        returns a fixed sequence of colourings whose reported value is
        the table's value less an offset: two fractional steps, a repeated
        colouring whose weight is merged, and a step of 1 that prunes
        every other component.  Every mixture the optimiser builds is
        recorded.
        """
        steps = iter([
            ([2.0, 2.5], 0.06), ([1.5, 1.7], 0.06), ([2.0, 2.5], 0.08), ([0.3, 0.8, 1.2, 2.9], 10.0),
        ])

        def subproblem(lin, pool_ks, seed, n_starts):
            theta, offset = next(steps)
            c = new_colouring(theta)
            return c, lin(*_kinks(((1.0, c),)))[0] - offset

        seen = []

        def recording(components):
            seen.append([(w, c.switches) for w, c in components])
            return Mixture(components)

        monkeypatch.setattr(spindisk.optimize, "_linear_subproblem", subproblem)
        monkeypatch.setattr(spindisk.optimize, "Mixture", recording)
        res = optimise_mixture([0, 2, 4], n_iterations=4)
        assert seen == [
            [(1.0, ())],
            [(0.8963577447384026, ()), (0.10364225526159737, (2.0, 2.5))],
            [(0.3793105739205105, ()), (0.043858162163998175, (2.0, 2.5)), (0.5768312639154913, (1.5, 1.7))],
            [(0.16238973459898765, ()), (0.5906583418428114, (2.0, 2.5)), (0.24695192355820098, (1.5, 1.7))],
            [(1.0, (0.3, 0.8, 1.2, 2.9))],
        ]
        d_tri = 0.15087698364770957
        assert res.to_dict() == {
            "metric": "L2",
            "distance": d_tri,
            "model": {"components": [{"w": 1.0, "theta": []}]},
            "trace": [[0, d_tri], [1, d_tri], [2, d_tri], [3, d_tri], [4, d_tri]],
            "constraint": "none",
            "gaps": [0.012699983522581879, 0.025465603152428587, 0.03386984921605658, 9.9740058669792],
        }

    def test_prune_before_renormalise(self, monkeypatch):
        """A step of 1 - 1e-13 leaves the triangle ~1e-13: it is pruned, then the rest sum to 1.

        Renormalising before the prune would give the new colouring
        0.9999999999999, not 1.0.
        """
        c = new_colouring([0.3, 0.8, 1.2, 2.9])

        def subproblem(lin, pool_ks, seed, n_starts):
            # the value that makes optimise_mixture's line search step 1 - 1e-13
            tri, kc = _kinks(((1.0, triangle_colouring()),)), _kinks(((1.0, c),))
            lin_c = table(c)
            dd = lin_c(*kc)[0] - lin_c(*tri)[0] - lin(*kc)[0] + lin(*tri)[0]
            return c, lin(*tri)[0] - (1.0 - 1e-13) * dd

        seen = []

        def recording(components):
            seen.append([(w, c.switches) for w, c in components])
            return Mixture(components)

        monkeypatch.setattr(spindisk.optimize, "_linear_subproblem", subproblem)
        monkeypatch.setattr(spindisk.optimize, "Mixture", recording)
        optimise_mixture([0, 4], n_iterations=1)
        assert seen == [[(1.0, ())], [(1.0, c.switches)]]

    def test_result_json_round_trip(self):
        import json

        res = optimise_mixture([0], n_iterations=2, seed=0)
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["metric"] == "L2"
        assert payload["constraint"] == "none"
        assert payload["trace"][0][0] == 0
