import math

import numpy as np
import pytest
import scipy.optimize
from scipy.integrate import quad
from hypothesis import assume, example, given, settings, strategies as st

from spindisk import (
    MIN_L2_DISTANCE,
    Mixture,
    ValidationError,
    exact_correlation,
    l2_distance_to_cosine,
    mixture_correlation,
    new_colouring,
    optimise_fixed_k,
    optimise_mixture,
    sup_distance_to_cosine,
    triangle_colouring,
)
import spindisk.optimize
from spindisk.circle import as_mixture
from spindisk.correlation import (
    _half_curve,
    _kinks,
    _l2_distance,
    check_invariants,
)
from spindisk.optimize import (
    _MONOTONE_TOL,
    _half,
    _l2_with_gradient,
    _linear_value,
    _monotone_violation,
    _search_point,
    _sup_objective,
    _with_gradient,
)

from conftest import colourings, mixtures, random_colouring, random_mixture
from inner_product_oracle import cosine_inner_product, inner_product
from nelder_mead_oracle import nelder_mead_fixed_k

PI = math.pi
TWO_PI = 2 * math.pi
D_TRIANGLE = math.sqrt(5 / 6 - 8 / PI**2)


def is_monotone(model):
    """rho of a colouring or mixture is non-decreasing on (0, pi)."""
    half = _half_curve(*_kinks(as_mixture(model).components))
    return _monotone_violation(*half) <= _MONOTONE_TOL


def table(model):
    """The Frank-Wolfe table <rho_c, rho_model + cos> of a colouring or mixture."""
    return _linear_value(*_half_curve(*_kinks(as_mixture(model).components)))


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
        # gap is above _GAP_TOL, so the step and the mixture bookkeeping run
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
        spent = []
        minimize = scipy.optimize.minimize

        def counting(*args, **kwargs):
            res = minimize(*args, **kwargs)
            spent.append(res.nfev)
            return res

        monkeypatch.setattr(scipy.optimize, "minimize", counting)
        optimise_fixed_k(2, n_starts=4)
        assert len(spent) == 4
        assert sum(spent) < nelder_mead_fixed_k(2, n_starts=4)[1] / 2


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
        half = _half_curve(*_kinks(as_mixture(model).components))
        pl = mixture_correlation(model)
        g0, g1, slope, _ = pl.pieces()
        want = np.clip(-slope[0.5 * (g0 + g1) < PI], 0.0, None).sum()
        assert abs(_monotone_violation(*half) - want) <= 1e-12
        assert _sup_objective(*half) == sup_distance_to_cosine(pl)

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
            want = mean(lambda g: rho_c.evaluate(g) * (rho_m.evaluate(g) + math.cos(g)))
            assert lin_m(*kc)[0] == pytest.approx(want, abs=1e-10)
            dd = lin_c(*kc)[0] - lin_c(*km)[0] - lin_m(*kc)[0] + lin_m(*km)[0]
            assert dd == pytest.approx(mean(lambda g: (rho_c.evaluate(g) - rho_m.evaluate(g)) ** 2), abs=1e-10)


@st.composite
def search_points(draw):
    """Switch angles theta of a k <= 16 search, with the indices of a collapsed pair.

    The free angles stay at least 1e-4 apart and from 0 and pi.  Optionally
    two angles are equal, a switch pair that collapses below _COLLAPSE_TOL.
    """
    pair = draw(st.booleans())
    # k = n_free + pair is even; the pair repeats the last free angle
    n_free = 2 * draw(st.integers(0 if pair else 1, (16 - 2 * pair) // 2)) + pair
    free = draw(st.lists(st.floats(1e-3, PI - 1e-3), min_size=n_free, max_size=n_free))
    assume(np.all(np.diff(np.sort(free)) > 1e-4))
    theta = free + free[-1:] * pair
    order = draw(st.permutations(range(len(theta))))
    collapsed = {order.index(len(free) - 1), order.index(len(free))} if pair else set()
    return np.array([theta[i] for i in order]), collapsed


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


class TestGradients:
    """Both exact gradients against central differences of their values."""

    @settings(max_examples=100, deadline=None)
    @given(search_points())
    @example(COLLAPSED_START)
    def test_l2_gradient(self, point):
        def value_only(theta):
            return _l2_distance(*_half(_search_point(theta)[0]))

        check_gradient(_with_gradient(_l2_with_gradient), value_only, *point)

    @settings(max_examples=100, deadline=None)
    @given(mixtures(), search_points())
    @example(Mixture(((0.6, triangle_colouring()), (0.4, new_colouring([0.5, 2.0])))), COLLAPSED_START)
    def test_frank_wolfe_gradient(self, m, point):
        lin = table(m)

        def value_only(theta):
            return lin(*_kinks(((1.0, _search_point(theta)[0]),)))[0]

        check_gradient(_with_gradient(lin), value_only, *point)


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
