import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import expit

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
    cosine_inner_product,
    inner_product,
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

from conftest import colourings, mixtures
from nelder_mead_oracle import nelder_mead_fixed_k

PI = math.pi
D_TRIANGLE = math.sqrt(5 / 6 - 8 / PI**2)


def is_monotone(model):
    """rho of a colouring or mixture is non-decreasing on (0, pi)."""
    half = _half_curve(*_kinks(as_mixture(model).components))
    return _monotone_violation(*half) <= _MONOTONE_TOL


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

    def test_odd_k_rejected(self):
        with pytest.raises(ValidationError):
            optimise_fixed_k(3)

    @pytest.mark.parametrize("n_starts", [0, -3])
    @pytest.mark.parametrize("monotone", [False, True])
    def test_no_starts_rejected(self, n_starts, monotone):
        with pytest.raises(ValidationError, match="n_starts"):
            optimise_fixed_k(2, n_starts=n_starts, monotone=monotone)

    def test_objective_builds_no_curves(self, monkeypatch):
        built = []

        def counting(c):
            built.append(c)
            return exact_correlation(c)

        monkeypatch.setattr(spindisk.optimize, "exact_correlation", counting)
        optimise_fixed_k(2, n_starts=2)
        assert len(built) < 10

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
        assert abs(_linear_value(rho_m)(*_kinks(((1.0, c),)))[0] - want) <= 1e-12


@st.composite
def search_points(draw):
    """Logistic parameters z of a k <= 16 search, with their special entries.

    The free entries keep their switches at least 1e-4 apart.  Optionally
    two entries are equal, a switch pair that collapses below
    _COLLAPSE_TOL, and one entry has |z| >= 40, which the logistic clip
    saturates.  Returns z and the index sets of both kinds of entry.
    """
    pair, saturated = draw(st.booleans()), draw(st.booleans())
    # k = n_free + pair + saturated is even; the pair repeats the last free entry
    n_free = 2 * draw(st.integers(0 if pair or saturated else 1, (16 - 2 * pair - saturated) // 2))
    n_free += saturated + pair
    free = draw(st.lists(st.floats(-8.0, 8.0), min_size=n_free, max_size=n_free))
    assume(np.all(np.diff(np.sort(PI * expit(np.array(free)))) > 1e-4))
    z = free + free[-1:] * pair
    if saturated:
        z.append(draw(st.floats(40.0, 60.0)) * draw(st.sampled_from([-1.0, 1.0])))
    order = draw(st.permutations(range(len(z))))
    where = {i: order.index(i) for i in range(len(z))}
    collapsed = {where[len(free) - 1], where[len(free)]} if pair else set()
    clipped = {where[len(z) - 1]} if saturated else set()
    return np.array([z[i] for i in order]), collapsed, clipped


def check_gradient(value_and_grad, value_only, z, collapsed, clipped):
    """The analytic gradient against central differences, entry by entry.

    Entries of a collapsed pair and clipped entries have gradient exactly
    0; so do their differences, over steps that keep the pair collapsed
    and the entry clipped.
    """
    value, grad = value_and_grad(z)
    assert value == value_only(z)
    for i in range(z.size):
        step = np.zeros(z.size)
        step[i] = 1e-12 if i in collapsed else 1e-5
        fd = (value_and_grad(z + step)[0] - value_and_grad(z - step)[0]) / (2.0 * step[i])
        if i in collapsed or i in clipped:
            assert grad[i] == 0.0 and fd == 0.0
        else:
            assert abs(grad[i] - fd) <= 1e-8


#: A start whose first two entries collapse, and one whose second is clipped.
COLLAPSED_START = (np.array([0.7, 0.7, -1.2, 2.0]), {0, 1}, set())
CLIPPED_START = (np.array([0.3, -45.0, 1.1, -0.8]), set(), {1})


class TestGradients:
    """Both exact gradients against central differences of their values."""

    @settings(max_examples=100, deadline=None)
    @given(search_points())
    @example(COLLAPSED_START)
    @example(CLIPPED_START)
    def test_l2_gradient(self, point):
        def value_only(z):
            return _l2_distance(*_half(_search_point(z)[0]))

        check_gradient(_with_gradient(_l2_with_gradient), value_only, *point)

    @settings(max_examples=100, deadline=None)
    @given(mixtures(), search_points())
    @example(Mixture(((0.6, triangle_colouring()), (0.4, new_colouring([0.5, 2.0])))), COLLAPSED_START)
    @example(Mixture(((0.6, triangle_colouring()), (0.4, new_colouring([0.5, 2.0])))), CLIPPED_START)
    def test_frank_wolfe_gradient(self, m, point):
        lin = _linear_value(mixture_correlation(m))

        def value_only(z):
            return lin(*_kinks(((1.0, _search_point(z)[0]),)))[0]

        check_gradient(_with_gradient(lin), value_only, *point)


class TestMixture:
    def test_pool_of_triangle_only(self):
        res = optimise_mixture([0], n_iterations=5, seed=0)
        assert res.distance == pytest.approx(D_TRIANGLE, abs=1e-12)
        assert len(res.best_model.components) == 1

    def test_pool_024(self):
        res = optimise_mixture([0, 2, 4], n_iterations=10, seed=1, subproblem_starts=4)
        assert res.distance <= D_TRIANGLE + 1e-6
        assert res.distance >= MIN_L2_DISTANCE - 1e-9
        assert trace_is_non_increasing(res.trace)
        check_invariants(mixture_correlation(res.best_model))

    def test_reproducible(self):
        r1 = optimise_mixture([0, 2], n_iterations=3, seed=4, subproblem_starts=2)
        r2 = optimise_mixture([0, 2], n_iterations=3, seed=4, subproblem_starts=2)
        assert r1.distance == r2.distance

    def test_sup_metric_rejected(self):
        with pytest.raises(ValueError):
            optimise_mixture([0, 2], metric="sup")

    @pytest.mark.parametrize("kwargs", [{"n_iterations": 0}, {"subproblem_starts": 0}])
    def test_empty_search_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            optimise_mixture([0, 2], **kwargs)

    def test_frank_wolfe_steps(self, monkeypatch):
        """The step, merge, prune and renormalise bookkeeping, pinned bit for bit.

        The L2 subproblem from the triangle stops at iteration 1, so a stub
        returns a fixed sequence of colourings whose reported value is
        _linear_value less an offset: two fractional steps, a repeated
        colouring whose weight is merged, and a step of 1 that prunes
        every other component.
        """
        steps = iter([
            ([2.0, 2.5], 0.06), ([1.5, 1.7], 0.06), ([2.0, 2.5], 0.08), ([0.3, 0.8, 1.2, 2.9], 10.0),
        ])

        def subproblem(rho_m, pool_ks, seed, n_starts):
            theta, offset = next(steps)
            c = new_colouring(theta)
            return c, _linear_value(rho_m)(*_kinks(((1.0, c),)))[0] - offset

        seen = []

        def recording(m):
            seen.append([(w, c.switches) for w, c in m.components])
            return mixture_correlation(m)

        monkeypatch.setattr(spindisk.optimize, "_linear_subproblem", subproblem)
        monkeypatch.setattr(spindisk.optimize, "mixture_correlation", recording)
        res = optimise_mixture([0, 2, 4], n_iterations=4)
        assert seen == [
            [(1.0, ())],
            [(0.8963577447383951, ()), (0.10364225526160485, (2.0, 2.5))],
            [(0.379310573920468, ()), (0.0438581621639968, (2.0, 2.5)), (0.5768312639155352, (1.5, 1.7))],
            [(0.1623897345989146, ()), (0.5906583418429491, (2.0, 2.5)), (0.2469519235581363, (1.5, 1.7))],
            [(1.0, (0.3, 0.8, 1.2, 2.9))],
        ]
        d_tri = 0.15087698364770957
        assert res.to_dict() == {
            "metric": "L2",
            "distance": d_tri,
            "model": {"components": [{"w": 1.0, "theta": []}]},
            "trace": [[0, d_tri], [1, d_tri], [2, d_tri], [3, d_tri], [4, d_tri]],
            "constraint": "none",
            "gaps": [0.01269998352258292, 0.025465603152428906, 0.03386984921606054, 9.974005866979212],
        }

    def test_prune_before_renormalise(self, monkeypatch):
        """A step of 1 - 1e-13 leaves the triangle ~1e-13: it is pruned, then the rest sum to 1.

        Renormalising before the prune would give the new colouring
        0.9999999999999, not 1.0.
        """
        c = new_colouring([0.3, 0.8, 1.2, 2.9])

        def subproblem(rho_m, pool_ks, seed, n_starts):
            # the value that makes optimise_mixture's line search step 1 - 1e-13
            pl, mm = exact_correlation(c), inner_product(rho_m, rho_m)
            dd = inner_product(pl, pl) - 2.0 * inner_product(pl, rho_m) + mm
            return c, mm + cosine_inner_product(rho_m) - (1.0 - 1e-13) * dd

        seen = []

        def recording(m):
            seen.append([(w, c.switches) for w, c in m.components])
            return mixture_correlation(m)

        monkeypatch.setattr(spindisk.optimize, "_linear_subproblem", subproblem)
        monkeypatch.setattr(spindisk.optimize, "mixture_correlation", recording)
        optimise_mixture([0, 4], n_iterations=1)
        assert seen == [[(1.0, ())], [(1.0, c.switches)]]

    def test_result_json_round_trip(self):
        import json

        res = optimise_mixture([0], n_iterations=2, seed=0)
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["metric"] == "L2"
        assert payload["constraint"] == "none"
        assert payload["trace"][0][0] == 0
