import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindisk import (
    MIN_L2_DISTANCE,
    ValidationError,
    exact_correlation,
    l2_distance_to_cosine,
    mixture_correlation,
    monotone_search,
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
    check_invariants,
    cosine_inner_product,
    inner_product,
)
from spindisk.optimize import _MONOTONE_TOL, _linear_value, _monotone_violation, _sup_objective

from conftest import colourings, mixtures

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
        res = optimise_fixed_k(4, n_starts=2, seed=0, max_iter=400)
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


class TestMonotone:
    def test_k0_feasible(self):
        res = monotone_search(0)
        assert res.constraint == "monotone"
        assert res.distance == pytest.approx(D_TRIANGLE, abs=1e-12)

    def test_k2_result_is_monotone(self):
        res = monotone_search(2, n_starts=8, seed=1)
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
        assert abs(_linear_value(rho_m)(c) - want) <= 1e-12


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

    def test_result_json_round_trip(self):
        import json

        res = optimise_mixture([0], n_iterations=2, seed=0)
        payload = json.loads(json.dumps(res.to_dict()))
        assert payload["metric"] == "L2"
        assert payload["constraint"] == "none"
        assert payload["trace"][0][0] == 0
