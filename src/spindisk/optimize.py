"""Search for the classical correlation closest to the quantum -cos curve.

Single-colouring search runs a multi-start Nelder-Mead simplex over switch
angles, parametrised through a sorted logistic map so the ordering
constraint is structural.  Mixture search runs Frank-Wolfe over the convex
hull of single-colouring correlations: the L2 objective is quadratic, so
each convex step is line-searched in closed form.

Whether any mixture beats the triangle wave is an open question; these
routines report what they find and never assert optimality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circle import PI, Colouring, Mixture, ValidationError, new_colouring, triangle_colouring
from .correlation import (
    PiecewiseLinearCorrelation,
    cosine_inner_product,
    exact_correlation,
    inner_product,
    l2_distance_to_cosine,
    mixture_correlation,
    sup_distance_to_cosine,
)
from .spectral import FIRST_HARMONIC_COEFF_BOUND

#: No classical curve can get closer to -cos than this in L2: the first
#: harmonic alone contributes at least (1 - 8/pi^2)^2 / 2 to the squared
#: distance, and the sup distance dominates the L2 distance.
MIN_L2_DISTANCE = (1.0 + FIRST_HARMONIC_COEFF_BOUND) / math.sqrt(2.0)

_COLLAPSE_TOL = 1e-9


class InfeasibleStart(RuntimeError):
    """Could not draw a non-degenerate starting point within the retry cap."""


class NoFeasiblePoint(RuntimeError):
    """No start produced a monotone-feasible model."""


@dataclass
class OptimizationResult:
    best_model: Mixture
    distance: float
    metric: str
    trace: list[tuple[int, float]]
    constraint: str = "none"
    feasible_starts: int | None = None
    gaps: list[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        from .circle import mixture_to_dict

        d = {
            "metric": self.metric,
            "distance": self.distance,
            "model": mixture_to_dict(self.best_model),
            "trace": [[i, v] for i, v in self.trace],
            "constraint": self.constraint,
        }
        if self.feasible_starts is not None:
            d["feasible_starts"] = self.feasible_starts
        if self.gaps:
            d["gaps"] = self.gaps
        return d


def _distance(pl: PiecewiseLinearCorrelation, metric: str) -> float:
    if metric == "L2":
        return l2_distance_to_cosine(pl)
    if metric == "sup":
        return sup_distance_to_cosine(pl)
    raise ValueError(f"unknown metric {metric!r}")


def _theta_from_params(z: np.ndarray) -> np.ndarray:
    from scipy.special import expit  # scipy loads only when an optimiser runs

    # clip keeps saturated logistic values strictly inside (0, 1)
    return np.sort(np.clip(expit(z), 1e-12, 1.0 - 1e-12)) * PI


def _colouring_from_theta(theta: np.ndarray) -> Colouring:
    """Build a colouring, collapsing switch pairs that have (numerically) merged.

    A pair of coincident switches bounds a zero-length segment and is a
    no-op, so dropping both is exact in the limit; this lets the search
    walk onto lower-k boundary strata such as the triangle wave.
    """
    th = list(theta)
    i = 0
    while i < len(th) - 1:
        if th[i + 1] - th[i] < _COLLAPSE_TOL:
            del th[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return new_colouring(th)


def _is_monotone(pl: PiecewiseLinearCorrelation, tol: float = 1e-12) -> bool:
    """All linear-piece slopes on (0, pi) non-negative (rho runs -1 -> +1)."""
    g0, g1, slope, _ = pl.pieces()
    mid = 0.5 * (g0 + g1)
    inside = mid < PI
    return bool(np.all(slope[inside] >= -tol))


def _monotone_violation(pl: PiecewiseLinearCorrelation) -> float:
    g0, g1, slope, _ = pl.pieces()
    mid = 0.5 * (g0 + g1)
    neg = np.clip(-slope[mid < PI], 0.0, None)
    return float(neg.sum())


def _guard_lower_bound(distance: float) -> None:
    # A distance below the derived first-harmonic bound would disprove the
    # bound itself; treat it as a hard error rather than a result.
    if distance < MIN_L2_DISTANCE - 1e-9:
        raise RuntimeError(
            f"distance {distance} below the first-harmonic lower bound "
            f"{MIN_L2_DISTANCE}; refusing to report"
        )


def _single_model(c: Colouring) -> Mixture:
    return Mixture(((1.0, c),))


def optimise_fixed_k(
    k: int,
    metric: str = "L2",
    n_starts: int = 32,
    seed: int = 0,
    tol: float = 1e-9,
    max_iter: int = 2000,
    monotone: bool = False,
) -> OptimizationResult:
    """Multi-start simplex search over single colourings with k switches.

    k = 0 is the unique triangle-wave colouring and is returned without
    search.  With monotone=True, candidates whose correlation oscillates on
    (0, pi) are penalised and the count of monotone-feasible starts is
    reported; NoFeasiblePoint is raised if no start ends feasible.
    """
    from scipy.optimize import minimize

    if k < 0 or k % 2 != 0:
        raise ValidationError(f"k must be even and >= 0, got {k}")
    constraint = "monotone" if monotone else "none"

    if k == 0:
        c = triangle_colouring()
        d = _distance(exact_correlation(c), metric)
        _guard_lower_bound(d)
        return OptimizationResult(
            _single_model(c), d, metric, [(0, d)], constraint,
            feasible_starts=n_starts if monotone else None,
        )

    def objective(z: np.ndarray) -> float:
        theta = _theta_from_params(z)
        c = _colouring_from_theta(theta)
        pl = exact_correlation(c)
        d = _distance(pl, metric)
        if monotone:
            v = _monotone_violation(pl)
            if v > 1e-12:
                d += 1e3 + v
        return d

    rng = np.random.default_rng(seed)
    best_c: Colouring | None = None
    best_d = math.inf
    trace: list[tuple[int, float]] = []
    feasible_starts = 0

    for start in range(n_starts):
        z0 = None
        for _ in range(100):
            cand = rng.normal(scale=1.5, size=k)
            theta = _theta_from_params(cand)
            if np.all(np.diff(theta) > 1e-6):
                z0 = cand
                break
        if z0 is None:
            raise InfeasibleStart(
                f"no non-degenerate start found for k={k} after 100 draws"
            )
        if monotone and _is_monotone(exact_correlation(_colouring_from_theta(_theta_from_params(z0)))):
            feasible_starts += 1

        res = minimize(
            objective,
            z0,
            method="Nelder-Mead",
            options={"xatol": tol, "fatol": tol * tol, "maxiter": max_iter, "maxfev": 4 * max_iter},
        )
        c = _colouring_from_theta(_theta_from_params(res.x))
        pl = exact_correlation(c)
        if monotone and not _is_monotone(pl):
            if best_d < math.inf:
                trace.append((start, best_d))
            continue
        d = _distance(pl, metric)
        if d < best_d:
            best_d, best_c = d, c
        trace.append((start, best_d))

    if best_c is None:
        raise NoFeasiblePoint(f"no monotone-feasible model found for k={k}")
    _guard_lower_bound(best_d)
    return OptimizationResult(
        _single_model(best_c), best_d, metric, trace, constraint,
        feasible_starts=feasible_starts if monotone else None,
    )


def monotone_search(k: int, n_starts: int = 32, seed: int = 0, metric: str = "L2") -> OptimizationResult:
    """Fixed-k search restricted to monotone correlations on (0, pi)."""
    return optimise_fixed_k(k, metric=metric, n_starts=n_starts, seed=seed, monotone=True)


def _linear_subproblem(
    rho_m: PiecewiseLinearCorrelation,
    pool_ks: list[int],
    seed: int,
    n_starts: int,
    max_iter: int,
) -> tuple[Colouring, float]:
    """Approximately minimise <rho_m + cos, rho_c> over single colourings."""
    from scipy.optimize import minimize

    def lin_value(c: Colouring) -> float:
        pl = exact_correlation(c)
        return inner_product(pl, rho_m) + cosine_inner_product(pl)

    best_c = triangle_colouring()
    best_v = lin_value(best_c)
    rng = np.random.default_rng(seed)
    for k in pool_ks:
        if k == 0:
            continue  # triangle already evaluated

        def objective(z: np.ndarray) -> float:
            return lin_value(_colouring_from_theta(_theta_from_params(z)))

        for _ in range(n_starts):
            z0 = rng.normal(scale=1.5, size=k)
            res = minimize(
                objective,
                z0,
                method="Nelder-Mead",
                options={"xatol": 1e-7, "fatol": 1e-13, "maxiter": max_iter, "maxfev": 2 * max_iter},
            )
            c = _colouring_from_theta(_theta_from_params(res.x))
            v = lin_value(c)
            if v < best_v - 1e-15:
                best_v, best_c = v, c
    return best_c, best_v


def optimise_mixture(
    pool_ks: list[int],
    metric: str = "L2",
    n_iterations: int = 50,
    seed: int = 0,
    tol: float = 1e-9,
    subproblem_starts: int = 8,
    subproblem_max_iter: int = 200,
) -> OptimizationResult:
    """Frank-Wolfe over convex combinations of single-colouring correlations.

    Each iteration solves the linearised subproblem over the extreme points
    (single colourings with k in pool_ks), then takes the exactly
    line-searched convex step.  Only the L2 metric is supported: it is the
    convex-quadratic case with a closed-form step.
    """
    if metric != "L2":
        raise ValueError("mixture optimisation requires the L2 metric")
    if n_iterations < 1:
        raise ValueError("n_iterations must be >= 1")
    pool = sorted(set(int(k) for k in pool_ks))
    for k in pool:
        if k < 0 or k % 2 != 0:
            raise ValidationError(f"pool entries must be even and >= 0, got {k}")

    # weights and cached exact curves per component
    comps: list[tuple[Colouring, PiecewiseLinearCorrelation]] = [
        (triangle_colouring(), exact_correlation(triangle_colouring()))
    ]
    weights = [1.0]

    def current_mixture() -> Mixture:
        return Mixture(tuple((w, c) for w, (c, _) in zip(weights, comps)))

    rho_m = mixture_correlation(current_mixture())
    best_d = l2_distance_to_cosine(rho_m)
    best_model = current_mixture()
    trace: list[tuple[int, float]] = [(0, best_d)]
    gaps: list[float] = []

    seeds = np.random.SeedSequence(seed).generate_state(n_iterations)
    for it in range(1, n_iterations + 1):
        c_new, lin_new = _linear_subproblem(
            rho_m, pool, int(seeds[it - 1]), subproblem_starts, subproblem_max_iter
        )
        mm = inner_product(rho_m, rho_m)
        lin_m = mm + cosine_inner_product(rho_m)
        gap = lin_m - lin_new  # duality-gap estimate; >= 0 up to subproblem error
        gaps.append(gap)
        if gap <= tol:
            trace.append((it, best_d))
            break

        pl_new = exact_correlation(c_new)
        dd = inner_product(pl_new, pl_new) - 2.0 * inner_product(pl_new, rho_m) + mm
        step = gap / dd if dd > 0 else 0.0
        step = min(max(step, 0.0), 1.0)
        if step <= 0.0:
            trace.append((it, best_d))
            continue

        weights = [w * (1.0 - step) for w in weights]
        for i, (c, _) in enumerate(comps):
            if c.switches == c_new.switches:
                weights[i] += step
                break
        else:
            comps.append((c_new, pl_new))
            weights.append(step)

        # prune negligible weights, renormalise to machine precision
        keep = [i for i, w in enumerate(weights) if w >= 1e-12]
        comps = [comps[i] for i in keep]
        weights = [weights[i] for i in keep]
        total = sum(weights)
        weights = [w / total for w in weights]

        rho_m = mixture_correlation(current_mixture())
        d = l2_distance_to_cosine(rho_m)
        if d < best_d:
            best_d = d
            best_model = current_mixture()
        trace.append((it, best_d))

    best_d = l2_distance_to_cosine(mixture_correlation(best_model))
    _guard_lower_bound(best_d)
    return OptimizationResult(best_model, best_d, metric, trace, "none", gaps=gaps)
