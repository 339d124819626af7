"""Search for the classical correlation closest to the quantum -cos curve.

Single-colouring search is multi-start over switch angles, parametrised
through a sorted logistic map so the ordering constraint is structural.
Mixture search runs Frank-Wolfe over the convex hull of single-colouring
correlations: the L2 objective is quadratic, so each convex step is
line-searched in closed form.

The objectives build no curve object.  A fixed-k evaluation takes the
colouring's breakpoints and values on [0, pi] from its kink weights and
measures them in one pass: rho and cos are even, so the half period
gives the full-period L2 distance (the sup distance is taken over the
reflected full period).  The Frank-Wolfe subproblem value
<rho_c, rho_m + cos> is linear in rho_c; twice integrated by parts it is
a dot product of the colouring's kink weights with a piecewise-cubic
table built once per subproblem.

The smooth searches, fixed-k L2 and the Frank-Wolfe subproblem, run
L-BFGS-B on the exact gradient: each objective's derivative in the kink
positions (one cumulative integral, or one more Horner step of the
table) is chained through the switch differences and the logistic map.
One function, `_search_point`, maps the parameters to the colouring and
to that chain's pieces; every objective and every colouring a search
reports go through it, so a gradient search's value is the value-only
objective's bit for bit.  The sup metric, a max, and the monotone
penalty, which jumps, have no gradient and run the Nelder-Mead simplex
on the value alone.  Reported distances, the Frank-Wolfe step and the
mixture bookkeeping use the public curve functions.

Whether any mixture beats the triangle wave is an open question; these
routines report what they find and never assert optimality.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .circle import (
    ANGLE_TOL, PI, TWO_PI, WEIGHT_TOL, Colouring, Mixture, ValidationError, as_mixture,
    mixture_to_dict, new_colouring, triangle_colouring,
)
from .correlation import (
    PiecewiseLinearCorrelation,
    _differences,
    _full_period,
    _half_curve,
    _kinks,
    _l2_distance,
    _sup_distance,
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

#: A correlation whose negative slopes on (0, pi) sum to more than this is
#: not monotone.
_MONOTONE_TOL = 1e-12

#: Absolute fatol of the Nelder-Mead searches: some 36 ulp of a distance
#: near 0.2, so a simplex stops instead of chasing last-bit differences.
_FATOL = 1e-15

#: Step tolerance (xatol) of the Nelder-Mead searches.
_XATOL = 1e-9

#: Iteration caps of a fixed-k start and of a Frank-Wolfe subproblem start.
_MAX_ITER = 2000
_SUBPROBLEM_MAX_ITER = 200

#: Frank-Wolfe stops once its duality-gap estimate is at most this.
_GAP_TOL = 1e-9

#: Logistic values are clipped to [_CLIP, 1 - _CLIP], strictly inside (0, 1).
_CLIP = 1e-12

#: (d, w, slope0) of one colouring's kinks -> (value, derivative in each d)
_KinkObjective = Callable[[np.ndarray, np.ndarray, float], tuple[float, np.ndarray]]


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


def _surviving(theta: list[float]) -> list[int]:
    """Indices of the sorted switches left after dropping (numerically) merged pairs.

    A pair of coincident switches bounds a zero-length segment and is a
    no-op, so dropping both is exact in the limit; this lets the search
    walk onto lower-k boundary strata such as the triangle wave.
    """
    keep = list(range(len(theta)))
    i = 0
    while i < len(keep) - 1:
        if theta[keep[i + 1]] - theta[keep[i]] < _COLLAPSE_TOL:
            del keep[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return keep


def _search_point(z: np.ndarray) -> tuple[Colouring, np.ndarray, list[int], list[float]]:
    """The colouring of logistic parameters z, and what its gradient chain needs.

    The switches are theta = pi * sort(clip(expit(z))), less the pairs
    _surviving collapses.  Also returns the argsort order of the clipped
    logistic values, the surviving positions in that order, and
    dtheta/dz in z's order: pi*s*(1 - s), or 0 where the clip holds.
    dtheta/dz is a list because value-only evaluations pay for it too: at
    k = 2..8 a comprehension takes 0.4-0.9 us, numpy 2.9 us (2-vCPU Xeon VM).
    """
    from scipy.special import expit  # scipy loads only when an optimiser runs

    s = expit(z)
    # not np.clip / np.argsort: their dispatch costs ~2 us a call on arrays this small
    clipped = np.minimum(np.maximum(s, _CLIP), 1.0 - _CLIP)
    order = clipped.argsort()
    th = (clipped[order] * PI).tolist()
    keep = _surviving(th)
    dtheta_dz = [PI * (x * (1.0 - x)) if _CLIP <= x <= 1.0 - _CLIP else 0.0 for x in s.tolist()]
    return new_colouring([th[m] for m in keep]), order, keep, dtheta_dz


def _with_gradient(kink_objective: _KinkObjective) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """z -> (value, gradient) of an objective of the kinks of _search_point(z)'s colouring.

    kink_objective(d, w, slope0) returns the value and its derivative in
    each kink position.  Kink d = f_j - f_i of the full switch set f moves
    with +1 times f_j and -1 times f_i.  A switch and its copy at +pi share
    one theta; the forced switches at 0 and pi, the switches of a collapsed
    pair and clipped logistic entries move nothing.
    """

    def value_and_grad(z: np.ndarray) -> tuple[float, np.ndarray]:
        k = z.size
        c, order, keep, dtheta_dz = _search_point(z)
        diffs, jumps, mask = _differences(c)
        i, j = np.nonzero(mask)
        value, dd = kink_objective(diffs[i, j], jumps[i] * jumps[j], 2.0 * jumps.size)
        owner = np.array([k, *keep, k, *keep])
        dtheta = np.bincount(owner[j], dd, k + 1) - np.bincount(owner[i], dd, k + 1)
        grad = np.empty(k)
        grad[order] = dtheta[:k] * np.take(dtheta_dz, order)
        return value, grad

    return value_and_grad


def _lbfgsb(value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]], z0: np.ndarray, max_iter: int):
    """L-BFGS-B from z0 on an objective that returns its exact gradient.

    Both tolerances sit near rounding: with gtol = 1e-9, k = 4 searches
    ended up to 1.6e-10 above the Nelder-Mead distance, and searches that
    walk a switch towards 0 or pi see gradients that shrink with it.
    """
    from scipy.optimize import minimize

    options = {"ftol": 1e-15, "gtol": 1e-12, "maxiter": max_iter}
    return minimize(value_and_grad, z0, method="L-BFGS-B", jac=True, options=options)


def _l2_with_gradient(d: np.ndarray, w: np.ndarray, slope0: float) -> tuple[float, np.ndarray]:
    """L2 distance to -cos of the kinks' rho, and its derivative in each kink position.

    On [0, pi], rho = -1 + (slope0*g + sum w*(g - d)+) / (2*pi) and
    D^2 = (1/pi) * integral of (rho + cos)^2, so
    dD/dd = -w / (2*pi^2*D) * integral from d to pi of (rho + cos): one
    cumulative integral G of rho + cos on the half grid, read at the
    breakpoint _half_curve gave each kink.
    """
    bps, values = _half_curve(d, w, slope0)
    dist = _l2_distance(bps, values)
    g = np.append(0.0, np.cumsum(np.diff(bps) * (values[:-1] + values[1:]))) / 2.0 + np.sin(bps)
    at = g[np.searchsorted(bps, d + ANGLE_TOL, "right") - 1]
    return dist, w * (at - g[-1]) / (TWO_PI * PI * dist)


def _half(c: Colouring) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and values of rho_c on [0, pi], without a curve object."""
    return _half_curve(*_kinks(((1.0, c),)))


def _monotone_violation(bps: np.ndarray, values: np.ndarray) -> float:
    """Sum of the negative slopes of rho on [0, pi] (0 when rho runs -1 -> +1)."""
    return float(np.clip(-np.diff(values) / np.diff(bps), 0.0, None).sum())


def _sup_objective(bps: np.ndarray, values: np.ndarray) -> float:
    """Sup distance of the half-period arrays, taken over the full period.

    The half period has the same maximum, but near the triangle wave its
    value dips one ulp below the triangle's more often, and the simplex,
    whose fatol is far below one ulp, chases those dips (4.4 times the
    evaluations over 30 seeds at k = 2).  Over the full period the value
    is the reported distance's, bit for bit.
    """
    bps, values = _full_period(bps, values)
    return _sup_distance(np.append(bps, TWO_PI), np.append(values, values[0]))


#: metric -> (distance of a curve, distance from half-period arrays)
_METRICS = {
    "L2": (l2_distance_to_cosine, _l2_distance),
    "sup": (sup_distance_to_cosine, _sup_objective),
}


def _guard_lower_bound(distance: float) -> None:
    # A distance below the derived first-harmonic bound would disprove the
    # bound itself; treat it as a hard error rather than a result.
    if distance < MIN_L2_DISTANCE - 1e-9:
        raise RuntimeError(
            f"distance {distance} below the first-harmonic lower bound "
            f"{MIN_L2_DISTANCE}; refusing to report"
        )


def optimise_fixed_k(
    k: int,
    metric: str = "L2",
    n_starts: int = 32,
    seed: int = 0,
    monotone: bool = False,
) -> OptimizationResult:
    """Multi-start search over single colourings with k switches.

    Each start runs L-BFGS-B on the exact gradient for the L2 metric, and
    the Nelder-Mead simplex, with step tolerance _XATOL, for the sup metric
    or with monotone=True.  _MAX_ITER caps the iterations of either.
    k = 0 is the unique triangle-wave colouring and runs no start.  With
    monotone=True, candidates whose correlation oscillates on (0, pi) are
    penalised and the count of monotone-feasible starts is reported;
    NoFeasiblePoint is raised if no start ends feasible.
    """
    from scipy.optimize import minimize

    if k < 0 or k % 2 != 0:
        raise ValidationError(f"k must be even and >= 0, got {k}")
    if n_starts < 1:
        raise ValidationError(f"n_starts must be >= 1, got {n_starts}")
    if metric not in _METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    curve_distance, half_distance = _METRICS[metric]

    if metric == "L2" and not monotone:
        value_and_grad = _with_gradient(_l2_with_gradient)

        def search(z0: np.ndarray):
            return _lbfgsb(value_and_grad, z0, _MAX_ITER)
    else:
        # the sup metric is a max and the monotone penalty jumps: no gradient
        def objective(z: np.ndarray) -> float:
            bps, values = _half(_search_point(z)[0])
            d = half_distance(bps, values)
            if monotone:
                v = _monotone_violation(bps, values)
                if v > _MONOTONE_TOL:
                    d += 1e3 + v
            return d

        def search(z0: np.ndarray):
            return minimize(
                objective,
                z0,
                method="Nelder-Mead",
                options={"xatol": _XATOL, "fatol": _FATOL, "maxiter": _MAX_ITER, "maxfev": 4 * _MAX_ITER},
            )

    rng = np.random.default_rng(seed)
    best_c: Colouring | None = None
    best_d = math.inf
    trace: list[tuple[int, float]] = []
    feasible_starts = 0

    if k == 0:
        best_c, feasible_starts = triangle_colouring(), n_starts
        best_d = curve_distance(exact_correlation(best_c))
        trace.append((0, best_d))
    else:
        for start in range(n_starts):
            # a start keeps all k switches, 1e-6 apart
            for _ in range(100):
                z0 = rng.normal(scale=1.5, size=k)
                c0 = _search_point(z0)[0]
                if c0.k == k and np.all(np.diff(c0.switches) > 1e-6):
                    break
            else:
                raise InfeasibleStart(f"no non-degenerate start found for k={k} after 100 draws")
            if monotone and _monotone_violation(*_half(c0)) <= _MONOTONE_TOL:
                feasible_starts += 1

            res = search(z0)
            c = _search_point(res.x)[0]
            if monotone and _monotone_violation(*_half(c)) > _MONOTONE_TOL:
                if best_d < math.inf:
                    trace.append((start, best_d))
                continue
            d = curve_distance(exact_correlation(c))
            if d < best_d:
                best_d, best_c = d, c
            trace.append((start, best_d))

    if best_c is None:
        raise NoFeasiblePoint(f"no monotone-feasible model found for k={k}")
    _guard_lower_bound(best_d)
    return OptimizationResult(
        as_mixture(best_c), best_d, metric, trace, "monotone" if monotone else "none",
        feasible_starts=feasible_starts if monotone else None,
    )


def _linear_value(rho_m: PiecewiseLinearCorrelation) -> _KinkObjective:
    """Kinks of c -> <rho_c, rho_m + cos> and its derivative in each kink position.

    This is the Frank-Wolfe subproblem's objective.  Let G1 and G2 be the
    first and second antiderivatives from 0 of g = rho_m + cos on [0, pi].
    Integrating by parts twice, with rho_c(0) = -1, rho_c(pi) = 1,
    rho_c'(0+) = rho_c'(pi-) = s and rho_c'' = sum of w / (2*pi) at the
    kinks d,

        <rho_c, g> = (G1(pi) - s*G2(pi) + sum w*G2(d) / (2*pi)) / pi,

    both functions being even, so the derivative in d is w*G1(d) / (2*pi^2).
    G2 is piecewise cubic on rho_m's grid plus 1 - cos, so each evaluation
    is one searchsorted, one dot product and one more Horner step for G1:
    no curve is built.
    """
    half = rho_m.breakpoints <= PI
    bm, vm = rho_m.breakpoints[half], rho_m.values[half]
    dg = np.diff(bm)
    am = np.diff(vm) / dg
    # integrals of rho_m and of its antiderivative from 0 to each breakpoint
    r1 = np.append(0.0, np.cumsum(dg * (vm[:-1] + vm[1:]) / 2.0))
    r2 = np.append(0.0, np.cumsum(dg * (r1[:-1] + dg * (vm[:-1] / 2.0 + dg * am / 6.0))))
    c0, c1, c2, c3 = r2[:-1], r1[:-1], vm[:-1] / 2.0, am / 6.0
    g1_pi = r1[-1]  # + sin(pi) = 0
    g2_pi = r2[-1] + 2.0  # + 1 - cos(pi)

    def lin(d: np.ndarray, w: np.ndarray, slope0: float) -> tuple[float, np.ndarray]:
        j = np.searchsorted(bm, d, "right") - 1
        t = d - bm[j]
        g2 = c0[j] + t * (c1[j] + t * (c2[j] + t * c3[j])) + 1.0 - np.cos(d)
        g1 = c1[j] + t * (2.0 * c2[j] + 3.0 * t * c3[j]) + np.sin(d)
        value = float(g1_pi - slope0 / TWO_PI * g2_pi + np.dot(w, g2) / TWO_PI) / PI
        return value, w * g1 / (TWO_PI * PI)

    return lin


def _linear_subproblem(
    rho_m: PiecewiseLinearCorrelation,
    pool_ks: list[int],
    seed: int,
    n_starts: int,
) -> tuple[Colouring, float]:
    """Approximately minimise <rho_m + cos, rho_c> over single colourings."""
    lin = _linear_value(rho_m)
    value_and_grad = _with_gradient(lin)
    best_c = triangle_colouring()
    best_v = lin(*_kinks(((1.0, best_c),)))[0]
    rng = np.random.default_rng(seed)
    for k in pool_ks:
        if k == 0:
            continue  # triangle already evaluated
        for _ in range(n_starts):
            z0 = rng.normal(scale=1.5, size=k)
            res = _lbfgsb(value_and_grad, z0, _SUBPROBLEM_MAX_ITER)
            c = _search_point(res.x)[0]
            # not res.fun: after an ABNORMAL line-search exit it need not be the value at res.x
            v = lin(*_kinks(((1.0, c),)))[0]
            if v < best_v - 1e-15:
                best_v, best_c = v, c
    return best_c, best_v


def optimise_mixture(
    pool_ks: list[int],
    metric: str = "L2",
    n_iterations: int = 50,
    seed: int = 0,
    subproblem_starts: int = 8,
) -> OptimizationResult:
    """Frank-Wolfe over convex combinations of single-colouring correlations.

    Each iteration solves the linearised subproblem over the extreme points
    (single colourings with k in pool_ks), then takes the exactly
    line-searched convex step.  Only the L2 metric is supported: it is the
    convex-quadratic case with a closed-form step.
    """
    if metric != "L2":
        raise ValidationError(f"mixture optimisation requires the L2 metric, got {metric!r}")
    if n_iterations < 1:
        raise ValidationError(f"n_iterations must be >= 1, got {n_iterations}")
    if subproblem_starts < 1:
        raise ValidationError(f"subproblem_starts must be >= 1, got {subproblem_starts}")
    pool = sorted(set(int(k) for k in pool_ks))
    for k in pool:
        if k < 0 or k % 2 != 0:
            raise ValidationError(f"pool entries must be even and >= 0, got {k}")

    # colouring -> weight, in insertion order
    model = {triangle_colouring(): 1.0}
    best_model = as_mixture(triangle_colouring())
    rho_m = mixture_correlation(best_model)
    best_d = l2_distance_to_cosine(rho_m)
    trace: list[tuple[int, float]] = [(0, best_d)]
    gaps: list[float] = []

    seeds = np.random.SeedSequence(seed).generate_state(n_iterations)
    for it in range(1, n_iterations + 1):
        c_new, lin_new = _linear_subproblem(rho_m, pool, int(seeds[it - 1]), subproblem_starts)
        mm = inner_product(rho_m, rho_m)
        lin_m = mm + cosine_inner_product(rho_m)
        gap = lin_m - lin_new  # duality-gap estimate; >= 0 up to subproblem error
        gaps.append(gap)
        if gap <= _GAP_TOL:
            trace.append((it, best_d))
            break

        pl_new = exact_correlation(c_new)
        dd = inner_product(pl_new, pl_new) - 2.0 * inner_product(pl_new, rho_m) + mm
        step = gap / dd if dd > 0 else 0.0
        step = min(max(step, 0.0), 1.0)
        if step <= 0.0:
            trace.append((it, best_d))
            continue

        model = {c: w * (1.0 - step) for c, w in model.items()}
        model[c_new] = model.get(c_new, 0.0) + step

        # prune negligible weights, renormalise to machine precision
        model = {c: w for c, w in model.items() if w >= WEIGHT_TOL}
        total = sum(model.values())
        model = {c: w / total for c, w in model.items()}

        mixture = Mixture(tuple((w, c) for c, w in model.items()))
        rho_m = mixture_correlation(mixture)
        d = l2_distance_to_cosine(rho_m)
        if d < best_d:
            best_d, best_model = d, mixture
        trace.append((it, best_d))

    _guard_lower_bound(best_d)
    return OptimizationResult(best_model, best_d, metric, trace, "none", gaps=gaps)
