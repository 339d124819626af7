"""Search for the classical correlation closest to the quantum -cos curve.

Single-colouring search is multi-start over the switch angles themselves,
bounded to (0, pi) by the solvers' own box bounds.  Mixture search runs
Frank-Wolfe over the convex hull of single-colouring correlations: the
L2 objective is quadratic, so each convex step is line-searched in
closed form.

The optimiser builds no curve object: objectives, reported distances,
the monotone check and the Frank-Wolfe bookkeeping all read one
`_half_curve` pass: breakpoints, values and slopes on [0, pi] and each
kink's breakpoint.  rho and cos are even, so the half period gives the
full-period L2 distance (the sup distance is taken over the reflected
full period).  The Frank-Wolfe subproblem value <rho_c, rho_m + cos> is
linear in rho_c; twice integrated by parts it is a dot product of the
colouring's kink weights with a piecewise-cubic table built once per
mixture.  The Frank-Wolfe gap and step are differences of such values.

Every search (fixed-k L2 and sup, and the Frank-Wolfe subproblem) runs
L-BFGS-B on the exact gradient: each objective's derivative in the kink
positions (a cumulative integral, the sup peak's, or a Horner step of the
table) is summed over the switch differences.  The sup distance, a max,
has it almost everywhere (Danskin, The Theory of Max-Min, 1967), which
BFGS handles well (Lewis & Overton, Math. Program. 141, 2013).  One
function, `_search_point`, maps the angles to the colouring of every
objective and report, and searches and reports read the same kink
objective, `_METRICS[metric]`: a reported distance is a search's value
bit for bit.  `_lbfgsb` drives scipy's reverse-communication L-BFGS-B
routine (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995) from
its own loop: scipy's iterates without its wrappers.  It is all the
optimiser takes from scipy: `_setulb` loads scipy's compiled `_lbfgsb`
extension by file, without importing scipy.optimize, so the scipy pin
also pins that file's location.

One multistart loop, `_multistart`, serves fixed-k and the Frank-Wolfe
subproblem and measures each search against the triangle wave, the
zero-switch colouring: it is the starting best, and an end point
replaces the best only if it is lower by more than _MIN_GAIN.  The
monotone constraint is a filter (`keep`) on the exact slopes, not a term
of the objective: an end point that is not monotone never replaces the
best.  A search that finds nothing better reports the triangle itself,
not a triangle hidden behind near-coincident or boundary-hugging
switches.  A reported model is the best found, not a proven optimum.

The sup question is solved in closed form: no classical model comes
closer to -cos in the sup metric than SUP_OPTIMUM = (5*sqrt(5) - 7)/20,
by the chained Bell inequality rho(pi/m) >= -1 + 2/m at m = 5 (Pearle,
Phys. Rev. D 2, 1970; Braunstein & Caves, Ann. Phys. 202, 1990), and
`sup_optimal_mixture`, (1 - w)*triangle + w*S9 with w = (2 -
pi*sin(pi/5))/20 and S9 the square wave switching at j*pi/9, attains it.
The searches here do not reach it: fixed-k sup searches, measured up to
k = 32, report the triangle, and mixture search takes L2 only.
"""
from __future__ import annotations

import functools
import importlib.util
import math
import sys
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np

from .circle import (
    ANGLE_TOL, PI, TWO_PI, WEIGHT_TOL, Colouring, Mixture, ValidationError, as_mixture,
    mixture_to_dict, triangle_colouring,
)
from .correlation import _differences, _full_period, _half_curve, _kinks, _l2_distance, _sup_peak
from .spectral import FIRST_HARMONIC_COEFF_BOUND

#: No classical curve can get closer to -cos than this in L2: the first
#: harmonic alone contributes at least (1 - 8/pi^2)^2 / 2 to the squared
#: distance, and the sup distance dominates the L2 distance.
MIN_L2_DISTANCE = (1.0 + FIRST_HARMONIC_COEFF_BOUND) / math.sqrt(2.0)

#: No classical curve gets closer to -cos in the sup metric.  The colour
#: flips from x to x + pi, so one of m equal steps flips it: by the union
#: bound and rotation invariance rho(pi/m) >= -1 + 2/m (the chained Bell
#: inequality; linear, so mixtures obey it too), and sup |rho + cos| >=
#: cos(pi/5) - 3/5.  `sup_optimal_mixture` attains it.
SUP_OPTIMUM = (5.0 * math.sqrt(5.0) - 7.0) / 20.0


def sup_optimal_mixture() -> Mixture:
    """(1 - w)*triangle + w*S9, a model at sup distance SUP_OPTIMUM from -cos.

    S9 switches at j*pi/9, j = 1..8, so its rho is the triangle's at 9*gamma.
    Both read -3/5 at pi/5, where every mixture of them meets the chained
    bound, and w = (2 - pi*sin(pi/5))/20 makes the mixture's slope there
    sin(pi/5), so that pi/5 is the peak of rho + cos.
    """
    w = (2.0 - PI * math.sin(PI / 5.0)) / 20.0
    s9 = Colouring(tuple(j * PI / 9.0 for j in range(1, 9)))
    return Mixture(((1.0 - w, triangle_colouring()), (w, s9)))


_COLLAPSE_TOL = 1e-9

#: Function tolerance of every search (L-BFGS-B ftol, which is absolute
#: for values below 1): some 36 ulp of a distance near 0.2, so a search
#: stops instead of chasing last-bit differences.
_FATOL = 1e-15

#: Iteration cap of every search start.
_MAX_ITER = 2000

#: Box bounds of every switch angle a search tries: a switch on a bound
#: stays pi*ANGLE_TOL > ANGLE_TOL away from 0 and pi, as Colouring requires.
_BOUNDS = (PI * ANGLE_TOL, PI * (1.0 - ANGLE_TOL))

#: A candidate replaces the best only if it is lower by more than this; a
#: triangle in disguise is within rounding, 1e-16 to 1e-13, of the triangle.
#: Frank-Wolfe stops once its duality-gap estimate is at most this.
_MIN_GAIN = 1e-12

#: (d, w, slope0) of a model's kinks -> (value, derivative in each d)
_KinkObjective = Callable[[np.ndarray, np.ndarray, float], tuple[float, np.ndarray]]


class InfeasibleStart(RuntimeError):
    """Could not draw a non-degenerate starting point within the retry cap."""


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


def _search_point(theta: np.ndarray) -> tuple[Colouring, np.ndarray, list[int]]:
    """Colouring of sort(theta) less the pairs _surviving collapses; theta's argsort; the kept positions."""
    order = theta.argsort()  # not np.argsort: its dispatch costs ~2 us a call on arrays this small
    th = theta[order].tolist()
    keep = _surviving(th)
    return Colouring(tuple([th[m] for m in keep])), order, keep  # sorted floats: new_colouring would redo both


def _logistic(z: float) -> float:
    """1 / (1 + exp(-z)) with libm's exp, scipy.special.expit(z) bit for bit; 0 where exp(-z) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-z))
    except OverflowError:
        return 0.0


def _start(rng: np.random.Generator, k: int) -> tuple[np.ndarray, Colouring]:
    """Start angles pi * logistic(z), z ~ N(0, 1.5^2), and their colouring, all k switches 1e-6 apart."""
    for _ in range(100):
        theta0 = PI * np.array([_logistic(z) for z in rng.normal(scale=1.5, size=k).tolist()])
        c0 = _search_point(theta0)[0]
        if c0.k == k and np.all(np.diff(c0.switches) > 1e-6):
            return theta0, c0
    raise InfeasibleStart(f"no non-degenerate start found for k={k} after 100 draws")


def _with_gradient(kink_objective: _KinkObjective) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """theta -> (value, gradient) of an objective of the kinks of _search_point(theta)'s colouring.

    kink_objective(d, w, slope0) returns the value and its derivative in
    each kink position.  Kink d = f_j - f_i of the full switch set f moves
    with +1 times f_j and -1 times f_i.  A switch and its copy at +pi share
    one theta; the forced switches at 0 and pi and the switches of a
    collapsed pair move nothing.
    """

    def value_and_grad(theta: np.ndarray) -> tuple[float, np.ndarray]:
        k = theta.size
        c, order, keep = _search_point(theta)
        diffs, jumps, mask = _differences(c)
        i, j = mask.nonzero()
        value, dd = kink_objective(diffs[i, j], jumps[i] * jumps[j], 2.0 * jumps.size)
        owner = np.array([k, *keep, k, *keep])
        dtheta = np.bincount(owner[j], dd, k + 1) - np.bincount(owner[i], dd, k + 1)
        grad = np.empty(k)
        grad[order] = dtheta[:k]
        return value, grad

    return value_and_grad


@functools.cache
def _setulb() -> Callable:
    """setulb from the file of scipy's _lbfgsb extension: scipy.optimize costs a fresh process ~0.5 s, ~40 MB.

    An _lbfgsb already imported is reused.  The loader's sys.modules entry is
    dropped, so a later import of scipy.optimize binds its _lbfgsb as usual.
    """
    name = "scipy.optimize._lbfgsb"
    if name in sys.modules:
        return sys.modules[name].setulb
    scipy = importlib.util.find_spec("scipy")
    for d in scipy.submodule_search_locations if scipy else []:
        spec = FileFinder(f"{d}/optimize", (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
            return module.setulb
    raise ImportError(f"no {name} extension file in scipy: the optimiser needs scipy>=1.17,<1.18")


#: _lbfgsb's end point, with the fields of scipy's OptimizeResult that callers read
_LbfgsbResult = namedtuple("_LbfgsbResult", "x fun nfev nit status success")


def _lbfgsb(value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]], theta0: np.ndarray) -> _LbfgsbResult:
    """L-BFGS-B from theta0 inside _BOUNDS on an objective that returns its exact gradient.

    Every search runs it, with both tolerances near rounding.

    This is scipy 1.17's public L-BFGS-B method (jac=True, ftol=_FATOL,
    gtol=1e-12, maxiter=_MAX_ITER) without its wrappers: the same loop over
    the reverse-communication routine setulb (10 corrections, 20 line-search
    steps, 15000 evaluations), so the same iterates, evaluation count and
    result fields x, fun, nfev, nit, status and success.  As scipy's
    ScalarFunction does, it evaluates the clipped start first and then only
    points that differ from the last one evaluated, and hands setulb a fresh
    copy of that gradient, which setulb may overwrite.  setulb is loaded
    from the _lbfgsb extension's file alone (_setulb); scipy>=1.17,<1.18
    pins its private argument list and that file's location.
    """
    setulb = _setulb()
    m, n, max_fev = 10, theta0.size, 15000
    lower, upper = np.full(n, _BOUNDS[0]), np.full(n, _BOUNDS[1])
    x = theta0.clip(lower, upper)
    x_f = x.tobytes()
    f_x, grad = value_and_grad(x.copy())
    nfev, nit = 1, 0
    f, g = 0.0, np.zeros(n)
    nbd = np.full(n, 2, np.int32)  # both bounds
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    factr = _FATOL / np.finfo(float).eps
    while True:
        setulb(m, x, lower, upper, nbd, f, g, factr, 1e-12, wa, iwa, task, lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # FG: f and g at x
            if x.tobytes() != x_f:  # x > 0 inside the box: equal bytes are np.array_equal's equal values
                x_f = x.tobytes()
                f_x, grad = value_and_grad(x.copy())
                nfev += 1
            f, g = f_x, grad.copy()
        elif task[0] == 1:  # NEW_X
            nit += 1
            if nit >= _MAX_ITER:
                task[:] = 5, 504
            elif nfev > max_fev:
                task[:] = 5, 502
        else:
            break
    status = 0 if task[0] == 4 else 1 if nfev > max_fev or nit >= _MAX_ITER else 2
    return _LbfgsbResult(x, f, nfev, nit, status, status == 0)


def _l2_with_gradient(d: np.ndarray, w: np.ndarray, slope0: float) -> tuple[float, np.ndarray]:
    """L2 distance to -cos of the kinks' rho, and its derivative in each kink position.

    On [0, pi], rho = -1 + (slope0*g + sum w*(g - d)+) / (2*pi) and
    D^2 = (1/pi) * integral of (rho + cos)^2, so
    dD/dd = -w / (2*pi^2*D) * integral from d to pi of (rho + cos): one
    cumulative integral G of rho + cos on the half grid, read at the
    breakpoint _half_curve gave each kink.
    """
    bps, values, _, at = _half_curve(d, w, slope0)
    dist = _l2_distance(bps, values)
    g = np.zeros(bps.size)
    ((bps[1:] - bps[:-1]) * (values[:-1] + values[1:])).cumsum(out=g[1:])
    g = g / 2.0 + np.sin(bps)
    return dist, w * (g[at] - g[-1]) / (TWO_PI * PI * dist)


def _half(c: Colouring) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """_half_curve of rho_c: its breakpoints, values, slopes and kink breakpoints, without a curve object."""
    return _half_curve(*_kinks(((1.0, c),)))


def _sup_with_gradient(d: np.ndarray, w: np.ndarray, slope0: float) -> tuple[float, np.ndarray]:
    """Sup distance to -cos of the kinks' rho, and its derivative in each kink position.

    The distance is taken over the full period, so it is the public sup
    distance of the model's curve bit for bit, as a reported distance must be.

    With rho = -1 + (slope0*g + sum w*(g - d)+) / (2*pi) on [0, pi], F is
    s*h(g*) at _sup_peak's peak g* of |h|, h = rho + cos (read at 2*pi - g*
    past pi), so dF/dd = -s*w / (2*pi) for kinks left of g*, else 0.  The
    kinks on a corner b of h carry it: together s*(rho'(b-) - sin b), by
    weight, with rho'(b-) = slopes[m - 1] / (2*pi) (b > 0: h(0) = 0).
    Where unrelated kinks meet at the peak, F has no gradient.
    """
    bps, values, slopes, at = _half_curve(d, w, slope0)
    dist, row, piece, sign = _sup_peak(*_full_period(bps, values))
    n = bps.size - 1
    corner = row < 2  # a piece endpoint, not a stationary root
    m = min(piece + row, 2 * n - piece - row) if corner else min(piece, 2 * n - 1 - piece)
    left = at < m if corner else at <= m
    grad = (-sign / TWO_PI) * w * left
    on = at == m
    total = w[on].sum() if corner else 0.0
    if total:
        grad[on] = sign * (slopes[m - 1] / TWO_PI - math.sin(bps[m])) * w[on] / total
    return dist, grad


#: metric -> kink objective: the distance that searches minimise and reports read
_METRICS = {"L2": _l2_with_gradient, "sup": _sup_with_gradient}


def _guard_lower_bound(distance: float, metric: str) -> None:
    # A distance below the metric's derived lower bound would disprove the
    # bound itself; treat it as a hard error rather than a result.
    bound = SUP_OPTIMUM if metric == "sup" else MIN_L2_DISTANCE
    if distance < bound - 1e-9:
        raise RuntimeError(f"{metric} distance {distance} below the lower bound {bound}; refusing to report")


def _multistart(
    kink_objective: _KinkObjective, pool_ks: list[int], n_starts: int, seed: int,
    keep: Callable[[Colouring], bool] | None = None,
) -> tuple[Colouring, float, list[tuple[int, float]], list[Colouring]]:
    """n_starts searches from _start for each k in pool_ks, in pool order; none for k = 0.

    Each search is _lbfgsb on _with_gradient(kink_objective), and every
    value, the triangle's and each end point's, is kink_objective's at the
    colouring's kinks.  The triangle is the starting best, and the
    colouring of a search's end point res.x replaces the best only if its
    value is lower by more than _MIN_GAIN (not res.fun: after an ABNORMAL
    line-search exit it need not be the value at res.x) and keep, if
    given, accepts it.  Returns the best colouring and value, (start, best
    value after it) for every start, and the start colourings.
    """
    value_and_grad = _with_gradient(kink_objective)
    rng = np.random.default_rng(seed)
    best_c = triangle_colouring()
    best_v = kink_objective(*_kinks(((1.0, best_c),)))[0]
    trace: list[tuple[int, float]] = []
    starts: list[Colouring] = []
    for k in pool_ks:
        for _ in range(n_starts if k else 0):
            theta0, c0 = _start(rng, k)
            c = _search_point(_lbfgsb(value_and_grad, theta0).x)[0]
            v = kink_objective(*_kinks(((1.0, c),)))[0]
            if v < best_v - _MIN_GAIN and (keep is None or keep(c)):
                best_v, best_c = v, c
            trace.append((len(starts), best_v))
            starts.append(c0)
    return best_c, best_v, trace, starts


def optimise_fixed_k(
    k: int,
    metric: str = "L2",
    n_starts: int = 32,
    seed: int = 0,
    monotone: bool = False,
) -> OptimizationResult:
    """Multi-start search over single colourings with at most k switches.

    The search collapses coincident switch pairs (_surviving), so a start
    may end with fewer switches, down to the triangle wave, the starting
    best of _multistart.  Each start (_start) runs L-BFGS-B on the
    metric's exact gradient inside _BOUNDS, and the reported distance is
    the same kink objective's value.  trace holds (start, best distance
    after it) for every start; k = 0 runs no start and its trace is
    [(0, triangle distance)].  monotone=True runs the same search, keeps
    no end point that is not monotone and counts the starts drawn
    monotone (all of them at k = 0).  The triangle is monotone, so there
    is always a result.
    """
    if k < 0 or k % 2 != 0:
        raise ValidationError(f"k must be even and >= 0, got {k}")
    if n_starts < 1:
        raise ValidationError(f"n_starts must be >= 1, got {n_starts}")
    if metric not in _METRICS:
        raise ValidationError(f"unknown metric {metric!r}")
    keep = (lambda c: bool(_half(c)[2].min() >= 0.0)) if monotone else None
    best_c, best_d, trace, starts = _multistart(_METRICS[metric], [k], n_starts, seed, keep)
    if not trace:  # k = 0: the triangle is the whole search space, and it is monotone
        trace, starts = [(0, best_d)], [best_c] * n_starts

    _guard_lower_bound(best_d, metric)
    return OptimizationResult(
        as_mixture(best_c), best_d, metric, trace, "monotone" if monotone else "none",
        feasible_starts=sum(map(keep, starts)) if monotone else None,
    )


def _linear_value(bm: np.ndarray, vm: np.ndarray) -> _KinkObjective:
    """Kinks of c -> <rho_c, rho_m + cos> and its derivative in each kink position.

    rho_m is given by its half-period arrays (bm, vm), and c may be a
    mixture as well as a colouring.  This is the Frank-Wolfe subproblem's
    objective and its one inner-product engine.  Let G1 and G2 be the
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


def _linear_subproblem(lin: _KinkObjective, pool_ks: list[int], seed: int, n_starts: int) -> tuple[Colouring, float]:
    """Approximately minimise lin = <rho_c, rho_m + cos> over single colourings."""
    return _multistart(lin, pool_ks, n_starts, seed)[:2]


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
    if not pool:
        raise ValidationError("pool must name at least one k")
    for k in pool:
        if k < 0 or k % 2 != 0:
            raise ValidationError(f"pool entries must be even and >= 0, got {k}")

    # colouring -> weight, in insertion order
    model = {triangle_colouring(): 1.0}
    best_model = Mixture(((1.0, triangle_colouring()),))
    kinks_m = _kinks(best_model.components)
    half_m = _half_curve(*kinks_m)[:2]
    lin, best_d = _linear_value(*half_m), _l2_distance(*half_m)
    trace: list[tuple[int, float]] = [(0, best_d)]
    gaps: list[float] = []

    seeds = np.random.SeedSequence(seed).generate_state(n_iterations)
    for it in range(1, n_iterations + 1):
        c_new, v_new = _linear_subproblem(lin, pool, int(seeds[it - 1]), subproblem_starts)
        lin_m = lin(*kinks_m)[0]
        gap = lin_m - v_new  # duality-gap estimate; >= 0 up to subproblem error
        gaps.append(gap)
        if gap <= _MIN_GAIN:
            trace.append((it, best_d))
            break

        # ||rho_new - rho_m||^2 from the tables of rho_m (lin) and rho_new (lin_new)
        kinks_new = _kinks(((1.0, c_new),))
        lin_new = _linear_value(*_half_curve(*kinks_new)[:2])
        dd = lin_new(*kinks_new)[0] - lin_new(*kinks_m)[0] - lin(*kinks_new)[0] + lin_m
        if not dd > 0.0:  # NaN included
            trace.append((it, best_d))
            continue
        step = min(gap / dd, 1.0)

        model = {c: w * (1.0 - step) for c, w in model.items()}
        model[c_new] = model.get(c_new, 0.0) + step

        # prune negligible weights, renormalise to machine precision
        model = {c: w for c, w in model.items() if w >= WEIGHT_TOL}
        total = sum(model.values())
        model = {c: w / total for c, w in model.items()}

        mixture = Mixture(tuple((w, c) for c, w in model.items()))
        kinks_m = _kinks(mixture.components)
        half_m = _half_curve(*kinks_m)[:2]
        lin, d = _linear_value(*half_m), _l2_distance(*half_m)
        if d < best_d - _MIN_GAIN:
            best_d, best_model = d, mixture
        trace.append((it, best_d))

    _guard_lower_bound(best_d, metric)
    return OptimizationResult(best_model, best_d, metric, trace, "none", gaps=gaps)
