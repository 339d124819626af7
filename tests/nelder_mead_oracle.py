"""Reference oracles: the fixed-k L2 and sup searches as derivative-free Nelder-Mead, and scipy's start angles.

`nelder_mead_fixed_k` is the original body of `optimise_fixed_k` for the
L2 metric without the monotone constraint: the same starts from the same
generator, the value-only objective on the half-period arrays, and a
simplex with xatol = tol and fatol = tol**2.  Like the original it
searches logistic parameters z, whose switches are pi *
sort(clip(expit(z))), so it needs no bounds.

`nelder_mead_sup_fixed_k` is the sup search as `optimise_fixed_k` ran it
before the sup metric had a gradient: the starts of `_start`, the switch
angles themselves inside `_BOUNDS`, the value-only sup distance of the
half-period arrays over the full period, and a simplex with xatol = 1e-9
and fatol = `_FATOL`.

The tests require the gradient searches to end no farther from -cos and
to spend far fewer objective evaluations.

`expit_start` is `_start` as it drew its angles with scipy.special.expit;
`_start`'s own logistic must equal it bit for bit.
"""
import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from spindisk.circle import ANGLE_TOL, PI
from spindisk.correlation import _full_period, _l2_distance, _sup_distance, exact_correlation, l2_distance_to_cosine
from spindisk.optimize import _BOUNDS, _FATOL, _MAX_ITER, _half, _search_point, _start


def _colouring(z):
    """The colouring of logistic parameters z; a clipped switch stays inside (0, pi)."""
    return _search_point(PI * np.clip(expit(z), ANGLE_TOL, 1.0 - ANGLE_TOL))[0]


def expit_start(rng, k):
    """The start angles pi * expit(z) that `_start` returns, drawn and retried as `_start` does."""
    for _ in range(100):
        theta0 = PI * expit(rng.normal(scale=1.5, size=k))
        c0 = _search_point(theta0)[0]
        if c0.k == k and np.all(np.diff(c0.switches) > 1e-6):
            return theta0


def nelder_mead_fixed_k(k, n_starts=32, seed=0, tol=1e-9, max_iter=2000):
    """(best L2 distance, total objective evaluations) over n_starts simplex runs."""

    def objective(z):
        return _l2_distance(*_half(_colouring(z))[:2])

    rng = np.random.default_rng(seed)
    best_d, nfev = math.inf, 0
    for _ in range(n_starts):
        for _ in range(100):
            z0 = rng.normal(scale=1.5, size=k)
            c0 = _colouring(z0)
            if c0.k == k and np.all(np.diff(c0.switches) > 1e-6):
                break
        res = minimize(
            objective,
            z0,
            method="Nelder-Mead",
            options={"xatol": tol, "fatol": tol * tol, "maxiter": max_iter, "maxfev": 4 * max_iter},
        )
        nfev += res.nfev
        c = _colouring(res.x)
        best_d = min(best_d, l2_distance_to_cosine(exact_correlation(c)))
    return best_d, nfev


def nelder_mead_sup_fixed_k(k, n_starts=32, seed=0):
    """(best sup distance, total objective evaluations) over n_starts bounded simplex runs."""

    def objective(theta):
        return _sup_distance(*_full_period(*_half(_search_point(theta)[0])[:2]))

    options = {"xatol": 1e-9, "fatol": _FATOL, "maxiter": _MAX_ITER, "maxfev": 4 * _MAX_ITER}
    rng = np.random.default_rng(seed)
    best_d, nfev = math.inf, 0
    for _ in range(n_starts):
        res = minimize(objective, _start(rng, k)[0], method="Nelder-Mead", bounds=[_BOUNDS] * k, options=options)
        nfev += res.nfev
        best_d = min(best_d, objective(res.x))
    return best_d, nfev
