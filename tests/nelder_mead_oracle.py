"""Reference oracle: the fixed-k L2 search as derivative-free Nelder-Mead.

This is the original body of `optimise_fixed_k` for the L2 metric without
the monotone constraint: the same starts from the same generator, the
value-only objective on the half-period arrays, and a simplex with
xatol = tol and fatol = tol**2.  Like the original it searches logistic
parameters z, whose switches are pi * sort(clip(expit(z))), so it needs
no bounds.  The tests require the gradient search to end no farther from
-cos and to spend far fewer objective evaluations.
"""
import math

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from spindisk.circle import ANGLE_TOL, PI
from spindisk.correlation import _l2_distance, exact_correlation, l2_distance_to_cosine
from spindisk.optimize import _half, _search_point


def _colouring(z):
    """The colouring of logistic parameters z; a clipped switch stays inside (0, pi)."""
    return _search_point(PI * np.clip(expit(z), ANGLE_TOL, 1.0 - ANGLE_TOL))[0]


def nelder_mead_fixed_k(k, n_starts=32, seed=0, tol=1e-9, max_iter=2000):
    """(best L2 distance, total objective evaluations) over n_starts simplex runs."""

    def objective(z):
        return _l2_distance(*_half(_colouring(z)))

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
