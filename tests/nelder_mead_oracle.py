"""Reference oracle: the fixed-k L2 search as derivative-free Nelder-Mead.

This is the original body of `optimise_fixed_k` for the L2 metric without
the monotone constraint: the same starts from the same generator, the
value-only objective on the half-period arrays, and a simplex with
xatol = tol and fatol = tol**2.  The tests require the gradient search to
end no farther from -cos and to spend far fewer objective evaluations.
"""
import math

import numpy as np
from scipy.optimize import minimize

from spindisk.correlation import _l2_distance, exact_correlation, l2_distance_to_cosine
from spindisk.optimize import _half, _search_point


def nelder_mead_fixed_k(k, n_starts=32, seed=0, tol=1e-9, max_iter=2000):
    """(best L2 distance, total objective evaluations) over n_starts simplex runs."""

    def objective(z):
        return _l2_distance(*_half(_search_point(z)[0]))

    rng = np.random.default_rng(seed)
    best_d, nfev = math.inf, 0
    for _ in range(n_starts):
        for _ in range(100):
            z0 = rng.normal(scale=1.5, size=k)
            c0 = _search_point(z0)[0]
            if c0.k == k and np.all(np.diff(c0.switches) > 1e-6):
                break
        res = minimize(
            objective,
            z0,
            method="Nelder-Mead",
            options={"xatol": tol, "fatol": tol * tol, "maxiter": max_iter, "maxfev": 4 * max_iter},
        )
        nfev += res.nfev
        c = _search_point(res.x)[0]
        best_d = min(best_d, l2_distance_to_cosine(exact_correlation(c)))
    return best_d, nfev
