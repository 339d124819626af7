"""Reference oracle: classical outcomes by one boolean mask per component.

This is the original colour lookup of `classical_outcomes`: draw the
rotation u and the component index, then for each component select its
runs with a mask and look their colours up in that component's own switch
set.  It draws from the rng exactly as spindisk.montecarlo does, so for
the same rng state both give the same (a, b) arrays; the tests compare
the single concatenated lookup against it.
"""
import numpy as np

from spindisk.circle import TWO_PI, as_mixture, full_switch_set


def _colours_at(c, x):
    f = np.array(full_switch_set(c))
    idx = np.searchsorted(f, np.remainder(x, TWO_PI), side="right") - 1
    return 1 - 2 * (idx & 1)


def masked_classical_outcomes(model, alphas, betas, rng):
    mix = as_mixture(model)
    n = alphas.size
    u = rng.uniform(0.0, TWO_PI, n)
    if len(mix.components) == 1:
        comp_idx = np.zeros(n, dtype=int)
    else:
        weights = np.array([w for w, _ in mix.components])
        comp_idx = rng.choice(len(mix.components), size=n, p=weights / weights.sum())
    a = np.empty(n, dtype=np.int64)
    b = np.empty(n, dtype=np.int64)
    for ci, (_, c) in enumerate(mix.components):
        sel = comp_idx == ci
        if not np.any(sel):
            continue
        a[sel] = _colours_at(c, alphas[sel] - u[sel])
        b[sel] = -_colours_at(c, betas[sel] - u[sel])
    return a, b
