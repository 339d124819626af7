"""Reference oracle for `run_experiment`: the whole-array body it replaced.

Every step runs on whole arrays of per-run values, as before the blocked
kernel: each run's settings are gathered from the pairs, the
component comes from `rng.choice(p=)`, the quantum law is computed per
run, and one `np.bincount` counts all runs.  The classical outcomes are
`concatenated_classical_outcomes`, which the library's bin-table lookup
matches bit for bit.  For the same seed the oracle gives the library's
counts, as a dict from each pair with runs to its row; a pair listed
twice keeps its first listing with runs as the dict key.

`per_key_correlation` is the scalar estimate and standard error of one
row, in Python ints and floats, which `empirical_correlation` must match
bit for bit.
"""
import math

import numpy as np

from colour_oracle import concatenated_classical_outcomes


def _draw(pairs, n, rng):
    """Each run's (alpha, beta) and pair index."""
    settings = np.array(pairs, float)
    idx = rng.integers(len(pairs), size=n)
    return settings[idx, 0], settings[idx, 1], idx


def _quantum_outcomes(alphas, betas, rng):
    """Singlet-law outcomes (a, b) of runs at the per-run settings (alphas, betas)."""
    n = alphas.size
    a = rng.choice(np.array([1, -1]), size=n)
    p_equal = 0.5 * (1.0 - np.cos(np.remainder(alphas, 2 * math.pi) - np.remainder(betas, 2 * math.pi)))
    b = np.where(rng.random(n) < p_equal, a, -a)
    return a, b


def per_key_correlation(cells):
    """(estimate, standard error) of one row [n++, n+-, n-+, n--]."""
    npp, npm, nmp, nmm = (int(x) for x in cells)
    n = npp + npm + nmp + nmm
    est = (npp + nmm - npm - nmp) / n
    return est, math.sqrt(max(1.0 - est * est, 0.0) / n)


def whole_array_run_experiment(model, pairs, n_runs, seed):
    """{pair: count row} for run_experiment's arguments."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    alphas, betas, idx = _draw(pairs, n_runs, rng)
    if model is None:
        a, b = _quantum_outcomes(alphas, betas, rng)
    else:
        a, b = concatenated_classical_outcomes(model, alphas, betas, rng)
    cells = (a < 0) * 2 + (b < 0)
    counts = np.bincount(idx * 4 + cells, minlength=4 * len(pairs)).reshape(-1, 4)
    table = {}
    for key, row in zip(pairs, counts):
        if row.any():
            table[key] = table[key] + row if key in table else row
    return table
