"""Reference oracle for `run_experiment`: the whole-array body it replaced.

Every step runs on whole arrays of per-run values, as before the blocked
kernel: the sampler gathers each run's settings from its pairs, the
component comes from `rng.choice(p=)`, the quantum law is computed per
run, and one `np.bincount` counts all runs.  The classical outcomes are
`concatenated_classical_outcomes`, which the library's bin-table lookup
matches bit for bit.  For the same seed the oracle gives the library's
count table and leaves its generator in the same state.
"""
import numpy as np

from spindisk import CountTable, UniformSampler
from spindisk.circle import TWO_PI

from colour_oracle import concatenated_classical_outcomes


def _draw(sampler, n, rng):
    """Each run's (alpha, beta) and key index, drawn as the samplers draw them."""
    if isinstance(sampler, UniformSampler):
        n_bins = len(sampler.keys)
        alphas, betas = rng.uniform(0.0, TWO_PI, n), rng.uniform(0.0, TWO_PI, n)
        gammas = np.remainder(betas - alphas, TWO_PI)
        idx = np.minimum((gammas * (n_bins / TWO_PI)).astype(np.intp), n_bins - 1)
        return alphas, betas, idx
    settings = np.array(sampler.keys)
    idx = rng.integers(len(sampler.keys), size=n)
    return settings[idx, 0], settings[idx, 1], idx


def _quantum_outcomes(alphas, betas, rng):
    n = alphas.size
    a = rng.choice(np.array([1, -1]), size=n)
    p_equal = 0.5 * (1.0 - np.cos(alphas - betas))
    b = np.where(rng.random(n) < p_equal, a, -a)
    return a, b


def whole_array_run_experiment(model, sampler, n_runs, seed):
    """(count table, generator after the last draw) for run_experiment's arguments."""
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    alphas, betas, idx = _draw(sampler, n_runs, rng)
    if model is None:
        a, b = _quantum_outcomes(alphas, betas, rng)
    else:
        a, b = concatenated_classical_outcomes(model, alphas, betas, rng)
    cells = (a < 0) * 2 + (b < 0)
    counts = np.bincount(idx * 4 + cells, minlength=4 * len(sampler.keys)).reshape(-1, 4)
    table = CountTable()
    for (alpha, beta), row in zip(sampler.keys, counts):
        if row.any():
            table.add(alpha, beta, row)
    return table, rng
