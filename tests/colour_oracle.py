"""Reference oracles for the colour lookup of `classical_outcomes`.

Both draw from the rng exactly as spindisk.montecarlo does: the rotation
u, then the component index.  For the same rng state they give the same
(a, b) arrays as the library.

- `masked_classical_outcomes` is the original lookup: one boolean mask per
  component and that component's own switch set.  It may differ from the
  library within ulp(2*pi*n) of a shifted switch (see `classical_outcomes`).
- `concatenated_classical_outcomes` reduces each setting mod 2*pi, then
  takes one `np.remainder` and one `searchsorted` over the components'
  switch sets laid end to end (`concatenated_outcomes_at`, which takes the
  rotations and components as arguments).  Both table lookups must match it
  bit for bit.

`segments` walks a colouring's constant-colour arcs, the oracle of
`circle.colours`, and `segment_spectrum` is the per-arc body that
`spectral.colouring_spectrum` must match byte for byte.
"""
import numpy as np

from spindisk.circle import TWO_PI, as_mixture, full_switch_set


def segments(c):
    """Constant-colour arcs as (start, end, colour), covering [0, 2*pi)."""
    f = full_switch_set(c)
    ends = f[1:] + (TWO_PI,)
    return [(a, b, 1 if i % 2 == 0 else -1) for i, (a, b) in enumerate(zip(f, ends))]


def segment_spectrum(c, n_max):
    """Complex fhat_n for n = 0..n_max, one exp table per arc end."""
    segs = segments(c)
    starts = np.array([a for a, _, _ in segs])
    ends = np.array([b for _, b, _ in segs])
    cols = np.array([v for _, _, v in segs], dtype=float)

    n = np.arange(1, n_max + 1)
    e_hi = np.exp(-1j * n[:, None] * ends[None, :])
    e_lo = np.exp(-1j * n[:, None] * starts[None, :])
    coeffs = np.zeros(n_max + 1, dtype=complex)
    coeffs[1:] = ((e_hi - e_lo) * cols[None, :]).sum(axis=1) / (-1j * n * TWO_PI)
    coeffs[0] = float(np.sum(cols * (ends - starts))) / TWO_PI
    return coeffs


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


def concatenated_classical_outcomes(model, alphas, betas, rng):
    mix = as_mixture(model)
    n = alphas.size
    u = rng.uniform(0.0, TWO_PI, n)
    if len(mix.components) == 1:
        comp_idx = 0
    else:
        weights = np.array([w for w, _ in mix.components])
        comp_idx = rng.choice(len(mix.components), size=n, p=weights / weights.sum())
    return concatenated_outcomes_at(model, alphas, betas, u, comp_idx)


def concatenated_outcomes_at(model, alphas, betas, u, comp_idx):
    """(a, b) of runs at rotations u in components comp_idx, by one searchsorted over S."""
    switches = np.concatenate([
        np.array(full_switch_set(c)) + TWO_PI * ci for ci, (_, c) in enumerate(as_mixture(model).components)
    ])
    shift = TWO_PI * comp_idx if np.ndim(comp_idx) else 0.0

    def colours(x):
        idx = np.searchsorted(switches, np.remainder(np.remainder(x, TWO_PI) - u, TWO_PI) + shift, side="right") - 1
        return 1 - 2 * (idx & 1)

    return colours(alphas), -colours(betas)
