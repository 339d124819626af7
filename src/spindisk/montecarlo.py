"""Monte Carlo simulation of the two-station experiment.

The classical simulator draws a colouring component, spins the disk by a
uniform rotation u and reads off a = colour(alpha - u), b = -colour(beta - u):
each outcome depends only on the shared (component, rotation) pair and the
local setting.  The quantum simulator samples the four-cell joint law
Pr(++) = Pr(--) = (1 - cos(alpha-beta))/4, Pr(+-) = Pr(-+) = (1 + cos)/4.

Each run draws the index of its setting pair in the caller's list.  The
random arrays are drawn whole (that index, the rotation u, the component
pick), then the classical per-run work (settings read by index,
component and colour lookup) and the count (outcome cell, one
`np.bincount` over (index, cell)) go in blocks of `_RUN_BLOCK` runs; the
singlet law runs on whole arrays.  The result is a `CountTable`: the
sorted pairs that got runs and one (rows, 4) count array, from which
`empirical_correlation` reads the estimate and standard error columns.

Both lookups of a classical run, its mixture component and its colour,
gather from a table of uniform bins (`_bin_table`, the indexed search of
Chen & Asau 1974 and Devroye 1986, sec. III.2.4), bit for bit the
`searchsorted` each replaces.  A bin that holds no point stores the
answer, so a lookup is one multiply and one gather; only the queries
that land in a bin holding a point fall back to `searchsorted`.  The
component table stores the component's shift 2*pi*c over choice's cdf.
The colour table spans the components' switch sets laid end to end, and
its fallback queries are kept and read in one `searchsorted` per station
after the blocks.  Both simulators reduce each setting mod 2*pi before
subtracting.

All randomness flows from one child of numpy's SeedSequence(seed), so
results are reproducible per seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, Colouring, Mixture, ValidationError, as_mixture, colours, full_switch_set


@dataclass(frozen=True)
class CountTable:
    """Outcome counts: int64 row counts[j] is [n++, n+-, n-+, n--] at pairs[j], pairs sorted."""

    pairs: list[tuple[float, float]]
    counts: np.ndarray


#: Runs per block of the per-run work, so that its temporaries stay in cache.
_RUN_BLOCK = 8192

#: Table bins per point (switch or cdf entry) in `classical_outcomes`.  A
#: query lands in a bin that holds a point, and takes `searchsorted`, about
#: once in this many.
_BINS_PER_SWITCH = 64


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of at most _RUN_BLOCK runs that cover range(n)."""
    return [slice(i, i + _RUN_BLOCK) for i in range(0, n, _RUN_BLOCK)]


def _bin_table(points: np.ndarray, scale: float, n_bins: int, values: np.ndarray, mark: float) -> np.ndarray:
    """Gather table for `searchsorted(points, x, side="right")` over uniform bins.

    Entry b serves the queries x with int(x * scale) == b, b = 0..n_bins.
    Rounding x * scale is monotone in x, so a query whose bin holds no
    point is strictly ordered against every point, and its count of points
    <= x is the number of points in lower bins: the entry stores
    values[count].  The entry of a bin that holds a point stores `mark`,
    and its queries must take `searchsorted` over the sorted points.
    """
    held = (points * scale).astype(np.intp)
    table = values[held.searchsorted(np.arange(n_bins + 1))]
    table[held] = mark
    return table


def classical_outcomes(
    model: Mixture | Colouring,
    alphas: np.ndarray,
    betas: np.ndarray,
    pair_idx: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical runs at settings (alphas, betas)[pair_idx]; (a, b) int8 arrays of +-1.

    Each setting x is reduced mod 2*pi once.  Component c's full switch set
    is shifted by 2*pi*c and the shifted sets are concatenated into one
    sorted array S, in which a run of component c looks up
    q = remainder(x - u, 2*pi) + 2*pi*c; `circle.colours` reads its colour
    from the parity of the number of switches <= q.  Every full switch set
    has even length, so the parity of the global count is that of the
    local one.  Adding 2*pi*c rounds to the spacing of floats near 2*pi*n
    for n components, so an angle within about ulp(2*pi*n) of one of a
    component's 2k+2 switches (the one at 0 read as 2*pi too) can land on
    the wrong side of it and flip its colour.  That happens with
    probability about 2*(2k+2)*ulp(2*pi*n)/(2*pi) per run, k the largest
    switch count: ~4e-14 for n = 4, k = 16 and ~1e-11 for n = 1000.  A
    single colouring is not shifted.

    Two `_bin_table`s stand in for `searchsorted`.  The component is drawn
    as `rng.choice(n_comp, n, p=weights)` draws it: one `random` per run,
    placed in choice's own cdf.  Its table has m = _BINS_PER_SWITCH *
    n_comp bins over [0, 1), plus bin m, which holds cdf[-1] = 1 (no pick
    reaches it: (1 - 2**-53) * m rounds below m); it stores the shift
    2*pi*c, and a pick in a bin that holds a cdf point takes `searchsorted`
    in the cdf.  The colour table has _BINS_PER_SWITCH * len(S) bins over
    [0, 2*pi*n), plus the bin where q = 2*pi*n lands, and stores the
    colour.  The queries that meet a bin holding a switch are kept with
    their positions, and each station reads them with one
    `circle.colours` over S after the blocks.  The colours are thus
    exactly those of one `searchsorted` over S, the switch at 0 read as
    2*pi at a boundary between components included.

    Resolving them inside their block instead measured slower: with no
    kept array left above the per-run arrays when a call ends, glibc's
    malloc can trim the heap, and each 200k-run call then takes ~1300
    more page faults (`sim` -17% in 4 of 6 runs on a 2-vCPU VM).
    """
    mix = as_mixture(model)
    n_comp = len(mix.components)
    n = pair_idx.size
    u = rng.uniform(0.0, TWO_PI, n)
    if n_comp > 1:
        weights = np.array([w for w, _ in mix.components])
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        pick = rng.random(n)
        m = _BINS_PER_SWITCH * n_comp
        shifts = _bin_table(cdf, m, m, TWO_PI * np.arange(n_comp + 1), -1.0)
    switches = np.concatenate([
        np.array(full_switch_set(c)) + TWO_PI * ci for ci, (_, c) in enumerate(mix.components)
    ])
    n_bins = _BINS_PER_SWITCH * switches.size
    scale = n_bins / (TWO_PI * n_comp)
    # the colour after 0, 1, 2, ... switches; 0 marks a bin that holds one
    table = _bin_table(switches, scale, n_bins, np.resize(np.int8([-1, 1]), switches.size + 1), 0)

    alphas, betas = np.remainder(alphas, TWO_PI), np.remainder(betas, TWO_PI)
    a, b = np.empty(n, np.int8), np.empty(n, np.int8)
    # per station: positions and queries of the lookups that met a marked bin
    late_pos = ([np.empty(0, np.intp)], [np.empty(0, np.intp)])
    late_q = ([np.empty(0)], [np.empty(0)])
    for s in _blocks(n):
        shift = 0.0
        if n_comp > 1:
            p = pick[s]
            shift = shifts[(p * m).astype(np.intp)]
            lost = np.flatnonzero(shift < 0.0)
            shift[lost] = TWO_PI * cdf.searchsorted(p[lost], side="right")
        for x, out, pos, qs in zip((alphas, betas), (a, b), late_pos, late_q):
            q = x[pair_idx[s]] - u[s]
            q += (q < 0) * TWO_PI  # remainder(q, 2*pi) bit for bit below 2*pi: fmod is exact there
            q += shift
            col = table[(q * scale).astype(np.intp)]
            marked = np.flatnonzero(col == 0)
            pos.append(marked + s.start)
            qs.append(q[marked])
            out[s] = col
    for out, pos, qs in zip((a, b), late_pos, late_q):
        out[np.concatenate(pos)] = colours(switches, np.concatenate(qs))
    return a, -b


def quantum_outcomes(
    alphas: np.ndarray, betas: np.ndarray, pair_idx: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Samples from the four-cell singlet law at settings (alphas, betas)[pair_idx]."""
    n = pair_idx.size
    a = rng.choice(np.array([1, -1], np.int8), size=n)
    equal = rng.random(n)
    # reduced first: alpha - beta of two finite settings can overflow to inf
    p_equal = 0.5 * (1.0 - np.cos(np.remainder(alphas, TWO_PI) - np.remainder(betas, TWO_PI)))
    return a, np.where(equal < p_equal[pair_idx], a, -a)


def run_experiment(
    model: Mixture | Colouring | None, pairs: list[tuple[float, float]], *, n_runs: int, seed: int = 0
) -> CountTable:
    """Run independent trials at setting pairs drawn uniformly from `pairs`; counts per pair.

    model=None samples the quantum singlet law instead of a classical
    model.  Deterministic given seed: the stream is the first child of
    SeedSequence(seed).  A pair with no runs gets no table row.  Pairs
    listed twice (equal under ==, as 0.0 and -0.0 are) share one row, under
    the first listed pair that got runs.  Rows follow the sorted pairs.
    """
    keys = [(float(a), float(b)) for a, b in pairs]
    if not keys or not np.isfinite(keys).all():
        raise ValidationError("setting pairs must be non-empty and finite")
    if n_runs < 1:
        raise ValidationError("n_runs must be >= 1")
    alphas, betas = np.array(keys).T.copy()
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    pair_idx = rng.integers(len(keys), size=n_runs)
    if model is None:
        a, b = quantum_outcomes(alphas, betas, pair_idx, rng)
    else:
        a, b = classical_outcomes(model, alphas, betas, pair_idx, rng)
    counts = np.zeros((len(keys), 4), np.int64)
    for s in _blocks(n_runs):
        cells = (a[s] < 0) * 2 + (b[s] < 0)  # 0:++ 1:+- 2:-+ 3:--
        counts += np.bincount(pair_idx[s] * 4 + cells, minlength=counts.size).reshape(-1, 4)
    rows = {}
    for key, cells in zip(keys, counts):
        if cells.any():
            rows[key] = rows.get(key, 0) + cells
    order = sorted(rows)
    return CountTable(order, np.array([rows[key] for key in order]))


def empirical_correlation(table: CountTable) -> tuple[np.ndarray, np.ndarray]:
    """(correlation estimate, standard error) arrays, one entry per table row."""
    npp, npm, nmp, nmm = table.counts.T
    n = table.counts.sum(axis=1)
    est = (npp + nmm - npm - nmp) / n
    return est, np.sqrt(np.maximum(1.0 - est * est, 0.0) / n)
