"""Monte Carlo simulation of the two-station experiment.

The classical simulator draws a colouring component, spins the disk by a
uniform rotation u and reads off a = colour(alpha - u), b = -colour(beta - u):
each outcome depends only on the shared (component, rotation) pair and the
local setting.  The quantum simulator samples the four-cell joint law
Pr(++) = Pr(--) = (1 - cos(alpha-beta))/4, Pr(+-) = Pr(-+) = (1 + cos)/4.

A sampler declares its table keys up front and returns its setting pairs
with each run's pair index and key index; `UniformSampler` draws a pair
per run and keys its runs by gamma bin.  The random arrays are drawn
whole (the sampler's, the rotation u, the component), then the per-run
work (settings read by pair index, colour lookup, outcome cell and one
`np.bincount` over (key index, cell)) goes in blocks of `_RUN_BLOCK` runs.

A mixture's colours are read from its components' switch sets laid end to
end, through a table of uniform bins built once per call: a bin that holds
no switch stores its colour, so a station's colours are one multiply and
one gather, and only the queries that land in a bin holding a switch fall
back to `searchsorted`.  Settings in [0, 2*pi) are wrapped by adding 2*pi
to a negative difference, bit for bit the `np.remainder` it replaces;
other settings take the plain `np.remainder`, then the same table.

All randomness flows from one child of numpy's SeedSequence(seed), so
results are reproducible per seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circle import TWO_PI, Colouring, Mixture, as_mixture, colours, full_switch_set


class InvalidSampler(ValueError):
    """Setting sampler has an empty setting set or a non-finite setting."""


@dataclass
class CountTable:
    """Outcome counts per setting pair: [n++, n+-, n-+, n--]."""

    counts: dict[tuple[float, float], np.ndarray] = field(default_factory=dict)

    def add(self, alpha: float, beta: float, cells: np.ndarray) -> None:
        key = (alpha, beta)
        if key in self.counts:
            self.counts[key] = self.counts[key] + cells
        else:
            self.counts[key] = cells.astype(np.int64)

    def n_runs(self) -> int:
        return int(sum(c.sum() for c in self.counts.values()))

    def pairs(self) -> list[tuple[float, float]]:
        return sorted(self.counts)


_GAMMA_BINS = 360

#: Runs per block of the per-run work, so that its temporaries stay in cache.
_RUN_BLOCK = 8192

#: Colour-table bins per switch in `classical_outcomes`.  A query lands in a
#: bin that holds a switch, and takes `searchsorted`, about once in this many.
_BINS_PER_SWITCH = 64


def _wrap(d: np.ndarray) -> np.ndarray:
    """np.remainder(d, 2*pi) in place and bit for bit, for d in [-2*pi, 2*pi).

    fmod is exact on that range, so np.remainder returns d itself or the
    same rounded d + 2*pi, and a zero as +0.0, as d + 0.0 does.
    """
    d += (d < 0) * TWO_PI
    return d


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of at most _RUN_BLOCK runs that cover range(n)."""
    return [slice(i, i + _RUN_BLOCK) for i in range(0, n, _RUN_BLOCK)]


# A sampler has `keys`, the list of (alpha, beta) table keys, and
# `draw(n, rng) -> (alphas, betas, pair_idx, key_idx)`: the setting pairs
# (alphas[j], betas[j]), and for run i its pair pair_idx[i] and its key
# keys[key_idx[i]].

class GridSampler:
    """Settings drawn uniformly from a finite list of pairs; one pair fixes them."""

    def __init__(self, pairs: list[tuple[float, float]]):
        if not pairs:
            raise InvalidSampler("setting grid is empty")
        self.keys = [(float(a), float(b)) for a, b in pairs]
        if not np.isfinite(self.keys).all():
            raise InvalidSampler("setting grid holds a non-finite setting")
        self._alphas, self._betas = np.array(self.keys).T.copy()

    def draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        idx = rng.integers(len(self.keys), size=n)
        return self._alphas, self._betas, idx, idx


class UniformSampler:
    """Independent uniform settings on [0, 2*pi) for both stations.

    Runs are counted in _GAMMA_BINS equal bins of gamma = beta - alpha (mod
    2*pi), keyed (0, bin centre).  The spinning disk makes rho depend on
    gamma alone, so the bin's gamma is the only meaningful key; a key per
    drawn pair would give every run its own table row.
    """

    def __init__(self):
        self.keys = [(0.0, (j + 0.5) * TWO_PI / _GAMMA_BINS) for j in range(_GAMMA_BINS)]

    def draw(self, n: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        alphas, betas = rng.uniform(0.0, TWO_PI, n), rng.uniform(0.0, TWO_PI, n)
        gammas = _wrap(betas - alphas)
        idx = np.minimum((gammas * (_GAMMA_BINS / TWO_PI)).astype(np.intp), _GAMMA_BINS - 1)
        return alphas, betas, np.arange(n), idx


def classical_outcomes(
    model: Mixture | Colouring,
    alphas: np.ndarray,
    betas: np.ndarray,
    pair_idx: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Classical runs at settings (alphas, betas)[pair_idx]; (a, b) int8 arrays of +-1.

    Component c's full switch set is shifted by 2*pi*c and the shifted sets
    are concatenated into one sorted array S, in which a run of component c
    looks up q = remainder(x - u, 2*pi) + 2*pi*c; `circle.colours` reads
    its colour from the parity of the number of switches <= q.  Every full
    switch set has even length, so the parity of the global count is that
    of the local one.  Adding
    2*pi*c rounds to the spacing of floats near 2*pi*n for n components,
    so an angle within about ulp(2*pi*n) of one of a component's 2k+2
    switches (the one at 0 read as 2*pi too) can land on the wrong side of
    it and flip its colour.  That happens with probability about
    2*(2k+2)*ulp(2*pi*n)/(2*pi) per run, k the largest switch count: ~4e-14
    for n = 4, k = 16 and ~1e-11 for n = 1000.  A single colouring is not
    shifted.

    The count comes from a table of m = _BINS_PER_SWITCH * len(S) uniform
    bins over [0, 2*pi*n], built once per call: q falls in bin
    int(q * scale), scale = m / (2*pi*n).  Rounding q * scale is monotone
    in q, so a query whose bin holds no switch is strictly ordered against
    every switch, and its count is the number of switches in lower bins;
    the table stores that colour.  A bin that holds a switch stores 0, and
    its queries take `searchsorted` over S.  The colours are thus exactly
    those of one `searchsorted` over S, the switch at 0 read as 2*pi at a
    boundary between components included.  A station whose settings are
    not all in [0, 2*pi) is reduced by `np.remainder` instead of `_wrap`,
    which holds only on that range; both land in [0, 2*pi].

    The component is drawn as `rng.choice(n_comp, n, p=weights)` draws it:
    one `random` per run, placed by `searchsorted` in choice's own cdf.
    """
    mix = as_mixture(model)
    n = pair_idx.size
    u = rng.uniform(0.0, TWO_PI, n)
    cdf = None
    if len(mix.components) > 1:
        weights = np.array([w for w, _ in mix.components])
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        pick = rng.random(n)
    switches = np.concatenate([
        np.array(full_switch_set(c)) + TWO_PI * ci for ci, (_, c) in enumerate(mix.components)
    ])
    n_bins = _BINS_PER_SWITCH * switches.size
    scale = n_bins / (TWO_PI * len(mix.components))
    bins = (switches * scale).astype(np.intp)
    # bin b holds the colour after the switches in bins <= b - 1; rounding
    # can put a query at 2*pi*n in bin n_bins itself
    table = colours(bins, np.arange(-1, n_bins)).astype(np.int8)
    table[bins] = 0

    in_range = [x.min(initial=0.0) >= 0.0 and x.max(initial=0.0) < TWO_PI for x in (alphas, betas)]
    a, b = np.empty(n, np.int8), np.empty(n, np.int8)
    for s in _blocks(n):
        shift = 0.0 if cdf is None else TWO_PI * cdf.searchsorted(pick[s], side="right")
        for x, wrap, out in zip((alphas, betas), in_range, (a, b)):
            q = x[pair_idx[s]] - u[s]
            q = _wrap(q) if wrap else np.remainder(q, TWO_PI)
            q += shift
            col = table[(q * scale).astype(np.intp)]
            marked = np.flatnonzero(col == 0)
            col[marked] = colours(switches, q[marked])
            out[s] = col
    return a, -b


def quantum_outcomes(
    alphas: np.ndarray, betas: np.ndarray, pair_idx: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Samples from the four-cell singlet law at settings (alphas, betas)[pair_idx]."""
    n = pair_idx.size
    a = rng.choice(np.array([1, -1], np.int8), size=n)
    equal = rng.random(n)
    p_equal = 0.5 * (1.0 - np.cos(alphas - betas))
    b = np.empty_like(a)
    for s in _blocks(n):
        b[s] = np.where(equal[s] < p_equal[pair_idx[s]], a[s], -a[s])
    return a, b


def run_experiment(model: Mixture | Colouring | None, *, sampler, n_runs: int, seed: int = 0) -> CountTable:
    """Run independent trials and aggregate outcome counts per setting pair.

    model=None samples the quantum singlet law instead of a classical
    model.  Deterministic given seed: the stream is the first child of
    SeedSequence(seed).  A key with no runs gets no table row; keys listed
    twice share one row.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    alphas, betas, pair_idx, key_idx = sampler.draw(n_runs, rng)
    if model is None:
        a, b = quantum_outcomes(alphas, betas, pair_idx, rng)
    else:
        a, b = classical_outcomes(model, alphas, betas, pair_idx, rng)
    counts = np.zeros((len(sampler.keys), 4), np.int64)
    for s in _blocks(n_runs):
        cells = (a[s] < 0) * 2 + (b[s] < 0)  # 0:++ 1:+- 2:-+ 3:--
        counts += np.bincount(key_idx[s] * 4 + cells, minlength=counts.size).reshape(-1, 4)
    table = CountTable()
    for (alpha, beta), cells in zip(sampler.keys, counts):
        if cells.any():
            table.add(alpha, beta, cells)
    return table


def empirical_correlation(table: CountTable) -> dict[tuple[float, float], tuple[float, float]]:
    """Per setting pair: (correlation estimate, standard error)."""
    out = {}
    for key, cells in table.counts.items():
        npp, npm, nmp, nmm = (int(x) for x in cells)
        n = npp + npm + nmp + nmm
        est = (npp + nmm - npm - nmp) / n
        se = math.sqrt(max(1.0 - est * est, 0.0) / n)
        out[key] = (est, se)
    return out
