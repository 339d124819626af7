"""Monte Carlo simulation of the two-station experiment.

The classical simulator draws a colouring component, spins the disk by a
uniform rotation u and reads off a = colour(alpha - u), b = -colour(beta - u):
each outcome depends only on the shared (component, rotation) pair and the
local setting.  The quantum simulator samples the four-cell joint law
Pr(++) = Pr(--) = (1 - cos(alpha-beta))/4, Pr(+-) = Pr(-+) = (1 + cos)/4.
Both reduce each setting mod 2*pi before subtracting.

Both count as they draw, in blocks of `_RUN_BLOCK` runs: a block finds
each run's cell (0:++ 1:+- 2:-+ 3:--) and counts the keys 5 * pair + cell
(quantum: 4 * pair + cell) in one `_count` into the call's counts.  A run
in a marked cell-table bin counts in its pair's fifth slot and is kept;
after the last block one exact pass moves all of them to their cells.
Only the pair index is a whole-run array (int32 when the count keys
fit: the same values).  The rotations u = 2*pi * `random()` (bit for
bit `uniform(0, 2*pi)`), picks and quantum draws come per block, each
kernel's second stream from a copy of the PCG64 bit generator
`advance`d past the first: rng ends where whole-array draws leave it.

Lookups gather from tables of uniform bins (the indexed search of Chen &
Asau 1974 and Devroye 1986, sec. III.2.4): a bin that holds no point stores
the answer, and a query in a marked bin takes the exact rule of
`classical_outcomes`.  For a fixed pair and component a run's cell is a
step function of u.  When the table of cells over (pair, component,
rotation bin) has no more entries than the call has runs, its build is at
most one pass over the runs and its memory one byte per run, and a run's
cell is one gather.  Other calls gather each station's colour from a
table over the components' switch sets laid end to end.

All randomness flows from one child of numpy's SeedSequence(seed), so
results are reproducible per seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, Colouring, Mixture, ValidationError, as_mixture, colours, full_switch_set


@dataclass(frozen=True)
class CountTable:
    """Outcome counts: int64 row counts[j] is [n++, n+-, n-+, n--] at (alpha, beta) = float64 pairs[j], rows sorted."""

    pairs: np.ndarray
    counts: np.ndarray


#: Runs per block of the per-run work, so that its temporaries stay in cache.
_RUN_BLOCK = 16384

#: Table bins per point (switch, cdf entry, rotation breakpoint): about 1 query in this many is marked.
_BINS_PER_SWITCH = 64

_MARK = 4  # a cell-table bin near a rotation breakpoint


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of at most _RUN_BLOCK runs that cover range(n)."""
    return [slice(i, min(i + _RUN_BLOCK, n)) for i in range(0, n, _RUN_BLOCK)]


def _count(counts: np.ndarray, keys: np.ndarray) -> None:
    """Add 1 to counts.flat[key] for each key: one `np.bincount`, or `np.add.at` if counts outnumber keys."""
    if counts.size > keys.size:
        np.add.at(counts.ravel(), keys, 1)
    else:
        counts.ravel()[:] += np.bincount(keys, minlength=counts.size)


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
    table = np.repeat(values, np.diff(held, prepend=-1, append=n_bins))  # values[i] over (held[i-1], held[i]]
    table[held] = mark
    return table


def _cell_table(x: np.ndarray, local: list[np.ndarray], n_bins: int, delta: float) -> np.ndarray:
    """Cells over (pair, component, rotation bin), flat, in rows of n_bins + 2 bins.

    x is (2, pairs) reduced settings, `local` the full switch sets.  Bin b
    serves the u with int(u * n_bins / 2*pi) == b; no u reads the last bin.
    A switch s flips a station's colour at u = t = (x - s) mod 2*pi; the
    colour at u = 0 is the parity of #{s <= x}, entered as flips in bins 0
    and last.  Each station then flips evenly often per row, so one sort of
    all flips by bin (coded 2 for alpha, 1 for beta), a xor-accumulate and
    `np.repeat` lay out every row.  The bins of the ends of [t -+ delta], t
    or its copies at +-2*pi, store _MARK (delta * n_bins << 2*pi, so no bin
    lies between; an end off the row marks an unread last bin).
    """
    n_comp, row, scale = len(local), n_bins + 2, n_bins / TWO_PI
    comp = np.repeat(np.arange(n_comp), [f.size for f in local])
    base = row * (np.arange(x.shape[1])[:, None] * n_comp + comp)  # (pair, switch) row starts
    t = x[..., None] - np.concatenate(local)
    ahead = t >= 0  # s <= x
    t += ~ahead * TWO_PI
    start = 4 * base + np.array([2, 1])[:, None, None]  # sort key 4 * bin + code
    flips = (start + 4 * (t * scale).astype(np.intp) + 4).ravel()
    keys = np.sort(np.concatenate([flips, start[ahead], start[ahead] + 4 * (row - 1)]))
    codes = np.bitwise_xor.accumulate(keys & 3) ^ 2  # colour +1 after an odd count; b is minus beta's colour
    cells = np.repeat(codes.astype(np.int8), np.diff(keys >> 2, append=x.shape[1] * n_comp * row))
    ends = np.array([-TWO_PI - delta, -TWO_PI + delta, -delta, delta, TWO_PI - delta, TWO_PI + delta])
    cells[base[..., None] + np.clip((t[..., None] + ends) * scale, -1, n_bins + 1).astype(np.intp)] = _MARK
    return cells


class _ClassicalLookup:
    """The per-block lookups of `classical_outcomes` for one model, its (P, 2) settings and run count."""

    def __init__(self, model: Mixture | Colouring, pairs: np.ndarray, n_runs: int):
        mix = as_mixture(model)
        self.n_comp = n_comp = len(mix.components)
        local = [np.array(full_switch_set(c)) for _, c in mix.components]
        self.switches = np.concatenate([f + TWO_PI * ci for ci, f in enumerate(local)])
        self.x = np.remainder(pairs.T, TWO_PI)
        n_bins = _BINS_PER_SWITCH * 2 * max(f.size for f in local)
        self.row = n_bins + 2
        self.stride = n_comp * self.row  # the cells of one setting pair
        self.by_cell = len(pairs) * self.stride <= n_runs
        if self.by_cell:
            self.scale = n_bins / TWO_PI
            self.table = _cell_table(self.x, local, n_bins, 16 * np.spacing(TWO_PI * (n_comp + 1)))
            self.values = self.row * np.arange(n_comp + 1)
        else:  # each station's colour after 0, 1, 2, ... switches; 0 marks a bin that holds one
            n_bins = _BINS_PER_SWITCH * self.switches.size
            self.scale = n_bins / (TWO_PI * n_comp)
            colour = np.resize(np.int8([-1, 1]), self.switches.size + 1)
            self.table = _bin_table(self.switches, self.scale, n_bins, colour, 0)
            self.values = TWO_PI * np.arange(n_comp + 1)
        weights = np.array([w for w, _ in mix.components])
        self.cdf = (weights / weights.sum()).cumsum()
        self.cdf /= self.cdf[-1]
        self.m = _BINS_PER_SWITCH * n_comp
        self.comp_table = _bin_table(self.cdf, self.m, self.m, self.values, -1)

    def components(self, pick: np.ndarray) -> np.ndarray:
        """values[c], c = cdf.searchsorted(pick, side="right") as choice(p=) places it: an offset or a shift."""
        found = self.comp_table[np.multiply(pick, self.m, out=np.empty(pick.size, np.intp), casting="unsafe")]
        lost = np.flatnonzero(found < 0)
        found[lost] = self.values[self.cdf.searchsorted(pick[lost], side="right")]
        return found

    def _wrapped(self, idx: np.ndarray, u: np.ndarray, shift) -> np.ndarray:
        """q = remainder(x - u, 2*pi) + shift of both stations, x the reduced settings at idx."""
        q = self.x.take(idx, axis=1) - u
        q += (q < 0) * TWO_PI  # remainder bit for bit below 2*pi: fmod is exact there
        q += shift
        return q

    def cells(self, idx: np.ndarray, u: np.ndarray, comp) -> np.ndarray:
        """int8 cells of runs at pair indices idx, rotations u and component values comp, or _MARK: see `exact`."""
        if self.by_cell:
            at = np.multiply(u, self.scale, out=np.empty(u.size, np.intp), casting="unsafe")
            at += comp
            at += idx * np.intp(self.stride)
            return self.table[at]
        q = self._wrapped(idx, u, comp)
        colour = self.table[np.multiply(q, self.scale, out=np.empty(q.shape, np.intp), casting="unsafe")]
        late = np.flatnonzero(colour[0] * colour[1] == 0)
        colour[:, late] = colours(self.switches, q[:, late])
        return 1 - colour[0] + (colour[1] > 0)

    def exact(self, idx: np.ndarray, u: np.ndarray, comp: np.ndarray) -> np.ndarray:
        """The exact rule's cells of runs at cell-table component offsets comp."""
        colour = colours(self.switches, self._wrapped(idx, u, TWO_PI * (comp // self.row)))
        return 1 - colour[0] + (colour[1] > 0)  # 2 * (a < 0) + (b < 0), b minus beta's colour


def classical_outcomes(
    model: Mixture | Colouring, pairs: np.ndarray, pair_idx: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """(P, 4) int64 counts of classical runs at the rows pairs[pair_idx] of (P, 2) float settings; rng draws from PCG64.

    The exact rule: component c's full switch set is shifted by 2*pi*c and
    the shifted sets are concatenated into one sorted array S, in which a
    run looks up q = remainder(x - u, 2*pi) + 2*pi*c, x the reduced
    setting; its colour is +1 after an odd number of switches <= q (every
    set has even length).  Adding 2*pi*c rounds to ulp(2*pi*n) for n
    components, so an angle that close to a switch (0 read as 2*pi too) can
    land on its wrong side: ~4e-14 per run for n = 4, k = 16.

    Both tables give that rule's cells.  The cell table's delta =
    16 ulp(2*pi*(n+1)) bounds every rounding: q is within 2 ulp(2*pi*n) of
    its real value, S within ulp(2*pi*n)/2 of s + 2*pi*c, and each computed
    breakpoint within ulp(4*pi) of the real one.  Rounding u * scale is
    monotone in u, so every u in an unmarked bin lies more than delta from
    every real breakpoint, and the rule reads the bin's cell there.
    """
    lookup = _ClassicalLookup(model, pairs, pair_idx.size)
    comp, mixed = lookup.values[0], lookup.n_comp > 1
    if mixed:  # the picks follow all n rotations in the stream
        bits = np.random.PCG64(0)
        bits.state = rng.bit_generator.state
        picks = np.random.Generator(bits.advance(pair_idx.size))
    counts = np.zeros((len(pairs), 5), np.int64)  # slot 4: runs in a marked bin
    late = []
    for s in _blocks(pair_idx.size):
        idx, u = pair_idx[s], rng.random(s.stop - s.start) * TWO_PI
        if mixed:
            comp = lookup.components(picks.random(u.size))
        cell = lookup.cells(idx, u, comp)
        _count(counts, idx * 5 + cell)
        marked = np.flatnonzero(cell == _MARK)
        late.append((idx[marked], u[marked], np.broadcast_to(comp, u.shape)[marked]))
    if mixed:  # rng keeps its buffered 32-bit half, which advance() clears
        rng.bit_generator.state = {**rng.bit_generator.state, "state": bits.state["state"]}
    if late:
        idx, u, comp = (np.concatenate(a) for a in zip(*late))
        _count(counts, idx * 5 + lookup.exact(idx, u, comp))
    return counts[:, :4]


def quantum_outcomes(pairs: np.ndarray, pair_idx: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(P, 4) int64 counts sampled from the four-cell singlet law at the rows pairs[pair_idx] of (P, 2) float settings.

    a = -1 where `integers(0, 2)` draws 1, the index `choice([1, -1])` draws
    (int32 draws the same), and b = a where the next `random` falls below
    Pr(a = b): the cell is 3 * neg, or the other cell of that a.  The n
    int32 draws take rng's buffered 32-bit half, if any, then one 64-bit
    word per two: the `random` draws come from a copy advanced past them.
    """
    bits = np.random.PCG64(0)
    bits.state = rng.bit_generator.state
    equal = np.random.Generator(bits.advance((pair_idx.size - bits.state["has_uint32"] + 1) // 2))
    # reduced first: alpha - beta of two finite settings can overflow to inf
    p_equal = 0.5 * (1.0 - np.cos(np.subtract(*np.remainder(pairs, TWO_PI).T)))
    counts = np.zeros((len(pairs), 4), np.int64)
    for s in _blocks(pair_idx.size):
        idx = pair_idx[s]
        cell = 3 * rng.integers(0, 2, idx.size, dtype=np.int32) ^ (equal.random(idx.size) >= p_equal[idx])
        _count(counts, idx * 4 + cell)
    rng.bit_generator.state = {**rng.bit_generator.state, "state": bits.state["state"]}
    return counts


def _setting_pairs(pairs) -> np.ndarray:
    """pairs as a (P, 2) float64 array; ValidationError unless a non-empty array-like of finite real pairs.

    As in model files, bools and numeric strings are not numbers; neither
    are complex or other objects.  Python ints past int64 are.
    """
    try:
        keys = np.asarray(pairs)
        if keys.dtype == object and all(type(x) is int for x in keys.flat):
            keys = keys.astype(float)
    except (ValueError, OverflowError):  # ragged, or an int past float
        keys = np.empty(0, object)
    if keys.dtype.kind not in "iuf" or keys.shape[1:] != (2,) or not len(keys) or not np.isfinite(keys).all():
        raise ValidationError("setting pairs must be a non-empty list of finite (alpha, beta) pairs of real numbers")
    return keys.astype(float, copy=False)


def run_experiment(
    model: Mixture | Colouring | None, pairs: np.typing.ArrayLike, *, n_runs: int, seed: int = 0
) -> CountTable:
    """Run independent trials at rows (alpha, beta) drawn uniformly from the (P, 2) array-like `pairs`; counts per pair.

    model=None samples the quantum singlet law instead of a classical
    model.  Deterministic given seed: the stream is the first child of
    SeedSequence(seed).  A pair with no runs gets no table row.  Pairs
    listed twice (equal under ==, as 0.0 and -0.0 are) share one row, under
    the first listed pair that got runs.  Rows follow the sorted pairs.
    """
    keys = _setting_pairs(pairs)
    if n_runs < 1:
        raise ValidationError("n_runs must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    pair_idx = rng.integers(len(keys), size=n_runs, dtype=np.int32 if 5 * len(keys) <= 2**31 else np.int64)
    if model is None:
        counts = quantum_outcomes(keys, pair_idx, rng)
    else:
        counts = classical_outcomes(model, keys, pair_idx, rng)
    listed = np.flatnonzero(counts.any(axis=1))
    listed = listed[np.lexsort(keys[listed].T[::-1] + 0.0)]  # stable: equal pairs keep their listing order
    x = keys[listed] + 0.0  # -0.0 + 0.0 is 0.0
    first = np.flatnonzero(np.r_[True, (x[1:] != x[:-1]).any(axis=1)])  # each row's first listing
    return CountTable(keys[listed[first]], np.add.reduceat(counts[listed], first))


def empirical_correlation(table: CountTable) -> tuple[np.ndarray, np.ndarray]:
    """(correlation estimate, standard error) arrays, one entry per table row."""
    npp, npm, nmp, nmm = table.counts.T
    n = table.counts.sum(axis=1)
    est = (npp + nmm - npm - nmp) / n
    return est, np.sqrt(np.maximum(1.0 - est * est, 0.0) / n)
