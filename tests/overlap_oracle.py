"""Reference oracle: rho from circular overlaps of constant-colour arcs.

This is the original O(k^4) construction of the exact correlation.  The
opposite-colour measure m(gamma) is a sum of circular overlaps of
opposite-coloured arcs, evaluated at every pairwise difference (mod 2*pi)
of the 2k+2 switch angles; rho = m/pi - 1.  It shares no arithmetic with
the kink-weight construction in spindisk.correlation, which the tests
compare against it.
"""
import numpy as np

from spindisk.circle import ANGLE_TOL, PI, TWO_PI, as_mixture, full_switch_set
from spindisk.correlation import PiecewiseLinearCorrelation, _dedupe_sorted


def overlap_correlation(c) -> PiecewiseLinearCorrelation:
    f = np.array(full_switch_set(c))
    n = f.size
    diffs = np.remainder((f[:, None] - f[None, :]).ravel(), TWO_PI)
    diffs = diffs[diffs < TWO_PI - ANGLE_TOL]
    bps = _dedupe_sorted(np.sort(np.concatenate(([0.0], diffs))))

    starts = f
    ends = np.append(f[1:], TWO_PI)
    colours = 1 - 2 * (np.arange(n) % 2)

    opp_i, opp_j = np.nonzero(colours[:, None] != colours[None, :])
    ai = starts[opp_i][:, None]
    bi = ends[opp_i][:, None]
    aj = starts[opp_j][:, None]
    bj = ends[opp_j][:, None]

    m = np.zeros(bps.size)
    for shift in (-TWO_PI, 0.0, TWO_PI):
        lo = np.maximum(ai, aj - bps[None, :] + shift)
        hi = np.minimum(bi, bj - bps[None, :] + shift)
        m += np.clip(hi - lo, 0.0, None).sum(axis=0)

    values = np.clip(m / PI - 1.0, -1.0, 1.0)
    return PiecewiseLinearCorrelation(np.append(bps, TWO_PI), np.append(values, values[0]))


def overlap_mixture_correlation(model) -> PiecewiseLinearCorrelation:
    """Weighted average of the component oracles on the union grid."""
    comps = [(w, overlap_correlation(c)) for w, c in as_mixture(model).components]
    bps = _dedupe_sorted(np.sort(np.concatenate([pl.breakpoints for _, pl in comps])))
    values = np.zeros(bps.size)
    for w, pl in comps:
        values += w * pl.sample(bps)
    return PiecewiseLinearCorrelation(bps, np.clip(values, -1.0, 1.0))
