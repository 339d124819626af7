"""Reference oracle for the per-evaluation kernels: the bodies they replaced.

These are the straightforward numpy forms of `correlation._dedupe_sorted`,
`_differences`, `_kinks`, `_half_curve`, `_l2_distance` and
`_sup_distance`, and of
`optimize._l2_with_gradient` and `_search_point`,
and of the sup distance of the half-period arrays over the full period,
written with `np.diff`, `np.append`, `np.clip`, `np.outer`, `np.stack`
and `new_colouring`.  The library computes the
same floating-point operations on the same operands with fewer numpy
calls, so every value, breakpoint and gradient entry must equal these
bit for bit.
"""
import math

import numpy as np

from spindisk.circle import ANGLE_TOL, PI, TWO_PI, full_switch_set, new_colouring
from spindisk.optimize import _surviving


def dedupe_sorted(a):
    if a.size == 0:
        return a
    keep = np.concatenate(([True], np.diff(a) > ANGLE_TOL))
    return a[keep]


def differences(c):
    f = np.array(full_switch_set(c))
    d = np.remainder(f[None, :] - f[:, None], TWO_PI)
    return d, 2.0 - 4.0 * (np.arange(f.size) % 2), (d > 0.0) & (d < PI - ANGLE_TOL)


def kinks(components):
    diffs, weights = [], []
    slope0 = 0.0
    for w, c in components:
        d, jumps, keep = differences(c)
        diffs.append(d[keep])
        weights.append((w * np.outer(jumps, jumps))[keep])
        slope0 += w * 2.0 * jumps.size
    return np.concatenate(diffs), np.concatenate(weights), slope0


def half_curve(d, w, slope0):
    bps = dedupe_sorted(np.sort(np.concatenate(([0.0], d, [PI]))))
    idx = np.searchsorted(bps, d + ANGLE_TOL, "right") - 1
    kinks = np.bincount(idx, weights=w, minlength=bps.size)
    slopes = slope0 + np.cumsum(kinks[:-1])
    values = np.clip(np.append(0.0, np.cumsum(slopes * np.diff(bps))) / TWO_PI - 1.0, -1.0, 1.0)
    values[-1] = 1.0
    return bps, values, slopes, idx


def full_period(bps, values):
    return (
        np.concatenate((bps, TWO_PI - bps[-2:0:-1])),
        np.concatenate((values, values[-2:0:-1])),
    )


def l2_distance(bps, values):
    dg = np.diff(bps)
    v0, v1 = values[:-1], values[1:]
    rr = np.dot(dg, v0 * v0 + v0 * v1 + v1 * v1) / 3.0
    rc = (
        values[-1] * math.sin(bps[-1]) - values[0] * math.sin(bps[0])
        + np.dot((v1 - v0) / dg, np.diff(np.cos(bps)))
    )
    d2 = (rr + 2.0 * rc) / (bps[-1] - bps[0]) + 0.5
    return math.sqrt(max(d2, 0.0))


def sup_distance(bps, values):
    g0, g1 = bps[:-1], bps[1:]
    a = (values[1:] - values[:-1]) / (g1 - g0)
    b = values[:-1] - a * g0
    base = np.arcsin(np.clip(a, -1.0, 1.0))
    cands = [g0, g1]
    for root in (base, PI - base):
        for shift in (-TWO_PI, 0.0, TWO_PI):
            cands.append(root + shift)
    cand = np.stack(cands, axis=1)  # (pieces, candidates)
    inside = (cand >= g0[:, None]) & (cand <= g1[:, None]) & (np.abs(a) <= 1.0)[:, None]
    inside[:, :2] = True  # endpoints always count
    h = np.abs(a[:, None] * cand + b[:, None] + np.cos(cand))
    h[~inside] = 0.0
    return float(h.max())


def l2_with_gradient(d, w, slope0):
    bps, values = half_curve(d, w, slope0)[:2]
    dist = l2_distance(bps, values)
    g = np.append(0.0, np.cumsum(np.diff(bps) * (values[:-1] + values[1:]))) / 2.0 + np.sin(bps)
    at = g[np.searchsorted(bps, d + ANGLE_TOL, "right") - 1]
    return dist, w * (at - g[-1]) / (TWO_PI * PI * dist)


def sup_objective(bps, values):
    bps, values = full_period(bps, values)
    return sup_distance(np.append(bps, TWO_PI), np.append(values, values[0]))


def search_point(theta):
    order = theta.argsort()
    th = theta[order].tolist()
    keep = _surviving(th)
    return new_colouring([th[m] for m in keep]), order, keep
