"""CHSH functional for correlation curves.

Sign convention: S = rho(a-b) - rho(a-b') + rho(a'-b) + rho(a'-b').  All
placements of the single minus are equivalent under relabelling; this one
makes the triangle wave reach |S| = 2 at the textbook quadruple
(0, pi/2, pi/4, 3*pi/4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .circle import TWO_PI, ValidationError

#: a' rows of the CHSH scan evaluated at once; bounds its memory to
#: _SCAN_BLOCK * n floats per temporary.
_SCAN_BLOCK = 128


@dataclass(frozen=True)
class CHSHSettings:
    a: float
    a_prime: float
    b: float
    b_prime: float


def quantum_correlation(gamma):
    """The singlet correlation -cos(gamma); accepts scalars or arrays."""
    return -np.cos(gamma)


def chsh(rho, s: CHSHSettings) -> float:
    """Evaluate the CHSH combination; rho maps an array of angles to correlations."""
    # each setting reduced first: the difference of two finite settings can overflow
    a, a_prime, b, b_prime = np.remainder([s.a, s.a_prime, s.b, s.b_prime], TWO_PI)
    r = rho(np.remainder(np.array([a - b, a - b_prime, a_prime - b, a_prime - b_prime]), TWO_PI))
    return float(r[0] - r[1] + r[2] + r[3])


def chsh_scan(rho, grid_step: float = math.pi / 90) -> tuple[float, CHSHSettings]:
    """Maximise |S| over a uniform setting grid of n = 2*pi/grid_step points.

    Rotation invariance of rho fixes a = 0.  For fixed a' the slice
    S(b, b') = u(b) + v(b') separates, so each a' row needs only the
    extrema of u and v.  The rows form a circulant of the sampled curve;
    they are evaluated _SCAN_BLOCK at a time from a zero-copy view, so the
    scan takes O(n^2) time and O(_SCAN_BLOCK * n) memory.  Ties resolve to
    the lexicographically smallest (a', b, b') grid indices.
    """
    if not 0 < grid_step < math.inf:  # NaN included
        raise ValidationError("grid_step must be positive and finite")
    n = max(1, round(TWO_PI / grid_step))
    grid = np.arange(n) * (TWO_PI / n)
    r = rho(grid)

    t = r[(-np.arange(n)) % n]  # rho(a - b) with a = 0; with a minus sign, rho(a - b')
    # Row ia is rho(a' - b) over b, r[(ia - ib) % n]: window n - ia of (t, t).
    rows = sliding_window_view(np.concatenate((t, t)), n)[n:0:-1]
    hi, lo = np.empty(n), np.empty(n)
    buf = np.empty((min(n, _SCAN_BLOCK), n))  # reused: fresh temporaries per block are ~2x slower
    for s in range(0, n, _SCAN_BLOCK):
        m = rows[s:s + _SCAN_BLOCK]
        block = slice(s, s + len(m))
        u = np.add(m, t, out=buf[:len(m)])  # the b-dependent part of S
        hi[block], lo[block] = u.max(axis=1), u.min(axis=1)
        v = np.subtract(m, t, out=buf[:len(m)])  # the b'-dependent part
        hi[block] += v.max(axis=1)
        lo[block] += v.min(axis=1)
    val = np.where(hi >= -lo, hi, -lo)
    ia = int(val.argmax())
    u, v = rows[ia] + t, rows[ia] - t
    if hi[ia] >= -lo[ia]:
        ib, ibp = int(u.argmax()), int(v.argmax())
    else:
        ib, ibp = int(u.argmin()), int(v.argmin())
    return float(val[ia]), CHSHSettings(0.0, grid[ia], grid[ib], grid[ibp])
