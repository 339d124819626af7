"""Reference oracle: the CHSH scan as one Python loop over a'.

This is the original body of `chsh_scan`: a = 0, and for each grid index
of a' the slice S(b, b') separates into u(b) + v(b'), so max and min |S|
come from the extrema of u and v.  A row replaces the running best only
when it is strictly better, and argmax/argmin return the first index, so
ties resolve to the lexicographically smallest (a', b, b') indices.  The
tests require the row-block scan to return exactly the same value and
settings.
"""
import math

import numpy as np

from spindisk.bell import CHSHSettings
from spindisk.circle import TWO_PI


def looped_chsh_scan(rho, grid_step):
    n = max(1, round(TWO_PI / grid_step))
    grid = np.arange(n) * (TWO_PI / n)
    r = rho(grid)

    idx = np.arange(n)
    t = r[(-idx) % n]  # rho(a - b) with a = 0; with a minus sign, rho(a - b')

    best = -math.inf
    best_settings = (0, 0, 0)
    for ia in range(n):
        m = r[(ia - idx) % n]
        u = t + m  # b-dependent part of S
        v = m - t  # b'-dependent part
        hi = float(u.max() + v.max())
        lo = float(u.min() + v.min())
        if hi >= -lo:
            val, ib, ibp = hi, int(u.argmax()), int(v.argmax())
        else:
            val, ib, ibp = -lo, int(u.argmin()), int(v.argmin())
        if val > best:
            best = val
            best_settings = (ia, ib, ibp)

    ia, ib, ibp = best_settings
    return best, CHSHSettings(0.0, grid[ia], grid[ib], grid[ibp])
