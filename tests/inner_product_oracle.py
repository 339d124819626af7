"""Reference oracle: exact inner products of two piecewise-linear curves.

Both integrals are taken piece by piece over the full period of the
curve objects, on the merged breakpoint grid.  The optimiser computes
the same inner products from half-period kink arrays through
`spindisk.optimize._linear_value`; the tests compare the two, and each
against `scipy.integrate.quad`.
"""
import numpy as np

from spindisk.circle import TWO_PI
from spindisk.correlation import PiecewiseLinearCorrelation, _dedupe_sorted, _pieces


def inner_product(p: PiecewiseLinearCorrelation, q: PiecewiseLinearCorrelation) -> float:
    """(1/2*pi) * integral of p*q over one period, exact per linear piece of the merged grid."""
    bp = np.append(_dedupe_sorted(np.sort(np.concatenate([p.breakpoints, q.breakpoints]))), TWO_PI)
    g0, g1, a1, b1 = _pieces(bp, p.sample(bp))
    a2, b2 = _pieces(bp, q.sample(bp))[2:]
    dg = g1 - g0
    # integral of (a1*g + b1)(a2*g + b2) piece by piece
    c2 = a1 * a2
    c1 = a1 * b2 + a2 * b1
    c0 = b1 * b2
    total = np.sum(
        c2 * (g1**3 - g0**3) / 3.0 + c1 * (g1**2 - g0**2) / 2.0 + c0 * dg
    )
    return float(total / TWO_PI)


def cosine_inner_product(p: PiecewiseLinearCorrelation) -> float:
    """(1/2*pi) * integral of p(gamma)*cos(gamma), exact per linear piece."""
    g0, g1, a, b = p.pieces()
    # antiderivative of (a*g + b)*cos g is (a*g + b)*sin g + a*cos g
    upper = (a * g1 + b) * np.sin(g1) + a * np.cos(g1)
    lower = (a * g0 + b) * np.sin(g0) + a * np.cos(g0)
    return float(np.sum(upper - lower) / TWO_PI)
