"""Exact correlation functions of disk colourings.

The correlation at separation gamma is rho(gamma) = 2 * Pr(opposite
colours at distance gamma) - 1 under a uniform random rotation.  By
Wiener-Khinchin it is minus the autocorrelation of the +-1 colouring f.
f jumps by J_i = +-2 at its 2k+2 switch angles f_i, so rho'' is a sum of
point masses J_i * J_j / (2*pi) at the pairwise differences f_j - f_i
(mod 2*pi), and rho'(0+) = (2k+2)/pi: rho is piecewise linear with kinks
exactly there.  Summing the sorted kink weights twice gives the curve in
O(k^2 log k) time and O(k^2) memory, which is then integrated in closed form.

The curve is built in three steps: _kinks collects the kink positions and
weights, _half_curve sums them into breakpoints and values on [0, pi], and
evenness reflects those onto the full period.  The L2 and sup distances
are one-pass formulas over piecewise-linear arrays; the public functions
apply them to a curve's full-period pieces, and the optimiser to the
half-period arrays without building a curve: the L2 distance directly,
because rho and cos are even and give the same mean over either
interval, and the sup distance after reflecting them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import (
    ANGLE_TOL,
    PI,
    TWO_PI,
    Colouring,
    Mixture,
    as_mixture,
    full_switch_set,
)


def _dedupe_sorted(a: np.ndarray) -> np.ndarray:
    """Drop the entries of a sorted array within ANGLE_TOL of the one before."""
    if a.size == 0:
        return a
    keep = np.concatenate(([True], np.diff(a) > ANGLE_TOL))
    return a[keep]


@dataclass(frozen=True)
class PiecewiseLinearCorrelation:
    """rho(gamma) as linear interpolation between breakpoints on [0, 2*pi).

    breakpoints[0] is always 0; the function wraps periodically, so the
    last piece runs from breakpoints[-1] back to the value at 0.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def _extended(self) -> tuple[np.ndarray, np.ndarray]:
        bp = np.append(self.breakpoints, TWO_PI)
        val = np.append(self.values, self.values[0])
        return bp, val

    def sample(self, gammas) -> np.ndarray | float:
        """Evaluate at an array of angles, or at one angle as a float (mod 2*pi)."""
        g = np.remainder(np.asarray(gammas, dtype=float), TWO_PI)
        bp, val = self._extended()
        return np.interp(g, bp, val)

    __call__ = sample

    def evaluate(self, gamma: float) -> float:
        """Evaluate at a single angle."""
        return float(self.sample(gamma))

    def pieces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-piece (g0, g1, slope, intercept) arrays covering [0, 2*pi]."""
        return _pieces(*self._extended())


def _pieces(bps: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-piece (g0, g1, slope, intercept) of the line segments through (bps, values)."""
    g0, g1 = bps[:-1], bps[1:]
    slope = (values[1:] - values[:-1]) / (g1 - g0)
    intercept = values[:-1] - slope * g0
    return g0, g1, slope, intercept


def _differences(c: Colouring) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Switch differences, jumps and kink mask of one colouring.

    Entry (i, j) of the first array is f_j - f_i mod 2*pi over the full
    switch set f, the second holds the jumps J_i = +-2, and the mask keeps
    the kinks that shape [0, pi]: the differences in (0, pi - ANGLE_TOL).
    """
    f = np.array(full_switch_set(c))
    d = np.remainder(f[None, :] - f[:, None], TWO_PI)
    return d, 2.0 - 4.0 * (np.arange(f.size) % 2), (d > 0.0) & (d < PI - ANGLE_TOL)


def _kinks(components) -> tuple[np.ndarray, np.ndarray, float]:
    """Kink positions, kink weights and initial slope of sum_c w_c * rho_c.

    Component c has kinks of weight w_c * J_i * J_j at its nonzero switch
    differences d in (0, pi - ANGLE_TOL); kinks at pi - ANGLE_TOL or later
    do not shape [0, pi].  Its zero differences are the kink at 0 behind
    rho'(0+), returned as slope0.  Weights and slope0 are in units of
    1/(2*pi), in which a single colouring's are exact integers.
    """
    diffs, weights = [], []
    slope0 = 0.0
    for w, c in components:
        d, jumps, keep = _differences(c)
        diffs.append(d[keep])
        weights.append((w * np.outer(jumps, jumps))[keep])
        slope0 += w * 2.0 * jumps.size
    return np.concatenate(diffs), np.concatenate(weights), slope0


def _half_curve(d: np.ndarray, w: np.ndarray, slope0: float) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and values of rho on [0, pi] from the output of _kinks.

    Each weight goes to the last breakpoint at or below d + ANGLE_TOL, so
    near-equal differences that dedupe merged, such as a switch pair's and
    its antipodal copy's, share one breakpoint and lose no weight.
    rho(0) = -1 and rho(pi) = +1 are exact.
    """
    bps = _dedupe_sorted(np.sort(np.concatenate(([0.0], d, [PI]))))
    idx = np.searchsorted(bps, d + ANGLE_TOL, "right") - 1
    kinks = np.bincount(idx, weights=w, minlength=bps.size)
    slopes = slope0 + np.cumsum(kinks[:-1])
    values = np.clip(np.append(0.0, np.cumsum(slopes * np.diff(bps))) / TWO_PI - 1.0, -1.0, 1.0)
    values[-1] = 1.0
    return bps, values


def _full_period(bps: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints and values on [0, 2*pi) from those on [0, pi], by evenness."""
    return (
        np.concatenate((bps, TWO_PI - bps[-2:0:-1])),
        np.concatenate((values, values[-2:0:-1])),
    )


def _kink_curve(components) -> PiecewiseLinearCorrelation:
    """rho = sum_c w_c * rho_c over (w_c, colouring) pairs, from kink weights."""
    return PiecewiseLinearCorrelation(*_full_period(*_half_curve(*_kinks(components))))


def exact_correlation(c: Colouring) -> PiecewiseLinearCorrelation:
    """Exact rho for a single colouring, in O(k^2 log k) time and O(k^2) memory."""
    return _kink_curve(((1.0, c),))


def mixture_correlation(m: Mixture | Colouring) -> PiecewiseLinearCorrelation:
    """Exact rho of a mixture: the kink weights of all components, pooled."""
    return _kink_curve(as_mixture(m).components)


def _l2_distance(bps: np.ndarray, values: np.ndarray) -> float:
    """L2 distance to -cos of the continuous rho through (bps, values).

    bps spans [0, pi] or [0, 2*pi]; rho and cos are even, so both give the
    full-period mean.  Per piece of slope a, the integral of rho^2 is
    dg * (v0^2 + v0*v1 + v1^2) / 3 and that of rho*cos is [v*sin] + a*[cos];
    [v*sin] telescopes because rho is continuous.  The mean of cos^2 over
    either interval is 1/2.
    """
    dg = np.diff(bps)
    v0, v1 = values[:-1], values[1:]
    rr = np.dot(dg, v0 * v0 + v0 * v1 + v1 * v1) / 3.0
    rc = (
        values[-1] * math.sin(bps[-1]) - values[0] * math.sin(bps[0])
        + np.dot((v1 - v0) / dg, np.diff(np.cos(bps)))
    )
    d2 = (rr + 2.0 * rc) / (bps[-1] - bps[0]) + 0.5
    return math.sqrt(max(d2, 0.0))


def _sup_distance(bps: np.ndarray, values: np.ndarray) -> float:
    """max |rho + cos| of the continuous rho through (bps, values), exact per piece.

    On each piece h(g) = a*g + b + cos g is stationary where sin g = a, so
    the maximum is attained at a piece endpoint or such a root.
    """
    g0, g1, a, b = _pieces(bps, values)
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


def l2_distance_to_cosine(p: PiecewiseLinearCorrelation) -> float:
    """L2 distance D with D^2 = (1/2*pi) * integral of (rho + cos)^2."""
    return _l2_distance(*p._extended())


def sup_distance_to_cosine(p: PiecewiseLinearCorrelation) -> float:
    """max over gamma of |rho(gamma) + cos(gamma)|, exact per piece."""
    return _sup_distance(*p._extended())


def check_invariants(p: PiecewiseLinearCorrelation) -> None:
    """Raise AssertionError unless p satisfies the model-class invariants.

    Checks bounds, the certainty relations rho(0) = -1 and rho(pi) = +1,
    evenness and antiperiodicity on a 1000-point grid, all to within 1e-12.
    """
    tol = 1e-12
    assert np.all(p.values <= 1.0 + tol) and np.all(p.values >= -1.0 - tol)
    assert abs(p.evaluate(0.0) + 1.0) <= tol
    assert abs(p.evaluate(PI) - 1.0) <= tol
    g = np.linspace(0.0, TWO_PI, 1000, endpoint=False)
    v = p.sample(g)
    assert np.max(np.abs(v - p.sample(TWO_PI - g))) <= tol
    assert np.max(np.abs(p.sample(g + PI) + v)) <= tol
