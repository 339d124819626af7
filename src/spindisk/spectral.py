"""Fourier diagnostics of colourings and correlation functions.

Conventions: colouring coefficients fhat_n = (1/2*pi) * integral of
f(x) * exp(-i*n*x); the (even) correlation is expanded in cosines only,
rho(gamma) = sum_{n>=1} a_n * cos(n*gamma) with no constant term.  For a
single colouring a_n = -2*|fhat_n|^2; antiperiodicity kills every even
harmonic, which is why a single-harmonic target like -cos is out of reach
for the whole model class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circle import Colouring, Mixture, TWO_PI, as_mixture, segments
from .correlation import PiecewiseLinearCorrelation

#: Largest possible |fhat_1| for a +-1 function is 2/pi (sign-of-cosine
#: colouring), so no classical model gets a_1 below -8/pi^2.
FIRST_HARMONIC_COEFF_BOUND = -8.0 / math.pi**2

DEFAULT_N_MAX = 99


@dataclass(frozen=True)
class Spectrum:
    """Fourier data indexed n = 0..n_max: arrays of n_max + 1 entries.

    colouring_coeffs holds complex fhat_n for a single colouring and is
    None for proper mixtures (whose colouring transform is random); power
    is E|fhat_n|^2 in either case.
    """

    colouring_coeffs: np.ndarray | None
    power: np.ndarray
    cosine_coeffs: np.ndarray


@dataclass(frozen=True)
class GullReport:
    nonzero_count: int
    tail_mass: float
    parseval_residual: float


@dataclass(frozen=True)
class BoundCheck:
    holds: bool
    a1: float
    bound: float


def colouring_spectrum(c: Colouring, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """Complex fhat_n for n = 0..n_max, closed form per constant segment."""
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


def pl_cosine_coeffs(p: PiecewiseLinearCorrelation, n_max: int = DEFAULT_N_MAX) -> np.ndarray:
    """a_n by exact piecewise integration of rho(gamma)*cos(n*gamma).

    a_0 is the mean (1/2*pi)*integral of rho; a_n = (1/pi)*integral of
    rho*cos(n*gamma) for n >= 1.
    """
    g0, g1, a, b = p.pieces()
    coeffs = np.empty(n_max + 1)
    mean = np.sum(a * (g1**2 - g0**2) / 2.0 + b * (g1 - g0))
    coeffs[0] = mean / TWO_PI
    n = np.arange(1, n_max + 1)[:, None]
    # antiderivative of (a*g + b)*cos(n*g): (a*g + b)*sin(n*g)/n + a*cos(n*g)/n^2
    upper = (a * g1 + b) * np.sin(n * g1) / n + a * np.cos(n * g1) / n**2
    lower = (a * g0 + b) * np.sin(n * g0) / n + a * np.cos(n * g0) / n**2
    coeffs[1:] = (upper - lower).sum(axis=1) / math.pi
    return coeffs


def spectrum(model: Colouring | Mixture, n_max: int = DEFAULT_N_MAX) -> Spectrum:
    """Spectrum of a colouring or mixture; a_n = -2 * E|fhat_n|^2."""
    mix = as_mixture(model)
    power = np.zeros(n_max + 1)
    coeffs = None
    for w, c in mix.components:
        fhat = colouring_spectrum(c, n_max)
        power += w * np.abs(fhat) ** 2
        if len(mix.components) == 1:
            coeffs = fhat
    return Spectrum(coeffs, power, -2.0 * power)


def gull_diagnostic(s: Spectrum) -> GullReport:
    """Quantify how far a spectrum is from the single-harmonic quantum target.

    Any finite-switch colouring needs infinitely many harmonics to jump, so
    nonzero_count > 1 for every model in the class; -cos alone scores 1.
    A coefficient counts as nonzero above 1e-9.
    """
    a = s.cosine_coeffs
    return GullReport(
        nonzero_count=int(np.count_nonzero(np.abs(a[1:]) > 1e-9)),
        tail_mass=float(np.sum(np.abs(a[2:]))),
        parseval_residual=float(1.0 - 2.0 * np.sum(s.power[1:])),
    )


def first_harmonic_bound_check(s: Spectrum) -> BoundCheck:
    """Check the derived constraint a_1 >= -8/pi^2."""
    a1 = float(s.cosine_coeffs[1])
    return BoundCheck(
        holds=a1 >= FIRST_HARMONIC_COEFF_BOUND - 1e-12,
        a1=a1,
        bound=FIRST_HARMONIC_COEFF_BOUND,
    )

