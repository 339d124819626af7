"""Discrete-angle variant of the disk model.

Restricting angles to an even lattice of N points on [0, 2*pi) removes all
regularity questions; correlations reduce to exact integer counting.  The
lattice doubles as a brute-force oracle for the continuous modules via
lift_to_continuous.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import TWO_PI, Colouring, ValidationError, colours, new_colouring


@dataclass(frozen=True)
class LatticeColouring:
    """Antiperiodic colouring on an N-point lattice; switches strictly inside (0, N/2)."""

    N: int
    switch_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.N < 2 or self.N % 2 != 0:
            raise ValidationError(f"lattice size must be even and >= 2, got {self.N}")
        if len(self.switch_indices) % 2 != 0:
            raise ValidationError("switch index count must be even")
        prev = 0
        for j in self.switch_indices:
            if not (0 < j < self.N // 2):
                raise ValidationError(f"switch index {j} not in (0, N/2)")
            if j <= prev:
                raise ValidationError("switch indices must be strictly increasing")
            prev = j


def colour_vector(lc: LatticeColouring) -> np.ndarray:
    """Length-N array of +-1 cell colours, antiperiodic by construction."""
    half = lc.N // 2
    switches = np.array([0, *lc.switch_indices, half, *(j + half for j in lc.switch_indices)])
    return colours(switches, np.arange(lc.N))


def lattice_correlation(lc: LatticeColouring) -> np.ndarray:
    """rho[d] = (2/N) * #{i : colour[i] != colour[i+d]} - 1, exact counting."""
    col = colour_vector(lc)
    rho = np.empty(lc.N)
    for d in range(lc.N):
        mismatches = int(np.count_nonzero(col != np.roll(col, -d)))
        rho[d] = 2.0 * mismatches / lc.N - 1.0
    return rho


def lift_to_continuous(lc: LatticeColouring) -> Colouring:
    """Map switch index j to angle 2*pi*j/N; correlations agree at lattice angles."""
    return new_colouring([TWO_PI * j / lc.N for j in lc.switch_indices])

