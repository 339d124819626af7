import math

import numpy as np
import pytest
from hypothesis import assume, strategies as st

from spindisk import Mixture, new_colouring

PI = math.pi
TWO_PI = 2 * math.pi


def random_colouring(rng, k):
    """Random valid colouring with exactly k switches."""
    while True:
        theta = np.sort(rng.uniform(1e-3, math.pi - 1e-3, k))
        if k == 0 or np.all(np.diff(theta) > 1e-6):
            return new_colouring(theta.tolist())


def random_mixture(rng, ks=(0, 2, 4), max_components=3):
    """Random mixture with 1..max_components components and sane weights."""
    n = int(rng.integers(1, max_components + 1))
    while True:
        w = rng.dirichlet(np.ones(n))
        if w.min() > 1e-3:
            break
    comps = tuple(
        (float(wi), random_colouring(rng, int(rng.choice(ks)))) for wi in w
    )
    return Mixture(comps)


@st.composite
def colourings(draw, max_k):
    """Random colourings with k <= max_k, half of them on an angle lattice.

    Lattice switches make antipodal switch differences equal in exact
    arithmetic but only to rounding in floating point.
    """
    k = 2 * draw(st.integers(0, max_k // 2))
    if draw(st.booleans()):
        n = draw(st.sampled_from([n for n in (36, 360, 720) if n // 2 - 1 >= k]))
        steps = draw(st.lists(st.integers(1, n // 2 - 1), min_size=k, max_size=k, unique=True))
        return new_colouring([TWO_PI * j / n for j in steps])
    theta = sorted(draw(st.lists(st.floats(1e-3, PI - 1e-3), min_size=k, max_size=k, unique=True)))
    assume(all(b - a > 1e-9 for a, b in zip(theta, theta[1:])))
    return new_colouring(theta)


@st.composite
def mixtures(draw, max_k=8):
    n = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    comps = draw(st.lists(colourings(max_k), min_size=n, max_size=n))
    total = sum(raw)
    return Mixture(tuple((w / total, c) for w, c in zip(raw, comps)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
