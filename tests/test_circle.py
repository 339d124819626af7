import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindisk import (
    DuplicateSwitch,
    Mixture,
    OddSwitchCount,
    OutOfRange,
    ValidationError,
    as_mixture,
    full_switch_set,
    new_colouring,
    triangle_colouring,
)
from spindisk.circle import (
    colours,
    mixture_to_dict,
    model_from_dict,
)

from colour_oracle import segments
from conftest import random_colouring

PI = math.pi


@st.composite
def colourings(st_draw):
    k = st_draw(st.sampled_from([0, 2, 4, 6]))
    xs = st_draw(
        st.lists(
            st.floats(0.01, PI - 0.01, allow_nan=False),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    theta = sorted(xs)
    if any(b - a <= 1e-9 for a, b in zip(theta, theta[1:])):
        theta = [0.1 + 0.3 * i for i in range(k)]  # fallback, always valid
    return new_colouring(theta)


class TestConstruction:
    def test_empty_is_valid(self):
        c = new_colouring([])
        assert c.k == 0

    def test_four_switches(self):
        c = new_colouring([0.5, 1.0, 1.5, 2.0])
        assert c.k == 4
        assert c.switches == (0.5, 1.0, 1.5, 2.0)

    def test_input_order_does_not_matter(self):
        assert new_colouring([2.0, 0.5, 1.5, 1.0]).switches == (0.5, 1.0, 1.5, 2.0)

    def test_odd_count_rejected(self):
        with pytest.raises(OddSwitchCount):
            new_colouring([0.5])

    @pytest.mark.parametrize("bad", [[-0.1, 0.5], [0.5, PI], [0.0, 0.5], [0.5, 3.2]])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(OutOfRange):
            new_colouring(bad)

    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateSwitch):
            new_colouring([0.5, 0.5])
        with pytest.raises(DuplicateSwitch):
            new_colouring([0.5, 0.5 + 1e-13])

    @pytest.mark.parametrize("bad", [[1e-14, 1.0], [1.0, PI - 1e-14]], ids=["at_0", "at_pi"])
    def test_switch_at_forced_switch_rejected(self, bad):
        with pytest.raises(DuplicateSwitch):
            new_colouring(bad)


class TestFullSwitchSet:
    def test_k0(self):
        assert full_switch_set(triangle_colouring()) == (0.0, PI)

    def test_thirds(self):
        c = new_colouring([PI / 3, 2 * PI / 3])
        got = full_switch_set(c)
        want = (0.0, PI / 3, 2 * PI / 3, PI, PI + PI / 3, PI + 2 * PI / 3)
        assert np.allclose(got, want, atol=1e-15)

    def test_size_is_2k_plus_2(self):
        c = new_colouring([0.5, 1.0, 1.5, 2.0])
        assert len(full_switch_set(c)) == 10

    def test_antipodal_symmetry(self, rng):
        for k in (0, 2, 4, 6):
            c = random_colouring(rng, k)
            f = np.array(full_switch_set(c))
            shifted = np.sort(np.remainder(f + PI, 2 * PI))
            assert np.allclose(np.sort(f), shifted, atol=1e-12)


def colour_of(c, x):
    return colours(np.array(full_switch_set(c)), np.remainder(x, 2 * PI))


class TestColourAt:
    def test_k0_first_half_black(self):
        assert colour_of(triangle_colouring(), PI / 2) == 1

    def test_k0_second_half_white(self):
        assert colour_of(triangle_colouring(), 3 * PI / 2) == -1

    def test_second_segment_white(self):
        c = new_colouring([PI / 3, 2 * PI / 3])
        assert colour_of(c, PI / 2) == -1

    def test_right_continuity_at_switch(self):
        c = new_colouring([PI / 3, 2 * PI / 3])
        f = np.array(full_switch_set(c))
        assert np.array_equal(colours(f, f), colours(f, f + 1e-9))
        assert np.array_equal(colours(f, f), [1, -1, 1, -1, 1, -1])

    def test_vectorised_matches_segments(self, rng):
        for k in (0, 2, 4, 6, 8):
            c = random_colouring(rng, k)
            x = rng.uniform(0.0, 2 * PI, 500)
            want = [next(v for a, b, v in segments(c) if a <= xi < b) for xi in x]
            assert np.array_equal(colours(np.array(full_switch_set(c)), x), want)

    def test_black_measure_is_pi(self, rng):
        for k in (0, 2, 4, 6, 8):
            c = random_colouring(rng, k)
            black = sum(b - a for a, b, v in segments(c) if v == 1)
            assert black == pytest.approx(PI, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(colourings(), st.floats(0, 2 * PI, exclude_max=True))
    def test_antiperiodicity(self, c, x):
        # skip draws within rounding distance of a switch point
        f = np.array(full_switch_set(c))
        for point in (x % (2 * PI), (x + PI) % (2 * PI)):
            if np.min(np.abs(f - point)) < 1e-9 or point > 2 * PI - 1e-9:
                return
        assert colour_of(c, x + PI) == -colour_of(c, x)


class TestMixture:
    def test_valid(self):
        m = Mixture(((0.5, triangle_colouring()), (0.5, new_colouring([0.5, 1.0]))))
        assert len(m.components) == 2

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            Mixture(((0.5, triangle_colouring()), (0.4, new_colouring([0.5, 1.0]))))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Mixture(())

    def test_near_zero_weight_rejected(self):
        with pytest.raises(ValidationError):
            Mixture(((1e-13, triangle_colouring()), (1.0 - 1e-13, new_colouring([0.5, 1.0]))))

    def test_as_mixture_wraps_colouring(self):
        m = as_mixture(triangle_colouring())
        assert m.components[0][0] == 1.0


class TestSerialization:
    def test_colouring_round_trip(self):
        c = new_colouring([0.5, 1.0, 1.5, 2.0])
        assert model_from_dict({"theta": list(c.switches)}) == c

    def test_mixture_round_trip(self):
        m = Mixture(((0.25, triangle_colouring()), (0.75, new_colouring([0.5, 1.0]))))
        assert model_from_dict(mixture_to_dict(m)) == m

    def test_bad_dict_rejected(self):
        with pytest.raises(ValidationError):
            model_from_dict({"nope": 1})
