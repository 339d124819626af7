"""Antiperiodic two-colourings of the unit circle.

A colouring is the hidden variable of the spinning-disk model: an even
number k of switch angles 0 < theta_1 < ... < theta_k < pi splits (0, pi)
into k+1 segments coloured black, white, ..., black (black = +1).  The
second half circle (pi, 2*pi) carries the complementary colours, so the
induced +-1 function f satisfies f(x + pi) = -f(x) and the black and white
sets each have total measure pi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
PI = math.pi

#: Two angles closer than this are treated as coincident.
ANGLE_TOL = 1e-12

#: Smallest mixture weight, and the allowed error of a weight sum.
WEIGHT_TOL = 1e-12


class ValidationError(ValueError):
    """Invalid model input."""


class OddSwitchCount(ValidationError):
    """Switch list has odd length; antiperiodicity needs an even count."""


class OutOfRange(ValidationError):
    """A switch angle lies outside the open interval (0, pi)."""


class DuplicateSwitch(ValidationError):
    """Two switch angles coincide within tolerance."""


@dataclass(frozen=True)
class Colouring:
    """Immutable disk colouring, stored as sorted interior switch angles."""

    switches: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.switches) % 2 != 0:
            raise OddSwitchCount(
                f"switch count must be even, got {len(self.switches)}"
            )
        for s in self.switches:
            if not (0.0 < s < PI):
                raise OutOfRange(f"switch angle {s!r} not in (0, pi)")
        # the forced switches at 0 and pi bound the list on both sides
        bounded = (0.0, *self.switches, PI)
        for prev, s in zip(bounded, bounded[1:]):
            if s - prev <= ANGLE_TOL:
                raise DuplicateSwitch(
                    f"switch angle {s!r} does not exceed {prev!r} by more than {ANGLE_TOL}"
                )

    @property
    def k(self) -> int:
        return len(self.switches)


def new_colouring(switch_angles: list[float] | tuple[float, ...]) -> Colouring:
    """Validate and build a Colouring; input angles may be unsorted."""
    return Colouring(tuple(sorted(float(s) for s in switch_angles)))


def triangle_colouring() -> Colouring:
    """The unique k=0 disk: black on (0, pi), white on (pi, 2*pi)."""
    return Colouring(())


def full_switch_set(c: Colouring) -> tuple[float, ...]:
    """All 2k+2 colour-change angles on [0, 2*pi), sorted.

    0 and pi are always switch points: the construction forces a colour
    change there.
    """
    return (0.0, *c.switches, PI, *(s + PI for s in c.switches))


def colours(switches: np.ndarray, q):
    """Colours (+1 black / -1 white) at queries q from a sorted array of switch points.

    The colour is +1 after an odd number of switches <= q: read from a
    full switch set, which starts at 0, the first arc is black and each
    arc includes its left end.
    """
    return 2 * (np.searchsorted(switches, q, side="right") & 1) - 1


@dataclass(frozen=True)
class Mixture:
    """Convex combination of colourings; the full classical model class."""

    components: tuple[tuple[float, Colouring], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValidationError("mixture needs at least one component")
        total = 0.0
        for w, c in self.components:
            if not w >= WEIGHT_TOL:  # NaN included
                raise ValidationError(f"mixture weight {w!r} is not positive")
            if w > 1.0:
                raise ValidationError(f"mixture weight {w!r} exceeds 1")
            if not isinstance(c, Colouring):
                raise ValidationError("mixture component is not a Colouring")
            total += w
        if not abs(total - 1.0) <= WEIGHT_TOL:
            raise ValidationError(f"mixture weights sum to {total!r}, not 1")


def as_mixture(model: Colouring | Mixture) -> Mixture:
    """Wrap a bare colouring as a single-component mixture."""
    if isinstance(model, Mixture):
        return model
    return Mixture(((1.0, model),))


# JSON-friendly dict forms: {"theta": [...]} for a colouring,
# {"components": [{"w": 0.5, "theta": [...]}, ...]} for a mixture.

def mixture_to_dict(m: Mixture) -> dict:
    return {"components": [{"w": w, "theta": list(c.switches)} for w, c in m.components]}


def _numbers(xs) -> list[float]:
    """A JSON array of numbers as floats; float() alone would take bools and numeric strings."""
    if not isinstance(xs, list) or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in xs):
        raise TypeError(f"expected an array of numbers, got {xs!r:.60}")
    return [float(x) for x in xs]


def model_from_dict(d: dict) -> Colouring | Mixture:
    """Parse either dict form; raises ValidationError on malformed input."""
    try:
        if "theta" in d:
            return new_colouring(_numbers(d["theta"]))
        if "components" in d:
            return Mixture(tuple(
                (_numbers([entry["w"]])[0], new_colouring(_numbers(entry["theta"]))) for entry in d["components"]
            ))
    except ValidationError:
        raise
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise ValidationError(f"malformed model ({type(exc).__name__}: {exc})") from None
    raise ValidationError("model dict needs a 'theta' or 'components' key")
