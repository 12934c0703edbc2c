"""Digit expansion and integer-split checks, with exact rational oracles."""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jscc.numrep import (
    cell_midpoints,
    draw_source,
    split_integer_array,
    unit_fraction_ints,
)

unit_floats = st.floats(min_value=-0.5, max_value=0.5, exclude_max=True,
                        allow_nan=False, allow_infinity=False)


def exact_truncation(x: float, p: int) -> int:
    """Independent truncation oracle in exact rational arithmetic."""
    v = Fraction(x) + Fraction(1, 2)
    return (v.numerator * 2 ** p) // v.denominator


# ---------------------------------------------------------------------------
# Scalar oracles: one digit tuple per sample, one Python int per split.


@dataclass(frozen=True)
class FixedPointSample:
    """Truncated binary expansion of x + 1/2.

    bits[0] is the most significant digit (weight 2**-1).  The represented
    value v = sum(bits[i] * 2**-(i+1)) - 1/2 satisfies 0 <= x - v < 2**-p.
    """

    bits: tuple[int, ...]

    @property
    def precision(self) -> int:
        return len(self.bits)


def to_bits(x: float, p: int = 48) -> FixedPointSample:
    """First p binary digits of x + 1/2, truncated."""
    u = int(unit_fraction_ints(np.asarray([x]), p)[0])
    return FixedPointSample(bits=tuple((u >> (p - 1 - i)) & 1 for i in range(p)))


def from_bits(sample: FixedPointSample, midpoint_fill: bool = False) -> float:
    """Value represented by a digit string, shifted back to [-1/2, 1/2).

    With midpoint_fill the reconstruction sits at the center of the truncation
    cell (adds 2**-(p+1)), which halves the worst-case truncation error.
    """
    p = sample.precision
    assert all(b in (0, 1) for b in sample.bits)
    t = 0
    for b in sample.bits:
        t = (t << 1) | b
    if midpoint_fill:
        return math.ldexp(2 * t + 1, -(p + 1)) - 0.5
    return math.ldexp(t, -p) - 0.5


@dataclass(frozen=True)
class SplitSample:
    integer_part: int
    fractional_part: float


def split_integer(x: float) -> SplitSample:
    """Split x into x1 + x2 with x1 integer and x2 in [-1/2, 1/2)."""
    if -0.5 <= x < 0.5:
        # x - floor(x) is not exact for tiny |x|, so keep in-range samples as is.
        return SplitSample(integer_part=0, fractional_part=x)
    x1 = math.floor(x)
    x2 = x - x1
    if x2 >= 0.5:
        x1 += 1
        x2 -= 1.0
    return SplitSample(integer_part=x1, fractional_part=x2)


def test_bits_of_known_sample():
    sample = to_bits(0.3, p=8)
    assert sample.bits == (1, 1, 0, 0, 1, 1, 0, 0)
    assert sample.precision == 8


def test_bits_of_half_negative():
    assert to_bits(-0.5, p=6).bits == (0,) * 6
    assert to_bits(-0.25, p=4).bits == (0, 1, 0, 0)
    assert to_bits(0.0, p=4).bits == (1, 0, 0, 0)


@given(x=unit_floats, p=st.integers(min_value=1, max_value=52))
@settings(max_examples=300, deadline=None)
def test_truncation_matches_rational_oracle(x, p):
    u = int(unit_fraction_ints(np.asarray([x]), p)[0])
    assert u == exact_truncation(x, p)


@given(x=unit_floats, p=st.integers(min_value=1, max_value=52))
@settings(max_examples=300, deadline=None)
def test_round_trip_truncates_not_rounds(x, p):
    v = from_bits(to_bits(x, p))
    gap = Fraction(x) + Fraction(1, 2) - (Fraction(v) + Fraction(1, 2))
    assert 0 <= gap < Fraction(1, 2 ** p), f"x={x!r} p={p} gap={float(gap)}"


@given(x=unit_floats)
@settings(max_examples=200, deadline=None)
def test_midpoint_fill_halves_worst_case(x):
    v = from_bits(to_bits(x, 48), midpoint_fill=True)
    assert abs(x - v) <= 2.0 ** -49


def test_boundary_floats_near_half():
    top = math.nextafter(0.5, -1.0)
    u = int(unit_fraction_ints(np.asarray([top]), 48)[0])
    assert u == 2 ** 48 - 1
    low = math.nextafter(-0.5, 1.0)
    assert int(unit_fraction_ints(np.asarray([low]), 48)[0]) == 0


def test_prefix_consistency():
    rng = np.random.default_rng(7)
    xs = rng.random(200) - 0.5
    long = unit_fraction_ints(xs, 48)
    short = unit_fraction_ints(xs, 20)
    assert np.array_equal(long >> 28, short)


def test_truncation_is_monotone():
    rng = np.random.default_rng(11)
    xs = np.sort(rng.random(1000) - 0.5)
    us = unit_fraction_ints(xs, 48)
    assert np.all(np.diff(us) >= 0)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        to_bits(0.5)
    with pytest.raises(ValueError):
        to_bits(-0.5000001)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            to_bits(x)
    with pytest.raises(ValueError):
        to_bits(0.1, p=53)
    with pytest.raises(ValueError):
        to_bits(0.1, p=0)


def test_from_bits_all_zero_midpoint():
    sample = FixedPointSample(bits=(0,) * 8)
    assert from_bits(sample, midpoint_fill=True) == -0.5 + 2.0 ** -9
    assert from_bits(sample) == -0.5


def test_cell_midpoints_match_scalar():
    rng = np.random.default_rng(3)
    xs = rng.random(100) - 0.5
    vec = cell_midpoints(unit_fraction_ints(xs, 48), 48)
    for x, v in zip(xs, vec):
        assert v == from_bits(to_bits(float(x), 48), midpoint_fill=True)


def test_split_integer_example():
    s = split_integer(2.3)
    assert s.integer_part == 2
    assert s.fractional_part == pytest.approx(0.3, abs=1e-15)
    assert s.integer_part + s.fractional_part == 2.3


def test_split_integer_half_goes_down():
    s = split_integer(-0.5)
    assert (s.integer_part, s.fractional_part) == (0, -0.5)
    s = split_integer(1.5)
    assert (s.integer_part, s.fractional_part) == (2, -0.5)


@given(x=st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_split_integer_reconstructs_exactly(x):
    s = split_integer(x)
    assert s.integer_part + s.fractional_part == x
    assert -0.5 <= s.fractional_part < 0.5


def test_split_integer_array_matches_scalar():
    rng = np.random.default_rng(5)
    xs = rng.standard_normal(10000) * 3.0
    ints, fracs = split_integer_array(xs)
    assert np.all(ints + fracs == xs)
    assert np.all(fracs >= -0.5) and np.all(fracs < 0.5)
    spot = [split_integer(float(x)) for x in xs[:50]]
    assert np.array_equal([s.integer_part for s in spot], ints[:50])
    assert np.array_equal([s.fractional_part for s in spot], fracs[:50])


def test_draw_source_moments():
    rng = np.random.default_rng(123)
    u = draw_source("uniform", rng, 10 ** 6)
    assert abs(u.mean()) < 0.001
    assert abs(u.var() - 1.0 / 12.0) < 0.01 / 12.0
    assert u.min() >= -0.5 and u.max() < 0.5
    g = draw_source("gaussian", rng, 10 ** 6)
    assert abs(g.var() - 1.0) < 0.01
    with pytest.raises(ValueError):
        draw_source("laplace", rng, 10)
