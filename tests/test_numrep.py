"""Digit expansion and integer-split checks, with exact rational oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jscc import numrep
from jscc.numrep import (
    FixedPointSample,
    bits_from_ints,
    draw_source,
    from_bits,
    split_integer,
    split_integer_array,
    to_bits,
    unit_fraction_ints,
    values_from_bit_rows,
)

unit_floats = st.floats(min_value=-0.5, max_value=0.5, exclude_max=True,
                        allow_nan=False, allow_infinity=False)


def exact_truncation(x: float, p: int) -> int:
    """Independent truncation oracle in exact rational arithmetic."""
    v = Fraction(x) + Fraction(1, 2)
    return (v.numerator * 2 ** p) // v.denominator


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
    long = bits_from_ints(unit_fraction_ints(xs, 48), 48)
    short = bits_from_ints(unit_fraction_ints(xs, 20), 20)
    assert np.array_equal(long[:, :20], short)


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
    with pytest.raises(ValueError):
        to_bits(0.1, p=53)
    with pytest.raises(ValueError):
        to_bits(0.1, p=0)


def test_from_bits_all_zero_midpoint():
    sample = FixedPointSample(bits=(0,) * 8)
    assert from_bits(sample, midpoint_fill=True) == -0.5 + 2.0 ** -9
    assert from_bits(sample) == -0.5


def test_values_from_bit_rows_matches_scalar():
    rng = np.random.default_rng(3)
    xs = rng.random(100) - 0.5
    bits = bits_from_ints(unit_fraction_ints(xs, 48), 48)
    vec = values_from_bit_rows(bits, midpoint_fill=True)
    for row, v in zip(bits, vec):
        assert v == from_bits(FixedPointSample(bits=tuple(int(b) for b in row)),
                              midpoint_fill=True)


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
