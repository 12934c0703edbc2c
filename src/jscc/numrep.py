"""Bit-level representation of sources on [-1/2, 1/2).

Everything downstream of the digit-expansion codecs depends on one convention:
the binary digits of a sample x are the digits of x + 1/2 in [0, 1), truncated
(never rounded) to a fixed depth.  Truncation must be exact in the mathematical
sense, not merely close: several decoders reconstruct a sample by re-adding a
fractional tail to the represented prefix, and an off-by-one-ulp digit string
breaks those round trips.

All helpers below therefore work on exact dyadic integers.  The depth cap of 52
keeps every intermediate quantity exactly representable in a float64:
u * 2**-p and u * 2**-p - 1/2 are exact for 0 <= u < 2**p when p <= 52.
"""

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_PRECISION = 48
MAX_PRECISION = 52

SOURCE_KINDS = ("uniform", "gaussian")


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


def _check_unit_range(x) -> None:
    if np.any(x < -0.5) or np.any(x >= 0.5) or not np.all(np.isfinite(x)):
        raise ValueError("sample outside [-1/2, 1/2)")


def _check_precision(p: int) -> None:
    if not 1 <= p <= MAX_PRECISION:
        raise ValueError(f"precision must be in [1, {MAX_PRECISION}], got {p}")


def unit_fraction_ints(x: np.ndarray, p: int = DEFAULT_PRECISION) -> np.ndarray:
    """Exact floor((x + 1/2) * 2**p) for x in [-1/2, 1/2), vectorized.

    The float sum x + 0.5 is correctly rounded, which can push the product
    across a 2**-p boundary in either direction.  Both directions are undone
    by comparing x against the exactly representable boundary u*2**-p - 1/2,
    so the result is the true truncation of the real number x + 1/2.
    """
    _check_precision(p)
    x = np.asarray(x, dtype=np.float64)
    _check_unit_range(x)
    u = np.floor(np.ldexp(x + 0.5, p)).astype(np.int64)
    scale = math.ldexp(1.0, -p)
    # Rounded up across a boundary: represented value would exceed x + 1/2.
    u = np.where(x < u * scale - 0.5, u - 1, u)
    # Rounded down across a boundary: the next dyadic still fits below x + 1/2.
    u = np.where(x >= (u + 1) * scale - 0.5, u + 1, u)
    return u


def bits_from_ints(u: np.ndarray, p: int) -> np.ndarray:
    """Unpack truncation integers into an (n, p) array of digits, MSB first."""
    u = np.asarray(u, dtype=np.int64)
    shifts = np.arange(p - 1, -1, -1, dtype=np.int64)
    return ((u[..., None] >> shifts) & 1).astype(np.uint8)


def ints_from_bits(bits: np.ndarray) -> np.ndarray:
    bits = np.asarray(bits)
    p = bits.shape[-1]
    weights = (1 << np.arange(p - 1, -1, -1, dtype=np.int64))
    return bits.astype(np.int64) @ weights


def to_bits(x: float, p: int = DEFAULT_PRECISION) -> FixedPointSample:
    """First p binary digits of x + 1/2, truncated."""
    u = unit_fraction_ints(np.asarray([x]), p)[0]
    return FixedPointSample(bits=tuple(int(b) for b in bits_from_ints(np.asarray([u]), p)[0]))


def from_bits(sample: FixedPointSample, midpoint_fill: bool = False) -> float:
    """Value represented by a digit string, shifted back to [-1/2, 1/2).

    With midpoint_fill the reconstruction sits at the center of the truncation
    cell (adds 2**-(p+1)), which halves the worst-case truncation error.
    """
    p = sample.precision
    _check_precision(p)
    if any(b not in (0, 1) for b in sample.bits):
        raise ValueError("digits must be 0 or 1")
    t = 0
    for b in sample.bits:
        t = (t << 1) | b
    if midpoint_fill:
        return math.ldexp(2 * t + 1, -(p + 1)) - 0.5
    return math.ldexp(t, -p) - 0.5


def values_from_bit_rows(bits: np.ndarray, midpoint_fill: bool = True) -> np.ndarray:
    """Vectorized from_bits over an (n, p) digit array."""
    p = bits.shape[-1]
    t = ints_from_bits(bits)
    if midpoint_fill:
        return np.ldexp((2 * t + 1).astype(np.float64), -(p + 1)) - 0.5
    return np.ldexp(t.astype(np.float64), -p) - 0.5


@dataclass(frozen=True)
class SplitSample:
    integer_part: int
    fractional_part: float


def split_integer(x: float) -> SplitSample:
    """Split x into x1 + x2 with x1 integer and x2 in [-1/2, 1/2).

    Reconstruction x1 + x2 == x is exact in float64.
    """
    if not math.isfinite(x):
        raise ValueError("sample must be finite")
    if -0.5 <= x < 0.5:
        # x - floor(x) is not exact for tiny |x|, so keep in-range samples as is.
        return SplitSample(integer_part=0, fractional_part=x)
    x1 = math.floor(x)
    x2 = x - x1
    if x2 >= 0.5:
        x1 += 1
        x2 -= 1.0
    return SplitSample(integer_part=x1, fractional_part=x2)


def split_integer_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    small = (x >= -0.5) & (x < 0.5)
    x1 = np.where(small, 0.0, np.floor(x))
    x2 = np.where(small, x, x - x1)
    high = x2 >= 0.5
    x1 = np.where(high, x1 + 1, x1)
    x2 = np.where(high, x2 - 1.0, x2)
    return x1, x2


def draw_source(kind: str, rng: np.random.Generator, size=None) -> np.ndarray:
    """Source draws: uniform on [-1/2, 1/2) or standard normal."""
    if kind == "uniform":
        return rng.random(size) - 0.5
    if kind == "gaussian":
        return rng.standard_normal(size)
    raise ValueError(f"unknown source kind {kind!r}")
