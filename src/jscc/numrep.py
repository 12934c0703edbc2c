"""Bit-level representation of sources on [-1/2, 1/2).

Everything downstream of the digit-expansion codecs depends on one convention:
the binary digits of a sample x are the digits of x + 1/2 in [0, 1), truncated
(never rounded) to a fixed depth.  Truncation must be exact in the mathematical
sense, not merely close: several decoders reconstruct a sample by re-adding a
fractional tail to the represented prefix, and an off-by-one-ulp digit string
breaks those round trips.

The one digit format is the truncation integer u = floor((x + 1/2) * 2**p):
its p binary digits, most significant first, are source bits 0..p-1.  The
depth cap of 52 keeps every intermediate quantity exactly representable in a
float64: u * 2**-p and u * 2**-p - 1/2 are exact for 0 <= u < 2**p when
p <= 52.
"""

import math

import numpy as np

DEFAULT_PRECISION = 48
MAX_PRECISION = 52


def _check_unit_range(x) -> None:
    # Every comparison with NaN is false, so NaN fails too.
    if not np.all((x >= -0.5) & (x < 0.5)):
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
    f = x + 0.5
    np.ldexp(f, p, out=f)
    np.floor(f, out=f)
    u = f.astype(np.int64)
    scale = math.ldexp(1.0, -p)
    # f then holds each boundary u*2**-p - 1/2 in turn, rounded as written.
    # Rounded up across a boundary: represented value would exceed x + 1/2.
    f *= scale
    f -= 0.5
    np.subtract(u, 1, out=u, where=x < f)
    # Rounded down across a boundary: the next dyadic still fits below x + 1/2.
    np.add(u, 1, out=f)
    f *= scale
    f -= 0.5
    np.add(u, 1, out=u, where=x >= f)
    return u


def cell_midpoints(u: np.ndarray, p: int) -> np.ndarray:
    """Center of each truncation cell, u * 2**-p + 2**-(p+1), shifted back to
    [-1/2, 1/2).  Reconstructing at the center halves the worst-case error."""
    return np.ldexp((2 * u + 1).astype(np.float64), -(p + 1)) - 0.5


def split_integer_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split x into x1 + x2 with x1 integer and x2 in [-1/2, 1/2).

    Reconstruction x1 + x2 == x is exact in float64.  In-range samples keep
    x1 = 0 and x2 = x, since x - floor(x) is not exact for tiny |x|.
    """
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


# Variance of each source kind draw_source draws.
SOURCE_VARIANCE = {"uniform": 1.0 / 12.0, "gaussian": 1.0}


def draw_source(kind: str, rng: np.random.Generator, size=None) -> np.ndarray:
    """Source draws: uniform on [-1/2, 1/2) or standard normal."""
    if kind == "uniform":
        x = rng.random(size)
        x -= 0.5
        return x
    if kind == "gaussian":
        return rng.standard_normal(size)
    raise ValueError(f"unknown source kind {kind!r}")
