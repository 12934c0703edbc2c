"""AWGN channel, SNR/SDR conversions, and reproducible noise streams."""

import math
from dataclasses import dataclass

import numpy as np

# Master seed of a sweep, a dimension check or a stretch profile that names
# none.
DEFAULT_MASTER_SEED = 0x5EED


@dataclass(frozen=True)
class NoisePoint:
    """One grid point of a sweep: its noise level and its index in the
    grid, which with the plan's master seed keys its batch streams."""

    sigma: float
    snr_db: float
    point_index: int


def sigma_from_snr_db(snr_db: float) -> float:
    """Per-dimension noise std for unit transmit power: 10**(-snr_db/20).

    For a scalar, a level past the float64 range, or one that rounds to zero
    (above about 6472 dB), is a ValueError.  An array maps element by element
    to inf or 0.0 there, as numpy's power does.
    """
    try:
        sigma = 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        raise ValueError(f"snr {snr_db!r} dB puts the noise level past "
                         "the float64 range") from None
    if np.ndim(sigma) == 0 and sigma == 0.0:
        raise ValueError(f"snr {snr_db!r} dB rounds the noise level to zero")
    return sigma


def snr_db_from_sigma(sigma: float) -> float:
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return -20.0 * math.log10(sigma)


def sdr_db(distortion: float, source_variance: float) -> float:
    """Signal-to-distortion ratio in dB; +inf for an exactly zero distortion."""
    if distortion < 0.0:
        raise ValueError("distortion must be nonnegative")
    if source_variance <= 0.0:
        raise ValueError("source variance must be positive")
    if distortion == 0.0:
        return math.inf
    return 10.0 * math.log10(source_variance / distortion)


def awgn(s: np.ndarray, sigma: float, z: np.ndarray) -> np.ndarray:
    """s plus white gaussian noise of per-dimension std sigma, as a new array.

    z holds the standard normal draws, one per entry of s.  It is only read,
    so one draw can serve every signal sent over the same stream.
    """
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if sigma == 0.0:
        return np.array(s, dtype=np.float64, copy=True)
    # sigma * z + s: the same roundings as s + sigma * z.
    y = np.multiply(z, sigma)
    y += s
    return y


def batch_rng(master_seed: int, point_index: int, batch_index: int) -> np.random.Generator:
    """Generator for one trial batch, independent of worker scheduling.

    Streams are keyed by (master_seed, point_index, batch_index) through
    SeedSequence spawn keys, so any partition of batches across processes
    reproduces the same draws.
    """
    seq = np.random.SeedSequence(entropy=master_seed,
                                 spawn_key=(point_index, batch_index))
    return np.random.default_rng(seq)


def derived_rng(master_seed: int, *labels: int) -> np.random.Generator:
    """Named auxiliary stream keyed by (master_seed, *labels): the constellation
    draws of box-counting dimension checks and the source draws of stretch
    profiles.  Normalization keeps its own fixed generator."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=tuple(labels))
    return np.random.default_rng(seq)
