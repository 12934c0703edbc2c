import math

import numpy as np
import pytest

from jscc import channel


def test_sigma_snr_round_trip():
    assert channel.sigma_from_snr_db(20.0) == pytest.approx(0.1)
    assert channel.sigma_from_snr_db(0.0) == 1.0
    for snr in (-3.0, 0.0, 17.5, 60.0):
        assert channel.snr_db_from_sigma(channel.sigma_from_snr_db(snr)) == pytest.approx(snr)
    with pytest.raises(ValueError, match="float64 range"):
        channel.sigma_from_snr_db(-10000.0)
    assert channel.sigma_from_snr_db(6472.0) > 0.0  # subnormal, still positive
    with pytest.raises(ValueError, match="^snr 6473.0 dB rounds the noise level to zero$"):
        channel.sigma_from_snr_db(6473.0)
    # An array maps element by element, as the overlays need.
    assert channel.sigma_from_snr_db(np.array([0.0, 7000.0])).tolist() == [1.0, 0.0]


def test_sdr_db_values():
    assert channel.sdr_db(1.0 / 12.0, 1.0 / 12.0) == 0.0
    assert channel.sdr_db(1.0 / 1200.0, 1.0 / 12.0) == pytest.approx(20.0)
    assert channel.sdr_db(0.0, 1.0) == math.inf
    with pytest.raises(ValueError):
        channel.sdr_db(-1e-9, 1.0)


def test_awgn_moments():
    s = np.zeros((200000, 4))
    z = np.random.default_rng(42).standard_normal(s.shape)
    y = channel.awgn(s, 0.25, z)
    assert y.std() == pytest.approx(0.25, rel=0.01)
    assert abs(y.mean()) < 0.002
    # Dimensions uncorrelated.
    c = np.corrcoef(y.T)
    off = c[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 0.01)


def test_awgn_leaves_the_draws_alone():
    rng = np.random.default_rng(7)
    s, z = rng.random((5, 3)), rng.standard_normal((5, 3))
    kept = z.copy()
    z.flags.writeable = False
    y = channel.awgn(s, 0.3, z)
    assert np.array_equal(z, kept)
    # The same roundings as scaling the draws in place, then adding s.
    want = kept.copy()
    want *= 0.3
    want += s
    assert np.array_equal(y, want)


def test_awgn_zero_sigma_copies():
    s = np.ones((3, 2))
    y = channel.awgn(s, 0.0, np.zeros((3, 2)))
    assert np.array_equal(y, s)
    y[0, 0] = 7.0
    assert s[0, 0] == 1.0


def test_batch_rng_reproducible_and_distinct():
    a = channel.batch_rng(99, 3, 17).standard_normal(8)
    b = channel.batch_rng(99, 3, 17).standard_normal(8)
    assert np.array_equal(a, b)
    c = channel.batch_rng(99, 3, 18).standard_normal(8)
    d = channel.batch_rng(99, 4, 17).standard_normal(8)
    e = channel.batch_rng(100, 3, 17).standard_normal(8)
    for other in (c, d, e):
        assert not np.array_equal(a, other)


def test_noise_point_is_frozen():
    p = channel.NoisePoint(sigma=0.1, snr_db=20.0, point_index=0)
    with pytest.raises(AttributeError):
        p.sigma = 0.2
