"""Tests for the integer-plus-fraction wrapper around the layered codec."""

import warnings

import numpy as np
import pytest

from jscc.codecs import CapacityError, CodecSpec, build_codec
from jscc.codecs.unbounded import OFFSET_CAP, integer_search_radius


def make(n, p=48):
    return build_codec(CodecSpec("unbounded_wrap", n=n, p=p))


def test_first_component_carries_the_integer():
    c = make(3)
    s = c.encode(np.array([2.3]))
    inner = c.inner.encode(np.array([0.3]))
    assert s[0, 0] == 2.0 + inner[0, 0] - 0.5
    np.testing.assert_array_equal(s[0, 1:], inner[0, 1:] - 0.5)


def test_search_radius():
    assert integer_search_radius(0.0) == 0.75
    assert integer_search_radius(0.1) == pytest.approx(1.15)


def test_offset_window_stays_below_its_bound():
    # Each row searches [floor(c - r), ceil(c + r)]: fewer than 2r + 3 offsets.
    rng = np.random.default_rng(8)
    for sigma in (0.0, 0.1, 0.37, 1.0, 12.5):
        r = integer_search_radius(sigma)
        c = np.concatenate([rng.uniform(-50.0, 50.0, 10 ** 4),
                            np.arange(-8.0, 8.0, 0.125), [r, -r, 0.5 - r]])
        span = np.ceil(c + r) - np.floor(c - r) + 1
        assert span.max() < 2.0 * r + 3.0


def test_decode_noise_level_cap():
    c = make(2)
    top = (OFFSET_CAP - 3.0) / 2.0  # the largest radius within the cap
    c.check_decode_sigma(0.0)
    c.check_decode_sigma((top - 0.75) / 4.0)
    for sigma in ((top - 0.75) / 4.0 * (1 + 1e-9), 1e20, np.inf, np.nan):
        with pytest.raises(CapacityError, match=f"past the cap {OFFSET_CAP}$"):
            c.check_decode_sigma(sigma)
    # Codes whose decode cost does not grow with the noise accept any level.
    build_codec(CodecSpec("scheme2", n=2)).check_decode_sigma(1e300)


@pytest.mark.parametrize("n", [2, 3])
def test_noiseless_round_trip(n):
    c = make(n)
    x = np.random.default_rng(91).normal(0.0, 1.0, 10 ** 4)
    err = np.abs(c.decode(c.encode(x)) - x)
    assert np.max(err) <= 2.0 ** -(48 - 2 * n)


def test_round_trip_far_from_origin():
    c = make(2)
    x = np.array([1000.3, -273.15, 0.0, -0.5, 12345.678])
    err = np.abs(c.decode(c.encode(x)) - x)
    assert np.max(err) <= 1e-9


def test_component_power_bounded():
    # Second moment of every transmitted coordinate stays under 4 for a
    # unit-variance gaussian source.
    c = make(3)
    rng = np.random.default_rng(2024)
    acc = np.zeros(3)
    total = 10 ** 6
    chunk = 10 ** 5
    for _ in range(total // chunk):
        s = c.encode(rng.normal(0.0, 1.0, chunk))
        acc += (s * s).sum(axis=0)
    assert np.all(acc / total <= 4.0)


def test_noisy_integer_recovery():
    c = make(2)
    rng = np.random.default_rng(404)
    x = rng.normal(0.0, 1.0, 5000)
    y = c.encode(x) + 0.05 * rng.standard_normal((x.size, 2))
    xhat = c.decode(y, sigma=0.05)
    err = xhat - x
    assert np.mean(err * err) < 0.01
    assert np.mean(np.abs(err) < 0.5) > 0.99


def test_source_kind_is_gaussian():
    spec = CodecSpec("unbounded_wrap", n=2)
    assert spec.source_kind == "gaussian"
    assert spec.source_variance == 1.0


def test_inner_code_takes_the_wrappers_own_fields():
    wrap = build_codec(CodecSpec("unbounded_wrap", n=3, p=20,
                                 grouping_variant="shifted"))
    assert wrap.inner.spec == CodecSpec("scheme2", n=3, p=20,
                                        grouping_variant="shifted")
    x = np.random.default_rng(5).uniform(-0.5, 0.5, 64)
    assert (wrap.encode(x) + 0.5).tobytes() == wrap.inner.encode(x).tobytes()
    with pytest.raises(ValueError, match="n >= 2"):
        CodecSpec("unbounded_wrap", n=1)


def test_decode_of_extreme_rows_stays_on_their_side():
    # An infinite or huge first coordinate once went through an int64 cast
    # to INT64_MIN, and the row decoded to -9.22e18 with a RuntimeWarning.
    c = make(2)
    rng = np.random.default_rng(23)
    x = rng.normal(0.0, 1.0, 200)
    y = c.encode(x) + 0.01 * rng.standard_normal((x.size, 2))
    extreme = np.array([[np.inf, 0.1], [1e30, 0.2], [2.0 ** 63, 0.3], [1e300, np.inf],
                        [-np.inf, 0.1], [-1e30, 0.2], [np.nan, 0.1], [0.4, np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = c.decode(y, sigma=0.01)
        got = c.decode(np.concatenate([y, extreme]), sigma=0.01)
    assert got[:x.size].tobytes() == want.tobytes()
    high, low, nan = got[x.size:x.size + 4], got[x.size + 4:x.size + 6], got[x.size + 6:]
    assert np.all(high >= 2.0 ** 52 - 1)
    assert np.all(low <= -2.0 ** 52 + 1)
    assert np.array_equal(nan, [0.0, 0.0])


def _offset_search_decode(c, y, sigma):
    """The former wrapper decode, kept as an oracle: every offset's candidate
    scored in one pass with its own tie rule, offset 0 always taken."""
    radius = integer_search_radius(sigma)
    first = y[:, 0]
    centre = np.nan_to_num(first, nan=0.0)
    lo = np.floor(np.clip(centre - radius, -2.0 ** 52, 2.0 ** 52)).astype(np.int64)
    hi = np.ceil(np.clip(centre + radius, -2.0 ** 52, 2.0 ** 52)).astype(np.int64)
    best_x = np.zeros(y.shape[0])
    best_d = np.full(y.shape[0], np.inf)
    for off in range(int(np.max(hi - lo)) + 1):
        cand = lo + off
        shifted = y.copy()
        shifted[:, 0] = first - cand
        total = cand + c.inner.decode(shifted + 0.5, sigma=sigma)
        re_enc = c.encode(total)
        d = np.einsum("ij,ij->i", y - re_enc, y - re_enc)
        take = (cand <= hi) & ((d < best_d) | ((d == best_d) & (total < best_x))
                               | (off == 0))
        best_d = np.where(take, d, best_d)
        best_x = np.where(take, total, best_x)
    return np.where(np.isnan(y).any(axis=1), 0.0, best_x)


@pytest.mark.parametrize("n,sigma", [(2, 0.05), (2, 0.5), (3, 0.2)])
def test_decode_matches_offset_search_oracle(n, sigma):
    c = make(n)
    rng = np.random.default_rng(77 + n)
    x = rng.normal(0.0, 1.0, 3000)
    y = c.encode(x) + sigma * rng.standard_normal((x.size, n))
    # Rows halfway between integers, where two offsets can tie, and extremes.
    y[:200, 0] = np.round(y[:200, 0]) + 0.5
    extreme = np.full((4, n), 0.1)
    extreme[:, 0] = [np.inf, -1e30, np.nan, 0.4]
    extreme[3, -1] = np.inf
    y = np.concatenate([y, extreme])
    got, want = c.decode(y, sigma=sigma), _offset_search_decode(c, y, sigma)
    assert got.tobytes() == want.tobytes()
