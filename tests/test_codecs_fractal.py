"""Tests for the wide-base digit-interleaving codec."""

import numpy as np
import pytest

from jscc.codecs import CodecSpec, build_codec
from jscc.numrep import unit_fraction_ints


def make(alpha, n, p=48):
    return build_codec(CodecSpec("scheme1", n=n, alpha=alpha, p=p))


def digits(u, p):
    """(rows, p) digits of truncation integers, source bit 0 first."""
    return ((np.asarray(u)[:, None] >> np.arange(p - 1, -1, -1)) & 1).astype(np.uint8)


def decoded_digits(c, y):
    """Digits of the decoded cell; exact since decode returns cell midpoints."""
    return digits(unit_fraction_ints(c.decode(y), c.spec.p), c.spec.p)


def exhaustive_patterns(depth, alpha):
    """All depth-digit patterns and their base-alpha values, pattern order."""
    pats = np.arange(1 << depth, dtype=np.int64)
    bitmat = (pats[:, None] >> np.arange(depth - 1, -1, -1)) & 1
    weights = alpha ** -np.arange(1, depth + 1, dtype=np.float64)
    return bitmat.astype(np.uint8), bitmat.astype(np.float64) @ weights


def test_worked_examples():
    c = make(4.0, 2)
    s = c.encode(np.array([1.0 / 6.0]))[0]
    assert abs(s[0] - 1.0 / 3.0) < 1e-12
    assert s[1] == 0.0
    s = c.encode(np.array([0.0]))[0]
    assert s[0] == 0.25 and s[1] == 0.0
    np.testing.assert_array_equal(c.encode(np.array([-0.5]))[0], [0.0, 0.0])


@pytest.mark.parametrize("alpha,n", [(3.0, 2), (3.0, 4)])
def test_noiseless_round_trip(alpha, n):
    c = make(alpha, n)
    x = np.random.default_rng(21).uniform(-0.5, 0.5, 10 ** 5)
    err = np.abs(c.decode(c.encode(x)) - x)
    assert np.max(err) <= 2.0 ** -(c.spec.p - n)


@pytest.mark.parametrize("alpha", [3.0, 4.0])
@pytest.mark.parametrize("n", [2, 4])
def test_greedy_equals_exhaustive_nearest(alpha, n):
    depth = 12
    c = make(alpha, n, p=depth * n)
    rng = np.random.default_rng(1000 + n + int(alpha))
    x = rng.uniform(-0.5, 0.5, 10 ** 4)
    y = c.encode(x)
    y[:8000] += 0.08 * rng.standard_normal((8000, n))
    y[8000:] = rng.uniform(-0.2, 1.2, (2000, n))

    greedy = decoded_digits(c, y)
    bitmat, values = exhaustive_patterns(depth, alpha)
    for dim, stream in enumerate(c.streams):
        want = np.empty((y.shape[0], depth), dtype=np.uint8)
        for start in range(0, y.shape[0], 2000):
            r = y[start:start + 2000, dim]
            nearest = np.argmin(np.abs(r[:, None] - values[None, :]), axis=1)
            want[start:start + 2000] = bitmat[nearest]
        np.testing.assert_array_equal(greedy[:, stream.data_bits], want)


@pytest.mark.parametrize("alpha,n", [(3.0, 2), (4.0, 3)])
def test_separation_bound(alpha, n):
    """First digit difference at depth d keeps outputs (alpha-2)/alpha^(d+1)
    apart; scanned over random pairs with no near-violation."""
    c = make(alpha, n)
    rng = np.random.default_rng(33)
    worst_ratio = np.inf
    for _ in range(5):
        xa = rng.uniform(-0.5, 0.5, 10 ** 5)
        xb = rng.uniform(-0.5, 0.5, 10 ** 5)
        sa, sb = c.encode(xa), c.encode(xb)
        ba = digits(unit_fraction_ints(xa, c.spec.p), c.spec.p)
        bb = digits(unit_fraction_ints(xb, c.spec.p), c.spec.p)
        for dim, stream in enumerate(c.streams):
            diff = ba[:, stream.data_bits] != bb[:, stream.data_bits]
            has = diff.any(axis=1)
            if not has.any():
                continue
            first = np.argmax(diff[has], axis=1) + 1  # 1-based depth
            gap = np.abs(sa[has, dim] - sb[has, dim])
            bound = (alpha - 2.0) * alpha ** -(first + 1.0)
            worst_ratio = min(worst_ratio, np.min(gap / bound))
    assert worst_ratio > 1.0


def test_prefix_correct_under_bounded_noise():
    alpha, n, depth_checked = 3.0, 2, 6
    c = make(alpha, n, p=24)
    rng = np.random.default_rng(55)
    x = rng.uniform(-0.5, 0.5, 10 ** 4)
    s = c.encode(x)
    true_bits = digits(unit_fraction_ints(x, 24), 24)

    margin = 0.95 * (alpha - 2.0) * alpha ** -(depth_checked + 1.0) / 2.0
    noise = margin * np.where(rng.random((x.size, n)) < 0.5, -1.0, 1.0)
    got = decoded_digits(c, s + noise)
    for dim, stream in enumerate(c.streams):
        keep = stream.data_bits[:depth_checked]
        np.testing.assert_array_equal(got[:, keep], true_bits[:, keep])


def test_alpha_at_most_two_rejected():
    with pytest.raises(ValueError):
        CodecSpec("scheme1", n=2, alpha=2.0)
