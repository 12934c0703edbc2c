"""Tests for the separator-protected layered binary codec."""

import math

import numpy as np
import pytest

from jscc.codecs import CodecSpec, build_codec
from jscc.codecs.layered import build_streams, group_size
from jscc.numrep import unit_fraction_ints


def make(n, variant="standard", p=48):
    return build_codec(CodecSpec("scheme2", n=n, p=p, grouping_variant=variant))


def digits(u, p):
    """(rows, p) digits of truncation integers, source bit 0 first."""
    return ((np.asarray(u)[:, None] >> np.arange(p - 1, -1, -1)) & 1).astype(np.uint8)


def decoded_digits(c, y):
    """Digits of the decoded cell; exact since decode returns cell midpoints."""
    return digits(unit_fraction_ints(c.decode(y), c.spec.p), c.spec.p)


def test_layout_example_two_dims():
    streams = build_streams(2, 15)
    # Slot strings use 0-based source bit indices, -1 marks a separator.
    assert streams[0].slots.tolist() == [0, -1, 3, 4, 5, -1, 10, 11, 12, 13, 14, -1]
    assert streams[1].slots.tolist() == [1, 2, -1, 6, 7, 8, 9, -1]


def test_first_n_groups_cover_triangle():
    # The first n groups hold the first n(n+1)/2 bits: group d+1 is exactly
    # the d+1 bits of stream d, followed by its separator.
    for n in (2, 3, 4, 5):
        streams = build_streams(n, n * (n + 1) // 2)
        for d, stream in enumerate(streams):
            first = d * (d + 1) // 2
            assert stream.slots.tolist() == list(range(first, first + d + 1)) + [-1]


def test_shifted_group_sizes():
    assert [group_size(l, 2, "shifted") for l in range(1, 7)] == [1, 2, 2, 3, 3, 4]
    assert [group_size(l, 3, "shifted") for l in range(1, 7)] == [1, 2, 3, 3, 4, 5]


@pytest.mark.parametrize("variant", ["standard", "shifted"])
@pytest.mark.parametrize("n", [2, 4])
def test_streams_partition_source_bits(n, variant):
    streams = build_streams(n, 48, variant)
    seen = np.concatenate([s.data_bits for s in streams])
    assert sorted(seen.tolist()) == list(range(48))


def test_encode_matches_slot_arithmetic():
    c = make(2, p=15)
    bits = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1]
    x = sum(b * 2.0 ** -(i + 1) for i, b in enumerate(bits)) - 0.5
    s = c.encode(np.array([x]))[0]
    want0 = (bits[0] / 2 + bits[3] / 8 + bits[4] / 16 + bits[5] / 32
             + bits[10] / 2 ** 7 + bits[11] / 2 ** 8 + bits[12] / 2 ** 9
             + bits[13] / 2 ** 10 + bits[14] / 2 ** 11)
    want1 = (bits[1] / 2 + bits[2] / 4 + bits[6] / 2 ** 4 + bits[7] / 2 ** 5
             + bits[8] / 2 ** 6 + bits[9] / 2 ** 7)
    assert s[0] == want0 and s[1] == want1


def test_all_zero_source_is_zero_vector():
    c = make(3)
    np.testing.assert_array_equal(c.encode(np.array([-0.5]))[0], [0.0, 0.0, 0.0])


@pytest.mark.parametrize("variant", ["standard", "shifted"])
@pytest.mark.parametrize("n", [2, 4])
def test_noiseless_round_trip(n, variant):
    c = make(n, variant)
    x = np.random.default_rng(17).uniform(-0.5, 0.5, 10 ** 5)
    assert np.max(np.abs(c.decode(c.encode(x)) - x)) <= 2.0 ** -(48 - 2 * n)


@pytest.mark.parametrize("n,p", [(2, 15), (4, 26)])
def test_greedy_equals_exhaustive_nearest(n, p):
    c = make(n, p=p)
    rng = np.random.default_rng(900 + n)
    x = rng.uniform(-0.5, 0.5, 10 ** 4)
    y = c.encode(x)
    y[:8000] += 0.07 * rng.standard_normal((8000, n))
    y[8000:] = rng.uniform(-0.2, 1.2, (2000, n))

    greedy = decoded_digits(c, y)
    for dim, stream in enumerate(c.streams):
        depth = len(stream.data_weights)
        pats = np.arange(1 << depth, dtype=np.int64)
        bitmat = ((pats[:, None] >> np.arange(depth - 1, -1, -1)) & 1).astype(np.uint8)
        values = bitmat.astype(np.float64) @ stream.data_weights
        want = np.empty((y.shape[0], depth), dtype=np.uint8)
        for start in range(0, y.shape[0], 2000):
            r = y[start:start + 2000, dim]
            nearest = np.argmin(np.abs(r[:, None] - values[None, :]), axis=1)
            want[start:start + 2000] = bitmat[nearest]
        np.testing.assert_array_equal(greedy[:, stream.data_bits], want)


def test_truncated_final_group_has_no_separator():
    streams = build_streams(4, 26)
    # Bits 21..25 are five bits of a seven-bit group; nothing follows them.
    assert streams[2].slots.tolist()[-5:] == [21, 22, 23, 24, 25]


def test_separator_gap_protects_leading_bit():
    """A hit strictly inside the first decision gap of dim 1 cannot corrupt
    the bit above the first separator."""
    c = make(2, p=15)
    rng = np.random.default_rng(71)
    x = rng.uniform(-0.5, 0.5, 10 ** 4)
    s = c.encode(x)
    true_bits = digits(unit_fraction_ints(x, 15), 15)
    stream = c.streams[0]
    margin = stream.data_weights[0] - stream.thresholds[0]
    noise = 0.9 * margin * np.where(rng.random((x.size, 2)) < 0.5, -1, 1)
    got = decoded_digits(c, s + noise)
    np.testing.assert_array_equal(got[:, 0], true_bits[:, 0])
