"""Tests for the separator-protected layered binary codec, and for the table
decode that every digit-stream codec shares."""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jscc.codecs import CodecSpec, build_codec, hybrid, layered
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


# --- table decode: exact against the sequential greedy --------------------

TABLE_SPECS = (
    [CodecSpec("scheme1", n=n, alpha=a) for a in (2.5, 3.0, 4.0, 5.0, 8.0) for n in (2, 3, 4)]
    + [CodecSpec("scheme2", n=2), CodecSpec("scheme2", n=4),
       CodecSpec("scheme2", n=3, grouping_variant="shifted"),
       CodecSpec("scheme2", n=4, grouping_variant="shifted"),
       CodecSpec("type2", n=2, k=3), CodecSpec("type2", n=4, k=3),
       CodecSpec("type2", n=3, k=6, grouping_variant="shifted"), CodecSpec("type2", n=2, k=12)]
)
spec_ids = [s.describe() for s in TABLE_SPECS]


@functools.lru_cache(maxsize=None)
def codec_for(spec):
    return build_codec(spec)


def greedy_decode(codec, y):
    """The codec's decode with every stream decoded by the sequential greedy."""
    with mock.patch.object(layered, "decode_stream", layered.greedy_stream_decode), \
            mock.patch.object(hybrid, "decode_stream", layered.greedy_stream_decode):
        return codec.decode(y)


def ulp_steps(values, steps=(0, 1, -1, 2, -2, 8, -8)):
    """Each value and its neighbours the given number of floats away."""
    out = []
    for k in steps:
        v = np.asarray(values, dtype=np.float64)
        for _ in range(abs(k)):
            v = np.nextafter(v, np.copysign(np.inf, k))
        out.append(v)
    return np.concatenate(out)


@pytest.mark.parametrize("spec", TABLE_SPECS, ids=spec_ids)
@given(seed=st.integers(0, 2 ** 32 - 1), snr_db=st.floats(0.0, 80.0),
       far=st.floats(1.0, 1e6), special=st.sampled_from([np.nan, np.inf, -np.inf]))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_decode_matches_greedy_oracle(spec, seed, snr_db, far, special):
    codec = codec_for(spec)
    rng = np.random.default_rng(seed)
    s = codec.encode(rng.random(512) - 0.5)
    y = s + s.std() * 10 ** (-snr_db / 20) * rng.standard_normal(s.shape)
    y[:32] = far * rng.standard_normal((32, codec.dims))
    y[32:40, rng.integers(codec.dims)] = special
    y[40] = special
    assert codec.decode(y).tobytes() == greedy_decode(codec, y).tobytes()


def stream_cases():
    for spec in TABLE_SPECS:
        for dim, stream in enumerate(codec_for(spec).streams):
            yield pytest.param(stream, id=f"{spec.describe()} dim {dim}")


@pytest.mark.parametrize("stream", list(stream_cases()))
def test_every_cut_neighbourhood_matches_greedy(stream):
    """Residuals at every cut and tail threshold, and 1, 2 and 8 ulps either
    side, once with all earlier digits 0 and once under a random prefix."""
    rng = np.random.default_rng(len(stream.data_weights))
    tail = stream.chunks[-1].stop if stream.chunks else 0
    points = [(table.cuts, table.start) for table in stream.chunks]
    points += [(stream.thresholds[d:d + 1], d) for d in range(tail, len(stream.data_weights))]
    rows = []
    for values, start in points:
        # Cuts of a later chunk lie under every earlier threshold, so a bare
        # cut reaches that chunk with its residual unchanged.
        rows.append(ulp_steps(values))
        prefix = rng.integers(0, 2, (values.size, start)).astype(np.float64)
        rows.append(ulp_steps(prefix @ stream.data_weights[:start] + values))
    r = np.concatenate(rows)
    got = np.zeros(r.size, dtype=np.int64)
    want = np.zeros(r.size, dtype=np.int64)
    layered.decode_stream(r, stream, got)
    layered.greedy_stream_decode(r, stream, want)
    np.testing.assert_array_equal(got, want)


def table_cases():
    for spec in TABLE_SPECS:
        for stream in codec_for(spec).streams:
            yield from stream.chunks


def test_table_lookup_matches_brute_force():
    """Leaf = number of cuts below the residual; distance = to the nearest
    cut whenever that one lies within a bucket width, never less otherwise.
    Probed at every cut, at the edges of the buckets around it, and beyond
    both ends."""
    for table in table_cases():
        cuts, width = table.cuts, 1.0 / table.scale
        edges = table.lo + width * (table.bucket(cuts)[:, None] + np.arange(-1, 3)).ravel()
        r = np.concatenate([ulp_steps(cuts), ulp_steps(edges, (0, 1, -1)),
                            [table.lo - 1.0, table.hi + 1.0, -1e300, 1e300]])
        leaf, dist = table.lookup(r)
        np.testing.assert_array_equal(leaf, np.searchsorted(cuts, r, side="left"))
        i = np.searchsorted(cuts, r)
        below = np.abs(r - cuts[np.maximum(i - 1, 0)])
        above = np.abs(r - cuts[np.minimum(i, cuts.size - 1)])
        true = np.minimum(below, above)
        near = true < width
        np.testing.assert_array_equal(dist[near], true[near])
        assert np.all(dist[~near] >= true[~near])
