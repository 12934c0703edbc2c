"""Tests for the two graded-protection digital-analog codecs."""

import math

import numpy as np
import pytest

from jscc.codecs import CodecSpec, build_codec
from jscc.codecs.hybrid import PatternTable, protection_weights
from jscc.numrep import unit_fraction_ints


def make(scheme, n, k, **kw):
    return build_codec(CodecSpec(scheme, n=n, k=k, **kw))


def test_protection_weights_values():
    np.testing.assert_allclose(protection_weights(2), [0.75, 0.25], atol=0)
    w = protection_weights(4)
    np.testing.assert_allclose(w, [0.5 + 3 / 16, 0.25 + 2 / 16, 0.125 + 1 / 16, 1 / 16],
                               atol=0)


def test_pattern_table_dedupes_to_smallest_pattern():
    # Weights with a deliberate collision: 0.5+0.125 = 0.375+0.25.
    table = PatternTable(np.array([0.5, 0.375, 0.25, 0.125]))
    vals, counts = np.unique(table.values, return_counts=True)
    assert counts.max() == 1
    idx = np.searchsorted(table.values, 0.625)
    assert table.values[idx] == 0.625
    # 1001 (9) and 0110 (6) collide; the smaller pattern survives.
    assert table.patterns[idx] == 6


def test_type1_worked_example():
    c = make("type1", 2, 2)
    s = c.encode(np.array([0.3]))
    np.testing.assert_allclose(s[0], [-0.25, -0.2], atol=1e-15)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_type1_noiseless_round_trip_is_exact(n, k):
    # Up to k = 4 the weighted-bit sums are all distinct, so the digital
    # layer is injective and the analog tail carries the rest losslessly.
    c = make("type1", n, k)
    x = np.random.default_rng(3 * n + k).uniform(-0.5, 0.5, 10 ** 5)
    assert np.max(np.abs(c.decode(c.encode(x)) - x)) <= 2.0 ** -50


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("k", [5, 8])
def test_type1_round_trip_exact_modulo_collisions(n, k):
    # From k = 5 on, distinct bit patterns can share one constellation value
    # (w_2 + w_3 + w_4 = w_1 at k = 5), so some sources are information-
    # theoretically ambiguous: the decoder picks a fixed representative.  The
    # honest invariant is exactness modulo those encoder fibers.
    c = make("type1", n, k)
    x = np.random.default_rng(3 * n + k).uniform(-0.5, 0.5, 10 ** 5)
    xhat = c.decode(c.encode(x))
    exact = np.abs(xhat - x) <= 2.0 ** -50
    same_point = np.all(c.encode(xhat) == c.encode(x), axis=1)
    assert np.all(exact | same_point)


def test_type1_collision_demonstration():
    # x = 0 has dim-1 digital pattern 10000 at k = 5, which collides with
    # 01110; the decoder resolves to the smaller pattern.
    c = make("type1", 2, 5)
    xhat = c.decode(c.encode(np.array([0.0])))
    assert abs(xhat[0] - 0.0) > 0.3
    np.testing.assert_array_equal(c.encode(xhat), c.encode(np.array([0.0])))


def test_type1_raw_range():
    rng = np.random.default_rng(44)
    for n in (2, 4):
        for k in range(2, 9):
            c = make("type1", n, k)
            worst_lo, worst_hi = np.inf, -np.inf
            for _ in range(5):
                x = rng.uniform(-0.5, 0.5, 200_000)
                raw = c.encode(x) + 1.0
                worst_lo = min(worst_lo, raw.min())
                worst_hi = max(worst_hi, raw.max())
            assert worst_lo >= 0.0 and worst_hi < 2.0, (n, k)


@pytest.mark.parametrize("k", [2, 3])
def test_type1_decode_matches_exhaustive(k):
    n = 2
    c = make("type1", n, k)
    rng = np.random.default_rng(800 + k)
    x = rng.uniform(-0.5, 0.5, 10 ** 4)
    y = c.encode(x)
    y[:8000] += 0.06 * rng.standard_normal((8000, n))
    y[8000:] = rng.uniform(-1.1, 1.1, (2000, n))
    got = c.decode(y)

    # Joint brute force in the raw (shift-by-one) domain, per dimension.
    y1 = y + 1.0
    m = n * k - 1
    best = np.zeros((y.shape[0], m), dtype=np.uint8)
    # Dimensions with digital bits only.
    full_pats = np.arange(1 << k, dtype=np.int64)
    full_bits = ((full_pats[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    full_vals = full_bits.astype(np.float64) @ protection_weights(k)
    for j in range(n - 1):
        nearest = np.argmin(np.abs(y1[:, j, None] - full_vals[None, :]), axis=1)
        for i in range(k):
            best[:, i * n + j] = full_bits[nearest, i]
    # Last dimension: union of analog segments.
    seg = 2.0 ** -(k + 1)
    part_pats = np.arange(1 << (k - 1), dtype=np.int64)
    part_bits = ((part_pats[:, None] >> np.arange(k - 2, -1, -1)) & 1).astype(np.uint8)
    part_vals = part_bits.astype(np.float64) @ protection_weights(k)[: k - 1]
    t = np.clip((y1[:, n - 1, None] - part_vals[None, :]) / seg, 0.0, 1.0)
    dist = np.abs(y1[:, n - 1, None] - part_vals[None, :] - t * seg)
    pick = np.argmin(dist, axis=1)
    rows = np.arange(y.shape[0])
    for i in range(k - 1):
        best[:, i * n + (n - 1)] = part_bits[pick, i]
    frac = t[rows, pick]
    d = best.astype(np.int64) @ (1 << np.arange(m - 1, -1, -1, dtype=np.int64))
    want = (np.ldexp(d.astype(np.float64), -m) - 0.5) + frac * math.ldexp(1.0, -m)
    np.testing.assert_allclose(got, want, atol=1e-14)


def _segment_search(codec, y):
    """The former type1 last-dimension search, kept as an oracle: the nearest
    point on the union of analog segments [v, v + seg), looked for on the two
    segments around y by table value, ties to the smaller pattern.  Returns
    the table index and the position in the segment, as a fraction of seg."""
    vals, pats = codec.analog_table.values, codec.analog_table.patterns
    idx = np.searchsorted(vals, y)
    lo = np.clip(idx - 1, 0, len(vals) - 1)
    hi = np.clip(idx, 0, len(vals) - 1)
    t_lo = np.clip((y - vals[lo]) / codec.seg, 0.0, 1.0)
    t_hi = np.clip((y - vals[hi]) / codec.seg, 0.0, 1.0)
    d_lo = np.abs(y - vals[lo] - t_lo * codec.seg)
    d_hi = np.abs(y - vals[hi] - t_hi * codec.seg)
    pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (pats[hi] < pats[lo]))
    return np.where(pick_hi, hi, lo), np.where(pick_hi, t_hi, t_lo)


def _segment_search_decode(codec, y):
    """Type1Codec.decode with the last dimension through _segment_search."""
    y = y + 1.0
    n = codec.spec.n
    d = np.zeros(y.shape[0], dtype=np.int64)
    for j in range(n - 1):
        d |= codec.masks[j].take(codec.full_table.nearest(y[:, j]))
    sel, frac = _segment_search(codec, y[:, n - 1])
    d |= codec.masks[-1].take(sel)
    return (np.ldexp(d.astype(np.float64), -codec.m) - 0.5) + frac * math.ldexp(1.0, -codec.m)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", range(1, 13))
def test_type1_decode_matches_segment_search_oracle(n, k):
    c = make("type1", n, k)
    rng = np.random.default_rng(1000 * n + k)
    vals = c.analog_table.values
    ends = vals + c.seg
    # In the decoder's shifted coordinates: segment ends, centres and the
    # midpoints of the gaps between segments, all exact in float64 once
    # shifted back; then each of them one ulp either side.
    marks = np.concatenate([vals, ends, vals + 0.5 * c.seg,
                            0.5 * (ends[:-1] + vals[1:])]) - 1.0
    last = np.concatenate([rng.uniform(-1.2, 1.2, 50_000), marks,
                           np.nextafter(marks, np.inf), np.nextafter(marks, -np.inf),
                           [np.inf, -np.inf, np.nan]])
    y = rng.uniform(-1.2, 1.2, (last.size, n))
    y[:, -1] = last
    got, want = c.decode(y), _segment_search_decode(c, y)
    assert got.tobytes() == want.tobytes()


def test_type2_display_at_k1():
    c = make("type2", 2, 1, p=14)
    rng = np.random.default_rng(10)
    for _ in range(100):
        bits = rng.integers(0, 2, 12)
        x = sum(int(b) * 2.0 ** -(i + 1) for i, b in enumerate(bits)) - 0.5
        s = c.encode(np.array([x]))[0]
        b = [0] + bits.tolist()  # 1-based indexing
        want1 = 0.5 * b[1] + 0.25 * (b[3] / 2 + b[6] / 2 ** 3 + b[7] / 2 ** 4
                                     + b[8] / 2 ** 5)
        want2 = 0.5 * b[2] + 0.25 * (b[4] / 2 + b[5] / 2 ** 2 + b[9] / 2 ** 4
                                     + b[10] / 2 ** 5 + b[11] / 2 ** 6 + b[12] / 2 ** 7)
        assert s[0] == want1 and s[1] == want2


def test_type2_zero_source():
    c = make("type2", 2, 1)
    np.testing.assert_array_equal(c.encode(np.array([-0.5]))[0], [0.0, 0.0])


@pytest.mark.parametrize("n,k", [(2, 1), (2, 4), (4, 3)])
@pytest.mark.parametrize("variant", ["standard", "shifted"])
def test_type2_noiseless_round_trip(n, k, variant):
    c = make("type2", n, k, grouping_variant=variant)
    x = np.random.default_rng(5 * n + k).uniform(-0.5, 0.5, 10 ** 5)
    assert np.max(np.abs(c.decode(c.encode(x)) - x)) <= 2.0 ** -(48 - 2 * n)


def test_type2_two_stage_equals_joint_exhaustive():
    n, k, p = 2, 2, 14
    c = make("type2", n, k, p=p)
    rng = np.random.default_rng(321)
    x = rng.uniform(-0.5, 0.5, 10 ** 4)
    y = c.encode(x)
    y[:8000] += 0.05 * rng.standard_normal((8000, n))
    y[8000:] = rng.uniform(-0.2, 1.4, (2000, n))
    got = unit_fraction_ints(c.decode(y), p)
    got = ((got[:, None] >> np.arange(p - 1, -1, -1)) & 1).astype(np.uint8)

    m = n * k
    seg = 2.0 ** -(k + 1)
    dig_pats = np.arange(1 << k, dtype=np.int64)
    dig_bits = ((dig_pats[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
    dig_vals = dig_bits.astype(np.float64) @ protection_weights(k)
    for j in range(n):
        stream = c.streams[j]
        depth = len(stream.data_weights)
        res_pats = np.arange(1 << depth, dtype=np.int64)
        res_bits = ((res_pats[:, None] >> np.arange(depth - 1, -1, -1)) & 1).astype(np.uint8)
        res_vals = res_bits.astype(np.float64) @ stream.data_weights
        # Joint candidate grid: digital value + scaled residual value.
        joint = (dig_vals[:, None] + seg * res_vals[None, :]).ravel()
        nearest = np.argmin(np.abs(y[:, j, None] - joint[None, :]), axis=1)
        di, ri = np.divmod(nearest, res_vals.size)
        for i in range(k):
            np.testing.assert_array_equal(got[:, i * n + j], dig_bits[di, i])
        np.testing.assert_array_equal(got[:, m + stream.data_bits], res_bits[ri])


def test_type1_rejects_too_many_bits():
    with pytest.raises(ValueError):
        CodecSpec("type1", n=4, k=13)
