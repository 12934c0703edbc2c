"""Hybrid digital-analog codes built on graded bit protection weights.

Both family members put k digital bits on each dimension with weights
w_i = 2**-i + (k - i) * 2**-k, so more significant bits get progressively more
distance.  They differ in what rides below the digital layer: type 1 carries
the entire remaining binary tail of the source as one analog component on the
last dimension; type 2 re-encodes the tail with the layered separator code,
scaled under the digital layer on every dimension.

All weights are multiples of 2**-k, hence every subset sum is exact in float64
and equal table values can be deduplicated reliably.

Digits travel as the truncation integer of numrep (source bit 0 most
significant): encoders read the digital slots and the residual streams out of
it, decoders OR table patterns and stream decisions back into it.
"""

import math

import numpy as np

from .base import Codec, CodecSpec
from .layered import build_streams, decode_stream, fold_digits
from .. import numrep


def protection_weights(k: int) -> np.ndarray:
    i = np.arange(1, k + 1, dtype=np.float64)
    return np.ldexp(1.0, -i.astype(np.int64)) + (k - i) * math.ldexp(1.0, -k)


class PatternTable:
    """Sorted subset-sum constellation with minimum-pattern representatives.

    The weights are not superincreasing for k >= 5, so distinct bit patterns
    can collide on the same value; ties always resolve to the numerically
    smallest pattern, which is also the smallest reconstructed source value.
    """

    def __init__(self, weights: np.ndarray):
        self.m = len(weights)
        pats = np.arange(1 << self.m, dtype=np.int64)
        vals = fold_digits(pats, self.m, range(self.m), weights)
        order = np.lexsort((pats, vals))
        sv, sp = vals[order], pats[order]
        keep = np.ones(len(sv), dtype=bool)
        keep[1:] = sv[1:] != sv[:-1]
        self.values = sv[keep]
        self.patterns = sp[keep]

    def nearest(self, y, points=None) -> tuple[np.ndarray, np.ndarray]:
        """Value and pattern of the entry whose point (sorted, one per entry;
        default the values themselves) lies nearest to y."""
        if points is None:
            points = self.values
        idx = np.searchsorted(points, y)
        lo = np.clip(idx - 1, 0, len(points) - 1)
        hi = np.clip(idx, 0, len(points) - 1)
        d_lo = np.abs(y - points[lo])
        d_hi = np.abs(y - points[hi])
        pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (self.patterns[hi] < self.patterns[lo]))
        sel = np.where(pick_hi, hi, lo)
        return self.values[sel], self.patterns[sel]


def digital_layer(u: np.ndarray, p: int, w: np.ndarray, n: int,
                  last_dim_bits: int) -> np.ndarray:
    """(rows, n) digital-layer values of the p-digit integers u: bit i of
    dimension j is source bit (i-1)*n + j, with len(w) bits per dimension but
    last_dim_bits on the last."""
    cols = []
    for j in range(n):
        depth = last_dim_bits if j == n - 1 else len(w)
        cols.append(fold_digits(u, p, np.arange(depth) * n + j, w[:depth]))
    return np.stack(cols, axis=1)


def spread_pattern(u: np.ndarray, pattern: np.ndarray, depth: int, n: int,
                   dim: int, p: int) -> None:
    """OR depth-bit pattern ints, weight index 1 first, into source bits
    (i-1)*n + dim of the p-digit integers u."""
    for i in range(depth):
        u |= ((pattern >> (depth - 1 - i)) & 1) << (p - 1 - (i * n + dim))


class Type1Codec(Codec):
    """k (or k-1) weighted bits per dimension plus one lossless analog tail.

    The first n*k - 1 source bits are dealt column-wise across dimensions; the
    whole remaining fraction of the sample is scaled into a half-gap interval
    under the digital constellation of the last dimension.  Outputs are
    shifted by -1 to sit roughly symmetric around zero.
    """

    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        n, k = spec.n, spec.k
        self.m = n * k - 1
        self.w = protection_weights(k)
        self.seg = math.ldexp(1.0, -(k + 1))
        self.full_table = PatternTable(self.w)
        self.analog_table = PatternTable(self.w[: k - 1])

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        d = numrep.unit_fraction_ints(x, self.m)
        s = digital_layer(d, self.m, self.w, self.spec.n, self.spec.k - 1)
        # Exact residual: q is representable, x - q cancels without rounding.
        q = np.ldexp(d.astype(np.float64), -self.m) - 0.5
        frac = np.ldexp(x - q, self.m)
        s[:, -1] += frac * self.seg
        return s - 1.0

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64) + 1.0
        n, k = self.spec.n, self.spec.k
        d = np.zeros(y.shape[0], dtype=np.int64)
        for j in range(n - 1):
            _, pat = self.full_table.nearest(y[:, j])
            spread_pattern(d, pat, k, n, j, self.m)
        frac = self._decode_analog_dim(y[:, n - 1], d)
        return (np.ldexp(d.astype(np.float64), -self.m) - 0.5) + frac * math.ldexp(1.0, -self.m)

    def _decode_analog_dim(self, y, d):
        """Nearest point on the union of analog segments [v, v + seg)."""
        n, k = self.spec.n, self.spec.k
        vals, pats = self.analog_table.values, self.analog_table.patterns
        idx = np.searchsorted(vals, y)
        lo = np.clip(idx - 1, 0, len(vals) - 1)
        hi = np.clip(idx, 0, len(vals) - 1)
        t_lo = np.clip((y - vals[lo]) / self.seg, 0.0, 1.0)
        t_hi = np.clip((y - vals[hi]) / self.seg, 0.0, 1.0)
        d_lo = np.abs(y - vals[lo] - t_lo * self.seg)
        d_hi = np.abs(y - vals[hi] - t_hi * self.seg)
        pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (pats[hi] < pats[lo]))
        pat = np.where(pick_hi, pats[hi], pats[lo])
        frac = np.where(pick_hi, t_hi, t_lo)
        spread_pattern(d, pat, k - 1, n, n - 1, self.m)
        return frac


class Type2Codec(Codec):
    """k weighted bits per dimension with a layered-code tail under them."""

    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        n, k, p = spec.n, spec.k, spec.p
        self.m = n * k
        self.w = protection_weights(k)
        self.seg = math.ldexp(1.0, -(k + 1))
        self.streams = build_streams(n, p - self.m, spec.grouping_variant)
        self.table = PatternTable(self.w)
        # Decoding against segment midpoints makes the digital decision match
        # the joint nearest point: all segments of a dimension share one span.
        self.centers = [self.table.values + 0.5 * self.seg * s.max_value
                        for s in self.streams]

    def encode(self, x):
        n, k, p = self.spec.n, self.spec.k, self.spec.p
        u = numrep.unit_fraction_ints(np.asarray(x, dtype=np.float64), p)
        digital = digital_layer(u, p, self.w, n, k)
        # Residual source bit b is bit m + b of u, the b-th of its last p - m digits.
        residual = np.stack([fold_digits(u, p - self.m, s.data_bits, s.data_weights)
                             for s in self.streams], axis=1)
        return digital + self.seg * residual

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64)
        n, k, p = self.spec.n, self.spec.k, self.spec.p
        u = np.zeros(y.shape[0], dtype=np.int64)
        for j in range(n):
            v, pat = self.table.nearest(y[:, j], self.centers[j])
            spread_pattern(u, pat, k, n, j, p)
            r = (y[:, j] - v) / self.seg
            decode_stream(r, self.streams[j], u)
        return numrep.cell_midpoints(u, p)
