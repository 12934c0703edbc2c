"""Hybrid digital-analog codes built on graded bit protection weights.

Both family members put k digital bits on each dimension with weights
w_i = 2**-i + (k - i) * 2**-k, so more significant bits get progressively more
distance.  They differ in what rides below the digital layer: type 1 carries
the entire remaining binary tail of the source as one analog component on the
last dimension; type 2 re-encodes the tail with the layered separator code,
scaled under the digital layer on every dimension.

All weights are multiples of 2**-k, hence every subset sum is exact in float64
and equal table values can be deduplicated reliably.
"""

import math

import numpy as np

from .base import Codec, CodecSpec
from .layered import build_streams, greedy_stream_decode, stream_matrix
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
        bitmat = (pats[:, None] >> np.arange(self.m - 1, -1, -1)) & 1
        vals = bitmat.astype(np.float64) @ weights
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


def digital_matrix(w: np.ndarray, n: int, rows: int, last_dim_bits: int) -> np.ndarray:
    """(rows, n) digital-layer weights: bit i of dimension j is source bit
    (i-1)*n + j, with len(w) bits per dimension but last_dim_bits on the last."""
    matrix = np.zeros((rows, n))
    for j in range(n):
        depth = last_dim_bits if j == n - 1 else len(w)
        matrix[np.arange(depth) * n + j, j] = w[:depth]
    return matrix


def scatter_pattern(bits: np.ndarray, pattern: np.ndarray, depth: int,
                    n: int, dim: int) -> None:
    """Write depth-bit pattern ints, weight index 1 first, into bits[:, (i-1)*n + dim]."""
    shifts = np.arange(depth - 1, -1, -1, dtype=np.int64)
    bits[:, np.arange(depth) * n + dim] = (pattern[:, None] >> shifts) & 1


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
        self.weight_matrix = digital_matrix(self.w, n, self.m, k - 1)
        self.full_table = PatternTable(self.w)
        self.analog_table = PatternTable(self.w[: k - 1])

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        d = numrep.unit_fraction_ints(x, self.m)
        bits = numrep.bits_from_ints(d, self.m)
        s = bits.astype(np.float64) @ self.weight_matrix
        # Exact residual: q is representable, x - q cancels without rounding.
        q = np.ldexp(d.astype(np.float64), -self.m) - 0.5
        frac = np.ldexp(x - q, self.m)
        s[:, -1] += frac * self.seg
        return s - 1.0

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64) + 1.0
        n, k = self.spec.n, self.spec.k
        bits = np.zeros((y.shape[0], self.m), dtype=np.uint8)
        for j in range(n - 1):
            _, pat = self.full_table.nearest(y[:, j])
            scatter_pattern(bits, pat, k, n, j)
        frac = self._decode_analog_dim(y[:, n - 1], bits)
        d = numrep.ints_from_bits(bits)
        return (np.ldexp(d.astype(np.float64), -self.m) - 0.5) + frac * math.ldexp(1.0, -self.m)

    def _decode_analog_dim(self, y, bits):
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
        scatter_pattern(bits, pat, k - 1, n, n - 1)
        return frac


class Type2Codec(Codec):
    """k weighted bits per dimension with a layered-code tail under them."""

    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        n, k, p = spec.n, spec.k, spec.p
        self.m = n * k
        self.w = protection_weights(k)
        self.seg = math.ldexp(1.0, -(k + 1))
        self.digital_matrix = digital_matrix(self.w, n, self.m, k)
        self.streams = build_streams(n, p - self.m, spec.grouping_variant)
        self.residual_matrix = stream_matrix(self.streams, p - self.m)
        self.table = PatternTable(self.w)
        # Decoding against segment midpoints makes the digital decision match
        # the joint nearest point: all segments of a dimension share one span.
        self.centers = [self.table.values + 0.5 * self.seg * s.max_value
                        for s in self.streams]

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        p = self.spec.p
        bits = numrep.bits_from_ints(numrep.unit_fraction_ints(x, p), p).astype(np.float64)
        digital = bits[:, : self.m] @ self.digital_matrix
        residual = bits[:, self.m:] @ self.residual_matrix
        return digital + self.seg * residual

    def decode(self, y, sigma=0.0):
        return numrep.values_from_bit_rows(self.decode_bits(y), midpoint_fill=True)

    def decode_bits(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        n, k = self.spec.n, self.spec.k
        bits = np.zeros((y.shape[0], self.spec.p), dtype=np.uint8)
        for j in range(n):
            v, pat = self.table.nearest(y[:, j], self.centers[j])
            scatter_pattern(bits, pat, k, n, j)
            r = (y[:, j] - v) / self.seg
            greedy_stream_decode(r, self.streams[j], bits, bit_offset=self.m)
        return bits
