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
significant).  Each dimension's list of source bits states the digital
layout once: encoders look its fold up by the integer's bytes
(layered.FoldTable, with the residual streams as further columns), and
decoders OR in the mask of the nearest table entry, spread from it at build
time, and the residual streams' decisions.
"""

import math

import numpy as np

from .base import Codec, CodecSpec
from .layered import FoldTable, build_streams, decode_stream, spread_digits
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
        # Entry p of vals is the weighted sum of pattern p's bits, weights[0]
        # on the most significant, added in weight order as fold_digits does.
        vals = np.zeros(1)
        for w in weights:
            vals = np.add.outer(vals, [0.0, w]).ravel()
        # np.unique sorts stably, so each value's first index is its smallest
        # pattern; int64, which spread_digits' shifts cannot overflow.
        self.values, first = np.unique(vals, return_index=True)
        self.patterns = first.astype(np.int64)

    def nearest(self, y, points) -> np.ndarray:
        """Index of the entry whose point (sorted, one per entry) lies
        nearest to y."""
        idx = np.searchsorted(points, y)
        lo = np.clip(idx - 1, 0, len(points) - 1)
        hi = np.clip(idx, 0, len(points) - 1)
        d_lo = np.abs(y - points[lo])
        d_hi = np.abs(y - points[hi])
        pick_hi = (d_hi < d_lo) | ((d_hi == d_lo) & (self.patterns[hi] < self.patterns[lo]))
        return np.where(pick_hi, hi, lo)


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
        self.m = spec.digital_bits(k)
        self.w = protection_weights(k)
        self.seg = math.ldexp(1.0, -(k + 1))
        self.full_table = PatternTable(self.w)
        self.analog_table = PatternTable(self.w[: k - 1])
        # Segments [v, v + seg) share one length and distinct values v lie
        # at least 2 seg apart, so the nearest midpoint marks the nearest
        # segment.
        self.analog_centers = self.analog_table.values + 0.5 * self.seg
        # Bit i of dimension j is source bit i*n + j; the last dimension has k-1.
        self.bits = [np.arange(k if j < n - 1 else k - 1) * n + j for j in range(n)]
        tables = [self.full_table] * (n - 1) + [self.analog_table]
        self.masks = [spread_digits(t.patterns, len(b), self.m - 1 - b)
                      for t, b in zip(tables, self.bits)]
        self.fold = FoldTable([(self.m, b, self.w) for b in self.bits])

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        d = numrep.unit_fraction_ints(x, self.m)
        s = self.fold(d)
        # Exact residual: q is representable, x - q cancels without rounding.
        q = np.ldexp(d.astype(np.float64), -self.m) - 0.5
        frac = np.ldexp(x - q, self.m)
        s[:, -1] += frac * self.seg
        return s - 1.0

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64) + 1.0
        n = self.spec.n
        d = np.zeros(y.shape[0], dtype=np.int64)
        for j in range(n - 1):
            d |= self.masks[j].take(self.full_table.nearest(y[:, j], self.full_table.values))
        # The last dimension: the nearest point on the union of segments.
        y_last = y[:, n - 1]
        sel = self.analog_table.nearest(y_last, self.analog_centers)
        d |= self.masks[-1].take(sel)
        frac = np.clip((y_last - self.analog_table.values.take(sel)) / self.seg, 0.0, 1.0)
        return (np.ldexp(d.astype(np.float64), -self.m) - 0.5) + frac * math.ldexp(1.0, -self.m)


class Type2Codec(Codec):
    """k weighted bits per dimension with a layered-code tail under them."""

    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        n, k, p = spec.n, spec.k, spec.p
        self.m = spec.digital_bits(k)
        self.w = protection_weights(k)
        self.seg = math.ldexp(1.0, -(k + 1))
        self.streams = build_streams(n, p - self.m, spec.grouping_variant)
        self.table = PatternTable(self.w)
        # Bit i of dimension j is source bit i*n + j.
        self.bits = [np.arange(k) * n + j for j in range(n)]
        self.masks = [spread_digits(self.table.patterns, k, p - 1 - b) for b in self.bits]
        # Residual source bit b is bit m + b of u, the b-th of its last p - m digits.
        self.fold = FoldTable([(p, b, self.w) for b in self.bits]
                              + [(p - self.m, s.data_bits, s.data_weights)
                                 for s in self.streams])
        # Decoding against segment midpoints makes the digital decision match
        # the joint nearest point: all segments of a dimension share one span.
        self.centers = [self.table.values + 0.5 * self.seg * s.max_value
                        for s in self.streams]

    def encode(self, x):
        s = self.fold(numrep.unit_fraction_ints(np.asarray(x, dtype=np.float64), self.spec.p))
        n = self.spec.n
        return s[:, :n] + self.seg * s[:, n:]

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64)
        u = np.zeros(y.shape[0], dtype=np.int64)
        for j, stream in enumerate(self.streams):
            sel = self.table.nearest(y[:, j], self.centers[j])
            u |= self.masks[j].take(sel)
            r = (y[:, j] - self.table.values.take(sel)) / self.seg
            decode_stream(r, stream, u)
        return numrep.cell_midpoints(u, self.spec.p)
