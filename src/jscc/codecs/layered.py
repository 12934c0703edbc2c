"""Weighted digit streams, and the layered binary code built on them.

A digit-stream code deals the source's binary digits onto one stream per
channel dimension.  Slot i of a stream weighs base**-i and holds a source bit
or a forced 0 separator; each stream is decoded greedily by subtree midpoints.
The fractal code (scheme1, fractal.py) uses base-alpha streams with no
separators.  The layered code here (scheme2) uses base-2 streams with
separators: they, not a widened base, create the decoding gaps.

Source bits are split into consecutive groups.  Group l goes to dimension
((l-1) mod n) + 1; within its dimension the group occupies the next size(l)
binary digit slots and is followed by one forced 0 digit.  The separators are
the error protection: a noise hit below a separator's weight cannot corrupt
any digit of the groups above it.

Group sizes grow linearly.  The standard rule gives group l exactly l bits.
The shifted rule gives group l = kn + i exactly i + k(n-1) bits, which trades
a slightly different protection profile at the same asymptotic cost.

The digit format shared by every digit-stream code is the truncation integer
u of numrep.unit_fraction_ints: p digits, source bit 0 the most significant.
Encoders read slots out of u by shifts; decoders OR their digit decisions
back into u and reconstruct the cell midpoint from it.
"""

import numpy as np

from .base import Codec, CodecSpec
from .. import numrep


def group_size(index: int, n: int, variant: str) -> int:
    if variant == "standard":
        return index
    k, i = divmod(index - 1, n)
    return (i + 1) + k * (n - 1)


class DigitStream:
    """Slots of one dimension, slot i weighing base**-i: source bit or -1 = separator."""

    def __init__(self, slots, base: float = 2.0):
        self.slots = np.asarray(slots, dtype=np.int64)
        all_weights = base ** -np.arange(1, len(self.slots) + 1, dtype=np.float64)
        data = self.slots >= 0
        self.data_weights = all_weights[data]
        self.data_bits = self.slots[data]
        # Largest value the remaining data digits can still add after each one.
        tails = np.concatenate([np.cumsum(self.data_weights[::-1])[::-1][1:], [0.0]])
        self.thresholds = 0.5 * (self.data_weights + tails)
        self.max_value = float(self.data_weights.sum())


def build_streams(n: int, p: int, variant: str = "standard") -> list[DigitStream]:
    """Layered-code streams covering source bits 0..p-1 (0-based)."""
    slots: list[list[int]] = [[] for _ in range(n)]
    bit = 0
    l = 0
    while bit < p:
        l += 1
        dim = (l - 1) % n
        size = group_size(l, n, variant)
        take = min(size, p - bit)
        slots[dim].extend(range(bit, bit + take))
        bit += take
        if take == size:
            slots[dim].append(-1)
    return [DigitStream(s) for s in slots]


def fold_digits(u: np.ndarray, p: int, bits, weights) -> np.ndarray:
    """Left fold from 0.0, in slot order, of weights[i] * (source bit bits[i] of u).

    Source bit b is binary digit p-1-b of u: bit 0 is the most significant of
    u's last p digits.  The fixed order makes the rounding of non-dyadic
    weights (scheme1 with alpha not a power of two) the same on every
    machine; dyadic weights sum exactly in any order.
    """
    out = np.zeros(np.shape(u))
    # Reused buffers: at normalization's 65 536-row chunks, fresh temporaries
    # for every slot cost about three times the arithmetic itself.
    digit = np.empty_like(u)
    term = np.empty_like(out)
    for bit, w in zip(bits, weights):
        np.right_shift(u, p - 1 - int(bit), out=digit)
        np.bitwise_and(digit, 1, out=digit)
        np.multiply(digit, w, out=term)
        out += term
    return out


def greedy_stream_decode(r: np.ndarray, stream: DigitStream, u: np.ndarray, p: int) -> None:
    """Exact nearest digit string of one stream, ORed into u.

    Source bit b of the stream lands on binary digit p-1-b of u, as in
    fold_digits.

    At each data digit, most significant first, the residual is compared
    against the midpoint between the largest all-later-digits value (digit 0)
    and the smallest value with this digit set.  The two subtrees never
    overlap: a base above 2 opens a gap at every digit, and in base 2 every
    data slot is eventually followed by a separator (or the stream ends).
    """
    r = r.copy()
    for d in range(len(stream.data_weights)):
        # Strict comparison: midpoint ties resolve to the digit-0 subtree,
        # matching the smallest-source-value convention of the other decoders.
        take = r > stream.thresholds[d]
        u |= take << (p - 1 - int(stream.data_bits[d]))
        r -= np.where(take, stream.data_weights[d], 0.0)


class StreamCodec(Codec):
    """One digit stream per channel dimension over the p source bits."""

    def __init__(self, spec: CodecSpec, streams: list[DigitStream]):
        super().__init__(spec)
        self.streams = streams

    def encode(self, x):
        p = self.spec.p
        u = numrep.unit_fraction_ints(np.asarray(x, dtype=np.float64), p)
        return np.stack([fold_digits(u, p, s.data_bits, s.data_weights)
                         for s in self.streams], axis=1)

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64)
        p = self.spec.p
        u = np.zeros(y.shape[0], dtype=np.int64)
        for dim, stream in enumerate(self.streams):
            greedy_stream_decode(y[:, dim], stream, u, p)
        return numrep.cell_midpoints(u, p)


class Scheme2Codec(StreamCodec):
    def __init__(self, spec: CodecSpec):
        super().__init__(spec, build_streams(spec.n, spec.p, spec.grouping_variant))
