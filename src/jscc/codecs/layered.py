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


def stream_matrix(streams: list[DigitStream], p: int) -> np.ndarray:
    """(p, n) weight of each source bit on each stream's dimension."""
    matrix = np.zeros((p, len(streams)))
    for dim, stream in enumerate(streams):
        matrix[stream.data_bits, dim] = stream.data_weights
    return matrix


def greedy_stream_decode(r: np.ndarray, stream: DigitStream,
                         bits_out: np.ndarray, bit_offset: int = 0) -> None:
    """Exact nearest digit string of one stream, written into bits_out.

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
        bits_out[:, bit_offset + stream.data_bits[d]] = take
        r -= np.where(take, stream.data_weights[d], 0.0)


class StreamCodec(Codec):
    """One digit stream per channel dimension over the p source bits."""

    def __init__(self, spec: CodecSpec, streams: list[DigitStream]):
        super().__init__(spec)
        self.streams = streams
        self.weight_matrix = stream_matrix(streams, spec.p)

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        bits = numrep.bits_from_ints(numrep.unit_fraction_ints(x, self.spec.p), self.spec.p)
        return bits.astype(np.float64) @ self.weight_matrix

    def decode_bits(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        bits = np.zeros((y.shape[0], self.spec.p), dtype=np.uint8)
        for dim, stream in enumerate(self.streams):
            greedy_stream_decode(y[:, dim], stream, bits)
        return bits

    def decode(self, y, sigma=0.0):
        return numrep.values_from_bit_rows(self.decode_bits(y), midpoint_fill=True)


class Scheme2Codec(StreamCodec):
    def __init__(self, spec: CodecSpec):
        super().__init__(spec, build_streams(spec.n, spec.p, spec.grouping_variant))
