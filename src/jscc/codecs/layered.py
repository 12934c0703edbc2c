"""Weighted digit streams, and the layered binary code built on them.

A digit-stream code deals the source's binary digits onto one stream per
channel dimension.  Slot i of a stream weighs base**-i and holds a source bit
or a forced 0 separator.  Each stream is decoded by the greedy rule at subtree
midpoints, evaluated a chunk of about six digits at a time: a bucketed table
of breakpoints gives the chunk's digits in one lookup, a rounding margin
decides which rows the lookup provably settles, and the sequential greedy
decodes the rest (decode_stream).  The fractal code (scheme1) deals source
bits round-robin onto base-alpha streams with no separators (alpha > 2):
the widened base opens a gap between the two subtrees at every digit.  The
layered code (scheme2) uses base-2 streams with separators: they, not a
widened base, create the decoding gaps.

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
Encoders look up the fold of each stream's leading digits by the bytes of u
and fold any later digits in order (FoldTable); decoders OR their digit
decisions back into u, as masks spread once per table (spread_digits), and
reconstruct the cell midpoint from it.
"""

import functools
import math

import numpy as np

from .base import Codec, CodecSpec, UNIT_ROUNDOFF
from .. import numrep


# A decision table covers at most CHUNK_DIGITS digits (2**6 leaves), and
# fewer where its first weight would exceed TABLE_SPAN times a lower bound on
# the spacing of its cuts, which bounds its bucket count.
CHUNK_DIGITS = 6
TABLE_SPAN = 1024.0
# A digit is tabulated while its subtree gap is at least this many margins of
# a row inside the constellation, so rows near a cut are rare.
GAP_MARGINS = 4096.0
# An encode table holds the folds of a column's leading ENCODE_DIGITS digits
# at most (2**12 float64 values).
ENCODE_DIGITS = 12


def group_size(index: int, n: int, variant: str) -> int:
    if variant == "standard":
        return index
    k, i = divmod(index - 1, n)
    return (i + 1) + k * (n - 1)


class DigitStream:
    """Slots of one dimension of a p-digit code, slot i weighing base**-i:
    source bit or -1 = separator.

    Source bit b lands on binary digit p-1-b of the truncation integer, so
    data digit d is ORed in at shifts[d].
    """

    def __init__(self, slots, p: int, base: float = 2.0):
        self.slots = np.asarray(slots, dtype=np.int64)
        all_weights = base ** -np.arange(1, len(self.slots) + 1, dtype=np.float64)
        data = self.slots >= 0
        self.data_weights = all_weights[data]
        if not np.all(self.data_weights > 0.0):
            raise ValueError(f"digit weights of base {base:g} underflow to 0 "
                             f"within {len(self.slots)} slots")
        self.data_bits = self.slots[data]
        self.shifts = p - 1 - self.data_bits
        # Largest value the remaining data digits can still add after each one.
        self.tails = np.concatenate([np.cumsum(self.data_weights[::-1])[::-1][1:], [0.0]])
        self.thresholds = 0.5 * (self.data_weights + self.tails)
        self.max_value = float(self.data_weights.sum())
        self.margin_scale = (3 * len(self.data_weights) + 8) * UNIT_ROUNDOFF

    @functools.cached_property
    def chunks(self) -> list["ChunkTable"]:
        """Decision tables of the leading digits, built on first decode.

        A digit is tabulated while its subtree gap dwarfs the margin of a
        row inside the constellation, whose |y| + max_value is at most
        3 max_value; deeper digits stay sequential.
        """
        w, tails = self.data_weights, self.tails
        gaps = w - tails
        wide = gaps >= GAP_MARGINS * self.margin_scale * 3.0 * self.max_value
        count = len(w) if wide.all() else int(np.argmin(wide))
        # Neighbouring cuts of a chunk [a, d) lie at least the smallest gap
        # plus the weight left after the chunk, tails[d-1], apart.
        edges = [0]
        for d in range(1, count + 1):
            a = edges[-1]
            if (d == count or d - a == CHUNK_DIGITS
                    or w[a] > TABLE_SPAN * (gaps[a:d + 1].min() + tails[d])):
                edges.append(d)
        return [ChunkTable(self, a, b) for a, b in zip(edges, edges[1:])]


class ChunkTable:
    """The greedy's decisions on data digits [start, stop) of a stream, as a
    lookup from the residual at start.

    Leaf j (the chunk's digits read as a binary number, first digit most
    significant) takes offsets[j] off the residual and ORs patterns[j] into
    u.  Because the subtrees are ordered and never overlap, the leaf the
    greedy reaches is the number of cuts strictly below the residual, where
    cut j-1 separates leaves j-1 and j: the prefix value of leaf j plus the
    threshold of the first digit where the two differ.  A uniform bucket
    grid, width at most a quarter of the smallest gap between cuts, holds
    for bucket b the one cut ("near") in buckets b-1..b+1, or +inf if there
    is none, and the count of cuts below it ("base"): the leaf is base[b] +
    (residual > near[b]), and every other cut lies at least a bucket width
    away.
    """

    def __init__(self, stream: DigitStream, start: int, stop: int):
        self.start, self.stop = start, stop
        k = stop - start
        leaves = np.arange(1 << k, dtype=np.int64)
        self.offsets = fold_digits(leaves, k, range(k), stream.data_weights[start:stop])
        self.patterns = spread_digits(leaves, k, stream.shifts[start:stop])
        # Leaves j-1 and j first differ at the lowest set bit of j, the chunk
        # digit k - frexp exponent; above it both share the prefix leaf j - low.
        right = leaves[1:]
        low = right & -right
        first = start + k - np.frexp(low.astype(np.float64))[1]
        self.cuts = cuts = self.offsets[right - low] + stream.thresholds[first]
        gaps = np.diff(cuts)
        if not np.all(gaps > 0):
            raise ValueError("stream cuts must strictly increase")
        self.lo, self.hi = float(cuts[0]), float(cuts[-1])
        # Power-of-two width: scaling by it is exact, so the bucket map is
        # monotone in the residual.
        width = math.ldexp(1.0, math.frexp(gaps.min() / 4.0)[1] - 1) if k > 1 else 1.0
        self.scale = 1.0 / width
        buckets = self.bucket(cuts)
        if not np.all(np.diff(buckets) >= 3):
            raise ValueError("bucket grid holds two cuts within one bucket of each other")
        size = int(buckets[-1]) + 1
        self.near = np.full(size, np.inf)
        self.base = np.searchsorted(buckets, np.arange(size))
        index = np.arange(len(cuts))
        for step in (-1, 0, 1):
            b = buckets + step
            ok = (b >= 0) & (b < size)
            self.near[b[ok]] = cuts[ok]
            self.base[b[ok]] = index[ok]

    def bucket(self, r: np.ndarray) -> np.ndarray:
        pos = np.clip(r, self.lo, self.hi)
        pos -= self.lo
        pos *= self.scale
        return pos.astype(np.intp)

    def lookup(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Leaf of each finite residual, and its distance to the nearest cut
        (+inf when no cut lies within a bucket width)."""
        b = self.bucket(r)
        dist = self.near.take(b)
        np.subtract(r, dist, out=dist)
        leaf = self.base.take(b)
        leaf += dist > 0
        np.abs(dist, out=dist)
        return leaf, dist


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
    return [DigitStream(s, p) for s in slots]


def spread_digits(leaves: np.ndarray, k: int, shifts) -> np.ndarray:
    """Masks of k-digit numbers (first digit most significant) with digit i
    moved to bit shifts[i]: a table entry's digits, ready to OR into u."""
    out = np.zeros_like(leaves)
    for i in range(k):
        out |= ((leaves >> (k - 1 - i)) & 1) << shifts[i]
    return out


def fold_digits(u: np.ndarray, p: int, bits, weights, out=None) -> np.ndarray:
    """Left fold, in slot order, of weights[i] * (source bit bits[i] of u),
    from 0.0 or into out in place.

    Source bit b is binary digit p-1-b of u: bit 0 is the most significant of
    u's last p digits.  The fixed order makes the rounding of non-dyadic
    weights (scheme1 with alpha not a power of two) the same on every
    machine; dyadic weights sum exactly in any order.
    """
    if out is None:
        out = np.zeros(np.shape(u))
    # Reused buffers: on batches of thousands of rows, fresh temporaries for
    # every slot cost about three times the arithmetic itself.
    digit = np.empty_like(u)
    term = np.empty_like(out)
    for bit, w in zip(bits, weights):
        np.right_shift(u, p - 1 - int(bit), out=digit)
        np.bitwise_and(digit, 1, out=digit)
        np.multiply(digit, w, out=term)
        out += term
    return out


class FoldTable:
    """fold_digits of several columns of one truncation integer u, the
    leading digits of each column by one table lookup.

    Column c is fold_digits' (p, bits, weights) over u.  Its first k <=
    ENCODE_DIGITS digits, read as a binary number with the first digit most
    significant, are its leaf, and values[leaf] is their fold from 0.0:
    exactly what fold_digits holds after k steps, since a zero digit adds
    +0.0.  Digits past the table continue that fold.  The leaves of all
    columns sit side by side in one int64 word, the OR over the bytes of u
    of a 256-entry table per byte that moves the byte's digits into their
    leaf fields.  The columns of a code take distinct digits of u, at most
    52, so their leaves fit the word's 63 non-sign bits.
    """

    def __init__(self, columns):
        self.columns = [(p, np.asarray(bits, dtype=np.int64),
                         np.asarray(weights, dtype=np.float64)[:len(bits)])
                        for p, bits, weights in columns]

    @functools.cached_property
    def tables(self) -> tuple[list, list]:
        """Built on first encode: per column (offset, leaf mask, values,
        tail (p, bits, weights)), and the (byte index, table) pairs."""
        fields, spread = [], np.zeros((8, 256), dtype=np.int64)
        byte = np.arange(256, dtype=np.int64)
        offset = 0
        for p, bits, weights in self.columns:
            k = min(len(bits), ENCODE_DIGITS)
            if offset + k > 63:
                raise ValueError("leaf fields exceed 63 bits")
            for i, shift in enumerate(p - 1 - bits[:k]):
                spread[shift // 8] |= ((byte >> (shift % 8)) & 1) << (offset + k - 1 - i)
            values = fold_digits(np.arange(1 << k, dtype=np.int64), k, range(k), weights[:k])
            fields.append((offset, (1 << k) - 1, values, (p, bits[k:], weights[k:])))
            offset += k
        return fields, [(j, table) for j, table in enumerate(spread) if table.any()]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """(rows, columns) folds of u's digits, bit for bit fold_digits'."""
        fields, tables = self.tables
        # Little-endian bytes, so byte j holds u's bits 8j..8j+7 on any host.
        octets = np.ascontiguousarray(u, dtype="<i8").view(np.uint8).reshape(-1, 8)
        word = np.zeros(len(octets), dtype=np.int64)
        for j, table in tables:
            word |= table.take(octets[:, j])
        out = np.empty((len(octets), len(fields)))
        leaf = np.empty_like(word)
        for c, (offset, mask, values, (p, bits, weights)) in enumerate(fields):
            np.right_shift(word, offset, out=leaf)
            leaf &= mask
            column = values.take(leaf)
            if len(bits):
                fold_digits(u, p, bits, weights, out=column)
            out[:, c] = column
        return out


def greedy_stream_decode(r: np.ndarray, stream: DigitStream, u: np.ndarray) -> None:
    """Exact nearest digit string of one stream, ORed into u, one digit at a time.

    At each data digit, most significant first, the residual is compared
    against the midpoint between the largest all-later-digits value (digit 0)
    and the smallest value with this digit set.  The two subtrees never
    overlap: a base above 2 opens a gap at every digit, and in base 2 every
    data slot is eventually followed by a separator (or the stream ends).
    This is the reference decode_stream reproduces, and its fallback.
    """
    r = r.copy()
    for d in range(len(stream.data_weights)):
        # Strict comparison: midpoint ties resolve to the digit-0 subtree,
        # matching the smallest-source-value convention of the other decoders.
        take = r > stream.thresholds[d]
        u |= take << stream.shifts[d]
        r -= np.where(take, stream.data_weights[d], 0.0)


def decode_stream(y: np.ndarray, stream: DigitStream, u: np.ndarray) -> None:
    """greedy_stream_decode's digits, bit for bit, by one table lookup per chunk.

    Each chunk of about CHUNK_DIGITS tabulated digits picks its leaf from the
    bucket of the residual, takes the leaf's offset off the residual, and ORs
    its pattern into u.  Digits past the tables run the greedy step.  A row
    is accepted only if, in every chunk, its residual lies more than the
    margin M = margin_scale * (|y| + max_value) from the nearest cut, and in
    every sequential step more than M from the threshold.  Every other row,
    and every non-finite one, is decoded again by greedy_stream_decode.

    Why an accepted row is exact.  With unit roundoff eps, B = |y| + max_value
    bounds every residual on either path, and D is the stream's digit count.
    The greedy's residual before any digit is off the exact real one by at
    most D eps B (one rounding per subtraction).  The table path's residual
    is off by at most (D + C) eps B after C chunks: each chunk subtracts one
    offset, a left fold of at most k weights with error (k-1) eps max_value.
    A cut is off its exact value (prefix plus threshold) by k eps max_value.
    Every greedy decision inside a chunk compares the residual with one of
    the chunk's cuts, and the two cuts around the row's leaf are the
    tightest of them, because cuts increase with the leaves.  Cuts other
    than the nearest lie at least a bucket width away, which the rule for
    tabulating a digit keeps far above M for any residual inside [lo, hi];
    outside it the nearest cut is an end cut.  So when the nearest cut is
    more than M = (3D + 8) eps B away, the table's leaf, the exact real
    greedy's and the rounded greedy's all agree; the same bound covers the
    sequential steps.
    """
    r = np.where(np.isfinite(y), y, 0.0)
    slack = np.full(r.shape, np.inf)
    chunks = stream.chunks
    for table in chunks:
        leaf, dist = table.lookup(r)
        u |= table.patterns.take(leaf)
        r -= table.offsets.take(leaf)
        np.minimum(slack, dist, out=slack)
    for d in range(chunks[-1].stop if chunks else 0, len(stream.data_weights)):
        z = r - stream.thresholds[d]
        take = z > 0
        u |= take << stream.shifts[d]
        r -= np.where(take, stream.data_weights[d], 0.0)
        np.abs(z, out=z)
        np.minimum(slack, z, out=slack)
    # NaN and infinite rows get a NaN or infinite limit and always fail.
    limit = np.abs(y)
    limit += stream.max_value
    limit *= stream.margin_scale
    redo = np.flatnonzero(~(slack > limit))
    if redo.size:
        u[redo] &= ~sum(1 << int(shift) for shift in stream.shifts)
        part = np.zeros(redo.size, dtype=np.int64)
        greedy_stream_decode(y[redo], stream, part)
        u[redo] |= part


class StreamCodec(Codec):
    """One digit stream per channel dimension over the p source bits."""

    def __init__(self, spec: CodecSpec, streams: list[DigitStream]):
        super().__init__(spec)
        self.streams = streams
        self.fold = FoldTable([(spec.p, s.data_bits, s.data_weights) for s in streams])

    def encode(self, x):
        return self.fold(numrep.unit_fraction_ints(np.asarray(x, dtype=np.float64), self.spec.p))

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64)
        u = np.zeros(y.shape[0], dtype=np.int64)
        for dim, stream in enumerate(self.streams):
            decode_stream(y[:, dim], stream, u)
        return numrep.cell_midpoints(u, self.spec.p)


class Scheme2Codec(StreamCodec):
    def __init__(self, spec: CodecSpec):
        super().__init__(spec, build_streams(spec.n, spec.p, spec.grouping_variant))


class Scheme1Codec(StreamCodec):
    def __init__(self, spec: CodecSpec):
        super().__init__(spec, [DigitStream(range(dim, spec.p, spec.n), spec.p, spec.alpha)
                                for dim in range(spec.n)])
