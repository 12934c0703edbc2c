"""Digit-interleaving code over a base wider than binary (scheme1).

Source bits are dealt round-robin across the n channel dimensions, and each
dimension is a base-alpha digit stream with no separators (alpha > 2).
Widening the base opens a gap between the two subtrees at every digit, which
is what makes the greedy stream decoder of layered.py an exact nearest-point
search.
"""

from .base import CodecSpec
from .layered import DigitStream, StreamCodec


class Scheme1Codec(StreamCodec):
    def __init__(self, spec: CodecSpec):
        streams = [DigitStream(range(dim, spec.p, spec.n), spec.p, base=spec.alpha)
                   for dim in range(spec.n)]
        super().__init__(spec, streams)
