"""Codec descriptions, parameter validation, and constellation normalization."""

import functools
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .. import numrep, schema

# Each scheme's facts, stated once: the fields it reads besides n (a spec
# setting any other is refused, as the code would ignore it but the spec
# would still be a cache key of its own), its least n, the fields a family
# leaves unset for the harness to choose per noise level, the fields it
# must be given, its channel uses per unit of n, and its source kind.
_Scheme = namedtuple("_Scheme", "reads least_n open needs dims source",
                     defaults=((), 2, (), (), 1, "uniform"))
_SCHEMES = {
    "repetition": _Scheme(least_n=1),
    "shift_map": _Scheme(reads=("a",), open=("a",)),
    "spherical": _Scheme(reads=("a",), needs=("a",), dims=2),
    "scheme1": _Scheme(reads=("alpha", "p"), needs=("alpha",)),
    "scheme2": _Scheme(reads=("p", "grouping_variant")),
    "type1": _Scheme(reads=("k", "p"), open=("k",)),
    "type2": _Scheme(reads=("k", "p", "grouping_variant"), open=("k",)),
    "unbounded_wrap": _Scheme(reads=("p", "grouping_variant"), source="gaussian"),
}
SCHEMES = tuple(_SCHEMES)

GROUPING_VARIANTS = ("standard", "shifted")

# Enumerated-decoder guard rails.  Anything past these turns a decode into an
# unbounded search, so the request is refused rather than attempted.
SEGMENT_CAP = 1 << 20
K_CAP = 24

# Most channel dimensions per source sample, well above the widest code any
# preset, workload or test builds (6, spherical n=3).  Every array a batch or a
# normalization holds grows with it: at the cap a 4096-row batch's noise,
# code and received arrays take 512 KiB each, and a normalization block
# 2 MiB; a dimension check at its most samples holds about 580 MB.
DIMS_CAP = 16

NORMALIZATION_SAMPLES = 10 ** 6
# measure_normalization sums its fixed draws in chunks of NORMALIZATION_CHUNK
# rows, draws NORMALIZATION_GROUP chunks at a time and folds them side by
# side, NORMALIZATION_BLOCK rows of each per encode.  Only the chunk length
# shapes the sums; the other two trade speed against memory.
NORMALIZATION_CHUNK = 1 << 16
NORMALIZATION_GROUP = 8
NORMALIZATION_BLOCK = 1024

# Unit roundoff of float64, the bound on one rounding's relative error.
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


class CapacityError(RuntimeError):
    """A requested configuration exceeds the enumerated-decoder caps."""


@dataclass(frozen=True)
class CodecSpec:
    """Declarative description of one code; _SCHEMES is the one place that
    states its scheme's fields, and schema.TABLES["codec"] each field's
    type, checked (and an integral float made an int) on construction.  A
    family (a unset on shift_map, k unset on type1/type2) has its design
    parameter chosen per noise level by the sweep harness.
    """

    scheme: str
    n: int
    a: int | None = None
    alpha: float | None = None
    k: int | None = None
    p: int = numrep.DEFAULT_PRECISION
    grouping_variant: str = "standard"

    def __post_init__(self):
        schema.check_fields(self, "codec")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        scheme = _SCHEMES[self.scheme]
        schema.refuse_unread(self, self.scheme, ("scheme", "n") + scheme.reads)
        if self.grouping_variant not in GROUPING_VARIANTS:
            raise ValueError(f"unknown grouping variant {self.grouping_variant!r}")
        if not 1 <= self.p <= numrep.MAX_PRECISION:
            raise ValueError(f"p must be in [1, {numrep.MAX_PRECISION}]")
        if self.dims > DIMS_CAP:
            raise CapacityError(
                f"{self.dims} channel dimensions exceed the cap {DIMS_CAP}")
        if self.n < scheme.least_n:
            raise ValueError(f"{self.scheme} needs n >= {scheme.least_n}, got {self.n}")
        # refuse_unread has passed, so a, alpha and k are set only on a
        # scheme that reads them, and no scheme reads more than one.
        if self.a is None and "a" in scheme.needs:
            raise ValueError(f"{self.scheme} code needs the multiplier a")
        if self.a is not None and self.a < 2:
            raise ValueError(f"stage multiplier must be an integer >= 2, got {self.a!r}")
        if "alpha" in scheme.needs and (self.alpha is None or not self.alpha > 2.0):
            raise ValueError(f"{self.scheme} needs a digit base alpha > 2")
        if self.k is not None:
            if self.k < 1:
                raise ValueError(f"k must be >= 1, got {self.k}")
            if self.k > K_CAP:
                raise CapacityError(f"k={self.k} exceeds the cap {K_CAP}")
            bits = self.digital_bits(self.k)
            if bits > self.p:
                need = "n*k" if bits == self.n * self.k else "n*k-1"
                raise ValueError(f"{self.scheme} needs {need} <= p, got {bits} > {self.p}")

    def digital_bits(self, k: int) -> int:
        """Source bits a type1 or type2 digital layer of depth k takes: k per
        dimension, less the one type1 leaves to its analog tail."""
        return self.n * k - (self.scheme == "type1")

    @property
    def dims(self) -> int:
        """Channel uses per source sample."""
        return _SCHEMES[self.scheme].dims * self.n

    @property
    def is_family(self) -> bool:
        unset = _SCHEMES[self.scheme].open
        return bool(unset) and all(getattr(self, name) is None for name in unset)

    @property
    def source_kind(self) -> str:
        return _SCHEMES[self.scheme].source

    @property
    def source_variance(self) -> float:
        return numrep.SOURCE_VARIANCE[self.source_kind]

    def describe(self) -> str:
        reads = _SCHEMES[self.scheme].reads
        parts = [self.scheme, f"n={self.n}"]
        if "a" in reads:
            parts.append(f"a={self.a}" if self.a is not None else "a=auto")
        if self.alpha is not None:
            parts.append(f"alpha={self.alpha:g}")
        if "k" in reads:
            parts.append(f"k={self.k}" if self.k is not None else "k=auto")
        if self.grouping_variant != "standard":
            parts.append(self.grouping_variant)
        return " ".join(parts)


class Codec:
    """One concrete encoder/decoder pair.

    encode maps a batch of source samples to a new (n_samples, dims) float64
    array of raw channel coordinates, which the codec keeps no reference to,
    so the caller may rescale it in place.  decode maps received raw
    coordinates back to source estimates; decoders that model the noise level
    take it as sigma (std per raw coordinate).
    """

    def __init__(self, spec: CodecSpec):
        if spec.is_family:
            raise ValueError("family spec must be resolved to a concrete codec")
        self.spec = spec
        self.dims = spec.dims

    @functools.cached_property
    def normalization(self) -> "NormalizationRecord":
        """The constellation's measured moments, measured on first access
        and kept with the codec.  Raises ValueError for a code with no
        spread."""
        return measure_normalization(self)

    def encode(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def decode(self, y: np.ndarray, sigma: float = 0.0) -> np.ndarray:
        raise NotImplementedError

    def check_decode_sigma(self, sigma: float) -> None:
        """Raise CapacityError if a decode at sigma (std per raw coordinate)
        would search past a cap; here no level does."""

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec.describe()}>"


def _keep_best(best_d, best_x, d, x):
    """Keep, per row, the smaller (distance, source) pair in place; a NaN
    distance never wins."""
    take = (d < best_d) | ((d == best_d) & (x < best_x))
    np.copyto(best_d, d, where=take)
    np.copyto(best_x, x, where=take)


@dataclass(frozen=True)
class NormalizationRecord:
    """Measured first and second moments of a constellation.

    mean is per raw coordinate; power is the average, across coordinates, of
    the centered second moment.  The harness transmits (s - mean) / sqrt(power)
    so the channel carries unit average power per dimension and the noise stays
    white in the decoder's raw geometry.
    """

    mean: tuple[float, ...]
    power: float
    samples: int


def _chunk_sums(codec: Codec, x: np.ndarray) -> list:
    """Column sums of each chunk's code values and their squares.

    x is (g, rows), one chunk of source draws per row.  Returns one
    (value sums, square sums) pair per chunk, in chunk order, each as
    s.sum(axis=0) and (s * s).sum(axis=0) over the chunk's whole
    (rows, dims) code s would give them.

    Over axis 0 numpy adds a C-contiguous (rows, dims > 1) array row by row,
    in row order.  The g chunks are encoded side by side, NORMALIZATION_BLOCK
    rows of each at a time, into a (block rows, 2 * g * dims) array whose
    first row also carries every column's sum so far, so one row-wise reduce
    keeps that order for all of them.  A single column is contiguous along
    axis 0, where sum is pairwise, so each chunk is summed whole.
    """
    g, rows = x.shape
    if x.size == 0:
        return []
    if codec.dims == 1:
        return [(s.sum(axis=0), (s * s).sum(axis=0)) for s in map(codec.encode, x)]
    width = g * codec.dims
    block = np.empty((min(rows, NORMALIZATION_BLOCK), 2 * width))
    fold = None
    for r0 in range(0, rows, NORMALIZATION_BLOCK):
        # Row r of the interleaved draws holds row r0 + r of every chunk.
        s = codec.encode(x[:, r0:r0 + NORMALIZATION_BLOCK].T.ravel()).reshape(-1, width)
        part = block[:s.shape[0]]
        np.multiply(s, s, out=part[:, width:])
        part[:, :width] = s
        if fold is not None:
            part[0] += fold
        fold = np.add.reduce(part, axis=0)
    sums, squares = fold.reshape(2, g, codec.dims)
    return list(zip(sums, squares))


def _group_sums(codec: Codec, x: np.ndarray) -> list:
    """_chunk_sums over x cut into NORMALIZATION_CHUNK-row chunks, the last
    of which may be shorter."""
    whole = x.size - x.size % NORMALIZATION_CHUNK
    return (_chunk_sums(codec, x[:whole].reshape(-1, NORMALIZATION_CHUNK))
            + _chunk_sums(codec, x[whole:].reshape(1, -1)))


def measure_normalization(codec: Codec) -> NormalizationRecord:
    """Moments of the codec's constellation over a fixed NORMALIZATION_SAMPLES
    source draws from seed 0x5EED, the same for every run.

    The draws are summed in NORMALIZATION_CHUNK-row chunks, and the chunk
    sums join the totals in stream order."""
    rng = np.random.default_rng(0x5EED)
    done = 0
    dim_sum = np.zeros(codec.dims)
    dim_sq = np.zeros(codec.dims)
    while done < NORMALIZATION_SAMPLES:
        m = min(NORMALIZATION_GROUP * NORMALIZATION_CHUNK,
                NORMALIZATION_SAMPLES - done)
        # Only the call holds the group's draws, so they are freed before
        # the next group is drawn.
        for v, q in _group_sums(
                codec, numrep.draw_source(codec.spec.source_kind, rng, m)):
            dim_sum += v
            dim_sq += q
        done += m
    mean = dim_sum / done
    var = dim_sq / done - mean * mean
    power = float(var.mean())
    if power <= 0.0:
        raise ValueError("constellation has no spread; nothing to normalize")
    return NormalizationRecord(mean=tuple(float(v) for v in mean),
                               power=power, samples=done)
