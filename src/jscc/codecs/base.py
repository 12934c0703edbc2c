"""Codec descriptions, parameter validation, and constellation normalization."""

import functools
from dataclasses import dataclass, fields

import numpy as np

from .. import numrep

# The fields each scheme reads besides n.  A spec that sets any other field
# (a, b, alpha or k given, p or grouping_variant not the default) is refused:
# the code would ignore it, and the spec would still be a cache key of its own.
_SCHEME_FIELDS = {
    "repetition": (),
    "shift_map": ("a", "b"),
    "spherical": ("a",),
    "scheme1": ("alpha", "p"),
    "scheme2": ("p", "grouping_variant"),
    "type1": ("k", "p"),
    "type2": ("k", "p", "grouping_variant"),
    "unbounded_wrap": ("p", "grouping_variant"),
}
SCHEMES = tuple(_SCHEME_FIELDS)

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
NORMALIZATION_GROUP = 4
NORMALIZATION_BLOCK = 2048

# Unit roundoff of float64, the bound on one rounding's relative error.
UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return _is_integer(value) or isinstance(value, (float, np.floating))


class CapacityError(RuntimeError):
    """A requested configuration exceeds the enumerated-decoder caps."""


@dataclass(frozen=True)
class CodecSpec:
    """Declarative description of one code.

    a=None on shift_map, or k=None on type1/type2, declares a family whose
    design parameter is chosen per noise level by the sweep harness.
    """

    scheme: str
    n: int
    a: int | None = None
    b: tuple[int, ...] | None = None
    alpha: float | None = None
    k: int | None = None
    p: int = numrep.DEFAULT_PRECISION
    grouping_variant: str = "standard"

    def __post_init__(self):
        for name in ("n", "p", "a", "k"):
            value = getattr(self, name)
            if value is None and name in ("a", "k"):
                continue
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.alpha is not None and not _is_real(self.alpha):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        reads = ("scheme", "n") + _SCHEME_FIELDS[self.scheme]
        for field in fields(self):
            if field.name in reads:
                continue
            value = getattr(self, field.name)
            if value is not None if field.default is None else value != field.default:
                raise ValueError(f"{self.scheme} does not read {field.name}")
        if self.grouping_variant not in GROUPING_VARIANTS:
            raise ValueError(f"unknown grouping variant {self.grouping_variant!r}")
        if not 1 <= self.p <= numrep.MAX_PRECISION:
            raise ValueError(f"p must be in [1, {numrep.MAX_PRECISION}]")
        if self.dims > DIMS_CAP:
            raise CapacityError(
                f"{self.dims} channel dimensions exceed the cap {DIMS_CAP}")
        if self.scheme == "repetition":
            self._need_n(1)
        elif self.scheme == "shift_map":
            self._need_n(2)
            if self.a is not None and self.b is not None:
                raise ValueError("give either a or per-stage b, not both")
            if self.a is not None:
                self._check_multiplier(self.a)
            if self.b is not None:
                if len(self.b) != self.n - 1:
                    raise ValueError(f"b needs {self.n - 1} entries, got {len(self.b)}")
                for m in self.b:
                    self._check_multiplier(m)
        elif self.scheme == "spherical":
            self._need_n(2)
            if self.a is None:
                raise ValueError("spherical code needs the multiplier a")
            self._check_multiplier(self.a)
        elif self.scheme == "scheme1":
            self._need_n(2)
            if self.alpha is None or not self.alpha > 2.0:
                raise ValueError("scheme1 needs a digit base alpha > 2")
        elif self.scheme in ("scheme2", "unbounded_wrap"):
            self._need_n(2)
        elif self.scheme in ("type1", "type2"):
            self._need_n(2)
            if self.k is not None:
                if self.k < 1:
                    raise ValueError(f"k must be >= 1, got {self.k}")
                if self.k > K_CAP:
                    raise CapacityError(f"k={self.k} exceeds the cap {K_CAP}")
                if self.scheme == "type1" and self.n * self.k - 1 > self.p:
                    raise ValueError(
                        f"type1 needs n*k-1 <= p, got {self.n * self.k - 1} > {self.p}")
                if self.scheme == "type2" and self.n * self.k > self.p:
                    raise ValueError(
                        f"type2 needs n*k <= p, got {self.n * self.k} > {self.p}")

    def _need_n(self, lo: int) -> None:
        if self.n < lo:
            raise ValueError(f"{self.scheme} needs n >= {lo}, got {self.n}")

    @staticmethod
    def _check_multiplier(m) -> None:
        if not _is_integer(m) or m < 2:
            raise ValueError(f"stage multiplier must be an integer >= 2, got {m!r}")

    @property
    def dims(self) -> int:
        """Channel uses per source sample."""
        return 2 * self.n if self.scheme == "spherical" else self.n

    @property
    def is_family(self) -> bool:
        if self.scheme == "shift_map":
            return self.a is None and self.b is None
        if self.scheme in ("type1", "type2"):
            return self.k is None
        return False

    @property
    def source_kind(self) -> str:
        return "gaussian" if self.scheme == "unbounded_wrap" else "uniform"

    @property
    def source_variance(self) -> float:
        return 1.0 if self.scheme == "unbounded_wrap" else numrep.UNIFORM_VARIANCE

    def stage_multipliers(self) -> tuple[int, ...]:
        """Per-stage multipliers of a concrete shift map."""
        if self.b is not None:
            return self.b
        if self.a is None:
            raise ValueError("family spec has no concrete multipliers yet")
        return (self.a,) * (self.n - 1)

    def describe(self) -> str:
        parts = [self.scheme, f"n={self.n}"]
        if self.scheme in ("shift_map", "spherical"):
            if self.b is not None:
                parts.append("b=" + "x".join(str(m) for m in self.b))
            elif self.a is not None:
                parts.append(f"a={self.a}")
            else:
                parts.append("a=auto")
        if self.alpha is not None:
            parts.append(f"alpha={self.alpha:g}")
        if self.scheme in ("type1", "type2"):
            parts.append(f"k={self.k}" if self.k is not None else "k=auto")
        if (self.scheme in ("scheme2", "type2", "unbounded_wrap")
                and self.grouping_variant != "standard"):
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
