"""Reference distortion curves and constellation geometry diagnostics.

The harness measures distortion empirically.  This module supplies the
closed-form curves those measurements are compared against, a least-squares
slope fit for SDR-vs-SNR curves, a box-counting dimension estimator, and a
stretch profile that fits the power-law growth of encoder displacement
under small source perturbations.

All curve shapes carry an undetermined multiplicative constant.  The
``scale`` field holds it; :func:`anchored` pins it so a curve passes
through a chosen (sigma, distortion) point, which is how overlays are
matched to measured data.  Logarithmic factors use the natural log; a
different base would only change ``scale``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import numrep, schema

# Largest per-dimension noise level any curve is defined for (sigma^2 <= 1/2).
SIGMA_MAX = 2.0 ** -0.5

# The shape fields each curve kind reads besides n and scale; a spec that
# sets any other (alpha or m given, rate not 1) is refused.
_KIND_FIELDS = {
    "opta_slb": (),
    "shiftmap_upper": (),
    "shiftmap_lower": (),
    "scheme1_upper": ("alpha",),
    "scheme2_upper": ("rate",),
    "hda_lower": ("m",),
    "type1_upper": (),
    "type2_upper": ("rate",),
}
BOUND_KINDS = tuple(_KIND_FIELDS)


def scheme1_beta(n: int, alpha: float) -> float:
    """Fractal-code SDR exponent: n * log 2 / log alpha."""
    if alpha <= 2.0:
        raise ValueError("alpha must exceed 2")
    return n * math.log(2.0) / math.log(alpha)


@dataclass(frozen=True)
class BoundSpec:
    """One reference curve: a kind tag plus its shape parameters.

    schema.TABLES["overlay"] states each field's type, checked (and an
    integral float made an int) on construction.

    kind      one of BOUND_KINDS; _KIND_FIELDS is the one place that
              states which of alpha, m and rate each kind reads
    n         bandwidth expansion (channel dims per source sample)
    alpha     digit base
    m         analog dims of a hybrid split (1..n)
    scale     multiplicative constant, fitted via anchored()
    rate      coefficient of the sqrt(-log2 sigma) exponent term
    """

    kind: str
    n: int
    alpha: float | None = None
    m: int | None = None
    scale: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        schema.check_fields(self, "overlay")
        if self.kind not in BOUND_KINDS:
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        # Each check is written so that NaN fails it: every comparison with
        # NaN is False.
        if not (0.0 < self.scale < math.inf):
            raise ValueError("scale must be positive and finite")
        reads = _KIND_FIELDS[self.kind]
        for name in ("alpha", "m"):
            if name in reads and getattr(self, name) is None:
                raise ValueError(f"{self.kind} requires {name}")
        if "alpha" in reads and not (2.0 < self.alpha < math.inf):
            raise ValueError("alpha must be finite and exceed 2")
        if "m" in reads and not 1 <= self.m <= self.n:
            raise ValueError("m must lie in 1..n")
        if "rate" in reads and not (0.0 < self.rate < math.inf):
            raise ValueError("rate must be positive and finite")
        schema.refuse_unread(self, self.kind, ("kind", "n", "scale") + reads)

    def describe(self) -> str:
        bits = [self.kind, f"n={self.n}"]
        for name in _KIND_FIELDS[self.kind]:
            value = getattr(self, name)
            bits.append(f"m={value}" if name == "m" else f"{name}={value:g}")
        return " ".join(bits)


@np.errstate(over="ignore", invalid="ignore")
def bound_eval(spec: BoundSpec, sigma):
    """Evaluate the curve at per-dimension noise level sigma.

    Accepts a scalar or array; sigma must lie in (0, SIGMA_MAX].  A value
    past the float range is inf, and one whose factors underflow to 0 and
    overflow to inf is NaN.
    """
    sig = np.asarray(sigma, dtype=np.float64)
    if sig.size and (np.any(sig <= 0.0) or np.any(sig > SIGMA_MAX)):
        raise ValueError(f"sigma must lie in (0, {SIGMA_MAX:.6f}]")
    u = -np.log(sig)
    if spec.kind == "opta_slb":
        # Width-1 uniform source has differential entropy 0, so the
        # Shannon lower bound gives D = (2 pi e)^{-1} (1 + SNR)^{-n}
        # at unit transmit power.
        out = spec.scale / (2.0 * np.pi * np.e * (1.0 + sig ** -2.0) ** spec.n)
    elif spec.kind in ("shiftmap_upper", "shiftmap_lower"):
        out = spec.scale * sig ** (2 * spec.n) * u ** (spec.n - 1)
    elif spec.kind == "scheme1_upper":
        beta = scheme1_beta(spec.n, spec.alpha)
        out = spec.scale * sig ** (2.0 * beta) * u ** spec.n
    elif spec.kind in ("scheme2_upper", "type2_upper"):
        t = -np.log2(sig)
        out = spec.scale * sig ** (2 * spec.n) * 2.0 ** (spec.rate * np.sqrt(t))
    elif spec.kind == "hda_lower":
        expo = 2.0 * spec.n / spec.m
        out = spec.scale * sig ** expo * u ** ((spec.n - spec.m) / spec.m)
    else:  # type1_upper
        out = spec.scale * sig ** (2 * spec.n)
    if np.isscalar(sigma):
        return float(out)
    return out


def anchored(spec: BoundSpec, sigma: float, distortion: float) -> BoundSpec:
    """Refit scale so the curve passes through (sigma, distortion)."""
    if distortion <= 0.0:
        raise ValueError("distortion must be positive")
    base = bound_eval(dataclasses.replace(spec, scale=1.0), float(sigma))
    if not (math.isfinite(base) and base > 0.0):
        raise ValueError(f"{spec.kind} is {base!r} at sigma={float(sigma)!r}, "
                         f"so no scale puts it through the point")
    return dataclasses.replace(spec, scale=distortion / base)


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    snr_db: tuple
    residuals: tuple

    @property
    def n_points(self) -> int:
        return len(self.snr_db)


def slope_fit(snr_db, sdr_db, window) -> SlopeFit:
    """Least-squares slope of SDR(dB) vs SNR(dB) inside a window.

    window is (lo, hi) in dB, inclusive.  Needs at least 4 points inside.
    """
    x = np.asarray(snr_db, dtype=np.float64).ravel()
    y = np.asarray(sdr_db, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise ValueError("snr_db and sdr_db must have matching lengths")
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    mask = (x >= lo) & (x <= hi)
    if int(mask.sum()) < 4:
        raise ValueError("need at least 4 points inside the fit window")
    xs, ys = x[mask], y[mask]
    slope, intercept, resid = _line_fit(xs, ys)
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    snr_db=tuple(float(v) for v in xs),
                    residuals=tuple(float(v) for v in resid))


def _line_fit(x, y) -> tuple:
    """Least-squares line through (x, y): slope, intercept and residuals."""
    slope, intercept = np.polyfit(x, y, 1)
    return slope, intercept, y - (slope * x + intercept)


@dataclass(frozen=True)
class DimensionEstimate:
    epsilons: tuple
    counts: tuple
    fitted_dimension: float
    fit_residual: float
    saturated: bool


# Box indices and packed box keys stay below this in magnitude, so every
# product and sum in the key fold fits in int64.
_KEY_LIMIT = 2 ** 62


def _dense_ranks(values):
    """Each value's rank among the distinct values, and their count."""
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks, distinct.size


def _box_keys(columns, lo, hi, eps: float, buffers):
    """One int64 key per point, equal exactly when two points share a box.

    The points arrive as C-contiguous (d, count) columns, so every pass
    below reads one contiguous row.  The grid is anchored at the origin
    with half-open boxes of side eps.  Each column is divided and floored
    into scratch buffers, offset by the floor of its bound lo / eps and
    folded into a mixed-radix key; before the radix would pass _KEY_LIMIT
    the partial key, and if need be the column, is replaced by its dense
    ranks, which keeps the key exact.  lo and hi bound every point of the
    set.  buffers are an int64 key, a float64 and an int64 scratch array,
    each of at least count entries; the key is built in the first unless
    it is ranked.  Reusing them for every box size spares each size the
    page faults of fresh arrays.
    """
    count = columns.shape[1]
    key, scaled, col = (b[:count] for b in buffers)
    key.fill(0)
    radix = 1
    for j in range(lo.size):
        offset = math.floor(lo[j] / eps)
        span = math.floor(hi[j] / eps) - offset + 1
        np.floor(np.divide(columns[j], eps, out=scaled), out=scaled)
        col[...] = scaled
        col -= offset
        digit = col
        if radix * span > _KEY_LIMIT:
            key, radix = _dense_ranks(key)
            if radix * span > _KEY_LIMIT:
                digit, span = _dense_ranks(col)
        key *= span
        key += digit
        radix *= span
    return key


def _distinct_sorted(keys) -> int:
    """How many distinct values a sorted, non-empty array holds."""
    return 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))


def _one_per_box(keys):
    """The index of one point per distinct key, and the distinct keys."""
    order = np.argsort(keys)
    ordered = keys[order]
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order[first], ordered[first]


def box_sizes(epsilons) -> np.ndarray:
    """epsilons as a float64 vector, refused unless it holds at least two
    box sizes, all finite, positive and strictly decreasing."""
    eps = np.asarray(epsilons, dtype=np.float64).ravel()
    if eps.size < 2:
        raise ValueError("need at least two box sizes")
    if not np.all(np.isfinite(eps)):
        raise ValueError("box sizes must be finite")
    if np.any(eps <= 0.0) or np.any(np.diff(eps) >= 0.0):
        raise ValueError("box sizes must be positive and strictly decreasing")
    return eps


def boxcount_dimension(sampler, epsilons, samples_per_eps: int,
                       rng: np.random.Generator) -> DimensionEstimate:
    """Box-counting dimension of a sampled point set.

    sampler(count, rng) must return a (count, d) array of finite points.  For
    each box size the occupied-box count is taken at samples_per_eps and
    again at double that; the estimate is flagged unsaturated if any count
    still moved by 2 percent or more, meaning the sampling was too sparse to
    trust.  Boxes are half-open on a grid anchored at the origin, and each
    point gets one exact int64 box key (box indices must stay below 2**62
    in magnitude).  Both sets are read as one array of contiguous (d, count)
    columns, the first set first.

    The box sizes are counted from the finest to the coarsest.  A size
    nests on the next finer size eps when it is 2**j eps for some j >= 1
    (equal np.frexp mantissas) and below 2.  Then floor(p / (2**j eps)) =
    floor(floor(p / eps) / 2**j) holds exactly in float64 for every
    coordinate p: the division by 2**j eps rounds as the division by eps
    does, scaled by 2**-j, unless the quotient is subnormal; such a
    quotient lies in (-1, 1) and keeps its sign, which it loses only by
    rounding to -0.0, and below 2 no nonzero p does that.  So the points
    of one finer box share a box of the nesting size, and that size counts
    each set from one point per box the set occupies at the finer size.
    The finest size, and any size that does not nest, count from all
    points.  A size whose coarser neighbour nests picks its points by an
    argsort of each set's keys and counts the union from the distinct keys
    of both sets; any other size sorts the first set's keys, counts the
    neighbours that differ, plus one, and the union's the same over the
    keys of both sets.
    """
    eps = box_sizes(epsilons)
    if samples_per_eps < 1:
        raise ValueError("samples_per_eps must be positive")
    set_a = np.asarray(sampler(samples_per_eps, rng), dtype=np.float64)
    set_b = np.asarray(sampler(samples_per_eps, rng), dtype=np.float64)
    if set_a.ndim != 2 or set_b.shape != set_a.shape:
        raise ValueError("sampler must return (count, d) arrays")
    count = set_a.shape[0]
    points = np.empty((set_a.shape[1], 2 * count))
    points[:, :count] = set_a.T
    points[:, count:] = set_b.T
    # Only the joined copy stays alive while the boxes are counted.
    del set_a, set_b
    lo, hi = points.min(axis=1), points.max(axis=1)
    # min and max propagate NaN, and an infinity is an extreme.
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("sampler returned non-finite points")
    # |p| / eps peaks at an extreme coordinate and the smallest box size, so
    # this bounds every box index of every epsilon.
    if np.max(np.maximum(np.abs(lo), np.abs(hi))) / eps[-1] >= _KEY_LIMIT:
        raise ValueError(f"box indices reach 2**62 at box size {float(eps[-1])!r}")
    buffers = (np.empty(2 * count, dtype=np.int64), np.empty(2 * count),
               np.empty(2 * count, dtype=np.int64))
    mantissas = np.frexp(eps)[0]
    # nests[i]: box size i nests on box size i + 1.
    nests = (mantissas[:-1] == mantissas[1:]) & (eps[:-1] < 2.0)
    counts = [0] * eps.size
    saturated = True
    for i in range(eps.size - 1, -1, -1):
        if i == eps.size - 1 or not nests[i]:
            pts, split = points, count
        keys = _box_keys(pts, lo, hi, float(eps[i]), buffers)
        first = keys[:split]
        if i > 0 and nests[i - 1]:
            reps_a, boxes_a = _one_per_box(first)
            reps_b, boxes_b = _one_per_box(keys[split:])
            union = np.concatenate([boxes_a, boxes_b])
            union.sort()
            m1, m2 = boxes_a.size, _distinct_sorted(union)
            pts = pts.take(np.concatenate([reps_a, split + reps_b]), axis=1)
            split = m1
        else:
            # Sorting the first set's keys in place leaves the union's
            # keys the same multiset.
            first.sort()
            m1 = _distinct_sorted(first)
            keys.sort()
            m2 = _distinct_sorted(keys)
        if m2 - m1 >= 0.02 * m1:
            saturated = False
        counts[i] = m2
    x = np.log(1.0 / eps)
    y = np.log(np.asarray(counts, dtype=np.float64))
    slope, _, resid = _line_fit(x, y)
    return DimensionEstimate(
        epsilons=tuple(float(e) for e in eps),
        counts=tuple(int(c) for c in counts),
        fitted_dimension=float(slope),
        fit_residual=float(np.sqrt(np.mean(resid ** 2))),
        saturated=saturated,
    )


def constellation_sampler(codec):
    """Adapt a codec into a boxcount_dimension sampler over its own source."""

    def sample(count: int, rng: np.random.Generator) -> np.ndarray:
        x = numrep.draw_source(codec.spec.source_kind, rng, count)
        return codec.encode(x)

    return sample


@dataclass(frozen=True)
class StretchProfile:
    deltas: tuple
    mean_square: tuple
    gamma: float
    fit_residual: float


def stretch_profile(codec, deltas, sample_count: int,
                    rng: np.random.Generator) -> StretchProfile:
    """Fit the power law of encoder displacement under source perturbation.

    Estimates E||f(x + delta) - f(x)||^2 by Monte Carlo for each delta and
    returns the fitted exponent gamma of its log-log slope.  The perturbed
    source wraps at the interval ends, and displacement is measured per
    dimension on the unit circle: the folded maps here reset coordinates by
    whole units at segment boundaries, and circular distance keeps those
    resets from masking the local stretch.
    """
    d = np.asarray(deltas, dtype=np.float64).ravel()
    if d.size < 2:
        raise ValueError("need at least two perturbation sizes")
    # Each check is written so that NaN fails it.
    if not np.all((d > 0.0) & (d <= 1e-2)):
        raise ValueError("perturbations must lie in (0, 1e-2]")
    if not np.all(np.diff(d) < 0.0):
        raise ValueError("perturbations must be strictly decreasing")
    if sample_count < 10 ** 5:
        raise ValueError("sample_count must be at least 1e5")
    if codec.spec.source_kind != "uniform":
        raise ValueError("stretch profile needs a uniform-interval source")
    x = rng.random(sample_count) - 0.5
    s0 = codec.encode(x)
    vals = []
    for delta in d:
        xp = np.mod(x + delta + 0.5, 1.0) - 0.5
        diff = codec.encode(xp) - s0
        w = np.mod(diff, 1.0)
        torus = np.minimum(w, 1.0 - w)
        vals.append(float(np.mean(np.sum(torus * torus, axis=1))))
    vals = np.asarray(vals)
    if np.any(vals <= 0.0):
        raise ValueError("degenerate encoder: zero displacement measured")
    gamma, _, resid = _line_fit(np.log(d), np.log(vals))
    return StretchProfile(
        deltas=tuple(float(v) for v in d),
        mean_square=tuple(float(v) for v in vals),
        gamma=float(gamma),
        fit_residual=float(np.sqrt(np.mean(resid ** 2))),
    )
