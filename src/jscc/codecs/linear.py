"""Piecewise-linear expansion codes: repetition, shift map, spherical map."""

import math

import numpy as np

from .base import Codec, CodecSpec, CapacityError, SEGMENT_CAP, UNIT_ROUNDOFF, _keep_best

NEWTON_STEPS = 5
# Correlations held at once by the spherical grid search.
GRID_SCORES = 1 << 19


def optimal_a(sigma: float, n: int) -> tuple[int, bool]:
    """Stretch multiplier that balances segment-jump errors against in-segment
    noise, with its validity flag.

    Valid while sigma * sqrt(-log sigma) <= 1 / (16 sqrt(n)); outside that
    range the noise is too large for the rule and the minimum a = 2 is
    returned with the flag cleared.  A noise level so small that the
    multiplier passes the float64 range is a CapacityError.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if sigma >= 1.0:
        return 2, False
    spread = sigma * math.sqrt(-math.log(sigma))
    if spread > 1.0 / (16.0 * math.sqrt(n)):
        return 2, False
    a = 1.0 / (8.0 * math.sqrt(n) * spread)
    if a == math.inf:
        raise CapacityError(f"noise level {sigma} asks for a stretch "
                            "multiplier past the float64 range")
    return max(2, math.floor(a)), True


class RepetitionCodec(Codec):
    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.repeat(x[:, None], self.spec.n, axis=1)

    def decode(self, y, sigma=0.0):
        return np.clip(np.mean(y, axis=1), -0.5, 0.5)


class ShiftMapCodec(Codec):
    """Chained mod-1 stretching.

    The source is shifted to the unit interval, x' = x + 1/2, then s_1 = x'
    and s_{i+1} = (b_i * s_i) mod 1, so dimension i traces the line
    g_i * x' mod 1 with g_i the product of the first i-1 multipliers.  The
    affine shift keeps the two ends of the source interval at the two far
    ends of the folded curve; wrapping x instead would park them side by
    side mid-curve, where boundary noise swaps them at cost O(1) per event.
    The image is a stack of prod(b) parallel segments, segment t covering
    x' in [t/B, (t+1)/B) with B = prod(b).

    Decoding is exact ML: the nearest point over all segments, ties going
    to the smaller source value.  Because s_1 = x' is unstretched, the
    squared distance to segment t is at least dist(y_1, [t/B, (t+1)/B])^2,
    the pruning bound of a closest-point search (Agrell et al. 2002).  The
    search scores one segment per point, picked by rounding stage by stage,
    then only the segments whose bound stays within that distance plus a
    rounding margin.  Each distance is formed term by term as a scan of
    every segment forms it, so the result is the same to the bit.
    """

    # Segment-point pairs scored per vectorized block of the search.
    _PAIRS = 1 << 13

    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        b = spec.stage_multipliers()
        # Python ints, which cannot wrap, so the cap sees the true count
        # before any int64 array holds it.
        self.segments = math.prod(int(m) for m in b)
        if self.segments > SEGMENT_CAP:
            raise CapacityError(
                f"{self.segments} segments exceed the cap {SEGMENT_CAP}")
        self.gains = np.ones(spec.n)
        for i, m in enumerate(b):
            self.gains[i + 1] = self.gains[i] * m
        self.gain_sq = float(self.gains @ self.gains)
        t = np.arange(self.segments, dtype=np.int64)
        # Integer offsets c of each dimension on segment t, exact by
        # construction; offset 0 is 0 on every segment.
        offsets = (self.gains.astype(np.int64)[None, :] * t[:, None]) // self.segments
        # One row per quantity the search reads for segment t: c.g, the
        # first-coordinate interval, |c|^2, then offsets 1..n-1.
        inv_b = 1.0 / self.segments
        self._table = np.vstack([
            offsets @ self.gains, t * inv_b, (t + 1) * inv_b,
            (offsets * offsets).sum(axis=1), offsets[:, 1:].T,
        ]).astype(np.float64)
        # The computed distance is within (n + 6) u M of the exact one, with
        # u the unit roundoff and M = (|y| + 2 sqrt(G))^2; twice that is the
        # margin a segment's lower bound may exceed the best distance by.
        self._round_err = 2.0 * (spec.n + 6) * UNIT_ROUNDOFF

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        s = np.empty((x.shape[0], self.spec.n))
        # x + 1/2 can round up to 1.0 at the open end; pull it back inside.
        s[:, 0] = np.minimum(x + 0.5, np.nextafter(1.0, 0.0))
        for i, m in enumerate(self.spec.stage_multipliers()):
            # v mod 1 for v >= 0: exact, and +0.0 at integers, like np.mod.
            v = m * s[:, i]
            s[:, i + 1] = v - np.floor(v)
        return s

    def _distances(self, t, y, y_dot_g, y_sq):
        """Squared distance from received point j to segment t[..., j], and
        the source value of the closest point on that segment.

        y holds the points' coordinates as rows, y_dot_g and y_sq their dot
        with the gains and their squared norm.  Every term is formed as in
        a scan of all segments, so the result is the same to the bit.
        """
        tab = self._table.take(t, axis=1)
        num = y_dot_g + tab[0]
        proj = np.minimum(np.maximum(num / self.gain_sq, tab[1]), tab[2])
        y_c = y[1] * tab[4]
        for i in range(2, self.spec.n):
            y_c += y[i] * tab[3 + i]
        r_sq = y_sq + 2.0 * y_c + tab[3]
        d = r_sq - 2.0 * proj * num + proj * proj * self.gain_sq
        return d, proj - 0.5

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64)
        segs = self.segments
        cols = np.ascontiguousarray(y.T)
        y1 = cols[0]
        y_dot_g = y @ self.gains
        y_sq = y1 * y1
        for y_i in cols[1:]:
            y_sq += y_i * y_i
        # Start from the segment that successive rounding picks: stage i
        # fixes the offset c_i, the integer part of g_i x', that best
        # explains y_i, and the last offset is the segment index itself.
        est = y1
        for g, y_i in zip(self.gains[1:], cols[1:]):
            c = np.rint(g * est - y_i)
            est = (c + y_i) / g
        t0 = np.fmax(np.fmin(c, segs - 1), 0).astype(np.int64)
        best_d = np.full(y.shape[0], np.inf)
        best_x = np.zeros(y.shape[0])
        _keep_best(best_d, best_x, *self._distances(t0, cols, y_dot_g, y_sq))

        # Every segment that can beat or tie the start lies within reach of
        # y_1 on the first axis.  The reach is inflated and the index range
        # padded to cover their own rounding; a NaN bound keeps the start.
        margin = self._round_err * np.square(np.sqrt(y_sq) + 2.0 * math.sqrt(self.gain_sq))
        reach = np.sqrt(best_d + margin) * (1.0 + 4.0 * self._round_err)
        pad = self._round_err * segs * (2.0 + np.abs(y1) + reach)
        first = np.fmax(np.fmin(np.floor((y1 - reach) * segs - pad), t0), 0).astype(np.int64)
        last = np.fmin(np.fmax(np.floor((y1 + reach) * segs + pad), t0), segs - 1).astype(np.int64)
        rows = np.flatnonzero(last > first)
        # Score the windows in blocks of one power-of-two width class, entry
        # (k, j) of a block being segment first + k of row j, held at the
        # row's last segment.
        widths = last[rows] - first[rows] + 1
        width_class = np.frexp(widths)[1]
        order = np.argsort(-width_class.astype(np.int8), kind="stable")
        rows, widths, width_class = rows[order], widths[order], width_class[order]
        class_end = np.searchsorted(-width_class, -width_class, side="right")
        start = 0
        while start < rows.size:
            stop = min(class_end[start], start + max(1, self._PAIRS >> width_class[start]))
            r = rows[start:stop]
            r_first, r_last = first.take(r), last.take(r)
            r_cols, r_dot_g, r_y_sq = cols.take(r, axis=1), y_dot_g.take(r), y_sq.take(r)
            bd, bx = best_d.take(r), best_x.take(r)
            width = widths[start:stop].max()
            for k in range(0, width, self._PAIRS):
                t = np.minimum(r_first + np.arange(k, min(width, k + self._PAIRS))[:, None],
                               r_last)
                d, x = self._distances(t, r_cols, r_dot_g, r_y_sq)
                d_min = np.fmin.reduce(d, axis=0)
                x_min = np.fmin.reduce(np.where(d == d_min, x, np.inf), axis=0)
                _keep_best(bd, bx, d_min, x_min)
            best_d[r], best_x[r] = bd, bx
            start = stop
        return best_x


class SphericalCodec(Codec):
    """Shift map wound onto a torus: cos/sin pairs of a^j * x'.

    Output packs the n cosines first, then the n sines, scaled to unit norm.
    Decoding maximizes correlation over a precomputed grid, then refines the
    winner with a fixed number of Newton steps on the correlation's
    derivative, clipped to the grid cells on either side of the winner.
    """

    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        self.freqs = (2.0 * math.pi) * np.array(
            [float(spec.a) ** j for j in range(spec.n)])
        self.scale = 1.0 / math.sqrt(spec.n)
        grid = max(1024, 32 * spec.a ** (spec.n - 1))
        if grid > SEGMENT_CAP:
            raise CapacityError(f"search grid {grid} exceeds the cap {SEGMENT_CAP}")
        self.grid_x = np.arange(grid) / grid
        self.grid_table = self._points(self.grid_x)

    def _points(self, unit_x):
        phases = np.multiply.outer(np.asarray(unit_x, dtype=np.float64), self.freqs)
        return self.scale * np.concatenate([np.cos(phases), np.sin(phases)], axis=-1)

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self._points(x + 0.5)

    def _corr_derivs(self, unit_x, y):
        phases = np.multiply.outer(unit_x, self.freqs)
        yc = y[:, : self.spec.n]
        ys = y[:, self.spec.n:]
        cos, sin = np.cos(phases), np.sin(phases)
        d1 = ((ys * cos - yc * sin) * self.freqs).sum(axis=1)
        d2 = -((yc * cos + ys * sin) * self.freqs ** 2).sum(axis=1)
        return d1, d2

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64)
        # Score the grid a bounded block of rows at a time.
        rows = max(1, GRID_SCORES // len(self.grid_x))
        win = np.empty(y.shape[0], dtype=np.intp)
        for i in range(0, y.shape[0], rows):
            win[i:i + rows] = np.argmax(y[i:i + rows] @ self.grid_table.T, axis=1)
        step = 1.0 / len(self.grid_x)
        mid = self.grid_x[win]
        cell_lo, cell_hi = mid - step, mid + step
        # The grid spacing is at most 1/32 of the fastest period, so the
        # winner sits on the concave cap of its peak, where Newton steps
        # converge quadratically; a step where the curvature is not
        # negative is skipped.
        for _ in range(NEWTON_STEPS):
            d1, d2 = self._corr_derivs(mid, y)
            delta = np.where(d2 < 0.0, d1 / d2, 0.0)
            mid = np.clip(mid - delta, cell_lo, cell_hi)
        x_unit = np.mod(mid, 1.0)
        return x_unit - 0.5
