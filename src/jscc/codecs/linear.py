"""Piecewise-linear expansion codes: repetition, shift map, spherical map."""

import math

import numpy as np

from .base import Codec, CodecSpec, CapacityError, SEGMENT_CAP, UNIT_ROUNDOFF, _keep_best

NEWTON_STEPS = 5
# Correlations held at once by the spherical grid search: 512 KiB, which
# stays in a core's L2 cache.  Its blocks hold whole tiles of SCORE_TILE
# rows, a multiple of the 4-row tile of OpenBLAS's Nehalem gemm kernel, the
# one x86 kernel tried that rounds a row by its place in the block.
GRID_SCORES = 1 << 16
SCORE_TILE = 8


def optimal_a(sigma: float, n: int) -> int:
    """Stretch multiplier that balances segment-jump errors against in-segment
    noise.

    The rule holds while sigma * sqrt(-log sigma) <= 1 / (16 sqrt(n)); past
    that the noise is too large for it and the minimum a = 2 is returned.
    A noise level so small that the multiplier passes the float64 range is
    a CapacityError.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if sigma >= 1.0:
        return 2
    spread = sigma * math.sqrt(-math.log(sigma))
    if spread > 1.0 / (16.0 * math.sqrt(n)):
        return 2
    a = 1.0 / (8.0 * math.sqrt(n) * spread)
    if a == math.inf:
        raise CapacityError(f"noise level {sigma} asks for a stretch "
                            "multiplier past the float64 range")
    return max(2, math.floor(a))


def _row_sums(t, out):
    """t.sum(axis=1) into out, bit for bit.  numpy adds a row of fewer than
    8 terms one term at a time from 0, as this does a column at a time,
    which is faster on short rows; longer rows it sums pairwise itself."""
    if t.shape[1] >= 8:
        return np.add.reduce(t, axis=1, out=out)
    np.add(t[:, 0], 0.0, out=out)
    for j in range(1, t.shape[1]):
        np.add(out, t[:, j], out=out)
    return out


class RepetitionCodec(Codec):
    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.repeat(x[:, None], self.spec.n, axis=1)

    def decode(self, y, sigma=0.0):
        return np.clip(np.mean(y, axis=1), -0.5, 0.5)


class ShiftMapCodec(Codec):
    """Chained mod-1 stretching.

    The source is shifted to the unit interval, x' = x + 1/2, then s_1 = x'
    and s_{i+1} = (a * s_i) mod 1, so dimension i traces the line
    g_i * x' mod 1 with gain g_i = a^(i-1).  The affine shift keeps the two
    ends of the source interval at the two far ends of the folded curve;
    wrapping x instead would park them side by side mid-curve, where
    boundary noise swaps them at cost O(1) per event.  The image is a stack
    of B = a^(n-1) parallel segments, segment t covering x' in
    [t/B, (t+1)/B).

    Decoding is exact ML: the nearest point over all segments, ties going
    to the smaller source value.  Because s_1 = x' is unstretched, the
    squared distance to segment t is at least dist(y_1, [t/B, (t+1)/B])^2,
    the pruning bound of a closest-point search (Agrell et al. 2002).  The
    search scores one segment per point, picked by rounding stage by stage,
    then only the segments whose bound stays within that distance plus a
    rounding margin.  Each distance is formed term by term as a scan of
    every segment forms it, so the result is the same to the bit.
    """

    # Segment-point pairs scored per step of the search.
    _PAIRS = 1 << 14

    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        # A Python int, which cannot wrap, so the cap sees the true count
        # before any int64 array holds it.
        self.segments = spec.a ** (spec.n - 1)
        if self.segments > SEGMENT_CAP:
            raise CapacityError(
                f"{self.segments} segments exceed the cap {SEGMENT_CAP}")
        # Exact powers: each is an integer at most SEGMENT_CAP.
        self.gains = np.array([spec.a ** i for i in range(spec.n)], dtype=np.float64)
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
        v, whole = np.empty(x.shape[0]), np.empty(x.shape[0])
        for i in range(self.spec.n - 1):
            # v mod 1 for v >= 0: exact, and +0.0 at integers, like np.mod.
            np.multiply(self.spec.a, s[:, i], out=v)
            np.floor(v, out=whole)
            np.subtract(v, whole, out=s[:, i + 1])
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
        # Score the windows from their first segment on, a run of offsets at
        # a time: entry (i, j) of a step is segment first + k + i of live row
        # j, held at the row's last segment, and a step holds at most _PAIRS
        # entries unless one offset needs more.  A row stays live while its
        # window reaches first + k; a row that leaves keeps its best source.
        rows = np.flatnonzero(last > first)
        first, span = first[rows], last[rows] - first[rows]
        cols, y_dot_g, y_sq = cols.take(rows, axis=1), y_dot_g[rows], y_sq[rows]
        bd, bx = best_d[rows], best_x[rows]
        k = 0
        while rows.size:
            step = max(1, min(self._PAIRS // rows.size, int(span.max()) - k + 1))
            t = first + np.minimum(np.arange(k, k + step)[:, None], span)
            d, x = self._distances(t, cols, y_dot_g, y_sq)
            d_min = np.fmin.reduce(d, axis=0)
            x_min = np.fmin.reduce(np.where(d == d_min, x, np.inf), axis=0)
            _keep_best(bd, bx, d_min, x_min)
            k += step
            live = np.flatnonzero(k <= span)
            if live.size < rows.size:
                best_x[rows] = bx
                rows, first, span, y_dot_g, y_sq, bd, bx = (
                    v.take(live) for v in (rows, first, span, y_dot_g, y_sq, bd, bx))
                cols = cols.take(live, axis=1)
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
        # One column per grid point, so a block of rows scores the whole
        # grid with one contiguous matrix product.
        self.grid_table = np.ascontiguousarray(self._points(self.grid_x).T)

    def _points(self, unit_x):
        unit_x = np.asarray(unit_x, dtype=np.float64)
        n = self.spec.n
        # A column at a time: numpy steps through a broadcast outer product
        # only n values per inner loop.
        phases = np.empty((unit_x.shape[0], n))
        for j, freq in enumerate(self.freqs):
            np.multiply(unit_x, freq, out=phases[:, j])
        out = np.empty((unit_x.shape[0], 2 * n))
        np.cos(phases, out=out[:, :n])
        np.sin(phases, out=out[:, n:])
        out *= self.scale
        return out

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self._points(x + 0.5)

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64)
        m, n = y.shape[0], self.spec.n
        grid = len(self.grid_x)
        # Score the grid a cache-sized block of whole tiles of rows at a
        # time, each block by one gemm.  A BLAS kernel may round a row in a
        # part tile otherwise than in a whole one, and numpy hands a lone
        # row to gemv, so a part tile is padded with zero rows: a row's
        # scores do not depend on the batch around it.
        rows = max(SCORE_TILE, GRID_SCORES // grid // SCORE_TILE * SCORE_TILE)
        scores = np.empty((min(rows, -(-m // SCORE_TILE) * SCORE_TILE), grid))
        win = np.empty(m, dtype=np.intp)
        for i in range(0, m, rows):
            block = y[i:i + rows]
            count = block.shape[0]
            if count % SCORE_TILE:
                block = np.concatenate(
                    [block, np.zeros((-count % SCORE_TILE, 2 * n))])
            part = scores[:block.shape[0]]
            np.matmul(block, self.grid_table, out=part)
            np.argmax(part[:count], axis=1, out=win[i:i + count])
        step = 1.0 / grid
        mid = self.grid_x[win]
        cell_lo, cell_hi = mid - step, mid + step
        # The grid spacing is at most 1/32 of the fastest period, so the
        # winner sits on the concave cap of its peak, where Newton steps
        # converge quadratically; a step where the curvature is not
        # negative is skipped.  Each step runs the ufuncs of the
        # correlation's first two derivatives,
        #   d1 = sum((ys * cos - yc * sin) * freqs),
        #   d2 = -sum((yc * cos + ys * sin) * freqs**2),
        # in that order, on buffers made once per decode.
        yc = np.ascontiguousarray(y[:, :n])
        ys = np.ascontiguousarray(y[:, n:])
        freqs = np.tile(self.freqs, (m, 1))
        freqs_sq = np.tile(self.freqs ** 2, (m, 1))
        phases, cos, sin, t1, t2 = (np.empty((m, n)) for _ in range(5))
        d1, d2, delta = np.empty(m), np.empty(m), np.empty(m)
        for _ in range(NEWTON_STEPS):
            np.multiply(mid[:, None], freqs, out=phases)
            np.cos(phases, out=cos)
            np.sin(phases, out=sin)
            np.multiply(ys, cos, out=t1)
            np.multiply(yc, sin, out=t2)
            np.subtract(t1, t2, out=t1)
            np.multiply(t1, freqs, out=t1)
            _row_sums(t1, d1)
            np.multiply(yc, cos, out=t1)
            np.multiply(ys, sin, out=t2)
            np.add(t1, t2, out=t1)
            np.multiply(t1, freqs_sq, out=t1)
            _row_sums(t1, d2)
            np.negative(d2, out=d2)
            np.divide(d1, d2, out=delta)
            np.copyto(delta, 0.0, where=~(d2 < 0.0))
            np.subtract(mid, delta, out=mid)
            np.clip(mid, cell_lo, cell_hi, out=mid)
        x_unit = np.mod(mid, 1.0)
        return x_unit - 0.5
