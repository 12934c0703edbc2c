"""Wrapper extending a unit-interval codec to sources on the whole real line.

The sample splits into an integer part and a fractional part in [-1/2, 1/2).
The fraction goes through the inner codec, whose outputs all stay inside the
unit interval; after recentering them the integer part is added onto the
first channel dimension, so that coordinate leaks at most half a unit around
the integer.  Decoding enumerates the few integer offsets consistent with the
first received coordinate and keeps the candidate whose re-encoding lands
closest to the full received vector.  Offsets stay within +-2**52, so an
infinite or huge first coordinate decodes to the nearest end of that range.
"""

import numpy as np

from .base import Codec, CodecSpec, _keep_best
from .. import numrep

INTEGER_SEARCH_SIGMAS = 4.0
# Integer offsets stay within +-2**52, where float64 and int64 integers agree.
INTEGER_LIMIT = 2.0 ** 52


def integer_search_radius(sigma: float) -> float:
    """Offsets farther than this from the first coordinate are not tried."""
    return INTEGER_SEARCH_SIGMAS * sigma + 0.75


class UnboundedWrapCodec(Codec):
    def __init__(self, spec: CodecSpec, inner: Codec):
        super().__init__(spec)
        self.inner = inner

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        x1, x2 = numrep.split_integer_array(x)
        s = self.inner.encode(x2)
        s -= 0.5
        s[:, 0] += x1
        return s

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64)
        radius = integer_search_radius(sigma)
        first = y[:, 0]
        # A NaN first coordinate searches around 0, an infinite or huge one
        # at the nearer end of +-INTEGER_LIMIT.
        centre = np.nan_to_num(first, nan=0.0)
        lo = np.floor(np.clip(centre - radius, -INTEGER_LIMIT, INTEGER_LIMIT)).astype(np.int64)
        hi = np.ceil(np.clip(centre + radius, -INTEGER_LIMIT, INTEGER_LIMIT)).astype(np.int64)
        span = int(np.max(hi - lo)) + 1
        for off in range(span):
            cand = lo + off
            shifted = y.copy()
            shifted[:, 0] = first - cand
            inner_y = shifted + 0.5
            frac = self.inner.decode(inner_y, sigma=sigma)
            total = cand + frac
            re_enc = self.encode(total)
            d = np.einsum("ij,ij->i", y - re_enc, y - re_enc)
            # The first candidate is always taken, so a row whose distance is
            # never finite (an infinite coordinate) keeps the nearest one.
            if off == 0:
                best_d, best_x = d, total
            else:
                d[cand > hi] = np.nan  # past the row's window
                _keep_best(best_d, best_x, d, total)
        # A row with a NaN coordinate tells nothing: it gets the source mean, 0.
        return np.where(np.isnan(y).any(axis=1), 0.0, best_x)
