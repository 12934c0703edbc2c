"""Wrapper extending a unit-interval codec to sources on the whole real line.

The sample splits into an integer part and a fractional part in [-1/2, 1/2).
The fraction goes through the inner codec, the scheme2 code with the
wrapper's own n, p and grouping variant, whose outputs all stay inside the
unit interval; after recentering them the integer part is added onto the
first channel dimension, so that coordinate leaks at most half a unit around
the integer.  Decoding enumerates the few integer offsets consistent with the
first received coordinate and keeps the candidate whose re-encoding lands
closest to the full received vector.  Offsets stay within +-2**52, so an
infinite or huge first coordinate decodes to the nearest end of that range.
Each offset costs one inner decode and one re-encode of the whole batch, so
a noise level whose window holds more than OFFSET_CAP offsets is refused.
"""

import numpy as np

from .base import CapacityError, Codec, CodecSpec, _keep_best
from .layered import Scheme2Codec
from .. import numrep

INTEGER_SEARCH_SIGMAS = 4.0
# Integer offsets stay within +-2**52, where float64 and int64 integers agree.
INTEGER_LIMIT = 2.0 ** 52
# Most integer offsets a row's decode window may hold.  At n=2 one offset
# of a 4096-row batch costs about 1 ms (one x86-64 core), so a batch at the
# cap takes about 1 s, and the window reaches the cap near -45 dB.
OFFSET_CAP = 1 << 10


def integer_search_radius(sigma: float) -> float:
    """Offsets farther than this from the first coordinate are not tried."""
    return INTEGER_SEARCH_SIGMAS * sigma + 0.75


class UnboundedWrapCodec(Codec):
    def __init__(self, spec: CodecSpec):
        super().__init__(spec)
        self.inner = Scheme2Codec(CodecSpec("scheme2", n=spec.n, p=spec.p,
                                            grouping_variant=spec.grouping_variant))

    def encode(self, x):
        x = np.asarray(x, dtype=np.float64)
        x1, x2 = numrep.split_integer_array(x)
        s = self.inner.encode(x2)
        s -= 0.5
        s[:, 0] += x1
        return s

    def check_decode_sigma(self, sigma):
        # A window [floor(c - r), ceil(c + r)] holds fewer than 2r + 3 integers.
        window = 2.0 * integer_search_radius(sigma) + 3.0
        if not window <= OFFSET_CAP:
            raise CapacityError(
                f"decode noise level {sigma:.6g} puts up to {window:.6g} integer "
                f"offsets in a row's window, past the cap {OFFSET_CAP}")

    def decode(self, y, sigma=0.0):
        y = np.asarray(y, dtype=np.float64)
        radius = integer_search_radius(sigma)
        first = y[:, 0]
        # A NaN first coordinate searches around 0, an infinite or huge one
        # at the nearer end of +-INTEGER_LIMIT.
        centre = np.nan_to_num(first, nan=0.0)
        lo = np.floor(np.clip(centre - radius, -INTEGER_LIMIT, INTEGER_LIMIT)).astype(np.int64)
        hi = np.ceil(np.clip(centre + radius, -INTEGER_LIMIT, INTEGER_LIMIT)).astype(np.int64)
        span = int(np.max(hi - lo, initial=0)) + 1
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
