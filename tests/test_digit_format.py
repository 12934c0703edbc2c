"""The digit codecs' arithmetic: a fixed summation order, independent of BLAS."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jscc.codecs import CodecSpec, build_codec
from jscc.codecs.hybrid import protection_weights
from jscc.codecs.layered import ENCODE_DIGITS, fold_digits
from jscc.numrep import DEFAULT_PRECISION

unit_floats = st.floats(min_value=-0.5, max_value=0.5, exclude_max=True,
                        allow_nan=False, allow_infinity=False)


def exact_truncation(x: float, p: int) -> int:
    """Independent truncation oracle in exact rational arithmetic."""
    v = Fraction(x) + Fraction(1, 2)
    return (v.numerator * 2 ** p) // v.denominator


def slot_sum(u: int, p: int, slots) -> float:
    """Left fold from 0.0 over (source bit, weight) slots whose digit of u is set."""
    total = 0.0
    for bit, w in slots:
        if (u >> (p - 1 - int(bit))) & 1:
            total += float(w)
    return total


def oracle_encode(codec, x: float) -> list[float]:
    spec = codec.spec
    n, k, p = spec.n, spec.k, spec.p
    if spec.scheme in ("scheme1", "scheme2"):
        u = exact_truncation(x, p)
        return [slot_sum(u, p, zip(s.data_bits, s.data_weights)) for s in codec.streams]
    w = protection_weights(k)
    seg = math.ldexp(1.0, -(k + 1))
    if spec.scheme == "type1":
        m = n * k - 1
        d = exact_truncation(x, m)
        depths = [k] * (n - 1) + [k - 1]
        s = [slot_sum(d, m, [(i * n + j, w[i]) for i in range(depths[j])])
             for j in range(n)]
        frac = float((Fraction(x) + Fraction(1, 2) - Fraction(d, 2 ** m)) * 2 ** m)
        s[-1] += frac * seg
        return [v - 1.0 for v in s]
    m = n * k
    u = exact_truncation(x, p)
    digital = [slot_sum(u, p, [(i * n + j, w[i]) for i in range(k)]) for j in range(n)]
    residual = [slot_sum(u, p, zip(m + s.data_bits, s.data_weights)) for s in codec.streams]
    return [dv + seg * rv for dv, rv in zip(digital, residual)]


FOLD_SPECS = [
    CodecSpec("scheme1", n=2, alpha=3.0),
    CodecSpec("scheme1", n=4, alpha=3.0),
    CodecSpec("scheme1", n=3, alpha=4.0),
    CodecSpec("scheme1", n=2, alpha=5.0),
    CodecSpec("scheme2", n=3),
    CodecSpec("scheme2", n=4, grouping_variant="shifted"),
    CodecSpec("type1", n=2, k=3),
    CodecSpec("type1", n=4, k=5),
    CodecSpec("type2", n=2, k=4),
    CodecSpec("type2", n=3, k=2, grouping_variant="shifted"),
    # Edges of the table encoder: p not a multiple of 8, all 7 bytes of u
    # (p=52), and columns longer than its 12 digits (scheme1 alpha=8's 24;
    # type2 k=2's residual streams).
    CodecSpec("scheme1", n=3, alpha=3.0, p=13),
    CodecSpec("type2", n=2, k=3, p=21),
    CodecSpec("scheme1", n=2, alpha=3.0, p=52),
    CodecSpec("scheme2", n=3, p=52),
    CodecSpec("type1", n=3, k=5, p=52),
    CodecSpec("scheme1", n=2, alpha=8.0),
    CodecSpec("type2", n=2, k=2),
    # Each stream's last weight, 2**-1040, is subnormal.
    CodecSpec("scheme1", n=2, alpha=2.0 ** 40, p=52),
]


def spec_id(spec):
    return spec.describe() + (f" p={spec.p}" if spec.p != DEFAULT_PRECISION else "")


@pytest.mark.parametrize("spec", FOLD_SPECS, ids=spec_id)
@given(xs=st.lists(unit_floats, min_size=1, max_size=16))
@settings(max_examples=60, deadline=None)
def test_encode_is_the_slot_order_fold(spec, xs):
    codec = build_codec(spec)
    got = codec.encode(np.asarray(xs))
    want = np.array([oracle_encode(codec, x) for x in xs])
    assert got.tobytes() == want.tobytes()


def fold_columns(codec):
    """Digit count of the codec's truncation integer, and fold_digits'
    (p, bits, weights) for each output column its encode folds."""
    spec = codec.spec
    if spec.scheme in ("scheme1", "scheme2"):
        return spec.p, [(spec.p, s.data_bits, s.data_weights) for s in codec.streams]
    if spec.scheme == "type1":
        return codec.m, [(codec.m, b, codec.w) for b in codec.bits]
    return spec.p, ([(spec.p, b, codec.w) for b in codec.bits]
                    + [(spec.p - codec.m, s.data_bits, s.data_weights) for s in codec.streams])


@pytest.mark.parametrize("spec", FOLD_SPECS, ids=spec_id)
def test_table_encoder_is_the_per_digit_fold(spec):
    codec = build_codec(spec)
    width, columns = fold_columns(codec)
    u = np.random.default_rng(65536).integers(0, 1 << width, size=65536, dtype=np.int64)
    u[:2] = [0, (1 << width) - 1]
    want = np.stack([fold_digits(u, p, bits, w) for p, bits, w in columns], axis=1)
    assert codec.fold(u).tobytes() == want.tobytes()


def multiply_fold(u, p, bits, weights, out=None):
    """fold_digits' oracle: the same left fold in slot order, each term the
    digit times its weight by a float multiply."""
    if out is None:
        out = np.zeros(np.shape(u))
    for bit, w in zip(bits, weights):
        out += ((u >> (p - 1 - int(bit))) & 1) * w
    return out


@pytest.mark.parametrize("spec", FOLD_SPECS, ids=spec_id)
def test_fold_digits_is_the_multiply_fold(spec):
    """Bit for bit, on each column from 0.0 and into out (the encode tail),
    and on every leaf of its leading digits (the table builds)."""
    codec = build_codec(spec)
    width, columns = fold_columns(codec)
    rng = np.random.default_rng(1040)
    u = rng.integers(0, 1 << width, size=4096, dtype=np.int64)
    u[:2] = [0, (1 << width) - 1]
    start = rng.random(u.size)
    for p, bits, w in columns:
        got = [fold_digits(u, p, bits, w), fold_digits(u, p, bits, w, out=start.copy())]
        want = [multiply_fold(u, p, bits, w), multiply_fold(u, p, bits, w, out=start.copy())]
        assert [g.tobytes() for g in got] == [v.tobytes() for v in want]
        k = min(len(bits), ENCODE_DIGITS)
        leaves = np.arange(1 << k, dtype=np.int64)
        assert (fold_digits(leaves, k, range(k), w[:k]).tobytes()
                == multiply_fold(leaves, k, range(k), w[:k]).tobytes())


def test_a_subnormal_weight_is_folded():
    codec = build_codec(CodecSpec("scheme1", n=2, alpha=2.0 ** 40, p=52))
    w = codec.streams[0].data_weights
    assert 0.0 < w[-1] < np.finfo(np.float64).tiny
    # Source bit 50, stream 0's last digit, alone and beside bit 51, stream 1's.
    u = np.array([2, 3], dtype=np.int64)
    assert codec.fold(u).tolist() == [[w[-1], 0.0], [w[-1], w[-1]]]


PORTABILITY_SCRIPT = """
import hashlib
import numpy as np
from jscc.codecs import CodecSpec, build_codec
h = hashlib.sha256()
for spec in (CodecSpec("scheme1", n=4, alpha=3.0), CodecSpec("scheme1", n=2, alpha=5.0),
             CodecSpec("scheme2", n=4), CodecSpec("type1", n=3, k=4),
             CodecSpec("type2", n=4, k=3)):
    codec = build_codec(spec)
    rng = np.random.default_rng(2008)
    s = codec.encode(rng.random(8192) - 0.5)
    y = s + 0.03 * rng.standard_normal(s.shape)
    h.update(s.tobytes())
    h.update(codec.decode(y, sigma=0.03).tobytes())
print(h.hexdigest())
"""


def _openblas_dynamic_arch() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 only prints its configuration
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return ("openblas" in str(blas.get("name", "")).lower()
            and "DYNAMIC_ARCH" in str(blas.get("openblas configuration", "")))


@pytest.mark.skipif(not _openblas_dynamic_arch(),
                    reason="needs numpy on an OpenBLAS DYNAMIC_ARCH build, "
                           "whose kernel OPENBLAS_CORETYPE selects")
def test_digit_codec_bytes_do_not_depend_on_blas_kernel():
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = {}
    for coretype in (None, "Haswell", "Nehalem"):
        env = dict(os.environ)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        run = subprocess.run([sys.executable, "-c", PORTABILITY_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        digests[coretype or "default"] = run.stdout.strip()
    assert len(set(digests.values())) == 1, digests
