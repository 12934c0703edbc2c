"""Constellation moment measurement used by the sweep harness."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jscc import numrep
from jscc.codecs import base
from jscc.codecs import CodecSpec, build_codec, measure_normalization, resolve_for_sigma
from jscc.codecs.base import NORMALIZATION_CHUNK, NORMALIZATION_SAMPLES, SCHEMES


def test_repetition_moments():
    rec = measure_normalization(build_codec(CodecSpec("repetition", n=3)))
    assert rec.samples == 10 ** 6
    assert np.max(np.abs(rec.mean)) < 0.002
    assert rec.power == pytest.approx(1.0 / 12.0, rel=0.02)


def test_shiftmap_moments():
    rec = measure_normalization(build_codec(CodecSpec("shift_map", n=3, a=3)))
    # Every stage is a mod-1 image of a uniform variable, so it stays uniform.
    assert rec.power == pytest.approx(1.0 / 12.0, rel=0.02)
    assert np.max(np.abs(np.asarray(rec.mean) - 0.5)) < 0.002


def test_spherical_moments():
    n = 2
    rec = measure_normalization(build_codec(CodecSpec("spherical", n=n, a=2)))
    assert rec.power == pytest.approx(1.0 / (2 * n), rel=0.02)
    assert np.max(np.abs(rec.mean)) < 0.002


def test_measurement_is_deterministic():
    spec = CodecSpec("scheme2", n=2)
    a = measure_normalization(build_codec(spec))
    b = measure_normalization(build_codec(spec))
    assert a == b


def test_codec_measures_its_normalization_once(monkeypatch):
    codec = build_codec(CodecSpec("repetition", n=2))
    real = base.measure_normalization
    calls = []

    def measure(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(base, "measure_normalization", measure)
    assert codec.normalization == real(codec)
    assert codec.normalization is codec.normalization
    assert calls == [codec]


def test_wrapper_measures_under_its_own_source():
    rec = measure_normalization(build_codec(CodecSpec("unbounded_wrap", n=2)))
    assert rec.power > 0.5  # first coordinate carries the integer part
    assert all(np.isfinite(rec.mean))


def plain_sums(codec):
    """Column sums of the codec's values and squares over the fixed
    normalization stream, by the plain formula: draws from
    default_rng(0x5EED) in NORMALIZATION_CHUNK-row chunks, each chunk encoded
    whole and its s.sum(axis=0) and (s * s).sum(axis=0) added in turn."""
    rng = np.random.default_rng(0x5EED)
    dim_sum = np.zeros(codec.dims)
    dim_sq = np.zeros(codec.dims)
    rows = 0
    while rows < NORMALIZATION_SAMPLES:
        m = min(NORMALIZATION_CHUNK, NORMALIZATION_SAMPLES - rows)
        if codec.spec.source_kind == "uniform":
            x = rng.random(m) - 0.5
        else:
            x = rng.standard_normal(m)
        s = codec.encode(x)
        dim_sum += s.sum(axis=0)
        dim_sq += (s * s).sum(axis=0)
        rows += m
    return dim_sum, dim_sq, rows


NORMALIZED_SPECS = [
    CodecSpec("repetition", n=1),
    CodecSpec("repetition", n=4),
    CodecSpec("shift_map", n=4, a=3),
    resolve_for_sigma(CodecSpec("shift_map", n=3), 10 ** (-55 / 20)),
    CodecSpec("shift_map", n=3, a=5),
    CodecSpec("spherical", n=3, a=3),
    CodecSpec("scheme1", n=4, alpha=3.0),
    CodecSpec("scheme2", n=4, grouping_variant="shifted"),
    resolve_for_sigma(CodecSpec("type1", n=2), 1e-3),
    resolve_for_sigma(CodecSpec("type2", n=4), 1e-2),
    CodecSpec("unbounded_wrap", n=2),
]


@pytest.mark.parametrize("spec", NORMALIZED_SPECS, ids=lambda s: s.describe())
def test_normalization_bits_match_plain_column_sums(spec):
    codec = build_codec(spec)
    rec = measure_normalization(codec)
    dim_sum, dim_sq, rows = plain_sums(codec)
    mean = dim_sum / rows
    power = float((dim_sq / rows - mean * mean).mean())
    assert rows == rec.samples
    assert np.array_equal(np.asarray(rec.mean), mean)
    assert rec.power == power


# The first normalized spec of each scheme.
ROW_SPECS = list({s.scheme: s for s in reversed(NORMALIZED_SPECS)}.values())


def test_row_specs_cover_every_scheme():
    assert sorted(s.scheme for s in ROW_SPECS) == sorted(SCHEMES)


@pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: s.describe())
def test_encode_is_row_independent(spec):
    # measure_normalization encodes its chunks interleaved and in blocks, so
    # a row's code may depend on nothing but that row's draw.
    codec = build_codec(spec)
    rng = np.random.default_rng(7)
    x = numrep.draw_source(spec.source_kind, rng, 1000)
    whole = codec.encode(x)
    perm = rng.permutation(x.size)
    assert codec.encode(x[perm]).tobytes() == whole[perm].tobytes()
    cuts = [0, 1, 8, 9, 300, 1000]
    parts = [codec.encode(x[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert np.concatenate(parts).tobytes() == whole.tobytes()


# Traced bytes one measurement may hold at its peak.
NORMALIZATION_PEAK_BYTES = 8 << 20


@pytest.mark.parametrize("spec", NORMALIZED_SPECS, ids=lambda s: s.describe())
def test_normalization_peak_memory(spec):
    codec = build_codec(spec)
    tracemalloc.start()
    try:
        measure_normalization(codec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= NORMALIZATION_PEAK_BYTES, f"{peak / 2 ** 20:.2f} MiB"


def mod_encode(codec, x):
    """The shift map's encode with the stages formed by np.mod."""
    s = np.empty((x.shape[0], codec.spec.n))
    s[:, 0] = np.minimum(x + 0.5, np.nextafter(1.0, 0.0))
    for i in range(codec.spec.n - 1):
        s[:, i + 1] = np.mod(codec.spec.a * s[:, i], 1.0)
    return s


SHIFT_SPECS = [CodecSpec("shift_map", n=4, a=3), CodecSpec("shift_map", n=3, a=16),
               CodecSpec("shift_map", n=3, a=7), CodecSpec("shift_map", n=2, a=1024)]
unit_floats = st.floats(min_value=-0.5, max_value=0.5, exclude_max=True,
                        allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("spec", SHIFT_SPECS, ids=lambda s: s.describe())
@given(xs=st.lists(unit_floats, min_size=1, max_size=32))
@example(xs=[-0.5, float(np.nextafter(0.5, 0.0)), 0.0, -0.0, 0.25, -0.25,
             float(np.nextafter(-0.5, 0.0))])
@settings(max_examples=100, deadline=None, derandomize=True)
def test_shiftmap_encode_matches_np_mod(spec, xs):
    codec = build_codec(spec)
    x = np.asarray(xs)
    assert codec.encode(x).tobytes() == mod_encode(codec, x).tobytes()
