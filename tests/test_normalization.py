"""Constellation moment measurement used by the sweep harness."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from jscc.codecs import CodecSpec, build_codec, measure_normalization, resolve_for_sigma


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


def test_wrapper_measures_under_its_own_source():
    rec = measure_normalization(build_codec(CodecSpec("unbounded_wrap", n=2)))
    assert rec.power > 0.5  # first coordinate carries the integer part
    assert all(np.isfinite(rec.mean))


class SumOracle:
    """A codec whose encode also accumulates each chunk's column sums by the
    plain s.sum(axis=0) formula, the reference for measure_normalization."""

    def __init__(self, codec):
        self.codec, self.spec, self.dims = codec, codec.spec, codec.dims
        self.dim_sum = np.zeros(codec.dims)
        self.dim_sq = np.zeros(codec.dims)
        self.rows = 0

    def encode(self, x):
        s = self.codec.encode(x)
        self.dim_sum += s.sum(axis=0)
        self.dim_sq += (s * s).sum(axis=0)
        self.rows += s.shape[0]
        return s


NORMALIZED_SPECS = [
    CodecSpec("repetition", n=1),
    CodecSpec("repetition", n=4),
    CodecSpec("shift_map", n=4, a=3),
    resolve_for_sigma(CodecSpec("shift_map", n=3), 10 ** (-55 / 20)),
    CodecSpec("shift_map", n=3, b=(2, 5)),
    CodecSpec("spherical", n=3, a=3),
    CodecSpec("scheme1", n=4, alpha=3.0),
    CodecSpec("scheme2", n=4, grouping_variant="shifted"),
    resolve_for_sigma(CodecSpec("type1", n=2), 1e-3),
    resolve_for_sigma(CodecSpec("type2", n=4), 1e-2),
    CodecSpec("unbounded_wrap", n=2),
]


@pytest.mark.parametrize("spec", NORMALIZED_SPECS, ids=lambda s: s.describe())
def test_normalization_bits_match_plain_column_sums(spec):
    oracle = SumOracle(build_codec(spec))
    rec = measure_normalization(oracle)
    mean = oracle.dim_sum / oracle.rows
    power = float((oracle.dim_sq / oracle.rows - mean * mean).mean())
    assert oracle.rows == rec.samples
    assert np.array_equal(np.asarray(rec.mean), mean)
    assert rec.power == power


def mod_encode(codec, x):
    """The shift map's encode with the stages formed by np.mod."""
    s = np.empty((x.shape[0], codec.spec.n))
    s[:, 0] = np.minimum(x + 0.5, np.nextafter(1.0, 0.0))
    for i, m in enumerate(codec.spec.stage_multipliers()):
        s[:, i + 1] = np.mod(m * s[:, i], 1.0)
    return s


SHIFT_SPECS = [CodecSpec("shift_map", n=4, a=3), CodecSpec("shift_map", n=3, a=16),
               CodecSpec("shift_map", n=3, b=(2, 7)), CodecSpec("shift_map", n=2, a=1024)]
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
