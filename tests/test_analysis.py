import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from jscc import analysis
from jscc.analysis import (
    BoundSpec,
    bound_eval,
    anchored,
    scheme1_beta,
    slope_fit,
    boxcount_dimension,
    constellation_sampler,
    stretch_profile,
)
from jscc.codecs import CodecSpec, build_codec


# ---------------------------------------------------------------------------
# reference curve shapes


def test_opta_slb_frozen_value():
    spec = BoundSpec(kind="opta_slb", n=2)
    want = 1.0 / (2.0 * math.pi * math.e * (1.0 + 100.0) ** 2)
    assert bound_eval(spec, 0.1) == pytest.approx(want, rel=1e-12)


def test_opta_slb_at_domain_edge():
    spec = BoundSpec(kind="opta_slb", n=4)
    sig = analysis.SIGMA_MAX
    want = 1.0 / (2.0 * math.pi * math.e * 3.0 ** 4)
    assert bound_eval(spec, sig) == pytest.approx(want, rel=1e-9)


def test_shiftmap_upper_frozen_value():
    spec = BoundSpec(kind="shiftmap_upper", n=2)
    want = 1e-8 * math.log(100.0)
    assert bound_eval(spec, 0.01) == pytest.approx(want, rel=1e-12)


def test_shiftmap_pair_ratio_constant_in_sigma():
    up = BoundSpec(kind="shiftmap_upper", n=3, scale=2.5)
    lo = BoundSpec(kind="shiftmap_lower", n=3, scale=0.4)
    sig = np.geomspace(1e-6, 0.5, 25)
    ratio = bound_eval(up, sig) / bound_eval(lo, sig)
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_scheme1_beta_values():
    assert scheme1_beta(4, 4.0) == pytest.approx(2.0, abs=1e-12)
    assert scheme1_beta(4, 3.0) == pytest.approx(2.523719, abs=1e-4)
    assert scheme1_beta(2, 8.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    with pytest.raises(ValueError):
        scheme1_beta(2, 2.0)


def test_scheme1_upper_frozen_value():
    spec = BoundSpec(kind="scheme1_upper", n=4, alpha=4.0)
    want = 1e-8 * math.log(100.0) ** 4
    assert bound_eval(spec, 0.01) == pytest.approx(want, rel=1e-12)


def test_scheme1_upper_uses_beta_exponent():
    spec = BoundSpec(kind="scheme1_upper", n=2, alpha=8.0)
    beta = 2.0 * math.log(2.0) / math.log(8.0)
    s1, s2 = 1e-3, 1e-5
    got = bound_eval(spec, s2) / bound_eval(spec, s1)
    want = (s2 / s1) ** (2 * beta) * (math.log(1 / s2) / math.log(1 / s1)) ** 2
    assert got == pytest.approx(want, rel=1e-12)


def test_scheme2_upper_frozen_power_of_two():
    spec = BoundSpec(kind="scheme2_upper", n=2, rate=1.0)
    sig = 2.0 ** -16
    # sigma^4 * 2^sqrt(16) lands on an exact power of two
    assert bound_eval(spec, sig) == pytest.approx(2.0 ** -60, rel=1e-12)


def test_type2_upper_matches_scheme2_shape():
    a = BoundSpec(kind="scheme2_upper", n=3, rate=2.0, scale=1.7)
    b = BoundSpec(kind="type2_upper", n=3, rate=2.0, scale=1.7)
    sig = np.geomspace(1e-5, 0.3, 11)
    assert np.array_equal(bound_eval(a, sig), bound_eval(b, sig))


def test_type1_upper_frozen_value():
    spec = BoundSpec(kind="type1_upper", n=3)
    assert bound_eval(spec, 0.02) == pytest.approx(0.02 ** 6, rel=1e-12)


def test_hda_lower_frozen_value():
    spec = BoundSpec(kind="hda_lower", n=4, m=2)
    want = 0.05 ** 4 * math.log(1 / 0.05)
    assert bound_eval(spec, 0.05) == pytest.approx(want, rel=1e-12)


def test_hda_lower_full_analog_is_plain_quadratic():
    spec = BoundSpec(kind="hda_lower", n=3, m=3, scale=0.8)
    sig = np.geomspace(1e-4, 0.5, 9)
    assert np.allclose(bound_eval(spec, sig), 0.8 * sig ** 2, rtol=1e-12)


def test_bound_eval_rejects_sigma_outside_domain():
    spec = BoundSpec(kind="opta_slb", n=2)
    for bad in (0.0, -0.1, 0.72, 1.0):
        with pytest.raises(ValueError):
            bound_eval(spec, bad)
    with pytest.raises(ValueError):
        bound_eval(spec, np.array([0.1, 0.9]))


def test_bound_spec_validation():
    with pytest.raises(ValueError):
        BoundSpec(kind="mystery", n=2)
    with pytest.raises(ValueError):
        BoundSpec(kind="scheme1_upper", n=2)
    with pytest.raises(ValueError):
        BoundSpec(kind="scheme1_upper", n=2, alpha=2.0)
    with pytest.raises(ValueError):
        BoundSpec(kind="hda_lower", n=2)
    with pytest.raises(ValueError):
        BoundSpec(kind="hda_lower", n=2, m=3)
    with pytest.raises(ValueError):
        BoundSpec(kind="scheme2_upper", n=2, rate=0.0)
    with pytest.raises(ValueError):
        BoundSpec(kind="opta_slb", n=0)
    with pytest.raises(ValueError):
        BoundSpec(kind="opta_slb", n=2, scale=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            BoundSpec(kind="opta_slb", n=2, scale=bad)
        with pytest.raises(ValueError):
            BoundSpec(kind="scheme2_upper", n=2, rate=bad)
        with pytest.raises(ValueError):
            BoundSpec(kind="scheme1_upper", n=2, alpha=bad)
        with pytest.raises(ValueError):
            BoundSpec(kind="hda_lower", n=2, m=bad)
        with pytest.raises(ValueError):
            BoundSpec(kind="opta_slb", n=bad)


_MONOTONE_CASES = [
    BoundSpec(kind="opta_slb", n=2),
    BoundSpec(kind="opta_slb", n=4),
    BoundSpec(kind="shiftmap_upper", n=2),
    BoundSpec(kind="shiftmap_upper", n=4),
    BoundSpec(kind="shiftmap_lower", n=3),
    BoundSpec(kind="scheme1_upper", n=2, alpha=4.0),
    BoundSpec(kind="scheme1_upper", n=2, alpha=8.0),
    BoundSpec(kind="scheme1_upper", n=4, alpha=3.0),
    BoundSpec(kind="scheme2_upper", n=2),
    BoundSpec(kind="scheme2_upper", n=4, rate=4.0),
    BoundSpec(kind="type2_upper", n=4, rate=2.0),
    BoundSpec(kind="type1_upper", n=2),
    BoundSpec(kind="hda_lower", n=4, m=2),
    BoundSpec(kind="hda_lower", n=4, m=4),
    BoundSpec(kind="hda_lower", n=3, m=2),
]


@pytest.mark.parametrize("spec", _MONOTONE_CASES, ids=lambda s: s.describe())
def test_curves_positive_and_grow_with_noise(spec):
    # Away from the very top of the sigma domain every curve is strictly
    # increasing in sigma (log factors are dominated by the power term).
    sig = np.geomspace(1e-6, 0.12, 40)
    vals = bound_eval(spec, sig)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) > 0.0)


@settings(max_examples=60, deadline=None)
@given(
    kind_i=st.integers(0, len(_MONOTONE_CASES) - 1),
    sig=st.floats(1e-5, 0.5),
    target=st.floats(1e-20, 1.0),
)
def test_anchoring_pins_curve_through_point(kind_i, sig, target):
    spec = _MONOTONE_CASES[kind_i]
    fit = anchored(spec, sig, target)
    assert bound_eval(fit, sig) == pytest.approx(target, rel=1e-9)


def test_anchoring_rejects_a_curve_outside_the_float_range():
    with pytest.raises(ValueError, match="is 0.0"):  # sigma**4 underflows
        anchored(BoundSpec(kind="shiftmap_upper", n=2), 1e-150, 1e-300)
    with pytest.raises(ValueError, match="is inf"):
        anchored(BoundSpec(kind="scheme2_upper", n=2, rate=1e300), 0.1, 1e-3)
    with pytest.raises(ValueError, match="is nan"):  # 0 * inf
        with np.errstate(invalid="ignore"):
            anchored(BoundSpec(kind="scheme2_upper", n=2, rate=1e300), 1e-150, 1e-3)
    with pytest.raises(ValueError, match="alpha must be finite"):
        anchored(BoundSpec(kind="scheme1_upper", n=2, alpha=math.nan), 0.1, 1e-3)


def test_bound_eval_overflows_to_inf_quietly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bound_eval(BoundSpec(kind="opta_slb", n=2), 1e-160) == 0.0
        assert bound_eval(BoundSpec(kind="scheme2_upper", n=2, rate=1e300),
                          0.1) == math.inf


def test_bound_eval_is_nan_quietly_where_its_factors_leave_the_float_range():
    # sigma**(2n) underflows to 0 while the other factor overflows to inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(bound_eval(BoundSpec(kind="shiftmap_upper", n=1000), 1e-4))
        vals = bound_eval(BoundSpec(kind="scheme2_upper", n=2, rate=100.0),
                          np.array([1e-300, 0.1]))
    assert math.isnan(vals[0]) and math.isfinite(vals[1])


def test_describe_mentions_parameters():
    s = BoundSpec(kind="scheme1_upper", n=2, alpha=4.0)
    assert "alpha=4" in s.describe() and "n=2" in s.describe()
    h = BoundSpec(kind="hda_lower", n=4, m=2)
    assert "m=2" in h.describe()


# ---------------------------------------------------------------------------
# slope fitting


def test_slope_fit_exact_line():
    snr = np.arange(10.0, 50.0, 5.0)
    sdr = 2.0 * snr + 3.0
    fit = slope_fit(snr, sdr, (10.0, 45.0))
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(3.0, abs=1e-8)
    assert max(abs(r) for r in fit.residuals) < 1e-9


def test_slope_fit_opta_high_snr_slope_is_n():
    snr_db = np.arange(60.0, 101.0, 4.0)
    sig = 10.0 ** (-snr_db / 20.0)
    d = bound_eval(BoundSpec(kind="opta_slb", n=4), sig)
    sdr_db = 10.0 * np.log10((1.0 / 12.0) / d)
    fit = slope_fit(snr_db, sdr_db, (60.0, 100.0))
    assert fit.slope == pytest.approx(4.0, abs=1e-3)


def test_slope_fit_needs_four_points():
    snr = np.array([10.0, 20.0, 30.0, 40.0])
    sdr = snr.copy()
    with pytest.raises(ValueError):
        slope_fit(snr, sdr, (15.0, 35.0))
    with pytest.raises(ValueError):
        slope_fit(snr[:1], sdr[:1], (0.0, 50.0))


def test_slope_fit_window_excludes_outliers():
    snr = np.array([10.0, 20.0, 30.0, 40.0, 90.0])
    sdr = 1.5 * snr - 2.0
    sdr[-1] = 500.0  # garbage outside the window must not matter
    fit = slope_fit(snr, sdr, (5.0, 45.0))
    assert fit.slope == pytest.approx(1.5, abs=1e-9)
    assert fit.n_points == 4


def test_slope_fit_offset_invariance():
    rng = np.random.default_rng(7)
    snr = np.linspace(20.0, 60.0, 9)
    sdr = 3.0 * snr + rng.normal(0.0, 0.5, snr.size)
    a = slope_fit(snr, sdr, (20.0, 60.0))
    b = slope_fit(snr, sdr + 17.25, (20.0, 60.0))
    assert a.slope == pytest.approx(b.slope, abs=1e-12)


def test_slope_fit_rejects_bad_window():
    snr = np.linspace(0.0, 50.0, 10)
    with pytest.raises(ValueError):
        slope_fit(snr, snr, (30.0, 10.0))


# ---------------------------------------------------------------------------
# box-counting dimension


def _rng():
    """A fresh generator on the seed these tests' expectations were set at."""
    return np.random.default_rng(0x5EED)


def _segment_sampler(count, rng):
    u = rng.random(count)
    return np.column_stack([u, 0.61 * u])


def _square_sampler(count, rng):
    return rng.random((count, 2))


def test_boxcount_straight_segment():
    eps = 2.0 ** -np.arange(3, 11)
    est = boxcount_dimension(_segment_sampler, eps, 150_000, rng=_rng())
    assert est.saturated
    assert est.fitted_dimension == pytest.approx(1.0, abs=0.05)
    # coarser boxes can never hold more occupied cells
    assert np.all(np.diff(est.counts) >= 0)


def test_boxcount_unit_square():
    eps = 2.0 ** -np.arange(2, 7)
    est = boxcount_dimension(_square_sampler, eps, 300_000, rng=_rng())
    assert est.saturated
    assert est.fitted_dimension == pytest.approx(2.0, abs=0.05)


def test_boxcount_flags_sparse_sampling():
    eps = 2.0 ** -np.arange(4, 7)
    est = boxcount_dimension(_square_sampler, eps, 2_000, rng=_rng())
    assert not est.saturated


def test_boxcount_fractal_base4():
    codec = build_codec(CodecSpec(scheme="scheme1", n=2, alpha=4.0))
    eps = 2.0 ** -np.arange(4, 13)
    est = boxcount_dimension(constellation_sampler(codec), eps, 250_000, rng=_rng())
    assert est.saturated
    want = scheme1_beta(2, 4.0)
    assert abs(est.fitted_dimension - want) <= 0.10 * want


def test_boxcount_fractal_base8():
    codec = build_codec(CodecSpec(scheme="scheme1", n=2, alpha=8.0))
    eps = 2.0 ** -np.arange(4, 13)
    est = boxcount_dimension(constellation_sampler(codec), eps, 250_000, rng=_rng())
    assert est.saturated
    assert est.fitted_dimension == pytest.approx(2.0 / 3.0, abs=0.07)


def test_boxcount_validation():
    eps_up = np.array([0.1, 0.2])
    with pytest.raises(ValueError):
        boxcount_dimension(_square_sampler, eps_up, 100, rng=_rng())
    with pytest.raises(ValueError):
        boxcount_dimension(_square_sampler, np.array([0.25]), 100, rng=_rng())
    with pytest.raises(ValueError):
        boxcount_dimension(_square_sampler, np.array([0.25, 0.125]), 0, rng=_rng())
    with pytest.raises(ValueError, match="finite"):
        boxcount_dimension(_square_sampler, np.array([np.inf, 0.125]), 100, rng=_rng())
    with pytest.raises(ValueError, match="finite"):
        boxcount_dimension(_square_sampler, np.array([0.25, np.nan]), 100, rng=_rng())

    def with_nan(count, rng):
        pts = rng.random((count, 2))
        pts[-1, 1] = np.nan
        return pts

    with pytest.raises(ValueError, match="non-finite"):
        boxcount_dimension(with_nan, np.array([0.25, 0.125]), 100, rng=_rng())
    # Points in [1, 2) reach box index 2**62 at box size 2**-62.
    with pytest.raises(ValueError, match="2\\*\\*62"):
        boxcount_dimension(lambda count, rng: 1.0 + rng.random((count, 2)),
                           np.array([0.25, 2.0 ** -62]), 100, rng=_rng())


def test_boxcount_is_deterministic_for_a_seed():
    eps = 2.0 ** -np.arange(3, 8)
    a = boxcount_dimension(_segment_sampler, eps, 20_000, rng=_rng())
    b = boxcount_dimension(_segment_sampler, eps, 20_000, rng=_rng())
    assert a == b


def _reference_box_counts(pts_a, pts_b, eps):
    """Occupied-box counts and saturation through row-wise np.unique(axis=0)."""
    counts, saturated = [], True
    for e in eps:
        boxes_a = np.unique(np.floor(pts_a / e).astype(np.int64), axis=0)
        boxes_b = np.unique(np.floor(pts_b / e).astype(np.int64), axis=0)
        m1, m2 = len(boxes_a), len(np.unique(np.vstack([boxes_a, boxes_b]), axis=0))
        if m2 - m1 >= 0.02 * m1:
            saturated = False
        counts.append(m2)
    return tuple(counts), saturated


_WRAP_CODEC = build_codec(CodecSpec("unbounded_wrap", n=3, p=24))


@st.composite
def _box_inputs(draw):
    """Two equally sized point sets with duplicates and negative coordinates,
    or two draws of an unbounded_wrap constellation, plus box sizes spaced
    by powers of ten, by powers of two, or by a mix of both kinds of step."""
    count = draw(st.integers(1, 40))
    if draw(st.booleans()):
        d = draw(st.integers(1, 8))
        coord = st.floats(-1e3, 1e3, allow_nan=False)
        pool = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                                      min_size=1, max_size=count)))
        picks = st.lists(st.integers(0, len(pool) - 1),
                         min_size=count, max_size=count)
        pts_a, pts_b = pool[draw(picks)], pool[draw(picks)]
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        sample = constellation_sampler(_WRAP_CODEC)
        pts_a, pts_b = sample(count, rng), sample(count, rng)
    ladder = draw(st.sampled_from(["ten", "two", "mixed"]))
    if ladder == "ten":
        exps = draw(st.lists(st.floats(-9.0, 2.0), min_size=2, max_size=5, unique=True))
        eps = 10.0 ** np.sort(np.array(exps))[::-1]
    else:
        # A power-of-two ladder shares one mantissa, so every size below 2
        # nests on the next finer one; a mixed ladder draws each size's
        # mantissa, so some steps nest and some start again.
        exps = draw(st.lists(st.integers(-30, 7), min_size=2, max_size=5, unique=True))
        if ladder == "two":
            mantissas = [draw(st.floats(1.0, 2.0, exclude_max=True))] * len(exps)
        else:
            mantissas = draw(st.lists(st.sampled_from([1.0, 1.25, 1.5]),
                                      min_size=len(exps), max_size=len(exps)))
        eps = np.sort(np.ldexp(mantissas, exps))[::-1]
    return pts_a, pts_b, eps


# At d = 8, boxes of 1e-6 give about 2**31 indices per column, so the packed
# key would pass 2**62 after two columns and the dense-rank step must run.
_WIDE_POOL = np.random.default_rng(8).uniform(-1e3, 1e3, (30, 8))
_WIDE = (_WIDE_POOL[np.arange(50) % 30], _WIDE_POOL[np.arange(50) % 7],
         np.array([1.0, 1e-3, 1e-6]))
# The same points on a nested ladder: at 2**-10 the key passes 2**62 after
# three columns, so the dense-rank step runs on one point per box of 2**-20.
_WIDE_NESTED = (_WIDE[0], _WIDE[1], np.array([1.0, 2.0 ** -10, 2.0 ** -20]))
# -0.5 and the smallest negative subnormal share box -1 of size 1, but
# -5e-324 / 2 rounds to -0.0, so at size 2 they fall in boxes -1 and 0; the
# size 2 must count from all points, not from one point per box of size 1.
_UNDERFLOW_PTS = np.array([[-0.5], [-5e-324]])
_UNDERFLOW = (_UNDERFLOW_PTS, _UNDERFLOW_PTS.copy(), np.array([2.0, 1.0]))
# Without the dense-rank step the packed key wraps int64 at box size 1: spans
# 2, 2**32, 2**32 put (1, 0, 0) on the key of (0, 0, 0); without ranking the
# column, spans 513, 2**63 - 1023 put (512, low + 512 * 1023) on (0, low).
_EDGE = 2.0 ** 62 - 512
_WRAP_KEY = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                      [0.0, 2.0 ** 32 - 1, 2.0 ** 32 - 1]])
_WRAP_COLUMN = np.vstack([
    np.column_stack([np.arange(513.0), np.full(513, -_EDGE)]),
    [[0.0, _EDGE], [512.0, -_EDGE + 512 * 1023]]])
# Cases that pin the union count m2 against the first set's count m1.
_FEW = np.array([[0.1, 0.2], [0.6, 0.3], [0.4, 0.9], [-1.7, 2.2]])
_FEW_EPS = np.array([1.0, 0.5, 0.25])
_DISJOINT = (_FEW, _FEW + 5.0, _FEW_EPS)
_EQUAL = (_FEW, _FEW.copy(), _FEW_EPS)
_SUBSET = (_FEW, _FEW[[0, 1, 0, 1]], _FEW_EPS)
_SINGLE = (np.array([[0.3, -0.7]]), np.array([[2.5, 1.0]]), np.array([1.0, 0.1]))
_ONE_BOX_POOL = 0.5 + 1e-3 * np.random.default_rng(5).random((60, 2))
_ONE_BOX = (_ONE_BOX_POOL[:30], _ONE_BOX_POOL[30:], np.array([1.0, 0.5]))


@settings(max_examples=200, deadline=None)
@given(_box_inputs())
@example(_WIDE)
@example(_WIDE_NESTED)
@example(_UNDERFLOW)
@example((_WRAP_KEY, _WRAP_KEY, np.array([2.0, 1.0])))
@example((_WRAP_COLUMN, _WRAP_COLUMN, np.array([2.0, 1.0])))
@example(_DISJOINT)
@example(_EQUAL)
@example(_SUBSET)
@example(_SINGLE)
@example(_ONE_BOX)
def test_boxcount_matches_row_unique_oracle(case):
    pts_a, pts_b, eps = case
    assume(np.all(np.diff(eps) < 0.0))
    sets = iter((pts_a, pts_b))
    est = boxcount_dimension(lambda count, rng: next(sets), eps, len(pts_a), rng=_rng())
    counts, saturated = _reference_box_counts(pts_a, pts_b, eps)
    assert est.counts == counts
    assert est.saturated == saturated
    x, y = np.log(1.0 / eps), np.log(np.asarray(counts, dtype=np.float64))
    assert est.fitted_dimension == float(np.polyfit(x, y, 1)[0])


@pytest.mark.parametrize("layout", [
    np.asfortranarray,
    lambda p: np.repeat(p, 2, axis=1)[:, ::2],
    lambda p: np.repeat(p, 2, axis=0)[::2],
    lambda p: np.ascontiguousarray(p[::-1])[::-1],
], ids=["fortran", "strided-columns", "strided-rows", "reversed-rows"])
def test_boxcount_ignores_the_sampler_memory_layout(layout):
    eps = 2.0 ** -np.arange(1, 6)
    seen = []

    def sampler(count, rng):
        pts = layout(rng.uniform(-1.0, 1.0, (count, 3)))
        seen.append((pts, pts.copy()))
        return pts

    def c_ordered(count, rng):
        return np.ascontiguousarray(rng.uniform(-1.0, 1.0, (count, 3)))

    got = boxcount_dimension(sampler, eps, 3000, rng=np.random.default_rng(4))
    want = boxcount_dimension(c_ordered, eps, 3000, rng=np.random.default_rng(4))
    assert got == want
    # Box counting reads the sampler's points and never writes them.
    assert not seen[0][0].flags.c_contiguous
    for pts, before in seen:
        assert np.array_equal(pts, before)


# ---------------------------------------------------------------------------
# stretch profile


def test_stretch_repetition_is_quadratic():
    codec = build_codec(CodecSpec(scheme="repetition", n=4))
    deltas = np.geomspace(1e-2, 1e-4, 7)
    prof = stretch_profile(codec, deltas, 100_000, rng=_rng())
    assert prof.gamma == pytest.approx(2.0, abs=1e-6)
    # displacement of the linear map is exactly n * delta^2
    assert prof.mean_square[0] == pytest.approx(4.0 * 1e-4, rel=1e-9)


def test_stretch_shiftmap_quadratic_below_fold_scale():
    codec = build_codec(CodecSpec(scheme="shift_map", n=3, a=3))
    deltas = np.geomspace(1e-2, 1e-4, 7)
    prof = stretch_profile(codec, deltas, 100_000, rng=_rng())
    assert prof.gamma == pytest.approx(2.0, abs=1e-3)
    # per-dimension gains 1, 3, 9 give a stretch factor of 91
    assert prof.mean_square[0] == pytest.approx(91.0 * 1e-4, rel=1e-6)


def test_stretch_fractal_is_sublinear_in_state():
    codec = build_codec(CodecSpec(scheme="scheme1", n=2, alpha=4.0))
    deltas = np.geomspace(1e-2, 1e-4, 7)
    prof = stretch_profile(codec, deltas, 100_000, rng=_rng())
    assert 0.2 < prof.gamma < 1.95


def test_stretch_validation():
    codec = build_codec(CodecSpec(scheme="repetition", n=2))
    good = np.geomspace(1e-2, 1e-3, 4)
    with pytest.raises(ValueError):
        stretch_profile(codec, good[::-1], 100_000, rng=_rng())
    with pytest.raises(ValueError):
        stretch_profile(codec, good * 10.0, 100_000, rng=_rng())
    with pytest.raises(ValueError):
        stretch_profile(codec, good, 10_000, rng=_rng())
    wrapped = build_codec(CodecSpec(scheme="unbounded_wrap", n=2))
    with pytest.raises(ValueError):
        stretch_profile(wrapped, good, 100_000, rng=_rng())


@pytest.mark.parametrize("deltas", [[1e-2, math.nan], [math.nan, 1e-3]])
def test_stretch_refuses_nan_perturbations(deltas):
    codec = build_codec(CodecSpec(scheme="shift_map", n=2, a=3))
    with pytest.raises(ValueError, match="perturbations must lie in"):
        stretch_profile(codec, deltas, 100_000, rng=_rng())
