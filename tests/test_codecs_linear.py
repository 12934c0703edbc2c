"""Tests for the repetition, shift-map, and spherical codecs."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jscc import channel
from jscc.codecs import CodecSpec, build_codec, CapacityError
from jscc.codecs.linear import _row_sums, optimal_a


def make(scheme, **kw):
    return build_codec(CodecSpec(scheme, **kw))


# ---------------------------------------------------------------- repetition

def test_repetition_copies_the_sample():
    c = make("repetition", n=3)
    np.testing.assert_array_equal(c.encode(np.array([0.2])), [[0.2, 0.2, 0.2]])


def test_repetition_noiseless_round_trip_exact():
    c = make("repetition", n=4)
    x = np.random.default_rng(7).uniform(-0.5, 0.5, 1000)
    np.testing.assert_array_equal(c.decode(c.encode(x)), x)


def test_repetition_decode_clamps():
    c = make("repetition", n=2)
    out = c.decode(np.array([[0.9, 0.8], [-0.9, -0.9]]))
    assert out[0] == 0.5 and out[1] == -0.5


def clamped_average_distortion(sigma_eff):
    """Mean squared error of clamp(mean(y)) by direct 2d quadrature."""
    from scipy.integrate import quad

    def inner(x):
        def f(z):
            err = min(max(x + z, -0.5), 0.5) - x
            return err * err * math.exp(-0.5 * (z / sigma_eff) ** 2)
        val, _ = quad(f, -8 * sigma_eff, 8 * sigma_eff, limit=200)
        return val / (sigma_eff * math.sqrt(2 * math.pi))

    val, _ = quad(inner, -0.5, 0.5, limit=200)
    return val


def test_repetition_measured_distortion_matches_quadrature():
    # sigma = 0.1 per raw coordinate, n = 4: the average sees sigma / 2.
    # The clamp pulls the error below the unclamped sigma^2/n value by a
    # visible margin, so the reference is the quadrature of the actual
    # estimator, not the unclamped closed form.
    sigma, n = 0.1, 4
    c = make("repetition", n=n)
    rng = np.random.default_rng(123)
    x = rng.uniform(-0.5, 0.5, 2 * 10 ** 6)
    y = c.encode(x) + sigma * rng.standard_normal((x.size, n))
    err = c.decode(y) - x
    sq = err * err
    d_hat = sq.mean()
    se = sq.std() / math.sqrt(sq.size)
    d_ref = clamped_average_distortion(sigma / math.sqrt(n))
    assert abs(d_hat - d_ref) < 4 * se
    # The unclamped average still follows the plain noise-variance rule.
    d_unclamped = ((y.mean(axis=1) - x) ** 2).mean()
    assert d_unclamped == pytest.approx(sigma * sigma / n, rel=0.03)


# ----------------------------------------------------------------- shift map

def test_shiftmap_worked_examples():
    c = make("shift_map", n=3, a=2)
    np.testing.assert_allclose(c.encode(np.array([0.0]))[0], [0.5, 0, 0], atol=0)
    np.testing.assert_allclose(c.encode(np.array([0.3]))[0], [0.8, 0.6, 0.2],
                               atol=1e-15)
    np.testing.assert_allclose(c.encode(np.array([-0.25]))[0], [0.25, 0.5, 0.0],
                               atol=1e-15)


def test_shiftmap_segment_count_and_cap():
    assert make("shift_map", n=4, a=3).segments == 27
    with pytest.raises(CapacityError):
        make("shift_map", n=3, a=2048)


@settings(deadline=None, max_examples=60)
@given(x=st.floats(-0.5, 0.5, exclude_max=True),
       a=st.integers(2, 6), n=st.integers(2, 4))
def test_shiftmap_noiseless_round_trip(x, a, n):
    c = make("shift_map", n=n, a=a)
    out = c.decode(c.encode(np.array([x])))
    assert abs(out[0] - x) < 1e-12


def test_shiftmap_decode_matches_dense_grid():
    # Brute-force reference: nearest point over a 10^6-point discretization
    # of the whole map, found exactly by a k-d tree over the table.
    from scipy.spatial import cKDTree

    a, n, sigma = 2, 3, 0.01
    c = make("shift_map", n=n, a=a)
    m = 10 ** 6
    grid_unit = np.arange(m) / m
    table = c.encode(grid_unit - 0.5)

    rng = np.random.default_rng(42)
    trials = 10 ** 4
    x = rng.uniform(-0.5, 0.5, trials)
    y = c.encode(x) + sigma * rng.standard_normal((trials, n))
    decoded_unit = np.mod(c.decode(y) + 0.5, 1.0)

    _, best_idx = cKDTree(table).query(y)
    pick = grid_unit[best_idx]
    diff = np.abs(decoded_unit - pick)
    worst = np.max(np.minimum(diff, 1.0 - diff))
    assert worst <= 2.0 / m


def _segment_distance(c, y, t):
    """Squared distance from each row of y to segment t of a shift map, and
    the source value of the nearest point, by the expanded formula."""
    off = (c.gains.astype(np.int64) * t) // c.segments
    num = y @ c.gains + float(off @ c.gains)
    proj = np.clip(num / c.gain_sq, t * (1.0 / c.segments), (t + 1) * (1.0 / c.segments))
    # y.off and |y|^2 as left folds over the dimensions, the order the
    # decoder uses; a BLAS dot product may round differently.
    y_c = y[:, 1] * off[1]
    for i in range(2, c.spec.n):
        y_c = y_c + y[:, i] * off[i]
    y_sq = y[:, 0] * y[:, 0]
    for i in range(1, c.spec.n):
        y_sq = y_sq + y[:, i] * y[:, i]
    r_sq = y_sq + 2.0 * y_c + float(off @ off)
    return r_sq - 2.0 * proj * num + proj * proj * c.gain_sq, proj - 0.5


def _dense_shiftmap_decode(c, y):
    """Exact ML over every segment in turn; a tie goes to the smaller source."""
    best_d = np.full(y.shape[0], np.inf)
    best_x = np.zeros(y.shape[0])
    for t in range(c.segments):
        d, src = _segment_distance(c, y, t)
        take = (d < best_d) | ((d == best_d) & (src < best_x))
        best_d = np.where(take, d, best_d)
        best_x = np.where(take, src, best_x)
    return best_x


@settings(deadline=None, max_examples=40)
@given(n=st.sampled_from([2, 3, 4]), snr_db=st.sampled_from(range(0, 81, 2)),
       fixed_a=st.sampled_from([None, 2, 3]), seed=st.integers(0, 2 ** 32 - 1))
def test_shiftmap_decode_matches_dense_scan_bit_for_bit(n, snr_db, fixed_a, seed):
    sigma = channel.sigma_from_snr_db(snr_db)
    a = fixed_a if fixed_a is not None else optimal_a(sigma, n)
    assume(a ** (n - 1) <= 2 ** 14)  # keeps the dense scan quick
    c = make("shift_map", n=n, a=a)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.5, 0.5, 48)
    x[:4] = [-0.5, np.nextafter(0.5, 0.0), 0.0, -0.25]
    # Noise at the channel level, scaled to the constellation's 1/12 power.
    y = c.encode(x) + sigma / math.sqrt(12.0) * rng.standard_normal((x.size, n))
    y[-8:, 0] = rng.choice([-1.5, -0.5, -1e-9, 1.0, 1.5, 2.5], 8)  # y_1 off [0, 1)
    out = c.decode(y)
    np.testing.assert_array_equal(out.view(np.int64),
                                  _dense_shiftmap_decode(c, y).view(np.int64))


@pytest.mark.parametrize("n, snr_db, a", [(4, 0, 3), (4, 15, 3), (4, 30, 3), (3, 65, None)],
                         ids=["fig3 0 dB", "fig3 15 dB", "fig3 30 dB", "resolved n=3 65 dB"])
def test_shiftmap_decode_matches_dense_scan_on_full_batches(monkeypatch, n, snr_db, a):
    # At 4096 rows a search step covers a few offsets of each window, so
    # wide windows take several steps and rows leave the live set mid-window.
    sigma = channel.sigma_from_snr_db(snr_db)
    c = make("shift_map", n=n, a=a or optimal_a(sigma, n))
    rng = np.random.default_rng(snr_db)
    x = rng.uniform(-0.5, 0.5, 4096)
    y = c.encode(x) + sigma / math.sqrt(12.0) * rng.standard_normal((x.size, n))
    y[:6, 0] = [-1.5, -0.5, -1e-9, 1.0, 1.5, 2.5]  # y_1 off [0, 1)
    y[6] = np.nan
    steps, distances = [], c._distances

    def scored(t, *rest):
        steps.append(t.shape)
        return distances(t, *rest)

    monkeypatch.setattr(c, "_distances", scored)
    out = c.decode(y)
    np.testing.assert_array_equal(out.view(np.int64),
                                  _dense_shiftmap_decode(c, y).view(np.int64))
    if snr_db == 0:
        # The start segment, then steps of a few offsets each.
        assert len(steps) > 3 and steps[1][0] < 27


def test_shiftmap_exact_tie_goes_to_smaller_source():
    # Points on the plane halfway between segments 3 and 4 of the a=8 map are
    # equidistant from both; keep those whose two computed distances agree
    # to the bit, which the search must break exactly as the dense scan does.
    c = make("shift_map", n=2, a=8)
    u = np.linspace(0.44, 0.56, 2001)
    y = np.stack([u, 8.0 * u - 3.5], axis=1)
    (d3, x3), (d4, _) = (_segment_distance(c, y, t) for t in (3, 4))
    tie = d3 == d4
    assert tie.sum() >= 10
    y = np.vstack([y[tie], [[np.nan, 0.5], [0.5, np.nan]]])
    out = c.decode(y)
    np.testing.assert_array_equal(out[:-2], x3[tie])
    np.testing.assert_array_equal(out, _dense_shiftmap_decode(c, y))


# ------------------------------------------------------------ optimal stretch

def test_optimal_a_worked_example():
    assert optimal_a(1e-3, 2) == 33


def test_optimal_a_is_two_at_large_noise():
    assert optimal_a(0.6, 2) == 2


def test_optimal_a_never_below_two():
    sigma = 1.0 / (16.0 * math.sqrt(2)) / math.sqrt(-math.log(0.02))
    assert optimal_a(sigma, 2) >= 2


def test_optimal_a_nonincreasing_in_sigma():
    sigmas = np.logspace(-6, -2, 60)
    values = [optimal_a(s, 2) for s in sigmas]
    assert all(v1 >= v2 for v1, v2 in zip(values, values[1:]))


def test_optimal_a_rejects_bad_args():
    with pytest.raises(ValueError):
        optimal_a(0.0, 2)
    with pytest.raises(ValueError):
        optimal_a(0.1, 1)


# ------------------------------------------------------------------ spherical

def test_spherical_unit_norm_and_shape():
    c = make("spherical", n=3, a=2)
    x = np.random.default_rng(5).uniform(-0.5, 0.5, 500)
    s = c.encode(x)
    assert s.shape == (500, 6)
    np.testing.assert_allclose((s * s).sum(axis=1), 1.0, atol=1e-12)


def test_spherical_worked_examples():
    c = make("spherical", n=2, a=2)
    root_half = 1.0 / math.sqrt(2)
    np.testing.assert_allclose(c.encode(np.array([-0.5]))[0],
                               [root_half, root_half, 0, 0], atol=1e-12)
    np.testing.assert_allclose(c.encode(np.array([0.0]))[0],
                               [-root_half, root_half, 0, 0], atol=1e-12)


@pytest.mark.parametrize("a,n", [(2, 2), (3, 3)])
def test_spherical_noiseless_round_trip(a, n):
    c = make("spherical", n=n, a=a)
    x = np.random.default_rng(9).uniform(-0.5, 0.5, 10 ** 4)
    assert np.max(np.abs(c.decode(c.encode(x)) - x)) < 1e-9


@pytest.mark.parametrize("a,n", [(2, 2), (4, 2)])
def test_spherical_decode_matches_denser_grid(a, n):
    c = make("spherical", n=n, a=a)
    rng = np.random.default_rng(77)
    trials = 10 ** 3
    x = rng.uniform(-0.5, 0.5, trials)
    y = c.encode(x) + 0.05 * rng.standard_normal((trials, 2 * n))

    dense = 10 * len(c.grid_x)
    dense_unit = np.arange(dense) / dense
    dense_table = c._points(dense_unit)
    pick = dense_unit[np.argmax(y @ dense_table.T, axis=1)]

    decoded_unit = np.mod(c.decode(y) + 0.5, 1.0)
    diff = np.abs(decoded_unit - pick)
    assert np.max(np.minimum(diff, 1.0 - diff)) <= 2.0 / dense
    # The refined answer is never worse than the dense grid's best point.
    d_dec = ((y - c._points(decoded_unit)) ** 2).sum(axis=1)
    d_grid = ((y - c._points(pick)) ** 2).sum(axis=1)
    assert np.all(d_dec <= d_grid + 1e-12)


def _correlation(c, unit_x, y):
    phases = np.multiply.outer(unit_x, c.freqs)
    n = c.spec.n
    return c.scale * ((np.cos(phases) * y[:, :n]).sum(axis=1)
                      + (np.sin(phases) * y[:, n:]).sum(axis=1))


def _corr_derivs(c, unit_x, y):
    """First and second derivatives of the correlation in unit_x, formed as
    the decoder's Newton step forms them."""
    phases = np.multiply.outer(unit_x, c.freqs)
    n = c.spec.n
    yc, ys = y[:, :n], y[:, n:]
    cos, sin = np.cos(phases), np.sin(phases)
    d1 = ((ys * cos - yc * sin) * c.freqs).sum(axis=1)
    d2 = -((yc * cos + ys * sin) * c.freqs ** 2).sum(axis=1)
    return d1, d2


def _golden_section_decode(c, y, iters=48):
    """Grid winner refined by golden section on its cell, then polished by
    three clipped Newton steps."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    win = np.argmax(y @ c.grid_table, axis=1)
    step = 1.0 / len(c.grid_x)
    lo, hi = c.grid_x[win] - step, c.grid_x[win] + step
    cell_lo, cell_hi = lo.copy(), hi.copy()
    p, q = hi - (hi - lo) * inv_phi, lo + (hi - lo) * inv_phi
    fp, fq = _correlation(c, p, y), _correlation(c, q, y)
    for _ in range(iters):
        p_wins = fp > fq
        hi = np.where(p_wins, q, hi)
        lo = np.where(p_wins, lo, p)
        p, q = hi - (hi - lo) * inv_phi, lo + (hi - lo) * inv_phi
        fp, fq = _correlation(c, p, y), _correlation(c, q, y)
    mid = 0.5 * (lo + hi)
    for _ in range(3):
        d1, d2 = _corr_derivs(c, mid, y)
        mid = np.clip(mid - np.where(d2 < 0.0, d1 / d2, 0.0), cell_lo, cell_hi)
    return np.mod(mid, 1.0) - 0.5


@pytest.mark.parametrize("a,n", [(2, 2), (3, 3), (4, 2)])
@pytest.mark.parametrize("snr_db", [-10, 0, 10, 40])
def test_spherical_newton_refine_matches_golden_section(a, n, snr_db):
    c = make("spherical", n=n, a=a)
    rng = np.random.default_rng(1000 * a + n + snr_db)
    x = rng.uniform(-0.5, 0.5, 2000)
    # The code has unit power, 1/(2n) per dimension.
    sigma = channel.sigma_from_snr_db(snr_db) / math.sqrt(2 * n)
    y = c.encode(x) + sigma * rng.standard_normal((x.size, 2 * n))
    out = c.decode(y)
    ref = _golden_section_decode(c, y)
    diff = np.abs(out - ref)
    assert np.max(np.minimum(diff, 1.0 - diff)) <= 1e-15
    assert np.all(_correlation(c, out + 0.5, y) >= _correlation(c, ref + 0.5, y) - 1e-14)


@pytest.mark.parametrize("width", range(1, 10))
def test_row_sums_are_numpy_row_sums_bit_for_bit(width):
    rng = np.random.default_rng(width)
    t = rng.standard_normal((500, width)) * 10.0 ** rng.integers(-20, 21, (500, width))
    t[::7] = -0.0
    t[1, 0], t[2, -1], t[3, 0], t[4, -1] = np.nan, np.inf, -np.inf, 1e308
    t[4, 0] = 1e308
    out = np.empty(500)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _row_sums(t, out).tobytes() == t.sum(axis=1).tobytes()


def _reference_points(c, unit_x):
    """The spherical encoder as first written: cos and sin concatenated,
    then scaled."""
    phases = np.multiply.outer(np.asarray(unit_x, dtype=np.float64), c.freqs)
    return c.scale * np.concatenate([np.cos(phases), np.sin(phases)], axis=-1)


def _reference_decode(c, y):
    """The spherical decoder as first written: a (grid, 2n) table scored
    2**19 correlations at a time, then five clipped Newton steps, each on
    fresh arrays."""
    table = _reference_points(c, c.grid_x)
    rows = max(1, (1 << 19) // len(c.grid_x))
    win = np.empty(y.shape[0], dtype=np.intp)
    for i in range(0, y.shape[0], rows):
        win[i:i + rows] = np.argmax(y[i:i + rows] @ table.T, axis=1)
    step = 1.0 / len(c.grid_x)
    mid = c.grid_x[win]
    cell_lo, cell_hi = mid - step, mid + step
    for _ in range(5):
        d1, d2 = _corr_derivs(c, mid, y)
        mid = np.clip(mid - np.where(d2 < 0.0, d1 / d2, 0.0), cell_lo, cell_hi)
    return np.mod(mid, 1.0) - 0.5


@pytest.mark.parametrize("a,n", [(2, 2), (3, 3), (4, 2), (5, 2)])
def test_spherical_matches_the_reference_code_bit_for_bit(a, n):
    # Blocks of 64 rows score the grid, so batches of 63, 64 and 65 rows end
    # short of a block, on one and one row past it.
    sizes = (1, 63, 64, 65, 1000, 4096)
    c = make("spherical", n=n, a=a)
    rng = np.random.default_rng(100 * a + n)
    x = rng.uniform(-0.5, 0.5, 4096)
    x[[3, 64, 900]] = np.nan, np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        code = c.encode(x)
        assert code.tobytes() == _reference_points(c, x + 0.5).tobytes()
        for m in sizes:
            assert c.encode(x[:m]).tobytes() == code[:m].tobytes()
    noise = rng.standard_normal(code.shape)
    for snr_db in range(-10, 61, 10):
        sigma = channel.sigma_from_snr_db(snr_db) / math.sqrt(2 * n)
        y = code + sigma * noise
        # Rows with no finite answer, one of them alone in its block, and a
        # row where every score ties and no step has negative curvature.
        y[[62, 64, 500]] = [[np.nan], [np.inf], [-np.inf]]
        y[700, :n] = np.inf
        y[700, n:] = -np.inf
        y[2000] = 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            for m in sizes:
                assert c.decode(y[:m]).tobytes() == _reference_decode(c, y[:m]).tobytes(), (snr_db, m)
            for row in (62, 64, 700, 2000):
                lone = y[row:row + 1]
                assert c.decode(lone).tobytes() == _reference_decode(c, lone).tobytes(), (snr_db, row)


@pytest.mark.parametrize("a,n", [(2, 2), (3, 3), (4, 2)])
def test_spherical_decode_does_not_depend_on_the_batch(a, n):
    # Halfway between two neighbouring grid points the two scores tie in
    # exact arithmetic, so the winner rests on the last bit of each score.
    # A row decoded alone must still see the scores it sees in a batch.
    c = make("spherical", n=n, a=a)
    k = np.random.default_rng(5).integers(0, len(c.grid_x) - 1, 512)
    grid_points = c._points(c.grid_x)
    y = 0.5 * (grid_points[k] + grid_points[k + 1])
    whole = c.decode(y)
    for i in range(len(y)):
        assert c.decode(y[i:i + 1]).tobytes() == whole[i:i + 1].tobytes(), i


def test_spherical_decode_range():
    c = make("spherical", n=2, a=3)
    y = np.random.default_rng(13).standard_normal((2000, 4))
    out = c.decode(y)
    assert np.all(out >= -0.5) and np.all(out < 0.5)
