"""Whole-system acceptance checks.

Each test here exercises the assembled pipeline end to end: build a
codec from its registry entry, push Monte Carlo batches through the
channel harness, and hold the measured curve against an independently
computed target (an analytic slope, a quadrature value, a reference
bound, or a brute-force decoder). One verdict line per check:

    pytest tests/test_acceptance.py -v

Budgets are sized for a single core. Two checks are marked strict
expected failures: the weighted digital constellations assign the
same channel point to far-apart bit patterns once the bit depth
reaches five (and one-quantum neighbours already at depth four), so
their in-band distortion floors no matter the decoder. The tests
state the intended bound honestly and are expected to fail until the
constellation design itself changes.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from jscc import channel, cli, harness
from jscc.analysis import (
    BoundSpec,
    bound_eval,
    boxcount_dimension,
    constellation_sampler,
    scheme1_beta,
    slope_fit,
)
from jscc.codecs import CodecSpec, build_codec
from jscc.harness import SweepPlan, estimate_point

SEED = 24269
SOURCE_VAR = 1.0 / 12.0

GRID_40_80 = tuple(float(v) for v in range(40, 81, 5))
GRID_50_80 = tuple(float(v) for v in range(50, 81, 5))
GRID_40_100 = tuple(float(v) for v in range(40, 101, 5))


def _sweep(spec, grid):
    plan = SweepPlan(codec=spec, snr_grid_db=grid, min_trials=100_000,
                     max_trials=2_000_000, rel_se_target=0.1,
                     master_seed=SEED)
    return harness.sweep_curves([plan], 1)[0]


def _point(spec, snr_db, point_index, max_trials=2_000_000):
    plan = SweepPlan(codec=spec, snr_grid_db=(snr_db,), min_trials=100_000,
                     max_trials=max_trials, rel_se_target=0.1,
                     master_seed=SEED)
    noise = channel.NoisePoint(sigma=channel.sigma_from_snr_db(snr_db),
                               snr_db=snr_db, master_seed=SEED,
                               point_index=point_index)
    return estimate_point([(build_codec(spec), noise, plan)])[0]


def _slope(curve, window):
    snr = [p.snr_db for p in curve.points]
    sdr = [p.sdr_db for p in curve.points]
    return slope_fit(snr, sdr, window).slope


def _reference_sdr_db(sigma, n):
    dist = bound_eval(BoundSpec(kind="opta_slb", n=n), sigma)
    return 10.0 * math.log10(SOURCE_VAR / dist)


def test_criterion_01_fractal_slope_tracks_design_exponent():
    """Digit-interleaving codec, n=4: fitted slope lands in the band
    set by its base (2.0 for base 4, about 2.52 for base 3)."""
    t0 = time.monotonic()
    slopes = {}
    for alpha in (4.0, 3.0):
        curve = _sweep(CodecSpec(scheme="scheme1", n=4, alpha=alpha),
                       GRID_40_80)
        slopes[alpha] = _slope(curve, (40.0, 80.0))
    elapsed = time.monotonic() - t0
    print(f"criterion 1: slope[base 4]={slopes[4.0]:.3f} "
          f"slope[base 3]={slopes[3.0]:.3f} elapsed={elapsed:.0f}s")
    assert 1.8 <= slopes[4.0] <= 2.2, slopes
    assert 2.2 <= slopes[3.0] <= 2.85, slopes
    assert elapsed <= 900.0


def test_criterion_02_fixed_stretch_shiftmap_saturates_at_unit_slope():
    """Folded-line codec with the stretch pinned at 3, n=4: once the
    fold count stops adapting, SDR can only grow 1 dB per SNR dB."""
    curve = _sweep(CodecSpec(scheme="shift_map", n=4, a=3), GRID_50_80)
    got = _slope(curve, (50.0, 80.0))
    print(f"criterion 2: slope={got:.3f}")
    assert 0.85 <= got <= 1.15, got


def test_criterion_03_layered_codec_approaches_full_slope():
    """Growing-digit-group codec, n=4: fitted slope stays close to the
    channel dimension count, local wobble allowed."""
    curve = _sweep(CodecSpec(scheme="scheme2", n=4), GRID_40_100)
    got = _slope(curve, (40.0, 100.0))
    print(f"criterion 3: slope={got:.3f}")
    assert got >= 3.3, got


def test_criterion_04_adaptive_shiftmap_follows_bound_shape():
    """Folded-line codec with the per-noise-level stretch rule, n=2:
    measured distortion divided by sigma^4 * (-log sigma) moves by at
    most 10 dB over two decades of sigma."""
    curve = _sweep(CodecSpec(scheme="shift_map", n=2), GRID_40_80)
    ratios = []
    for p in curve.points:
        shape = p.sigma ** 4 * (-math.log(p.sigma))
        ratios.append(p.distortion / shape)
    spread_db = 10.0 * math.log10(max(ratios) / min(ratios))
    print(f"criterion 4: shape-ratio spread={spread_db:.2f} dB")
    assert spread_db <= 10.0, spread_db


def _design_band_gaps(scheme):
    gaps = {}
    for k in range(2, 9):
        sigma = 0.75 * 2.0 ** (-k)
        snr = channel.snr_db_from_sigma(sigma)
        p = _point(CodecSpec(scheme=scheme, n=2, k=k), snr, point_index=k)
        gaps[k] = _reference_sdr_db(p.sigma, 2) - p.sdr_db
    return gaps


@pytest.mark.xfail(
    strict=True,
    reason="the weighted digital constellation reuses channel points for "
           "far-apart bit patterns from depth 5 on, and packs depth-4 "
           "neighbours one quantum apart, flooring in-band distortion")
def test_criterion_05_protected_digital_family_keeps_constant_gap():
    """Weighted-bit digital + analog-tail family, n=2, depths 2..8,
    each run at the middle of its own noise band: the dB gap to the
    reference curve should stay within a 6 dB window across depths.

    It does not: beyond depth 4 the encoder is many-to-one, so the
    decoder cannot tell collided sources apart at any noise level."""
    gaps = _design_band_gaps("type1")
    spread = max(gaps.values()) - min(gaps.values())
    print(f"criterion 5: gaps={ {k: round(g, 2) for k, g in gaps.items()} } "
          f"spread={spread:.2f} dB")
    assert spread <= 6.0, gaps


@pytest.mark.xfail(
    strict=True,
    reason="same constellation collisions as the analog-tail family; "
           "the fractal-tail variant floors in-band as well")
def test_criterion_06_residual_family_keeps_constant_gap_in_band():
    """Weighted-bit digital + fractal-tail family, n=2, depths 2..8,
    same bounded-gap check as the analog-tail family. Fails for the
    same structural reason: colliding digital constellation points."""
    gaps = _design_band_gaps("type2")
    spread = max(gaps.values()) - min(gaps.values())
    print(f"criterion 6 (in-band): gaps="
          f"{ {k: round(g, 2) for k, g in gaps.items()} } "
          f"spread={spread:.2f} dB")
    assert spread <= 6.0, gaps


def test_criterion_06_residual_family_below_band_slope():
    """Same family, depth fixed at 4, noise two decades below its
    band: the fractal tail takes over and the fitted slope climbs to
    at least 0.8 times the dimension count."""
    spec = CodecSpec(scheme="type2", n=2, k=4)
    snrs = (64.2, 65.7, 67.2, 68.7, 70.1)
    pts = [_point(spec, s, point_index=20 + i) for i, s in enumerate(snrs)]
    fit = slope_fit([p.snr_db for p in pts], [p.sdr_db for p in pts],
                    (64.0, 70.2))
    print(f"criterion 6 (below band): slope={fit.slope:.3f}")
    assert fit.slope >= 1.6, fit.slope


def test_criterion_07_greedy_decoders_match_exhaustive_search():
    """Every staged decoder against brute-force nearest point on its
    own constellation, truncated depth <= 12, >= 10^4 noisy draws per
    parameter set, zero mismatches, all inside five minutes."""
    import test_codecs_fractal as fractal_oracle
    import test_codecs_hybrid as hybrid_oracle
    import test_codecs_layered as layered_oracle

    t0 = time.monotonic()
    for alpha in (3.0, 4.0):
        for n in (2, 4):
            fractal_oracle.test_greedy_equals_exhaustive_nearest(alpha, n)
    for n, p in ((2, 15), (4, 26)):
        layered_oracle.test_greedy_equals_exhaustive_nearest(n, p)
    for k in (2, 3):
        hybrid_oracle.test_type1_decode_matches_exhaustive(k)
    hybrid_oracle.test_type2_two_stage_equals_joint_exhaustive()
    elapsed = time.monotonic() - t0
    print(f"criterion 7: all decoder/oracle pairs agree, "
          f"elapsed={elapsed:.0f}s")
    assert elapsed <= 300.0


def _segment_sampler(count, rng):
    u = rng.random(count)
    return np.column_stack([u, 0.61 * u])


def _square_sampler(count, rng):
    return rng.random((count, 2))


def test_criterion_08_boxcount_recovers_known_dimensions():
    """Box-counting on two sanity shapes and on the fractal codec's
    constellation at bases 4 and 8."""
    seg = boxcount_dimension(_segment_sampler, 2.0 ** -np.arange(3, 11),
                             150_000, rng=np.random.default_rng(0x5EED))
    sq = boxcount_dimension(_square_sampler, 2.0 ** -np.arange(2, 7),
                            300_000, rng=np.random.default_rng(0x5EED))
    assert seg.saturated and sq.saturated
    assert abs(seg.fitted_dimension - 1.0) <= 0.05, seg.fitted_dimension
    assert abs(sq.fitted_dimension - 2.0) <= 0.05, sq.fitted_dimension
    fitted = {}
    for alpha in (4.0, 8.0):
        codec = build_codec(CodecSpec(scheme="scheme1", n=2, alpha=alpha))
        est = boxcount_dimension(constellation_sampler(codec),
                                 2.0 ** -np.arange(4, 13), 250_000,
                                 rng=np.random.default_rng(0x5EED))
        want = scheme1_beta(2, alpha)
        fitted[alpha] = est.fitted_dimension
        assert est.saturated
        assert abs(est.fitted_dimension - want) <= 0.10 * want, (alpha, est)
    print(f"criterion 8: segment={seg.fitted_dimension:.3f} "
          f"square={sq.fitted_dimension:.3f} "
          f"base4={fitted[4.0]:.3f} base8={fitted[8.0]:.3f}")


def test_criterion_09_unbounded_wrapper_power_stays_bounded():
    """Integer-plus-fraction wrapper fed a unit-variance gaussian
    source: every channel dimension keeps its mean square at or
    below 4 over a million draws."""
    worst = {}
    for n in (2, 3):
        codec = build_codec(CodecSpec("unbounded_wrap", n=n, p=48))
        x = np.random.default_rng(SEED).normal(0.0, 1.0, 1_000_000)
        mean_sq = (codec.encode(x) ** 2).mean(axis=0)
        worst[n] = float(mean_sq.max())
        assert np.all(mean_sq <= 4.0), mean_sq
    print(f"criterion 9: max per-dimension mean square "
          f"n=2: {worst[2]:.3f}, n=3: {worst[3]:.3f}")


def _clamped_repetition_distortion(sigma_eff):
    """Quadrature value of E(clamp(x+g) - x)^2, g gaussian, x uniform."""
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma_eff)

    def for_source(x):
        def integrand(g):
            y = min(max(x + g, -0.5), 0.5)
            return (y - x) ** 2 * norm * math.exp(
                -g * g / (2.0 * sigma_eff ** 2))

        v, _ = quad(integrand, -8.0 * sigma_eff, 8.0 * sigma_eff, limit=200)
        return v

    v, _ = quad(for_source, -0.5, 0.5, limit=200)
    return v


def test_criterion_10_repetition_tracks_closed_form_everywhere():
    """Repeat-and-average codec, n=4, ten grid points: the measured
    distortion sits within three standard errors of the clamped-mean
    quadrature value at every point."""
    spec = CodecSpec(scheme="repetition", n=4)
    codec = harness.cached_codec(spec)
    norm = codec.normalization
    grid = tuple(float(v) for v in range(5, 51, 5))
    plan = SweepPlan(codec=spec, snr_grid_db=grid, min_trials=100_000,
                     max_trials=2_000_000, rel_se_target=0.1,
                     master_seed=SEED)
    worst = 0.0
    for i, snr in enumerate(grid):
        noise = channel.NoisePoint(sigma=channel.sigma_from_snr_db(snr),
                                   snr_db=snr, master_seed=SEED,
                                   point_index=i)
        pt = estimate_point([(codec, noise, plan)])[0]
        sigma_raw = pt.sigma * math.sqrt(norm.power)
        want = _clamped_repetition_distortion(sigma_raw / 2.0)
        dev = abs(pt.distortion - want) / pt.std_err
        worst = max(worst, dev)
        assert dev <= 3.0, (snr, pt.distortion, want, pt.std_err)
    print(f"criterion 10: worst deviation {worst:.2f} standard errors")


def test_criterion_11_worker_count_never_changes_the_numbers(tmp_path):
    """Two full preset runs, same seed, one worker versus eight: the
    emitted CSV files match byte for byte."""
    out_one = tmp_path / "w1"
    out_many = tmp_path / "w8"
    base = ["simulate", "--preset", "fig3", "--seed", str(SEED)]
    assert cli.main(base + ["--out", str(out_one), "--workers", "1"]) == 0
    assert cli.main(base + ["--out", str(out_many), "--workers", "8"]) == 0
    names_one = sorted(p.name for p in out_one.glob("*.csv"))
    names_many = sorted(p.name for p in out_many.glob("*.csv"))
    assert names_one == names_many
    assert len(names_one) == 4
    for name in names_one:
        assert (out_one / name).read_bytes() == \
            (out_many / name).read_bytes(), name
    print(f"criterion 11: {len(names_one)} CSV files byte-identical")


def test_criterion_12_circle_code_beats_line_code_by_fixed_margin():
    """Folded circle versus folded line, same stretch 3 and n=2, at
    60+ dB SNR. The circle spends two channel uses per line use, so
    equal per-use energy means its per-dimension noise carries a
    10*log10(2) handicap; with that accounting its SDR advantage
    should measure 5.17 +/- 1.5 dB."""
    extra_use_penalty_db = 10.0 * math.log10(2.0)
    snr_line = 100.0
    line = _point(CodecSpec(scheme="shift_map", n=2, a=3), snr_line,
                  point_index=0, max_trials=400_000)
    sphere = _point(CodecSpec(scheme="spherical", n=2, a=3),
                    snr_line - extra_use_penalty_db,
                    point_index=1, max_trials=400_000)
    gap = sphere.sdr_db - line.sdr_db
    print(f"criterion 12: line SDR={line.sdr_db:.2f} "
          f"circle SDR={sphere.sdr_db:.2f} gap={gap:.3f} dB")
    assert snr_line >= 60.0
    assert abs(gap - 5.17) <= 1.5, gap
