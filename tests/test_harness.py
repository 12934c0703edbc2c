import math

import numpy as np
import pytest
from scipy.integrate import quad

from jscc import channel, harness
from jscc.codecs import CapacityError, CodecSpec, digital_depth_for_sigma
from jscc.harness import SweepPlan, estimate_point, sweep


def _noise_at(snr_db, master_seed=0x5EED, point_index=0):
    return channel.NoisePoint(sigma=channel.sigma_from_snr_db(snr_db),
                              snr_db=snr_db, master_seed=master_seed,
                              point_index=point_index)


def clamped_repetition_distortion(sigma_eff):
    """Quadrature value of E(clamp(x+g) - x)^2, g gaussian, x uniform."""
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * sigma_eff)

    def for_source(x):
        def integrand(g):
            y = min(max(x + g, -0.5), 0.5)
            return (y - x) ** 2 * norm * math.exp(-g * g / (2.0 * sigma_eff ** 2))

        v, _ = quad(integrand, -8.0 * sigma_eff, 8.0 * sigma_eff, limit=200)
        return v

    v, _ = quad(for_source, -0.5, 0.5, limit=200)
    return v


def test_repetition_point_matches_quadrature():
    spec = CodecSpec(scheme="repetition", n=4)
    codec = harness.cached_codec(spec)
    norm = harness.get_normalization(codec)
    plan = SweepPlan(codec=spec, snr_grid_db=(20.0,))
    point = estimate_point(codec, _noise_at(20.0), plan, normalization=norm)
    sigma_raw = point.sigma * math.sqrt(norm.power)
    want = clamped_repetition_distortion(sigma_raw / 2.0)
    assert abs(point.distortion - want) <= 3.0 * point.std_err
    assert not point.capped
    assert point.trials >= plan.min_trials


def test_quantization_floor_at_extreme_snr():
    spec = CodecSpec(scheme="scheme2", n=2)
    codec = harness.cached_codec(spec)
    plan = SweepPlan(codec=spec, snr_grid_db=(200.0,))
    point = estimate_point(codec, _noise_at(200.0), plan)
    assert point.distortion <= 2.0 ** (-2 * (48 - 4))
    assert point.distortion > 0.0
    assert point.sdr_db > 250.0
    assert not point.capped


def test_estimate_point_is_repeatable():
    spec = CodecSpec(scheme="repetition", n=2)
    codec = harness.cached_codec(spec)
    plan = SweepPlan(codec=spec, snr_grid_db=(10.0,),
                     min_trials=8_192, max_trials=16_384, rel_se_target=0.5)
    assert estimate_point(codec, _noise_at(10.0), plan) == \
        estimate_point(codec, _noise_at(10.0), plan)


def test_master_seed_changes_draws():
    spec = CodecSpec(scheme="repetition", n=2)
    codec = harness.cached_codec(spec)
    plan = SweepPlan(codec=spec, snr_grid_db=(10.0,),
                     min_trials=8_192, max_trials=16_384, rel_se_target=0.5)
    a = estimate_point(codec, _noise_at(10.0, master_seed=1), plan)
    b = estimate_point(codec, _noise_at(10.0, master_seed=2), plan)
    assert a.distortion != b.distortion


def test_cap_and_stop_behavior():
    spec = CodecSpec(scheme="repetition", n=2)
    codec = harness.cached_codec(spec)
    tight = SweepPlan(codec=spec, snr_grid_db=(10.0,),
                      min_trials=4_096, max_trials=12_288, rel_se_target=1e-6)
    point = estimate_point(codec, _noise_at(10.0), tight)
    assert point.capped
    assert point.trials == 12_288
    assert point.std_err > tight.rel_se_target * point.distortion
    loose = SweepPlan(codec=spec, snr_grid_db=(10.0,),
                      min_trials=4_096, max_trials=12_288, rel_se_target=0.5)
    point = estimate_point(codec, _noise_at(10.0), loose)
    assert not point.capped
    assert point.trials == 4_096


def test_sweep_resolves_family_per_point():
    spec = CodecSpec(scheme="type1", n=2)
    plan = SweepPlan(codec=spec, snr_grid_db=(15.0, 27.0),
                     min_trials=8_192, max_trials=16_384, rel_se_target=0.5)
    curve = sweep(plan)
    assert [s.k for s in curve.resolved] == [2, 4]
    assert curve.resolved[0].k == digital_depth_for_sigma(curve.points[0].sigma)
    assert len(curve.points) == 2
    assert curve.normalizations[0] != curve.normalizations[1]


def test_sweep_propagates_capacity_error():
    spec = CodecSpec(scheme="type2", n=4)
    plan = SweepPlan(codec=spec, snr_grid_db=(90.0,),
                     min_trials=4_096, max_trials=8_192, rel_se_target=0.5)
    with pytest.raises(CapacityError):
        sweep(plan)


def test_sweep_empty_grid():
    plan = SweepPlan(codec=CodecSpec(scheme="repetition", n=2), snr_grid_db=())
    curve = sweep(plan)
    assert curve.points == ()
    assert curve.resolved == ()


def test_sweep_single_point_matches_estimate_point():
    spec = CodecSpec(scheme="shift_map", n=3, a=2)
    plan = SweepPlan(codec=spec, snr_grid_db=(18.0,),
                     min_trials=8_192, max_trials=16_384, rel_se_target=0.5)
    curve = sweep(plan)
    codec = harness.cached_codec(spec)
    direct = estimate_point(codec, _noise_at(18.0), plan)
    assert curve.points == (direct,)


def test_sdr_grows_with_snr():
    spec = CodecSpec(scheme="repetition", n=2)
    plan = SweepPlan(codec=spec, snr_grid_db=(10.0, 20.0, 30.0),
                     min_trials=20_000, max_trials=100_000, rel_se_target=0.05)
    curve = sweep(plan)
    sdrs = [p.sdr_db for p in curve.points]
    assert sdrs[0] < sdrs[1] < sdrs[2]


def test_plan_validation():
    spec = CodecSpec(scheme="repetition", n=2)
    with pytest.raises(ValueError):
        SweepPlan(codec=spec, snr_grid_db=(10.0, 10.0))
    with pytest.raises(ValueError):
        SweepPlan(codec=spec, snr_grid_db=(20.0, 10.0))
    with pytest.raises(ValueError):
        SweepPlan(codec=spec, snr_grid_db=(10.0,), rel_se_target=0.0)
    with pytest.raises(ValueError):
        SweepPlan(codec=spec, snr_grid_db=(10.0,), rel_se_target=1.0)
    with pytest.raises(ValueError):
        SweepPlan(codec=spec, snr_grid_db=(10.0,), min_trials=200, max_trials=100)
    with pytest.raises(ValueError):
        SweepPlan(codec=spec, snr_grid_db=(10.0,), min_trials=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            SweepPlan(codec=spec, snr_grid_db=(10.0, bad))
