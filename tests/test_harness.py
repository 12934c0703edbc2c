import concurrent.futures
import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from jscc import channel, harness, numrep
from jscc.codecs import (SCHEMES, CapacityError, CodecSpec,
                         digital_depth_for_sigma, resolve_for_sigma)
from jscc.harness import SdrPoint, SweepPlan, estimate_point


def _noise_at(snr_db, point_index=0):
    return channel.NoisePoint(sigma=channel.sigma_from_snr_db(snr_db),
                              snr_db=snr_db, point_index=point_index)


def _estimate(codec, noise, plan):
    """estimate_point of a one-member group."""
    return estimate_point([(codec, noise, plan)])[0]


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
    plan = SweepPlan(codec=spec, snr_grid_db=(20.0,))
    point = _estimate(codec, _noise_at(20.0), plan)
    sigma_raw = point.sigma * math.sqrt(codec.normalization.power)
    want = clamped_repetition_distortion(sigma_raw / 2.0)
    assert abs(point.distortion - want) <= 3.0 * point.std_err
    assert not point.capped
    assert point.trials >= plan.min_trials


def test_quantization_floor_at_extreme_snr():
    spec = CodecSpec(scheme="scheme2", n=2)
    codec = harness.cached_codec(spec)
    plan = SweepPlan(codec=spec, snr_grid_db=(200.0,))
    point = _estimate(codec, _noise_at(200.0), plan)
    assert point.distortion <= 2.0 ** (-2 * (48 - 4))
    assert point.distortion > 0.0
    assert point.sdr_db > 250.0
    assert not point.capped


def test_estimate_point_is_repeatable():
    spec = CodecSpec(scheme="repetition", n=2)
    codec = harness.cached_codec(spec)
    plan = SweepPlan(codec=spec, snr_grid_db=(10.0,),
                     min_trials=8_192, max_trials=16_384, rel_se_target=0.5)
    assert _estimate(codec, _noise_at(10.0), plan) == \
        _estimate(codec, _noise_at(10.0), plan)


def test_master_seed_changes_draws():
    spec = CodecSpec(scheme="repetition", n=2)
    codec = harness.cached_codec(spec)
    a, b = (_estimate(codec, _noise_at(10.0),
                      SweepPlan(codec=spec, snr_grid_db=(10.0,),
                                min_trials=8_192, max_trials=16_384,
                                rel_se_target=0.5, master_seed=seed))
            for seed in (1, 2))
    assert a.distortion != b.distortion


def test_cap_and_stop_behavior():
    spec = CodecSpec(scheme="repetition", n=2)
    codec = harness.cached_codec(spec)
    tight = SweepPlan(codec=spec, snr_grid_db=(10.0,),
                      min_trials=4_096, max_trials=12_288, rel_se_target=1e-6)
    point = _estimate(codec, _noise_at(10.0), tight)
    assert point.capped
    assert point.trials == 12_288
    assert point.std_err > tight.rel_se_target * point.distortion
    loose = SweepPlan(codec=spec, snr_grid_db=(10.0,),
                      min_trials=4_096, max_trials=12_288, rel_se_target=0.5)
    point = _estimate(codec, _noise_at(10.0), loose)
    assert not point.capped
    assert point.trials == 4_096


def test_sweep_resolves_family_per_point():
    spec = CodecSpec(scheme="type1", n=2)
    plan = SweepPlan(codec=spec, snr_grid_db=(15.0, 27.0),
                     min_trials=8_192, max_trials=16_384, rel_se_target=0.5)
    points = harness.sweep_curves([plan], 1)[0]
    resolved = [spec for spec, _ in harness.grid_points(plan)]
    assert [s.k for s in resolved] == [2, 4]
    assert resolved[0].k == digital_depth_for_sigma(points[0].sigma)
    assert len(points) == 2
    low, high = (harness.cached_codec(s).normalization for s in resolved)
    assert low != high


def test_sweep_propagates_capacity_error():
    spec = CodecSpec(scheme="type2", n=4)
    plan = SweepPlan(codec=spec, snr_grid_db=(90.0,),
                     min_trials=4_096, max_trials=8_192, rel_se_target=0.5)
    with pytest.raises(CapacityError):
        harness.sweep_curves([plan], 1)[0]


def test_sweep_empty_grid():
    # A plan with no point is refused, as a config's empty grid is.
    with pytest.raises(ValueError, match="^snr grid must be a non-empty list$"):
        SweepPlan(codec=CodecSpec(scheme="repetition", n=2), snr_grid_db=())


def test_sweep_single_point_matches_estimate_point():
    spec = CodecSpec(scheme="shift_map", n=3, a=2)
    plan = SweepPlan(codec=spec, snr_grid_db=(18.0,),
                     min_trials=8_192, max_trials=16_384, rel_se_target=0.5)
    points = harness.sweep_curves([plan], 1)[0]
    codec = harness.cached_codec(spec)
    direct = _estimate(codec, _noise_at(18.0), plan)
    assert points == (direct,)


def test_sdr_grows_with_snr():
    spec = CodecSpec(scheme="repetition", n=2)
    plan = SweepPlan(codec=spec, snr_grid_db=(10.0, 20.0, 30.0),
                     min_trials=20_000, max_trials=100_000, rel_se_target=0.05)
    sdrs = [p.sdr_db for p in harness.sweep_curves([plan], 1)[0]]
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


def _sum_or_error(total, v: np.ndarray):
    """total(v), or the type of the exception it raises."""
    try:
        return total(v)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _same(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b and type(a) is type(b)


@st.composite
def nonnegative_vectors(draw, finite=True):
    """Nonnegative float64 vectors whose values span many binades.

    Hypothesis picks the length, the exponent band and how many entries are
    zero, subnormal (down to 5e-324) or repeated; numpy fills in the rest
    from a drawn seed, so vectors of thousands of entries stay cheap.
    """
    n = draw(st.one_of(st.integers(1, 5000), st.just(harness.BATCH_SIZE)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top = draw(st.integers(-1074, 1000 if finite else 1023))
    span = draw(st.integers(0, 700))
    v = np.ldexp(1.0 + rng.random(n), rng.integers(max(top - span, -1074), top + 1, n))
    for fraction, fill in (
            (draw(st.sampled_from([0.0, 0.1, 0.9])),
             lambda m: np.zeros(m)),
            (draw(st.sampled_from([0.0, 0.05, 0.5])),
             lambda m: rng.integers(1, 2 ** 52, m) * 5e-324),
            (draw(st.sampled_from([0.0, 0.5])),
             lambda m: np.full(m, v[0]))):
        hit = rng.random(n) < fraction
        v[hit] = fill(int(hit.sum()))
    return v


@settings(max_examples=300, deadline=None, derandomize=True)
@given(nonnegative_vectors())
# After the first level every remainder is negative or zero, so a stopping
# test on max(r) instead of max|r| would drop the second level.
@example(np.array([0.0, 1.0 + 13 * 2.0 ** -52]))
def test_exact_sum_is_fsum_to_the_bit(v):
    assert harness._exact_sum(v) == math.fsum(v.tolist())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nonnegative_vectors(finite=False),
       st.lists(st.sampled_from([math.inf, math.nan, 1.7e308, 9e307, 2.0 ** 1010]),
                max_size=4))
# One entry, so k = 2: sigma would be 2**1024 without the guard.
@example(np.array([2.0 ** 1021]), [])
def test_exact_sum_matches_fsum_on_inf_nan_and_huge(v, extra):
    v = np.concatenate([v, extra])
    assert _same(_sum_or_error(harness._exact_sum, v),
                 _sum_or_error(lambda a: math.fsum(a.tolist()), v))


def _oracle_point(codec, noise, plan):
    """One member's estimate, batch by batch on its own: its own stream and
    draws, the noise added by scaling a fresh draw in place, and one
    math.fsum per list of errors."""
    norm = codec.normalization
    root_p, mean = math.sqrt(norm.power), np.asarray(norm.mean)
    sum2, sum4 = harness._Kahan(), harness._Kahan()
    batches = -(-plan.max_trials // harness.BATCH_SIZE)
    for batch_index in range(batches):
        rng = channel.batch_rng(plan.master_seed, noise.point_index, batch_index)
        x = numrep.draw_source(codec.spec.source_kind, rng, harness.BATCH_SIZE)
        y = (codec.encode(x) - mean) / root_p
        if noise.sigma != 0.0:
            z = rng.standard_normal(y.shape)
            z *= noise.sigma
            z += y
            y = z
        xh = codec.decode(y * root_p + mean, noise.sigma * root_p)
        e2 = np.square(xh - x)
        sum2.add(math.fsum(e2.tolist()))
        sum4.add(math.fsum(np.square(e2).tolist()))
        trials = (batch_index + 1) * harness.BATCH_SIZE
        d, se = harness._moments(sum2, sum4, trials)
        stopped = trials >= plan.min_trials and (
            d == 0.0 or se <= plan.rel_se_target * d)
        if stopped or batch_index == batches - 1:
            return SdrPoint(snr_db=noise.snr_db, sigma=noise.sigma,
                            trials=trials, distortion=d, std_err=se,
                            sdr_db=channel.sdr_db(d, codec.spec.source_variance),
                            capped=not stopped)


_ORACLE_SPECS = {
    "repetition": CodecSpec(scheme="repetition", n=2),
    "shift_map": CodecSpec(scheme="shift_map", n=3),
    "spherical": CodecSpec(scheme="spherical", n=2, a=3),
    "scheme1": CodecSpec(scheme="scheme1", n=3, alpha=3.0),
    "scheme2": CodecSpec(scheme="scheme2", n=2),
    "type1": CodecSpec(scheme="type1", n=2),
    "type2": CodecSpec(scheme="type2", n=2),
    "unbounded_wrap": CodecSpec(scheme="unbounded_wrap", n=2),
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_estimate_point_matches_the_fsum_oracle(scheme):
    # One stream group: noisy, middle and clean members with different
    # min_trials, so they stop after 1, 2 and 3 batches, and a noiseless
    # member beside them.  unbounded_wrap stays at sigma <= 1, where its
    # decode, one inner decode per integer offset, stays cheap.
    members = []
    for snr, min_trials in ((5.0, 4_096), (30.0, 8_192), (70.0, 12_288)):
        plan = SweepPlan(codec=_ORACLE_SPECS[scheme], snr_grid_db=(snr,),
                         min_trials=min_trials, max_trials=16_384,
                         rel_se_target=0.5, master_seed=1009)
        noise = _noise_at(snr, point_index=2)
        codec = harness.cached_codec(resolve_for_sigma(plan.codec, noise.sigma))
        members.append((codec, noise, plan))
    silent = channel.NoisePoint(sigma=0.0, snr_db=math.inf, point_index=2)
    members.insert(1, (members[0][0], silent, members[0][2]))
    got = estimate_point(members)
    assert got == [_oracle_point(*member) for member in members]
    assert len({p.trials for p in got}) >= 3


def test_estimate_point_rejects_members_of_other_streams():
    spec = CodecSpec(scheme="repetition", n=2)
    plan = SweepPlan(codec=spec, snr_grid_db=(10.0,))
    wide = harness.cached_codec(CodecSpec(scheme="repetition", n=3))
    narrow = harness.cached_codec(spec)
    for other in ((wide, _noise_at(10.0), plan),
                  (narrow, _noise_at(10.0, point_index=1), plan),
                  (narrow, _noise_at(10.0), replace(plan, master_seed=1))):
        with pytest.raises(ValueError, match="share their stream"):
            estimate_point([(narrow, _noise_at(10.0), plan), other])


def _square_unless_bad(i, bad):
    if i in bad:
        raise ValueError(f"job {i}")
    return i * i


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_run_jobs_returns_results_in_job_order(workers):
    jobs = [(i, ()) for i in range(7)]
    assert harness.run_jobs(_square_unless_bad, jobs, workers) == \
        [i * i for i in range(7)]
    assert harness.run_jobs(_square_unless_bad, [], workers) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("bad", [(0,), (6,), (2, 5), (5, 6)])
@pytest.mark.parametrize("workers", [1, 2])
def test_run_jobs_raises_the_first_failure_in_job_order(workers, bad):
    # The pool takes jobs from the front and this process from the back, so
    # these cover a failure on either side and on both.
    jobs = [(i, bad) for i in range(7)]
    with pytest.raises(ValueError, match=f"^job {min(bad)}$"):
        harness.run_jobs(_square_unless_bad, jobs, workers)
    assert multiprocessing.active_children() == []


class _StepPool:
    """Stands in for a one-process ProcessPoolExecutor: it holds each job
    handed to it until step() runs the oldest."""

    def __init__(self, max_workers, mp_context=None):
        assert max_workers == 1
        self.held = []
        _StepPool.last = self

    def submit(self, fn, *args):
        # One process: a second job held would wait behind the first.
        assert not self.held, "the pool is handed a job while it is busy"
        future = concurrent.futures.Future()
        self.held.append((future, fn, args))
        return future

    def step(self):
        future, fn, args = self.held.pop(0)
        future.set_result(fn(*args))

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    @staticmethod
    def wait(futures):
        """concurrent.futures.wait: the pool runs what it holds."""
        while _StepPool.last.held:
            _StepPool.last.step()
        assert all(f.done() for f in futures)


def test_run_jobs_hands_the_pool_a_job_only_when_it_is_free(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _StepPool)
    monkeypatch.setattr(concurrent.futures, "wait", _StepPool.wait)
    monkeypatch.setattr(harness, "_available_cpus", lambda: 2)
    here = []

    def job(i):
        # A job of this process: the pool finishes one job meanwhile.
        if _StepPool.last.held:
            here.append(i)
            _StepPool.last.step()
        return i * i

    assert harness.run_jobs(job, [(i,) for i in range(7)], 2) == \
        [i * i for i in range(7)]
    # The pool took 0 to 3 from the front, each once the one before it had
    # ended, while this process took 6, 5 and 4 from the back.
    assert here == [6, 5, 4]


def test_sweep_curves_match_one_sweep_per_plan():
    plans = [SweepPlan(codec=CodecSpec(scheme="type1", n=2),
                       snr_grid_db=(15.0, 27.0), min_trials=4_096,
                       max_trials=8_192, rel_se_target=0.5),
             SweepPlan(codec=CodecSpec(scheme="repetition", n=2),
                       snr_grid_db=(10.0,), min_trials=4_096,
                       max_trials=8_192, rel_se_target=0.5)]
    assert harness.sweep_curves(plans, workers=2) == \
        [harness.sweep_curves([p], 1)[0] for p in plans]
    assert multiprocessing.active_children() == []
