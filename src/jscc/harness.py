"""Monte Carlo distortion estimation over SNR grids.

Trials run in fixed batches of 4096.  Each batch draws its source samples
and noise from a stream keyed by (master seed, point index, batch index),
and batches run and merge strictly in batch-index order, so the estimate
is a bit-identical function of the seed, the plan and the codec.

The transmitted signal is normalized to zero mean and unit average power
using the record the codec carries (`Codec.normalization`); decoding happens
back in the raw constellation coordinates, where the effective noise level
is the channel sigma scaled by the measured power root.

`sweep_curves` owns a sweep.  It builds every codec, then runs two job
lists: one normalization per distinct resolved spec, whose records it hands
to this process's codecs, then one point per (curve, grid point).
`run_jobs` runs each list in this process and up to workers - 1 forked pool
processes, which inherit the codecs and their records, and merges the
results in job order, so no number depends on the worker count.  Codecs
live in one cache per process, so a later sweep of the same specs measures
nothing again.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import channel, numrep
from .codecs import CodecSpec, build_codec, resolve_for_sigma
from .codecs.base import NormalizationRecord

BATCH_SIZE = 4096

_codec_cache: dict[CodecSpec, object] = {}


def cached_codec(spec: CodecSpec):
    codec = _codec_cache.get(spec)
    if codec is None:
        codec = build_codec(spec)
        _codec_cache[spec] = codec
    return codec


class CurveError(ValueError):
    """A curve's normalization failed; args are (plan index, message)."""

    @property
    def index(self) -> int:
        return self.args[0]

    def __str__(self) -> str:
        return self.args[1]


@dataclass(frozen=True)
class SdrPoint:
    snr_db: float
    sigma: float
    trials: int
    distortion: float
    std_err: float
    sdr_db: float
    capped: bool


@dataclass(frozen=True)
class SweepPlan:
    codec: CodecSpec
    snr_grid_db: tuple
    min_trials: int = 100_000
    max_trials: int = 10_000_000
    rel_se_target: float = 0.1
    master_seed: int = 0x5EED

    def __post_init__(self):
        grid = tuple(float(v) for v in self.snr_grid_db)
        object.__setattr__(self, "snr_grid_db", grid)
        if not all(math.isfinite(v) for v in grid):
            raise ValueError("snr grid entries must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr grid must be strictly increasing")
        if self.min_trials < 1:
            raise ValueError("min_trials must be positive")
        if self.max_trials < self.min_trials:
            raise ValueError("max_trials must be >= min_trials")
        if not 0.0 < self.rel_se_target < 1.0:
            raise ValueError("rel_se_target must lie in (0, 1)")


@dataclass(frozen=True)
class SdrCurve:
    plan: SweepPlan
    points: tuple
    resolved: tuple


class _Kahan:
    """Compensated running sum; order of add() calls fixes the result."""

    __slots__ = ("total", "carry")

    def __init__(self):
        self.total = 0.0
        self.carry = 0.0

    def add(self, value: float):
        y = value - self.carry
        t = self.total + y
        self.carry = (t - self.total) - y
        self.total = t


def _exact_sum(v: np.ndarray) -> float:
    """Correctly rounded sum of a float64 vector, equal to math.fsum(v).

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31(1),
    2008).  r is what is left to sum, v at first.  With sigma a power of two
    at least 2n * max|r|, q = (r + sigma) - sigma keeps the leading bits of
    each r_i as a multiple of 2**-53 * sigma, and r - q is exact.  Every
    partial sum of q stays such a multiple below sigma, so q.sum() is exact
    in any order.  Each pass shrinks max|r| by at least 2**(52 - k); fsum of
    the exact level sums rounds their total once.
    """
    k = v.size.bit_length() + 1
    m = float(np.abs(v).max(initial=0.0))
    if not m < math.ldexp(1.0, 1022 - k):
        # nan, inf, or sigma would overflow: keep fsum's own result or error
        return math.fsum(v.tolist())
    r, parts = v, []
    while m:
        sigma = math.ldexp(1.0, math.frexp(m)[1] + k)
        q = r + sigma
        q -= sigma
        parts.append(float(q.sum()))
        r = r - q
        m = float(np.abs(r).max())
    return math.fsum(parts)


def _run_batch(codec, noise: channel.NoisePoint, norm: NormalizationRecord,
               batch_index: int) -> tuple:
    rng = channel.batch_rng(noise.master_seed, noise.point_index, batch_index)
    x = numrep.draw_source(codec.spec.source_kind, rng, BATCH_SIZE)
    # encode and awgn return new arrays, rescaled here in place with the
    # same roundings as (s - mean) / root_p and y * root_p + mean.
    s = codec.encode(x)
    root_p = math.sqrt(norm.power)
    mean = np.asarray(norm.mean)
    s -= mean
    s /= root_p
    y = channel.awgn(s, noise.sigma, rng)
    y *= root_p
    y += mean
    xh = codec.decode(y, noise.sigma * root_p)
    e2 = np.subtract(xh, x)
    np.square(e2, out=e2)
    # Both sums are exact before their one rounding, so tiny squared errors
    # (down to ~1e-29) never vanish next to large ones, and the result does
    # not depend on numpy's summation order.  _exact_sum works on the array
    # itself, with a few whole-array passes, instead of a 4096-item list.
    return _exact_sum(e2), _exact_sum(np.square(e2))


def _moments(sum2: _Kahan, sum4: _Kahan, trials: int) -> tuple:
    """Mean squared error and its standard error from the running sums."""
    mean = sum2.total / trials
    var = max(sum4.total / trials - mean * mean, 0.0)
    return mean, math.sqrt(var / trials)


def estimate_point(codec, noise: channel.NoisePoint, plan: SweepPlan) -> SdrPoint:
    """Adaptive distortion estimate at one noise level.

    Stops at the first batch boundary past min_trials where the relative
    standard error of the distortion meets the plan target; caps at
    max_trials (rounded up to whole batches) with the capped flag set.
    """
    normalization = codec.normalization
    max_batches = -(-plan.max_trials // BATCH_SIZE)
    sum2, sum4 = _Kahan(), _Kahan()
    trials = 0
    stopped = False
    for batch_index in range(max_batches):
        s2, s4 = _run_batch(codec, noise, normalization, batch_index)
        sum2.add(s2)
        sum4.add(s4)
        trials += BATCH_SIZE
        mean, std_err = _moments(sum2, sum4, trials)
        if trials >= plan.min_trials and (
                mean == 0.0 or std_err <= plan.rel_se_target * mean):
            stopped = True
            break
    return SdrPoint(
        snr_db=noise.snr_db,
        sigma=noise.sigma,
        trials=trials,
        distortion=mean,
        std_err=std_err,
        sdr_db=channel.sdr_db(mean, codec.spec.source_variance),
        capped=not stopped,
    )


def grid_points(plan: SweepPlan) -> list:
    """(resolved spec, noise point) of each grid point, in grid order."""
    points = []
    for index, snr in enumerate(plan.snr_grid_db):
        sigma = channel.sigma_from_snr_db(snr)
        points.append((resolve_for_sigma(plan.codec, sigma),
                       channel.NoisePoint(sigma=sigma, snr_db=snr,
                                          master_seed=plan.master_seed,
                                          point_index=index)))
    return points


# Jobs are module-level functions, so a pool pickles them by name.

def normalization_job(spec: CodecSpec, index: int) -> NormalizationRecord:
    """Job: the measured normalization of one resolved spec, which plan
    `index` is the first to use."""
    try:
        return cached_codec(spec).normalization
    except ValueError as exc:
        raise CurveError(index, str(exc)) from exc


def point_job(spec: CodecSpec, noise: channel.NoisePoint,
              plan: SweepPlan) -> SdrPoint:
    """Job: the estimate of one grid point."""
    return estimate_point(cached_codec(spec), noise, plan)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_jobs(fn, jobs: list, workers: int) -> list:
    """[fn(*job) for job in jobs], on up to `workers` processes.

    n = min(workers, len(jobs), available CPUs).  With n <= 1 the jobs run
    here, in order.  Otherwise n - 1 pool processes take jobs from the front
    of the list while this process takes them from the back, cancelling
    each one the pool has not started, until the two meet.  If jobs raise,
    the error of the first in job order is raised, as in the serial loop,
    and every job not yet started is cancelled.

    The pool forks wherever the platform has fork, whatever Python's
    default start method: forked workers inherit this process's codecs with
    their normalization records, and any module state set before the pool
    starts.  Spawned or forkserver workers would rebuild and measure every
    codec they use again.
    """
    n = min(workers, len(jobs), _available_cpus())
    if n <= 1:
        return [fn(*job) for job in jobs]
    # Imported here, so that serial runs never load the pool's modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(n - 1, mp_context=context)
    try:
        pending = [pool.submit(fn, *job) for job in jobs]
        results = [None] * len(jobs)
        ours = len(jobs)  # jobs[ours:] run in this process
        error = None
        while ours and pending[ours - 1].cancel():
            ours -= 1
            try:
                results[ours] = fn(*jobs[ours])
            except Exception as exc:
                error = exc  # the pool still runs every job before it
                break
        for index in range(ours):
            results[index] = pending[index].result()
        if error is not None:
            raise error
        return results
    finally:
        pool.shutdown(cancel_futures=True)


def sweep_curves(plans, workers: int) -> list:
    """Each plan's curve: build every codec, normalize every distinct spec,
    then run one point job per (plan, grid point) across all plans.

    A failed normalization raises CurveError naming the first plan that
    uses the spec; with several, the first spec in plan order.
    """
    grids = [grid_points(plan) for plan in plans]
    first_plan = {}
    for index, grid in enumerate(grids):
        for spec, _ in grid:
            cached_codec(spec)
            first_plan.setdefault(spec, index)
    todo = list(first_plan.items())
    # A pool measures in its own processes, so the records are handed to
    # this process's codecs, which the point pool's workers inherit.
    for (spec, _), rec in zip(todo, run_jobs(normalization_job, todo, workers)):
        cached_codec(spec).normalization = rec
    jobs = [(spec, noise, plan)
            for plan, grid in zip(plans, grids) for spec, noise in grid]
    results = iter(run_jobs(point_job, jobs, workers))
    return [SdrCurve(plan=plan,
                     points=tuple(itertools.islice(results, len(grid))),
                     resolved=tuple(spec for spec, _ in grid))
            for plan, grid in zip(plans, grids)]
