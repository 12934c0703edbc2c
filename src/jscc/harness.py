"""Monte Carlo distortion estimation over SNR grids.

Trials run in fixed batches of 4096.  Each batch draws its source samples,
then its standard normal noise, from a stream keyed by (the plan's master
seed, point index, batch index), and batches run and merge strictly in
batch-index order, so the estimate is a bit-identical function of the seed,
the plan and the codec.  Curves whose codecs share a source kind and a
channel dimension read the same draws at the same point index; such a
(curve, grid point) set is a stream group, and `estimate_point` draws each
of its batches once for every member.

The transmitted signal is normalized to zero mean and unit average power
using the record the codec carries (`Codec.normalization`); decoding happens
back in the raw constellation coordinates, where the effective noise level
is the channel sigma scaled by the measured power root.

`sweep_curves` owns a sweep and returns each plan's points.  It builds every
codec, then runs two job lists: one normalization per distinct resolved
spec, whose records it hands to this process's codecs, then, once every
point's decode noise level has met its codec's caps
(`Codec.check_decode_sigma`), one point job per stream group.
`run_jobs` runs each list in this process and up to
workers - 1 forked pool processes, which inherit the codecs and their
records, and merges the results in job order, so no number depends on the
worker count.  Codecs live in one cache per process, so a later sweep of the
same specs measures nothing again.
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
    master_seed: int = channel.DEFAULT_MASTER_SEED

    def __post_init__(self):
        object.__setattr__(self, "snr_grid_db", check_snr_grid(self.snr_grid_db))
        check_sweep_settings(self.min_trials, self.max_trials, self.rel_se_target)


def check_snr_grid(grid) -> tuple:
    """grid as a tuple of floats, refused unless it has an entry, every entry
    is finite and the entries strictly increase."""
    grid = tuple(float(v) for v in grid)
    if not grid:
        raise ValueError("snr grid must be a non-empty list")
    if not all(math.isfinite(v) for v in grid):
        raise ValueError("snr grid entries must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("snr grid must be strictly increasing")
    return grid


def check_sweep_settings(min_trials, max_trials, rel_se_target) -> None:
    """Refuse trial bounds and a precision target no sweep can stop on."""
    if min_trials < 1:
        raise ValueError("min_trials must be positive")
    if max_trials < min_trials:
        raise ValueError("max_trials must be >= min_trials")
    if not 0.0 < rel_se_target < 1.0:
        raise ValueError("rel_se_target must lie in (0, 1)")


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


def _moments(sum2: _Kahan, sum4: _Kahan, trials: int) -> tuple:
    """Mean squared error and its standard error from the running sums."""
    mean = sum2.total / trials
    var = max(sum4.total / trials - mean * mean, 0.0)
    return mean, math.sqrt(var / trials)


class _Estimate:
    """One member's running estimate; `point` is set once it stops."""

    def __init__(self, codec, noise: channel.NoisePoint, plan: SweepPlan):
        self.codec, self.noise, self.plan = codec, noise, plan
        norm = codec.normalization
        self.root_p = math.sqrt(norm.power)
        self.mean = np.asarray(norm.mean)
        # max_trials rounded up to whole batches
        self.cap = -(-plan.max_trials // BATCH_SIZE) * BATCH_SIZE
        self.sum2, self.sum4 = _Kahan(), _Kahan()
        self.trials = 0
        self.point = None

    def add_batch(self, x: np.ndarray, z: np.ndarray):
        """Run the batch with source x and standard normal draws z."""
        codec, sigma = self.codec, self.noise.sigma
        # encode and awgn return new arrays, rescaled here in place with the
        # same roundings as (s - mean) / root_p and y * root_p + mean.
        s = codec.encode(x)
        s -= self.mean
        s /= self.root_p
        y = channel.awgn(s, sigma, z)
        y *= self.root_p
        y += self.mean
        xh = codec.decode(y, sigma * self.root_p)
        e2 = np.subtract(xh, x)
        np.square(e2, out=e2)
        # Both sums are exact before their one rounding, so tiny squared
        # errors (down to ~1e-29) never vanish next to large ones, and the
        # result does not depend on numpy's summation order.  _exact_sum
        # works on the array itself, with a few whole-array passes, instead
        # of a 4096-item list.
        self.sum2.add(_exact_sum(e2))
        self.sum4.add(_exact_sum(np.square(e2)))
        self.trials += BATCH_SIZE
        mean, std_err = _moments(self.sum2, self.sum4, self.trials)
        stopped = self.trials >= self.plan.min_trials and (
            mean == 0.0 or std_err <= self.plan.rel_se_target * mean)
        if stopped or self.trials == self.cap:
            self.point = SdrPoint(
                snr_db=self.noise.snr_db,
                sigma=sigma,
                trials=self.trials,
                distortion=mean,
                std_err=std_err,
                sdr_db=channel.sdr_db(mean, codec.spec.source_variance),
                capped=not stopped,
            )


def _stream_key(codec, noise: channel.NoisePoint, plan: SweepPlan) -> tuple:
    """What fixes a member's draws: members with one key share them."""
    return (plan.master_seed, noise.point_index, codec.spec.source_kind,
            codec.dims)


def estimate_point(members) -> list:
    """Adaptive distortion estimates of one stream group, in member order.

    Each member is a (codec, noise point, plan) whose stream key is the
    group's, so every member reads the same source and noise draws: each
    batch's draws are made once and run through every member that still
    needs them.  A member stops at the first batch boundary past its
    min_trials where the relative standard error of its distortion meets
    its target; it caps at max_trials (rounded up to whole batches) with the
    capped flag set.
    """
    estimates = [_Estimate(*member) for member in members]
    key = _stream_key(estimates[0].codec, estimates[0].noise, estimates[0].plan)
    if any(_stream_key(e.codec, e.noise, e.plan) != key for e in estimates):
        raise ValueError("members of a stream group must share their stream")
    seed, point_index, kind, dims = key
    live = estimates
    for batch_index in itertools.count():
        rng = channel.batch_rng(seed, point_index, batch_index)
        x = numrep.draw_source(kind, rng, BATCH_SIZE)
        z = rng.standard_normal((BATCH_SIZE, dims))
        # Every member reads these; a write to either would corrupt the rest.
        x.flags.writeable = z.flags.writeable = False
        for estimate in live:
            estimate.add_batch(x, z)
        live = [e for e in live if e.point is None]
        if not live:
            return [e.point for e in estimates]


def grid_points(plan: SweepPlan) -> list:
    """(resolved spec, noise point) of each grid point, in grid order."""
    points = []
    for index, snr in enumerate(plan.snr_grid_db):
        sigma = channel.sigma_from_snr_db(snr)
        points.append((resolve_for_sigma(plan.codec, sigma),
                       channel.NoisePoint(sigma=sigma, snr_db=snr,
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


def point_job(members: list) -> list:
    """Job: the estimates of one stream group of (spec, noise, plan)."""
    return estimate_point([(cached_codec(spec), noise, plan)
                           for spec, noise, plan in members])


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def run_jobs(fn, jobs: list, workers: int) -> list:
    """[fn(*job) for job in jobs], on up to `workers` processes.

    n = min(workers, len(jobs), available CPUs).  With n <= 1 the jobs run
    here, in order.  Otherwise n - 1 pool processes take jobs from the front
    of the list while this process takes them from the back, until the two
    meet.  The pool is handed a job only when one of its processes is free:
    a job queued ahead in the pool could not be taken here, and this process
    would wait for it.  If jobs raise, the error of the first in job order
    is raised, as in the serial loop, and once the pool has failed no job
    starts.

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
    import threading
    from concurrent.futures import Future, ProcessPoolExecutor, wait

    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(n - 1, mp_context=context)
    lock = threading.Lock()
    pooled = {}  # job index -> future of each job handed to the pool
    front, back = 0, len(jobs)  # jobs[front:back] are not yet taken
    stop = False

    def feed(done=None):
        # Runs here at first, then in the pool's result thread as each pool
        # job ends, so a free pool process gets the next job at the front.
        nonlocal front, stop
        with lock:
            if done is not None and (done.cancelled()
                                     or done.exception() is not None):
                stop = True
            if stop or front == back:
                return
            index, front = front, front + 1
            try:
                future = pool.submit(fn, *jobs[index])
            except RuntimeError as exc:  # a broken or shut-down pool
                future = Future()
                future.set_exception(exc)
            pooled[index] = future
        future.add_done_callback(feed)

    try:
        for _ in range(n - 1):
            feed()
        results = [None] * len(jobs)
        errors = {}
        while True:
            with lock:
                if stop or front == back:
                    break
                back -= 1
                index = back
            try:
                results[index] = fn(*jobs[index])
            except Exception as exc:
                # The jobs before it still run, so that the error raised is
                # the first in job order.
                errors[index] = exc
        # Nothing is handed to the pool after the loop ends.
        wait(list(pooled.values()))
        # Pool jobs all come before this process's jobs.
        for index in sorted(pooled):
            results[index] = pooled[index].result()
        if errors:
            raise errors[min(errors)]
        return results
    finally:
        pool.shutdown(cancel_futures=True)


def sweep_curves(plans, workers: int) -> list:
    """Each plan's points, as a tuple of SdrPoint in grid order: build every
    codec, normalize every distinct spec, check every point's decode noise
    level against the codec's caps (CapacityError), then run one point job
    per stream group across all plans.

    A stream group holds every (plan, grid point) with the same stream key;
    groups run in the order of their first member in plan-major order, and
    each result goes back to its plan.  A failed normalization raises
    CurveError naming the first plan that uses the spec; with several, the
    first spec in plan order.
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
    # Every record is known, so a decode past a cap fails before any batch.
    for spec, noise, _ in jobs:
        codec = cached_codec(spec)
        codec.check_decode_sigma(noise.sigma * math.sqrt(codec.normalization.power))
    groups = {}
    for index, (spec, noise, plan) in enumerate(jobs):
        groups.setdefault(_stream_key(cached_codec(spec), noise, plan),
                          []).append(index)
    group_jobs = [([jobs[i] for i in group],) for group in groups.values()]
    points = [None] * len(jobs)
    for group, results in zip(groups.values(),
                              run_jobs(point_job, group_jobs, workers)):
        for index, point in zip(group, results):
            points[index] = point
    results = iter(points)
    return [tuple(itertools.islice(results, len(grid))) for grid in grids]
