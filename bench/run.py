"""jscc benchmark: `jscc simulate` on fixed workloads, end to end and per layer.

    python3 bench/run.py
        Every workload at the default seed, untraced and then traced.  Prints
        every metric by name with its unit; exits 1 if any operation failed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload.  --trace 0 reports the end-to-end metrics of
        BENCHMARK.json, --trace 1 its per-layer metrics.  The last line of
        standard output is one JSON result; a full record with the
        environment fingerprint goes to .bench_run/<workload>/.

    python3 bench/run.py --workload NAME --seed N --write-references
        Store one untraced run's CSVs as the references for that seed.

Each workload is a closed loop of one client: one `python -m jscc simulate`
process at a time, run back to back with the same seed until the next run
would pass --seconds.  Before them, set-up is timed three to seven times in
separate fresh processes (child.py setup); that time counts against
--seconds too.  A slot of the fixed calibration kernel (calibrate.py) runs
before and after the set-up probes and after every run, and each time is
reported scaled to the reference host's speed by the two slots around it.
The traced pass alternates an untraced and a traced run (child.py trace),
so the tracing overhead is measured in the same invocation.
Outputs are checked row by row (checks.py); every later run of the same
seed must reproduce the first one's files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import checks
import tracing

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
REFERENCES = BENCH / "references"
RUN_DIR = ROOT / ".bench_run"
DEFAULT_SEED = 24269
HELD_OUT_SEED = 1009
# Set-up is timed at least 3 and at most 7 times, more while the probes have
# used less than a tenth of the measuring time.
SETUP_REPEATS = (3, 7)
SETUP_SHARE = 0.1
# A calibration slot runs before the set-up probes, after them, and after
# every simulate run.  It times the kernel for a tenth of the run before it,
# and for at least 0.4 s: the host's speed wanders by about 10 % from one
# second to the next, so a longer slot reads it better.
CALIBRATION_SHARE = 0.1
CALIBRATION_MIN_S = 0.4
# Children still running this long after a workload's start are killed, so
# one invocation ends within 180 s.
RUN_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    rules: checks.SweepRules | None
    box_samples: int = 0  # constellation samples a box-count run draws


ML_CONFIG = BENCH / "workloads" / "ml-decode.json"
DIM_CONFIG = BENCH / "workloads" / "dimension-check.json"


def _sweep_rules(path: Path) -> checks.SweepRules:
    with open(path, "r", encoding="utf-8") as fh:
        sweep = json.load(fh)["sweep"]
    return checks.SweepRules(sweep["min_trials"], sweep["max_trials"], sweep["rel_se_target"])


WORKLOADS = {w.name: w for w in (
    # The paper's headline figure, as users run it, on the serial path.
    Workload("fig3", ("--preset", "fig3", "--workers", "1"),
             checks.SweepRules(100_000, 2_000_000, 0.1)),
    # Exact ML search; the only workload on the estimate_point thread pool.
    Workload("ml-decode", ("--config", str(ML_CONFIG), "--workers", "2"),
             _sweep_rules(ML_CONFIG)),
    # Box counting only: harness, channel and decoders are bypassed.  The
    # preset's three checks, each drawing two sets of 100 000 constellation
    # points instead of 250 000, so several runs fit in one measurement.
    Workload("dimension-check", ("--config", str(DIM_CONFIG)), None,
             box_samples=3 * 2 * 100_000),
)}


# ---------------------------------------------------------------------------
# child processes


@dataclass
class Exec:
    wall_s: float
    rss_mb: float
    code: int
    out_dir: Path | None = None
    spans: Path | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("JSCC_WORKERS", None)  # each workload fixes its own worker count
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(cmd: list, log: Path, timeout: float) -> Exec:
    """Run one child to exit, killing it after timeout seconds.

    Returns the wall time from spawn to exit and the child's own peak RSS.
    """
    with open(log, "w", encoding="utf-8") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exec(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def simulate(w: Workload, seed: int, out_dir: Path, traced: bool,
             timeout: float = RUN_LIMIT_S) -> Exec:
    jscc_args = ["simulate", *w.args, "--seed", str(seed), "--out", str(out_dir)]
    if traced:
        spans = out_dir.with_name(out_dir.name + "-spans.json")
        cmd = [sys.executable, str(BENCH / "child.py"), "trace", "--spans", str(spans),
               "--", *jscc_args]
    else:
        spans = None
        cmd = [sys.executable, "-m", "jscc", *jscc_args]
    run = _spawn(cmd, out_dir.with_name(out_dir.name + ".log"), timeout)
    run.out_dir, run.spans = out_dir, spans
    return run


def setup_probe(w: Workload, seed: int, log: Path, timeout: float) -> float | None:
    source = list(w.args[:2])
    run = _spawn([sys.executable, str(BENCH / "child.py"), "setup", *source,
                  "--seed", str(seed)], log, timeout)
    if run.code != 0:
        return None
    return json.loads(log.read_text(encoding="utf-8").strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# environment fingerprint


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], env=env, capture_output=True,
                             text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = _git("rev-parse", "HEAD")
    return {
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(_git("status", "--porcelain",
                                                        "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# one workload


def reference_dir(workload: str, seed: int) -> Path:
    return REFERENCES / workload / f"seed-{seed}"


def _execute(w: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Set-up probes, then simulate runs (paired with traced ones) until the
    next round would pass `seconds`.  Returns (setup seconds, runs,
    calibration slots).  Untraced, slot 0 runs before the set-up probes,
    slot 1 after them and slot i + 2 after run i, so slots i + 1 and i + 2
    bracket run i; traced, there are none."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    kernel = None if trace else calibrate.Kernel()
    slots = []

    def remaining() -> float:
        return max(1.0, deadline - time.perf_counter())

    def calibrate_slot(after: float = 0.0) -> float:
        if kernel is None:
            return 0.0
        t0 = time.perf_counter()
        slots.append(kernel.slot(max(CALIBRATION_MIN_S, CALIBRATION_SHARE * after)))
        return time.perf_counter() - t0

    calibrate_slot()
    setups = []
    while not trace and (len(setups) < SETUP_REPEATS[0] or (
            len(setups) < SETUP_REPEATS[1]
            and time.perf_counter() - started < SETUP_SHARE * seconds)):
        setups.append(setup_probe(w, seed, work / f"setup-{len(setups)}.log", remaining()))
    calibrate_slot()
    runs = []
    while True:
        i = len(runs) // (2 if trace else 1)
        batch = [simulate(w, seed, work / f"run-{i}", False, remaining())]
        if trace:
            batch.append(simulate(w, seed, work / f"run-{i}-traced", True, remaining()))
        runs.extend(batch)
        cost = sum(r.wall_s for r in batch)
        cost += calibrate_slot(after=cost)
        if (any(r.code != 0 for r in batch)
                or time.perf_counter() - started + cost > seconds
                or time.perf_counter() + 1.5 * cost > deadline):
            return setups, runs, slots


def _verify(w: Workload, seed: int, runs: list, setups: list) -> checks.Verdict:
    """The first run against the references, every other run against the
    first, byte for byte."""
    ref = reference_dir(w.name, seed)
    base = reference_dir(w.name, DEFAULT_SEED)
    first = runs[0]
    verdict = checks.check_outputs(str(first.out_dir), str(ref) if ref.is_dir() else None,
                                   str(base), w.rules)
    rows = {f.name: len(checks.read_csv(str(f))[1]) for f in base.glob("*.csv")}
    per_run = verdict.attempted
    if first.code != 0:
        verdict.fail(per_run - verdict.failed, f"run 0 exited {first.code}")
    for k, run in enumerate(runs[1:], start=1):
        verdict.attempted += per_run
        if run.code != 0:
            verdict.fail(per_run, f"run {k} exited {run.code}")
            continue
        for name in checks.differing_files(str(first.out_dir), str(run.out_dir)):
            verdict.fail(rows.get(name, 1), f"run {k} ({'traced' if run.spans else 'untraced'}) "
                                            f"differs from run 0 in {name}")
    if None in setups:
        verdict.fail(1, "a set-up probe failed")
    return verdict


def _metrics(w: Workload, seed: int, trace: bool, runs: list, setups: list, slots: list,
             verdict: checks.Verdict) -> dict:
    """Every metric the runs yield, as name -> (value, unit)."""
    plain = [r for r in runs if r.spans is None]
    traced = [r for r in runs if r.spans is not None]
    metrics = {}
    wall = statistics.median(r.wall_s for r in plain)
    if not trace:
        # Times at the reference host's speed: each time is scaled by the
        # speed factor of the two calibration slots around it.
        def scaled(seconds: float, before: int) -> float:
            return seconds * calibrate.speed_factor(slots[before], slots[before + 1])

        scaled_wall = statistics.median(scaled(r.wall_s, i + 1) for i, r in enumerate(plain))
        metrics["host.speed_factor"] = (calibrate.speed_factor(*slots), "ratio")
        metrics["wall_raw_s"] = (wall, "s")
        metrics["wall_s"] = (scaled_wall, "s")
        if None not in setups:
            metrics["setup_raw_s"] = (statistics.median(setups), "s")
            metrics["setup_s"] = (scaled(statistics.median(setups), 0), "s")
        metrics["trials_per_s"] = ((verdict.trials or w.box_samples) / scaled_wall, "1/s")
        metrics["peak_rss_mb"] = (statistics.median(r.rss_mb for r in plain), "MB")
    elif all(r.code == 0 for r in traced):
        per_run = [tracing.span_metrics(*tracing.Trace.load(str(r.spans))) for r in traced]
        for name, (_, unit) in per_run[0].items():
            metrics[name] = (statistics.median(m[name][0] for m in per_run if name in m), unit)
        metrics["trace.overhead_frac"] = (
            statistics.median(r.wall_s for r in traced) / wall - 1.0, "ratio")
        if "harness.batches_run" in metrics:
            used = verdict.trials / checks.BATCH_SIZE
            metrics["harness.batches_used"] = (used, "count")
            metrics["harness.batch_yield"] = (used / metrics["harness.batches_run"][0], "ratio")
    if reference_dir(w.name, seed).is_dir():
        metrics["cli.csv_files_byte_identical"] = (verdict.files_byte_identical, "count")
    return metrics


def measure(w: Workload, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One invocation's runs, checks and metrics, as a record."""
    env = fingerprint()
    work = RUN_DIR / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setups, runs, slots = _execute(w, seed, seconds, trace, work)
    verdict = _verify(w, seed, runs, setups)
    metrics = _metrics(w, seed, trace, runs, setups, slots, verdict)

    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and verdict.failed == 0:
        verdict.fail(1, f"metrics not measured: {', '.join(missing)}")
    metrics["failed_frac"] = (verdict.failed / verdict.attempted, "ratio")
    env["loadavg_end"] = os.getloadavg()
    record = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "walls_s": [r.wall_s for r in runs if r.spans is None],
        "traced_walls_s": [r.wall_s for r in runs if r.spans is not None],
        "setups_s": setups, "calibration_slots_s": slots, "environment": env,
        "problems": verdict.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "result": {
            "correct": verdict.failed == 0,
            "attempted": verdict.attempted,
            "failed": verdict.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                        for m in wanted if m["name"] in metrics},
        },
    }
    with open(work / f"record-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record: dict) -> None:
    tag = f"{record['workload']} (trace {record['trace']}, seed {record['seed']})"
    print(f"# {tag}: {len(record['walls_s'])} untraced, {len(record['traced_walls_s'])} traced "
          f"and {len(record['setups_s'])} set-up runs")
    print(f"# environment {json.dumps(record['environment'], sort_keys=True)}")
    for problem in record["problems"]:
        print(f"# problem: {problem}")
    for name, m in record["metrics"].items():
        print(f"{record['workload']:16s} {name:52s} {m['value']:>16.6g} {m['unit']}")
    sys.stdout.flush()


def write_references(w: Workload, seed: int) -> int:
    work = RUN_DIR / "references"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = simulate(w, seed, work / w.name, traced=False)
    if run.code != 0:
        print(f"simulate exited {run.code}; see {work / (w.name + '.log')}", file=sys.stderr)
        return 1
    dest = reference_dir(w.name, seed)
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for f in sorted(run.out_dir.glob("*.csv")):
        shutil.copyfile(f, dest / f.name)
    print(f"wrote {len(list(dest.glob('*.csv')))} reference CSVs to {dest}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per invocation (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jscc" / "cli.py").is_file():
        print(f"no jscc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    if args.write_references:
        if args.workload is None:
            parser.error("--write-references needs --workload")
        return write_references(WORKLOADS[args.workload], args.seed)
    if args.workload is not None:
        record = measure(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), spec)
        print_record(record)
        print(json.dumps(record["result"]))
        return 0 if record["result"]["correct"] else 1

    attempted = failed = 0
    summary = {}
    for name in WORKLOADS:
        for trace in (False, True):
            record = measure(WORKLOADS[name], args.seed, seconds, trace, spec)
            print_record(record)
            attempted += record["result"]["attempted"]
            failed += record["result"]["failed"]
            for metric, m in record["metrics"].items():
                summary[f"{name}/{metric}"] = m
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
