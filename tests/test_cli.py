import concurrent.futures
import errno
import functools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jscc import analysis, channel, cli, harness, svgplot
from jscc.cli import ConfigError, parse_config
from jscc.codecs import base, resolve_for_sigma
from jscc.harness import SdrPoint


# ---------------------------------------------------------------------------
# svg emitter


def _series():
    return [
        {"label": "measured & fit", "points": [(0.0, 1.0), (10.0, 5.0)],
         "dashed": False},
        {"label": "reference", "points": [(0.0, 2.0), (10.0, 6.0)],
         "dashed": True},
    ]


def test_svg_structure_and_escaping():
    doc = svgplot.svg_document(_series(), title="demo <1>",
                               x_label="channel SNR (dB)", y_label="SDR (dB)")
    assert doc.count('class="curve"') == 1
    assert doc.count('class="overlay"') == 1
    assert "stroke-dasharray" in doc
    assert "measured &amp; fit" in doc
    assert "demo &lt;1&gt;" in doc
    assert doc.startswith('<?xml version="1.0"')


def test_svg_deterministic_and_tolerant():
    a = svgplot.svg_document(_series(), title="t", x_label="x", y_label="y")
    b = svgplot.svg_document(_series(), title="t", x_label="x", y_label="y")
    assert a == b
    weird = [{"label": "holes",
              "points": [(0.0, 1.0), (1.0, math.inf), (2.0, 3.0)],
              "dashed": False}]
    doc = svgplot.svg_document(weird, title="t", x_label="x", y_label="y")
    assert doc.count('class="curve"') == 1
    empty = svgplot.svg_document([], title="t", x_label="x", y_label="y")
    assert "</svg>" in empty


# ---------------------------------------------------------------------------
# config parsing


def _tiny_config():
    return {
        "schema_version": 1,
        "name": "tiny",
        "master_seed": 3,
        "snr_grid_db": [10.0, 15.0, 20.0, 25.0],
        "sweep": {"min_trials": 4096, "max_trials": 8192,
                  "rel_se_target": 0.5},
        "curves": [
            {"label": "rep", "codec": {"scheme": "repetition", "n": 2},
             "fit_window_db": [10.0, 25.0]},
        ],
        "overlays": [
            {"kind": "opta_slb", "n": 2},
            {"kind": "type1_upper", "n": 2, "anchor": "rep"},
        ],
    }


def _with_check(**fields):
    """Mutation adding one repetition dimension check with fields overridden."""
    check = {"label": "dim", "codec": {"scheme": "repetition", "n": 2},
             "epsilons": [0.1, 0.01], "samples": 1000}
    check.update(fields)
    return lambda d: d.update(dimension_checks=[check])


def test_presets_all_parse():
    for name, builder in cli.PRESETS.items():
        exp = parse_config(builder())
        assert exp.curves or exp.dimension_checks, name


def test_parse_config_happy_path():
    exp = parse_config(_tiny_config())
    assert exp.name == "tiny"
    assert exp.curves[0].spec.scheme == "repetition"
    assert exp.overlays[1].anchor == "rep"
    assert exp.overlays[0].label == "opta_slb n=2"  # no label: the description
    assert exp.min_trials == 4096


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(schema_version=9), "schema_version"),
    (lambda d: d.update(extra=1), "unknown top-level"),
    (lambda d: d["curves"].append(dict(d["curves"][0])), "unique"),
    (lambda d: d["curves"][0].update(label="a,b"), "comma"),
    (lambda d: d["curves"][0]["codec"].update(warp=2), "unknown codec field"),
    (lambda d: d["curves"][0].update(fit_window_db=[30.0, 10.0]), "lo < hi"),
    (lambda d: d["overlays"].append({"kind": "opta_slb", "n": 7}), "n=7"),
    (lambda d: d["overlays"].append(
        {"kind": "shiftmap_upper", "n": 2, "anchor": "ghost"}), "ghost"),
    (lambda d: d["overlays"].append(
        {"kind": "shiftmap_upper", "n": 2}), "anchor"),
    (lambda d: d["overlays"].append(
        {"kind": "opta_slb", "n": 2, "anchor": "rep"}), "absolute"),
    (lambda d: d["overlays"][1].update(scale=0.1), "fits its own scale; drop scale"),
    (lambda d: d["overlays"][0].update(scale=math.nan),
     "overlays[0]: scale must be positive and finite"),
    (lambda d: d.update(curves=[], overlays=[]), "no curves"),
    (lambda d: d["curves"][0].pop("codec"), "codec"),
    (_with_check(epsilons=[0.01, 0.1]), "strictly decreasing"),
    (_with_check(epsilons=[0.1, -0.1]), "positive"),
    (_with_check(epsilons=[math.inf, 0.1]), "finite"),
    (_with_check(samples=0), "samples must be at least 1"),
    (_with_check(epsilons=["x", 0.1]), "epsilon must be a number"),
    (lambda d: d["sweep"].update(min_trials="abc"), "min_trials must be an integer"),
    (lambda d: d.update(master_seed=-1), "master_seed must be a non-negative"),
    (lambda d: d.update(snr_grid_db=[10.0, math.nan]),
     "snr_grid_db: snr grid entries must be finite"),
    (lambda d: d["curves"][0].update(snr_grid_db=[math.inf]),
     "curves[0].snr_grid_db: snr grid entries"),
    (lambda d: d["curves"][0].update(snr_grid_db=[-math.inf, 0.0]),
     "curves[0].snr_grid_db: snr grid entries must be finite"),
    # The plan's rule, met at parse time.
    (lambda d: d["curves"][0].update(snr_grid_db=[10.0, 10.0]),
     "curves[0].snr_grid_db: snr grid must be strictly increasing"),
    (lambda d: d.update(snr_grid_db=[20.0, 10.0]),
     "snr_grid_db: snr grid must be strictly increasing"),
    (lambda d: d["curves"][0].update(snr_grid_db=[]),
     "curves[0].snr_grid_db: snr grid must be a non-empty list"),
    (lambda d: d["sweep"].update(min_trials=4096.9),
     "sweep.min_trials must be an integer, got 4096.9"),
    (lambda d: d["curves"][0]["codec"].update(n=2.5),
     "curves[0].codec: n must be an integer"),
    (lambda d: d["curves"][0].update(
        codec={"scheme": "shift_map", "n": 3, "b": [2, 3]}),
     "curves[0].codec: unknown codec field 'b'"),
    (_with_check(samples=1000.5), "samples must be an integer"),
    (lambda d: d.update(curves=5), "curves must be a list"),
    (lambda d: d.update(overlays=None), "overlays must be a list"),
    # JSON true is not the number 1.
    (lambda d: d.update(schema_version=True), "schema_version must be 1"),
    (lambda d: d.update(master_seed=True), "master_seed must be an integer, got True"),
    (lambda d: d["sweep"].update(max_trials=True), "sweep.max_trials must be an integer"),
    (lambda d: d["sweep"].update(rel_se_target=True),
     "sweep.rel_se_target must be a number"),
    (lambda d: d.update(snr_grid_db=[10.0, True]),
     "snr_grid_db: snr grid entry must be a number, got True"),
    (lambda d: d["curves"][0].update(fit_window_db=[True, 25.0]),
     "fit_window_db entry must be a number"),
    (_with_check(epsilons=[True, 0.1]), "epsilon must be a number, got True"),
    (_with_check(samples=True), "samples must be an integer, got True"),
    (lambda d: d["overlays"][0].update(n=True),
     "overlays[0]: n must be an integer, got True"),
    (lambda d: d["overlays"][0].update(scale=True), "overlays[0]: scale must be a number"),
    # An overlay label has the curve label's type.
    (lambda d: d["overlays"][0].update(label="a\nb"),
     "overlays[0]: label must be a non-empty string with no comma or line "
     "break, got 'a\\nb'"),
    (lambda d: d["overlays"][1].update(label="a,b"),
     "overlays[1]: label must be a non-empty string with no comma"),
    (lambda d: d["overlays"][0].update(label=""),
     "overlays[0]: label must be a non-empty string"),
    (lambda d: d["overlays"][1].update(label=5),
     "overlays[1]: label must be a non-empty string"),
    (_with_check(samples=cli.MAX_DIMENSION_SAMPLES + 1),
     f"dimension_checks[0]: samples must be at most {cli.MAX_DIMENSION_SAMPLES}"),
    # Sweep settings are checked once for the config, curves or not.
    (lambda d: d["sweep"].update(min_trials=0), "sweep: min_trials must be positive"),
    (lambda d: (_with_check()(d), d.update(
        curves=[], overlays=[],
        sweep={"min_trials": -5, "max_trials": -10, "rel_se_target": 7.0})),
     "sweep: min_trials must be positive"),
    (lambda d: d["curves"].extend(
        [dict(d["curves"][0], label="a b"), dict(d["curves"][0], label="a_b")]),
     "labels collide after filename sanitizing"),
    (lambda d: d.pop("snr_grid_db"), "curves[0]: no snr grid given and no default set"),
    (lambda d: d["curves"][0].update(fit_window_db=[10.0, 20.0, 25.0]),
     "curves[0]: fit_window_db must be [lo, hi]"),
    (lambda d: (_with_check()(d), d.update(curves=[])),
     "overlays need at least one curve to plot against"),
])
def test_parse_config_rejections(mutate, fragment):
    data = _tiny_config()
    mutate(data)
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert fragment in str(err.value)


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x85", "\u2028"])
@pytest.mark.parametrize("where", ["curve", "check", "overlay"])
def test_a_label_with_a_line_break_exits_2_and_writes_nothing(
        tmp_path, capsys, where, brk):
    # str.splitlines, and so csv.reader and a summary reader, break on each.
    label = f"a{brk}b"
    data = _tiny_config()
    if where == "curve":
        data["curves"][0]["label"] = label
    elif where == "check":
        _with_check(label=label)(data)
    else:
        data["overlays"][0]["label"] = label
    cfg = tmp_path / "labels.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert ("label must be a non-empty string with no comma or line break, "
            f"got {label!r}\n") in err
    assert not out.exists()


def test_sweep_defaults_are_the_sweep_plan_defaults():
    data = _tiny_config()
    del data["sweep"], data["master_seed"]
    exp = parse_config(data)
    plan = harness.SweepPlan(codec=exp.curves[0].spec, snr_grid_db=(0.0,))
    assert ((exp.min_trials, exp.max_trials, exp.rel_se_target, exp.master_seed)
            == (plan.min_trials, plan.max_trials, plan.rel_se_target,
                plan.master_seed))


def test_integral_floats_count_as_integers():
    data = _tiny_config()
    data["master_seed"] = 3.0
    data["sweep"].update(min_trials=4096.0, max_trials=1e5)
    exp = parse_config(data)
    assert (exp.master_seed, exp.min_trials, exp.max_trials) == (3, 4096, 100_000)
    assert all(type(v) is int for v in (exp.master_seed, exp.min_trials,
                                        exp.max_trials))
    # The codec and overlay integer fields follow the same rule.
    data["curves"][0]["codec"] = {"scheme": "shift_map", "n": 2.0, "a": 3.0}
    data["overlays"].append({"kind": "hda_lower", "n": 2.0, "m": 1.0,
                             "anchor": "rep"})
    exp = parse_config(data)
    assert exp.curves[0].spec == base.CodecSpec("shift_map", n=2, a=3)
    assert (exp.overlays[-1].spec.n, exp.overlays[-1].spec.m) == (2, 1)
    assert exp.overlays[-1].label == "hda_lower n=2 m=1"


def test_codec_from_dict_inner_and_b():
    # A shift map has one multiplier a for every stage.
    with pytest.raises(ConfigError, match="^t: unknown codec field 'b'$"):
        cli._codec_from_dict({"scheme": "shift_map", "n": 3, "b": [2, 3]}, "t")
    # The wrapper builds its inner code from its own fields.
    with pytest.raises(ConfigError, match="^t: unknown codec field 'inner'$"):
        cli._codec_from_dict(
            {"scheme": "unbounded_wrap", "n": 2,
             "inner": {"scheme": "scheme2", "n": 2}}, "t")
    with pytest.raises(ConfigError):
        cli._codec_from_dict({"scheme": "repetition", "n": 2, "zap": 1}, "t")
    with pytest.raises(ConfigError):
        cli._codec_from_dict({"scheme": "mystery", "n": 2}, "t")


# ---------------------------------------------------------------------------
# csv round trip


def read_curve_csv(path: str):
    """Parse an emitted curve CSV back into (label, [SdrPoint]) pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines or lines[0] != cli.CSV_HEADER:
        raise ConfigError(f"{path}: missing curve CSV header")
    out = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 8:
            raise ConfigError(f"{path}: malformed row {ln!r}")
        point = SdrPoint(
            snr_db=float(parts[1]),
            sigma=float(parts[2]),
            trials=int(parts[3]),
            distortion=float(parts[4]),
            std_err=float(parts[5]),
            sdr_db=float(parts[6]),
            capped=parts[7] == "1",
        )
        out.append((parts[0], point))
    return out


def test_csv_round_trip_bit_exact(tmp_path):
    points = [
        SdrPoint(snr_db=17.5, sigma=10.0 ** (-17.5 / 20.0), trials=12288,
                 distortion=1.2345678901234567e-07,
                 std_err=3.3306690738754696e-09,
                 sdr_db=58.291234567890123, capped=False),
        SdrPoint(snr_db=200.0, sigma=1e-10, trials=4096,
                 distortion=7.006492321624085e-30,
                 std_err=0.0, sdr_db=math.inf, capped=True),
    ]
    path = tmp_path / "curve.csv"
    path.write_text(cli._curve_csv("probe", points))
    text = path.read_text()
    assert text.splitlines()[0] == cli.CSV_HEADER
    parsed = read_curve_csv(str(path))
    assert [lbl for lbl, _ in parsed] == ["probe", "probe"]
    assert [p for _, p in parsed] == points


def test_csv_empty_curve(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(cli._curve_csv("none", []))
    assert path.read_text() == cli.CSV_HEADER + "\n"
    assert read_curve_csv(str(path)) == []


def test_csv_reader_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ConfigError):
        read_curve_csv(str(path))


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_end_to_end(tmp_path, capsys):
    data = _tiny_config()
    rep = data["curves"][0]["codec"]
    data["curves"] += [{"label": "no window", "codec": rep},
                       {"label": "narrow", "codec": rep, "fit_window_db": [11.0, 14.0]}]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "experiment tiny" in text
    assert "slope[10..25 dB]" in text
    csv_path = out / "rep.csv"
    assert csv_path.exists()
    rows = read_curve_csv(str(csv_path))
    assert len(rows) == 4
    assert all(lbl == "rep" for lbl, _ in rows)
    svg = (out / "tiny.svg").read_text()
    assert svg.count('class="curve"') == 3
    assert svg.count('class="overlay"') == 2
    summary = (out / "tiny_summary.txt").read_text().splitlines()
    assert "curve no window: 4 points, 0 capped, no fit window" in summary
    assert "curve narrow: 4 points, 0 capped, fit window: too few points" in summary


def test_simulate_worker_count_invariance(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(_tiny_config()))
    out1, out2 = tmp_path / "w1", tmp_path / "w2"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--workers", "1"]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--workers", "3"]) == 0
    assert (out1 / "rep.csv").read_bytes() == (out2 / "rep.csv").read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_simulate_computes_no_batch_it_does_not_use(tmp_path, monkeypatch,
                                                    workers):
    # Curves of one dimension share each point's stream, and each batch of a
    # stream is drawn once, so a run makes, per stream, as many batches as
    # the member that needs the most.
    alone = _tiny_config()
    alone["snr_grid_db"] = [10.0, 15.0, 20.0]
    alone["sweep"] = {"min_trials": 12288, "max_trials": 40960,
                      "rel_se_target": 0.5}
    shared = dict(alone, overlays=[], curves=[
        {"label": "rep", "codec": {"scheme": "repetition", "n": 2}},
        {"label": "shift", "codec": {"scheme": "shift_map", "n": 2, "a": 4}},
        {"label": "rep3", "codec": {"scheme": "repetition", "n": 3}},
    ])
    shared["sweep"] = dict(alone["sweep"], rel_se_target=0.05)
    log = tmp_path / "batches.log"
    real = channel.batch_rng

    def counting(*key):
        # A file, not a list: forked pool workers inherit this patch, and
        # their calls must be counted too.
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{key}\n")
        return real(*key)

    monkeypatch.setattr(channel, "batch_rng", counting)
    for name, data, groups in (("alone", alone, [["rep"]]),
                               ("shared", shared, [["rep", "shift"], ["rep3"]])):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / name
        log.write_text("", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--workers", workers]) == 0
        calls = log.read_text(encoding="utf-8").splitlines()
        batches = {label: [p.trials // harness.BATCH_SIZE
                           for _, p in read_curve_csv(str(out / f"{label}.csv"))]
                   for group in groups for label in group}
        assert len(calls) == sum(max(batches[label][i] for label in group)
                                 for group in groups for i in range(3))
    # The members of the shared stream stop at different batches.
    assert batches["rep"] != batches["shift"]
    assert multiprocessing.active_children() == []


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records the process count asked
    for and runs each job as it is submitted, starting no process."""

    requested = []

    def __init__(self, max_workers, mp_context=None):
        self.requested.append(max_workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize("cpus", [None, 64])
def test_huge_worker_count_asks_for_no_more_processes_than_jobs_or_cpus(
        tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(_InlinePool, "requested", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    if cpus is not None:
        monkeypatch.setattr(harness, "_available_cpus", lambda: cpus)
    data = _tiny_config()
    data["snr_grid_db"] = [10.0, 15.0, 20.0]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(data))
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "huge"),
                     "--workers", "1000000"]) == 0
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "default")]) == 0
    bound = min(3, harness._available_cpus()) - 1
    assert all(n <= bound for n in _InlinePool.requested)
    # The huge count reaches the pool whenever the bound leaves room for
    # one; the default of 1 worker never does.
    assert len(_InlinePool.requested) == (1 if bound >= 1 else 0)
    assert ((tmp_path / "huge" / "rep.csv").read_bytes()
            == (tmp_path / "default" / "rep.csv").read_bytes())
    assert multiprocessing.active_children() == []


def _mixed_config():
    """Three curves whose jobs cover a pool: an auto-resolved shift map (a
    spec per point), a spherical code, and a repetition code whose points
    share one spec."""
    return {
        "schema_version": 1,
        "name": "mixed",
        "master_seed": 5,
        "sweep": {"min_trials": 4096, "max_trials": 8192,
                  "rel_se_target": 0.5},
        "curves": [
            {"label": "shift auto", "codec": {"scheme": "shift_map", "n": 3},
             "snr_grid_db": [20.0, 30.0, 40.0]},
            {"label": "sphere", "codec": {"scheme": "spherical", "n": 2,
                                          "a": 3},
             "snr_grid_db": [10.0, 20.0]},
            {"label": "rep", "codec": {"scheme": "repetition", "n": 2},
             "snr_grid_db": [5.0, 10.0, 15.0]},
        ],
    }


def test_pool_and_serial_runs_write_identical_csvs(tmp_path, monkeypatch):
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(_mixed_config()))
    csvs = {}
    for workers in ("1", "2"):
        # Build and measure every codec again, so the pool measures too.
        monkeypatch.setattr(harness, "_codec_cache", {})
        out = tmp_path / f"w{workers}"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--workers", workers]) == 0
        csvs[workers] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert sorted(csvs["1"]) == ["rep.csv", "shift_auto.csv", "sphere.csv"]
    assert csvs["1"] == csvs["2"]
    assert multiprocessing.active_children() == []


def test_pool_without_fork_writes_the_serial_csvs(tmp_path, monkeypatch):
    # A platform without fork: the pool starts its processes by spawn, and
    # they build and measure every codec they use again.
    all_methods = multiprocessing.get_all_start_methods
    default = multiprocessing.get_start_method(allow_none=True)
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(_mixed_config()))
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "w1")]) == 0
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: [m for m in all_methods() if m != "fork"])
    methods = []
    real_pool = concurrent.futures.ProcessPoolExecutor

    def pool(max_workers, mp_context=None):
        methods.append((mp_context or multiprocessing).get_start_method())
        return real_pool(max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(harness, "_available_cpus", lambda: 2)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "w2"), "--workers", "2"]) == 0
    finally:
        multiprocessing.set_start_method(default, force=True)
    # Both job lists, normalizations and stream groups, went to the pool.
    assert methods == ["spawn", "spawn"]
    csvs = [{p.name: p.read_bytes() for p in (tmp_path / run).glob("*.csv")}
            for run in ("w1", "w2")]
    assert sorted(csvs[0]) == ["rep.csv", "shift_auto.csv", "sphere.csv"]
    assert csvs[0] == csvs[1]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failing,label", [
    ({"spherical"}, "sphere"),
    ({"shift_map"}, "shift auto"),
    ({"repetition"}, "rep"),
    ({"shift_map", "repetition"}, "shift auto"),
], ids=["sphere", "shift", "rep", "shift-and-rep"])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_normalization_failure_exits_2_naming_the_first_curve_that_fails(
        tmp_path, monkeypatch, capsys, workers, failing, label):
    monkeypatch.setattr(harness, "_codec_cache", {})
    real = base.measure_normalization

    def measure(codec):
        if codec.spec.scheme in failing:
            raise ValueError("no spread")
        return real(codec)

    monkeypatch.setattr(base, "measure_normalization", measure)
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(_mixed_config()))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 2
    assert capsys.readouterr().err == f"config error: curve {label!r}: no spread\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_each_resolved_spec_is_normalized_once_per_process(
        tmp_path, monkeypatch, workers):
    monkeypatch.setattr(harness, "_codec_cache", {})
    log = tmp_path / "measured.log"
    real = base.measure_normalization

    def measure(codec):
        # A file, not a list, so that pool workers' measurements count too.
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{codec.spec.describe()}\n")
        return real(codec)

    monkeypatch.setattr(base, "measure_normalization", measure)
    data = _mixed_config()
    distinct = {resolve_for_sigma(job.spec, channel.sigma_from_snr_db(snr))
                for job in parse_config(data).curves for snr in job.grid}
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(data))
    # The second run in this process finds every record on its codecs.
    for run, want in (("first", sorted(s.describe() for s in distinct)),
                      ("again", [])):
        log.write_text("", encoding="utf-8")
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / run),
                         "--workers", workers]) == 0
        assert sorted(log.read_text(encoding="utf-8").splitlines()) == want
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_curves_bytes_do_not_depend_on_the_curves_beside_it(tmp_path, workers):
    # Both companions read rep's streams: they share its dimension and
    # source kind, and their point indices overlap its own, at other noise
    # levels.
    data = _mixed_config()
    data["curves"] += [
        {"label": "layered", "codec": {"scheme": "scheme2", "n": 2},
         "snr_grid_db": [20.0, 30.0, 40.0, 50.0]},
        {"label": "rep short", "codec": {"scheme": "repetition", "n": 2},
         "snr_grid_db": [12.0, 18.0]},
    ]
    cfg = tmp_path / "all.json"
    cfg.write_text(json.dumps(data))
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "all"), "--workers", workers]) == 0
    for curve in data["curves"]:
        name = cli._safe_name(curve["label"]) + ".csv"
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(dict(data, curves=[curve])))
        out = tmp_path / f"alone-{name}"
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--workers", workers]) == 0
        assert (out / name).read_bytes() == (tmp_path / "all" / name).read_bytes()
    assert multiprocessing.active_children() == []


def test_a_failing_point_job_stops_the_pool(tmp_path, monkeypatch):
    real = harness.estimate_point

    def estimate(members):
        if any(codec.spec.scheme == "spherical" for codec, _, _ in members):
            raise RuntimeError("decoder fault")
        return real(members)

    monkeypatch.setattr(harness, "estimate_point", estimate)
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(_mixed_config()))
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="decoder fault"):
        cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                  "--workers", "2"])
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_simulate_seed_override_changes_output(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(_tiny_config()))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--seed", "11"]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--seed", "12"]) == 0
    assert (out1 / "rep.csv").read_bytes() != (out2 / "rep.csv").read_bytes()


def test_simulate_dimension_checks(tmp_path, capsys):
    data = {
        "schema_version": 1,
        "name": "dims",
        "dimension_checks": [
            {"label": "fold image",
             "codec": {"scheme": "shift_map", "n": 2, "a": 3},
             "epsilons": [2.0 ** -e for e in range(4, 9)],
             "samples": 40_000},
        ],
    }
    cfg = tmp_path / "dims.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
    assert "dimension fold image: fitted 1.0" in capsys.readouterr().out
    rows = (out / "fold_image.csv").read_text().splitlines()
    assert rows[0] == "epsilon,count"
    assert len(rows) == 6
    # dimension-only runs draw no chart
    assert not (out / "dims.svg").exists()


def test_exit_codes(tmp_path, capsys):
    unmade = tmp_path / "unmade"
    missing = tmp_path / "missing.json"
    assert cli.main(["simulate", "--config", str(missing),
                     "--out", str(unmade)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.main(["simulate", "--config", str(bad),
                     "--out", str(unmade)]) == 2
    cap = dict(_tiny_config())
    cap["curves"] = [{"label": "deep",
                      "codec": {"scheme": "type2", "n": 4},
                      "snr_grid_db": [90.0]}]
    cap["overlays"] = []
    cap_path = tmp_path / "cap.json"
    cap_path.write_text(json.dumps(cap))
    assert cli.main(["simulate", "--config", str(cap_path),
                     "--out", str(unmade)]) == 3
    assert not unmade.exists()
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_tiny_config()))
    assert cli.main(["simulate", "--config", str(good),
                     "--out", "/dev/null/nested"]) == 4
    assert cli.main(["simulate", "--config", str(good), "--seed", "-1",
                     "--out", str(unmade)]) == 2
    assert not unmade.exists()
    high = _tiny_config()  # the anchored overlay's curve underflows to 0 here
    high["snr_grid_db"] = [3000.0, 3010.0, 3020.0, 3030.0]
    high["sweep"] = {"min_trials": 4096, "max_trials": 4096}
    high["overlays"] = [{"kind": "shiftmap_upper", "n": 2, "anchor": "rep"}]
    degenerate = _tiny_config()  # every digit weight underflows to 0
    degenerate["curves"][0]["codec"] = {"scheme": "scheme1", "n": 2,
                                        "alpha": math.inf}
    underflow = _tiny_config()  # digit weights past the first underflow to 0
    underflow["curves"][0]["codec"] = {"scheme": "scheme1", "n": 2, "alpha": 1e300}
    nan_scale = _tiny_config()
    nan_scale["overlays"][0]["scale"] = math.nan
    for bad_value in ({"sweep": {"min_trials": "abc"}}, {"master_seed": -1},
                      {"snr_grid_db": [math.nan]},
                      {"sweep": {"min_trials": 4096.9}},
                      {"curves": [{"label": "half",
                                   "codec": {"scheme": "shift_map", "n": 2.5,
                                             "a": 3}}]},
                      high, degenerate, underflow, nan_scale):
        data = _tiny_config()
        data.update(bad_value)
        bad_path = tmp_path / "bad_value.json"
        bad_path.write_text(json.dumps(data))
        assert cli.main(["simulate", "--config", str(bad_path),
                         "--out", str(unmade)]) == 2
    assert not unmade.exists()
    for with_curve in (False, True):
        wide = _tiny_config()
        if not with_curve:
            wide["curves"], wide["overlays"] = [], []
        wide["dimension_checks"] = [{"label": "wide",
                                     "codec": {"scheme": "unbounded_wrap", "n": 2},
                                     "epsilons": [0.1, 1e-300], "samples": 100}]
        wide_path = tmp_path / "wide.json"
        wide_path.write_text(json.dumps(wide))
        wide_out = tmp_path / f"wide{int(with_curve)}"
        assert cli.main(["simulate", "--config", str(wide_path),
                         "--out", str(wide_out)]) == 2
        assert not wide_out.exists()
    codec = '{"scheme": "repetition", "n": 2}'
    out = str(tmp_path / "x.csv")
    assert cli.main(["dimension", "--codec", codec, "--epsilons", "a,b",
                     "--out", out]) == 2
    assert cli.main(["dimension", "--codec", codec, "--seed", "-1",
                     "--out", out]) == 2
    assert cli.main(["stretch", "--codec", codec, "--deltas", "a",
                     "--out", out]) == 2
    assert cli.main(["stretch", "--codec", codec, "--seed", "-1",
                     "--out", out]) == 2
    # A reference curve whose factors leave the float range has no value.
    capsys.readouterr()
    for args, sigma in ((["--kind", "shiftmap_upper", "--n", "1000"], 1e-4),
                        (["--kind", "scheme2_upper", "--n", "2", "--rate", "100",
                          "--sigma-lo", "1e-300", "--points", "3"], 1e-300)):
        assert cli.main(["bounds", *args, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert f"has no float value at sigma={sigma!r}" in err
    # NaN fails every range check of the perturbations, so LAPACK never sees it.
    capsys.readouterr()
    assert cli.main(["stretch", "--codec", '{"scheme":"shift_map","n":2,"a":3}',
                     "--deltas", "0.01,nan", "--out", out]) == 2
    assert capsys.readouterr().err == (
        "config error: perturbations must lie in (0, 1e-2]\n")
    for codec in ('{"scheme":"shift_map","n":2.5,"a":3}',
                  '{"scheme":"type1","n":2,"k":2.5}',
                  '{"scheme":"scheme1","n":"2","alpha":3}',
                  '{"scheme":"scheme1","n":2,"alpha":1e300}'):
        assert cli.main(["dimension", "--codec", codec, "--out", out]) == 2
        assert cli.main(["stretch", "--codec", codec, "--out", out]) == 2
    assert not os.path.exists(out)
    with pytest.raises(SystemExit) as err:
        cli.main(["confabulate"])
    assert err.value.code == 2


def test_a_wrapper_naming_an_inner_code_exits_2(tmp_path, capsys):
    data = dict(_tiny_config(), overlays=[])
    data["curves"][0]["codec"] = {
        "scheme": "unbounded_wrap", "n": 2,
        "inner": {"scheme": "scheme2", "n": 2, "p": 40,
                  "grouping_variant": "shifted"}}
    cfg = tmp_path / "inner.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: curves[0].codec: unknown codec field 'inner'\n")
    assert not out.exists()


# The fields each scheme never reads, each with a value other than its
# default, and the fields the scheme needs to build.  b, once the shift
# map's per-stage multipliers, is a field of no codec.
_UNREAD = {
    "repetition": ("a", "b", "alpha", "k", "p", "grouping_variant"),
    "shift_map": ("b", "alpha", "k", "p", "grouping_variant"),
    "spherical": ("b", "alpha", "k", "p", "grouping_variant"),
    "scheme1": ("a", "b", "k", "grouping_variant"),
    "scheme2": ("a", "b", "alpha", "k"),
    "type1": ("a", "b", "alpha", "grouping_variant"),
    "type2": ("a", "b", "alpha"),
    "unbounded_wrap": ("a", "b", "alpha", "k"),
}
_UNREAD_VALUE = {"a": 3, "b": [3], "alpha": 3.0, "k": 2, "p": 40,
                 "grouping_variant": "shifted"}
_NEEDS = {"spherical": {"a": 3}, "scheme1": {"alpha": 3.0}}


@pytest.mark.parametrize("scheme, field", [
    (scheme, field) for scheme, unread in _UNREAD.items() for field in unread])
def test_a_field_the_scheme_never_reads_exits_2(scheme, field, tmp_path, capsys):
    codec = dict({"scheme": scheme, "n": 2}, **_NEEDS.get(scheme, {}))
    cli._codec_from_dict(codec, "t")
    codec[field] = _UNREAD_VALUE[field]
    out = tmp_path / "dim.csv"
    assert cli.main(["dimension", "--codec", json.dumps(codec), "--out", str(out)]) == 2
    refusal = ("unknown codec field 'b'" if field == "b"
               else f"{scheme} does not read {field}")
    assert capsys.readouterr() == ("", f"config error: --codec: {refusal}\n")
    assert not out.exists()


# The shape fields each bound kind never reads, each with a value a kind
# that reads it accepts, and the fields each kind needs.
_BOUND_UNREAD = {
    "opta_slb": ("alpha", "m", "rate"),
    "shiftmap_upper": ("alpha", "m", "rate"),
    "shiftmap_lower": ("alpha", "m", "rate"),
    "scheme1_upper": ("m", "rate"),
    "scheme2_upper": ("alpha", "m"),
    "hda_lower": ("alpha", "rate"),
    "type1_upper": ("alpha", "m", "rate"),
    "type2_upper": ("alpha", "m"),
}
_BOUND_UNREAD_VALUE = {"alpha": 3.0, "m": 1, "rate": 2.0}
_BOUND_NEEDS = {"scheme1_upper": {"alpha": 4.0}, "hda_lower": {"m": 1}}


@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind, unread in _BOUND_UNREAD.items() for field in unread])
def test_a_field_the_bound_kind_never_reads_exits_2(kind, field, tmp_path, capsys):
    shape = dict(_BOUND_NEEDS.get(kind, {}))
    analysis.BoundSpec(kind, 2, **shape)
    shape[field] = _BOUND_UNREAD_VALUE[field]
    out = tmp_path / "b.csv"
    flags = [arg for name, value in shape.items() for arg in (f"--{name}", str(value))]
    assert cli.main(["bounds", "--kind", kind, "--n", "2", *flags,
                     "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"config error: {kind} does not read {field}\n")
    assert not out.exists()
    overlay = dict({"kind": kind, "n": 2}, **shape)
    if kind != "opta_slb":
        overlay["anchor"] = "rep"
    cfg = tmp_path / "overlay.json"
    cfg.write_text(json.dumps(dict(_tiny_config(), overlays=[overlay])))
    run = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(run)]) == 2
    assert capsys.readouterr() == (
        "", f"config error: overlays[0]: {kind} does not read {field}\n")
    assert not run.exists()


def test_a_type_family_runs_at_0_db_and_below(tmp_path):
    data = dict(_tiny_config(), overlays=[], snr_grid_db=[-5.0, 0.0, 5.0],
                curves=[{"label": "t1", "codec": {"scheme": "type1", "n": 2}}])
    cfg = tmp_path / "loud.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "t1.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == [-5.0, 0.0, 5.0]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_constellation_with_no_spread_exits_2(tmp_path, monkeypatch, capsys,
                                                 workers):
    monkeypatch.setattr(harness, "_codec_cache", {})
    # At p=1 the one digit weight is 1/alpha = 1e-200, whose square is 0.
    data = dict(_tiny_config(), overlays=[], curves=[
        {"label": "rep", "codec": {"scheme": "repetition", "n": 2}},
        {"label": "huge base",
         "codec": {"scheme": "scheme1", "n": 2, "alpha": 1e200, "p": 1}}])
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--workers", workers]) == 2
    assert capsys.readouterr().err == (
        "config error: curve 'huge base': constellation has no spread; "
        "nothing to normalize\n")
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_overflowing_noise_level_exits_2_naming_the_curve(tmp_path, capsys):
    data = _tiny_config()
    data["snr_grid_db"] = [-10000.0]  # sigma = 10**500
    cfg = tmp_path / "loud.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: curve 'rep': ")
    assert not out.exists()


def test_cap_breach_in_a_later_curve_fails_before_any_sweep(tmp_path):
    data = _tiny_config()
    data["curves"].append({"label": "deep",
                           "codec": {"scheme": "type1", "n": 2},
                           "snr_grid_db": [10.0, 20.0, 160.0]})
    data["overlays"] = []
    cfg = tmp_path / "late.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize("codec,code", [
    ({"scheme": "shift_map", "n": 2}, 2),  # a family: no noise level to resolve it
    ({"scheme": "shift_map", "n": 3, "a": 2000}, 3),  # 4e6 segments, over the cap
])
def test_bad_dimension_check_fails_before_any_csv(tmp_path, codec, code):
    data = _tiny_config()
    data["dimension_checks"] = [{"label": "dim", "codec": codec,
                                 "epsilons": [0.1, 0.01], "samples": 1000}]
    cfg = tmp_path / "check.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == code
    assert not out.exists()


@pytest.mark.parametrize("codec,snr,code,message", [
    # Each count below wraps in int64: negative, past the cap, and 2**64 = 0.
    ({"scheme": "shift_map", "n": 3}, 227.0, 3,
     "capacity error: 9988199793754836889 segments exceed the cap"),
    ({"scheme": "shift_map", "n": 3}, 230.0, 3,
     "capacity error: 19669134135824939536 segments exceed the cap"),
    ({"scheme": "shift_map", "n": 3, "a": 4294967296}, 30.0, 3,
     "capacity error: 18446744073709551616 segments exceed the cap"),
    # Past the int64 range, and past the float64 range.
    ({"scheme": "shift_map", "n": 2}, 500.0, 3,
     "capacity error: 116497650446164010467328 segments exceed the cap"),
    ({"scheme": "shift_map", "n": 2}, 6400.0, 3,
     "capacity error: noise level 1e-320 asks for a stretch multiplier"),
    # sigma rounds to 0.0, for a family and for a concrete code.
    ({"scheme": "shift_map", "n": 2}, 7000.0, 2,
     "config error: curve 'c': snr 7000.0 dB rounds the noise level to zero"),
    ({"scheme": "repetition", "n": 2}, 7000.0, 2,
     "config error: curve 'c': snr 7000.0 dB rounds the noise level to zero"),
    ({"scheme": "repetition", "n": 2}, 100_000.0, 2,
     "config error: curve 'c': snr 100000.0 dB rounds the noise level to zero"),
    # One inner decode per integer offset: 5.9e20 offsets per row.
    ({"scheme": "unbounded_wrap", "n": 2}, -400.0, 3,
     "capacity error: decode noise level 7.42385e+19 puts up to 5.93908e+20 "
     "integer offsets in a row's window, past the cap 1024\n"),
    # A spherical search grid of 32 * a**(n - 1) points, one a past the cap.
    ({"scheme": "spherical", "n": 2, "a": 32769}, 30.0, 3,
     "capacity error: search grid 1048608 exceeds the cap 1048576\n"),
])
def test_extreme_stretches_and_noise_levels_fail_before_any_sweep(
        tmp_path, monkeypatch, capsys, codec, snr, code, message):
    def no_batch(*key):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(channel, "batch_rng", no_batch)
    data = dict(_tiny_config(), overlays=[], snr_grid_db=[snr],
                curves=[{"label": "c", "codec": codec}])
    cfg = tmp_path / "extreme.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_overlays_stop_where_sigma_underflows(tmp_path):
    data = _tiny_config()
    # sigma is subnormal at the top point, past where the overlays stop
    data["snr_grid_db"] = [10.0, 6400.0]
    data["curves"][0]["fit_window_db"] = None
    data["overlays"] = [{"kind": "opta_slb", "n": 2}]
    cfg = tmp_path / "top.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(out)]) == 0
    assert (out / "tiny.svg").read_text().count('class="overlay"') == 1


# ---------------------------------------------------------------------------
# bounds / dimension / stretch commands


def test_bounds_command_matches_module(tmp_path):
    out = tmp_path / "b.csv"
    assert cli.main(["bounds", "--kind", "shiftmap_upper", "--n", "2",
                     "--sigma-lo", "1e-4", "--sigma-hi", "0.5",
                     "--points", "7", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "kind,sigma,distortion"
    assert len(rows) == 8
    spec = analysis.BoundSpec(kind="shiftmap_upper", n=2)
    for row in rows[1:]:
        kind, sig, val = row.split(",")
        assert kind == "shiftmap_upper"
        assert float(val) == analysis.bound_eval(spec, float(sig))
    assert cli.main(["bounds", "--kind", "scheme1_upper", "--n", "2",
                     "--out", str(out)]) == 2  # alpha missing
    assert cli.main(["bounds", "--kind", "opta_slb", "--n", "2",
                     "--sigma-lo", "0.5", "--sigma-hi", "0.9",
                     "--out", str(out)]) == 2
    assert cli.main(["bounds", "--kind", "opta_slb", "--n", "2",
                     "--out", "/dev/null/x.csv"]) == 4
    for points in ("0", "-1"):
        assert cli.main(["bounds", "--kind", "opta_slb", "--n", "2",
                         "--points", points, "--out", str(out)]) == 2


def test_bounds_points_cap_exits_2_before_allocating(tmp_path, monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("a sigma grid was made past the points cap")

    monkeypatch.setattr(np, "geomspace", no_grid)
    out = tmp_path / "b.csv"
    for over in (cli.MAX_BOUND_POINTS + 1, 10 ** 12):
        assert cli.main(["bounds", "--kind", "opta_slb", "--n", "2",
                         "--points", str(over), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: --points must be at most "
            f"{cli.MAX_BOUND_POINTS}, got {over}\n")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--kind", "opta_slb", "--scale", "nan"],
    ["--kind", "opta_slb", "--scale", "inf"],
    ["--kind", "scheme2_upper", "--rate", "nan"],
    ["--kind", "type2_upper", "--rate", "inf"],
    ["--kind", "scheme1_upper", "--alpha", "nan"],
    ["--kind", "scheme1_upper", "--alpha", "inf"],
])
def test_bounds_rejects_non_finite_parameters(tmp_path, args):
    out = tmp_path / "b.csv"
    assert cli.main(["bounds", *args, "--n", "2", "--points", "3",
                     "--out", str(out)]) == 2
    assert not out.exists()


def test_dimension_command(tmp_path, capsys):
    out = tmp_path / "d.csv"
    eps = ",".join(repr(2.0 ** -e) for e in range(4, 9))
    assert cli.main(["dimension", "--codec",
                     '{"scheme": "shift_map", "n": 2, "a": 3}',
                     "--epsilons", eps, "--samples", "40000",
                     "--out", str(out)]) == 0
    assert "fitted_dimension 1.0" in capsys.readouterr().out
    assert out.read_text().splitlines()[0] == "epsilon,count"
    assert cli.main(["dimension", "--codec", "{bad", "--out", str(out)]) == 2
    assert cli.main(["dimension", "--codec", '{"scheme": "type1", "n": 2}',
                     "--out", str(out)]) == 2  # family needs a resolved k


def test_dimension_over_the_dims_cap_exits_3_before_building(tmp_path, monkeypatch,
                                                             capsys):
    def no_codec(spec):
        raise AssertionError("a codec was built past the dims cap")

    monkeypatch.setattr(harness, "build_codec", no_codec)
    out = tmp_path / "d.csv"
    for n in (base.DIMS_CAP + 1, 10 ** 8):
        assert cli.main(["dimension", "--codec",
                         json.dumps({"scheme": "repetition", "n": n}),
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"capacity error: {n} channel dimensions exceed the cap "
            f"{base.DIMS_CAP}\n")
    assert not out.exists()


def test_dimension_samples_cap_exits_2_before_drawing(tmp_path, monkeypatch):
    def no_sampler(codec):
        raise AssertionError("a sampler was built past the samples cap")

    monkeypatch.setattr(analysis, "constellation_sampler", no_sampler)
    out = tmp_path / "d.csv"
    for over in (cli.MAX_DIMENSION_SAMPLES + 1, 10 ** 10):
        assert cli.main(["dimension", "--codec", '{"scheme": "repetition", "n": 2}',
                         "--samples", str(over), "--out", str(out)]) == 2
        data = _tiny_config()
        _with_check(samples=over)(data)
        cfg = tmp_path / "over.json"
        cfg.write_text(json.dumps(data))
        assert cli.main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "run")]) == 2
    assert not out.exists() and not (tmp_path / "run").exists()
    # The presets' 250 000 samples stay legal.
    checks = parse_config(cli.PRESETS["dimension-check"]()).dimension_checks
    assert max(c.samples for c in checks) <= cli.MAX_DIMENSION_SAMPLES


def test_stretch_samples_cap_exits_2_before_drawing(tmp_path, monkeypatch, capsys):
    def no_profile(*args, **kwargs):
        raise AssertionError("a stretch profile ran past the samples cap")

    monkeypatch.setattr(analysis, "stretch_profile", no_profile)
    out = tmp_path / "s.csv"
    for over in (cli.MAX_DIMENSION_SAMPLES + 1, 10 ** 10):
        assert cli.main(["stretch", "--codec", '{"scheme": "repetition", "n": 2}',
                         "--samples", str(over), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: --samples must be at most "
            f"{cli.MAX_DIMENSION_SAMPLES}, got {over}\n")
    assert not out.exists()


def test_stretch_command(tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert cli.main(["stretch", "--codec",
                     '{"scheme": "repetition", "n": 2}',
                     "--out", str(out)]) == 0
    assert "gamma 2.0" in capsys.readouterr().out
    rows = out.read_text().splitlines()
    assert rows[0] == "delta,mean_square"
    d0, m0 = rows[1].split(",")
    assert float(d0) == 0.01
    assert float(m0) == pytest.approx(2.0 * 1e-4, rel=1e-9)
    assert cli.main(["stretch", "--codec",
                     '{"scheme": "repetition", "n": 2}',
                     "--samples", "50", "--out", str(out)]) == 2


# ---------------------------------------------------------------------------
# the process entry point

ROOT = Path(__file__).resolve().parents[1]
MODULE_ENTRY = ("-m", "jscc")


def _script_entry() -> tuple:
    """What the installed `jscc` script runs: pyproject's [project.scripts]
    entry, called as the script pip writes calls it."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^jscc = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    return ("-c", f"import sys; from {module} import {func}; sys.exit({func}())")


def _jscc(args, cwd, entry=MODULE_ENTRY, unbuffered=False, **kwargs):
    """One jscc process; stdout is a pipe unless given, and block-buffered
    unless unbuffered, whatever this process's environment says."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *entry, *args], cwd=cwd, env=env,
                          stderr=subprocess.PIPE, text=True, timeout=120, **kwargs)


@pytest.mark.parametrize("entry", [MODULE_ENTRY, _script_entry()],
                         ids=["python -m jscc", "jscc script"])
def test_the_entry_point_prints_the_summary_it_wrote(tmp_path, entry):
    run = _jscc(["simulate", "--preset", "bounds-gallery", "--out", "out"], tmp_path, entry)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (tmp_path / "out" / "bounds-gallery_summary.txt").read_text()


REFUSALS = pytest.mark.parametrize("args, code, prefix", [
    (["simulate", "--preset", "bounds-gallery", "--seed", "-1", "--out", "out"], 2,
     "config error: "),
    (["dimension", "--codec", json.dumps({"scheme": "repetition", "n": base.DIMS_CAP + 1}),
      "--out", "d.csv"], 3, "capacity error: "),
    (["simulate", "--preset", "bounds-gallery", "--out", "file/out"], 4, "i/o error: "),
], ids=["exit 2", "exit 3", "exit 4"])


@REFUSALS
def test_the_entry_point_refuses_with_one_stderr_line(tmp_path, args, code, prefix):
    (tmp_path / "file").write_text("")
    run = _jscc(args, tmp_path)
    assert (run.returncode, run.stdout) == (code, "")
    assert run.stderr.startswith(prefix) and run.stderr.count("\n") == 1
    assert run.stderr.endswith("\n")
    assert not (tmp_path / "out").exists() and not (tmp_path / "d.csv").exists()


def test_usage_errors_and_help_keep_argparse_exits(tmp_path):
    run = _jscc(["confabulate"], tmp_path)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("usage: jscc") and "invalid choice" in run.stderr
    run = _jscc(["--help"], tmp_path)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.startswith("usage: jscc")


def _stdout_error(code: int) -> str:
    return f"i/o error: [Errno {code}] {os.strerror(code)}: '<stdout>'\n"


@pytest.mark.parametrize("args, wrote", [
    (["simulate", "--preset", "bounds-gallery", "--out", "out"],
     "out/bounds-gallery_summary.txt"),
    (["bounds", "--kind", "opta_slb", "--n", "2", "--out", "b.csv"], "b.csv"),
    (["dimension", "--codec", '{"scheme":"repetition","n":2}', "--samples", "1000",
      "--out", "d.csv"], "d.csv"),
    (["stretch", "--codec", '{"scheme":"repetition","n":2}', "--out", "s.csv"], "s.csv"),
], ids=["simulate", "bounds", "dimension", "stretch"])
def test_a_closed_stdout_exits_4_with_one_stderr_line(tmp_path, args, wrote):
    run = _jscc(args, tmp_path, stdout=None, preexec_fn=functools.partial(os.close, 1))
    assert run.stderr == _stdout_error(errno.EBADF)
    assert run.returncode == 4
    assert (tmp_path / wrote).exists()


@REFUSALS
def test_a_closed_stderr_keeps_the_refusal_exit_code(tmp_path, args, code, prefix):
    (tmp_path / "file").write_text("")
    run = _jscc(args, tmp_path, preexec_fn=functools.partial(os.close, 2))
    assert (run.returncode, run.stdout, run.stderr) == (code, "", "")
    assert not (tmp_path / "out").exists() and not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_broken_pipe_on_stdout_exits_4_with_one_stderr_line(tmp_path, unbuffered):
    read, write = os.pipe()
    os.close(read)
    try:
        run = _jscc(["simulate", "--preset", "bounds-gallery", "--out", "out"], tmp_path,
                    unbuffered=unbuffered, stdout=write)
    finally:
        os.close(write)
    assert run.stderr == _stdout_error(errno.EPIPE)
    assert run.returncode == 4
