"""Experiment runner: SNR sweeps, reference curves, geometry diagnostics.

Subcommands:
  simulate   run sweep curves from a JSON config or a named preset,
             writing one CSV per curve plus a combined SVG and a summary
  bounds     tabulate one reference curve over a sigma grid
  dimension  box-counting dimension of a codec's constellation
  stretch    perturbation stretch profile of a codec

`simulate` plans the curves (parses the config, builds every grid point's
codec), builds and box-counts each dimension check, runs the sweeps
(harness.sweep_curves, as jobs on up to --workers processes), renders every
output in memory, and only then creates the output directory and writes the
files, the summary last.  An exit 2 or 3 leaves no directory.

Exit codes: 0 success, 2 configuration problem, 3 capacity limit, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import analysis, channel, harness, numrep, svgplot
from .analysis import BOUND_KINDS, BoundSpec
from .codecs import CapacityError, CodecSpec
from .harness import SweepPlan

SCHEMA_VERSION = 1

CSV_HEADER = "label,snr_db,sigma,trials,distortion,std_err,sdr_db,capped"

# Box sizes of a dimension check that names none.
DEFAULT_EPSILONS = tuple(2.0 ** -e for e in range(4, 13))

# Samples per set of a dimension check that names none.
DEFAULT_DIMENSION_SAMPLES = 200_000

# Most samples per set of a dimension check, eight times the presets'
# 250 000, and per stretch profile.  Box counting holds two sets of
# (d, samples) points and their keys, about 2 * samples * (d + 2) * 8 bytes
# (128 MB at d = 2, 320 MB at d = 8); a stretch profile holds the draws, their
# code and one perturbed code, about samples * (2 * d + 2) * 8 bytes.  Both
# come on top of the encoder's own temporaries.
MAX_DIMENSION_SAMPLES = 2_000_000

# Most rows of `jscc bounds`, hundreds of times a smooth plot's need.  The
# rows are rendered in memory before the file is written, which peaks at
# about 250 bytes per row (25 MB at the cap).
MAX_BOUND_POINTS = 100_000

_CODEC_FIELDS = tuple(f.name for f in dataclasses.fields(CodecSpec))
_BOUND_FIELDS = tuple(f.name for f in dataclasses.fields(BoundSpec))
_SWEEP_DEFAULTS = {f.name: f.default for f in dataclasses.fields(SweepPlan)}

# SNR outside these puts sigma outside the reference curves' domain: above
# SIGMA_MAX, or so small it underflows to 0.
_OVERLAY_SNR_FLOOR = channel.snr_db_from_sigma(analysis.SIGMA_MAX) + 1e-6
_OVERLAY_SNR_CEIL = channel.snr_db_from_sigma(sys.float_info.min)


class ConfigError(Exception):
    """Invalid configuration input; maps to exit code 2."""


# ---------------------------------------------------------------------------
# configuration model

@dataclass(frozen=True)
class CurveJob:
    label: str
    spec: CodecSpec
    grid: tuple
    fit_window: tuple | None


@dataclass(frozen=True)
class OverlayJob:
    label: str
    spec: BoundSpec
    anchor: str | None


@dataclass(frozen=True)
class DimensionJob:
    label: str
    spec: CodecSpec
    epsilons: tuple
    samples: int


@dataclass(frozen=True)
class Experiment:
    name: str
    title: str
    master_seed: int
    min_trials: int
    max_trials: int
    rel_se_target: float
    curves: tuple
    overlays: tuple
    dimension_checks: tuple


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _number(value, kind, where: str):
    """kind(value) for kind int or float; a bad value, a bool, or a float
    with a fractional part where an int is wanted, is a ConfigError."""
    noun = "an integer" if kind is int else "a number"
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where} must be {noun}, got {value!r}") from exc


def _object(data, where: str, allowed, what: str) -> dict:
    """data, checked to be a JSON object whose keys all lie in allowed."""
    head = f"{where}: " if where else ""
    _require(isinstance(data, dict), f"{head}{what} must be an object")
    for key in data:
        _require(key in allowed, f"{head}unknown {what} field {key!r}")
    return data


def _check_seed(seed: int, where: str) -> int:
    _require(seed >= 0, f"{where} must be a non-negative integer, got {seed}")
    return seed


def _check_samples(samples: int, where: str) -> int:
    """A dimension check's or stretch profile's sample count, refused
    before anything is drawn."""
    _require(samples >= 1, f"{where} must be at least 1")
    _require(samples <= MAX_DIMENSION_SAMPLES,
             f"{where} must be at most {MAX_DIMENSION_SAMPLES}, got {samples}")
    return samples


def _codec_from_dict(data, where: str) -> CodecSpec:
    kwargs = dict(_object(data, where, _CODEC_FIELDS, "codec"))
    if "b" in kwargs and kwargs["b"] is not None:
        _require(isinstance(kwargs["b"], (list, tuple)),
                 f"{where}: b must be a list")
        kwargs["b"] = tuple(_number(v, int, f"{where}: b entry") for v in kwargs["b"])
    try:
        return CodecSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _overlay_from_dict(data, where: str) -> OverlayJob:
    _object(data, where, _BOUND_FIELDS + ("anchor", "label"), "overlay")
    kwargs = {k: v for k, v in data.items() if k in _BOUND_FIELDS}
    try:
        spec = BoundSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    anchor = data.get("anchor")
    _require(anchor is None or isinstance(anchor, str),
             f"{where}: anchor must be a string")
    if spec.kind == "opta_slb":
        _require(anchor is None,
                 f"{where}: opta_slb is an absolute reference; drop the anchor")
    else:
        _require(anchor is not None,
                 f"{where}: {spec.kind} carries an undetermined constant; "
                 f"set anchor to a curve label")
        _require("scale" not in data,
                 f"{where}: an anchored overlay fits its own scale; drop scale")
    label = data.get("label")
    label = spec.describe() if label is None else _check_label(label, where)
    return OverlayJob(label=label, spec=spec, anchor=anchor)


def _check_label(label, where: str) -> str:
    _require(isinstance(label, str) and label.strip() != "",
             f"{where}: label must be a non-empty string")
    _require("," not in label and "\n" not in label,
             f"{where}: label may not contain commas or newlines")
    return label


def _list(data: dict, key: str) -> list:
    value = data.get(key, [])
    _require(isinstance(value, (list, tuple)), f"{key} must be a list")
    return value


def _grid_from(data, where: str) -> tuple:
    _require(isinstance(data, (list, tuple)) and len(data) > 0,
             f"{where}: snr grid must be a non-empty list")
    grid = tuple(_number(v, float, f"{where}: snr grid entry") for v in data)
    _require(all(math.isfinite(v) for v in grid),
             f"{where}: snr grid entries must be finite")
    return grid


def parse_config(data) -> Experiment:
    _object(data, "", ("schema_version", "name", "title", "master_seed",
                       "snr_grid_db", "sweep", "curves", "overlays",
                       "dimension_checks"), "top-level")
    version = data.get("schema_version")
    _require(not isinstance(version, bool) and version == SCHEMA_VERSION,
             f"schema_version must be {SCHEMA_VERSION}")
    name = data.get("name", "experiment")
    _check_label(name, "name")

    sweep_cfg = {**_SWEEP_DEFAULTS,
                 **_object(data.get("sweep", {}), "",
                           ("min_trials", "max_trials", "rel_se_target"), "sweep")}
    min_trials = _number(sweep_cfg["min_trials"], int, "sweep.min_trials")
    max_trials = _number(sweep_cfg["max_trials"], int, "sweep.max_trials")
    rel_se = _number(sweep_cfg["rel_se_target"], float, "sweep.rel_se_target")
    try:
        harness.check_sweep_settings(min_trials, max_trials, rel_se)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    master_seed = _check_seed(
        _number(data.get("master_seed", _SWEEP_DEFAULTS["master_seed"]), int,
                "master_seed"), "master_seed")

    default_grid = (_grid_from(data["snr_grid_db"], "snr_grid_db")
                    if "snr_grid_db" in data else None)

    curves = []
    for i, entry in enumerate(_list(data, "curves")):
        where = f"curves[{i}]"
        _object(entry, where, ("label", "codec", "snr_grid_db", "fit_window_db"),
                "curve")
        label = _check_label(entry.get("label"), where)
        spec = _codec_from_dict(entry.get("codec"), where + ".codec")
        grid = (_grid_from(entry["snr_grid_db"], where + ".snr_grid_db")
                if "snr_grid_db" in entry else default_grid)
        _require(grid is not None, f"{where}: no snr grid given and no default set")
        window = None
        if entry.get("fit_window_db") is not None:
            w = entry["fit_window_db"]
            _require(isinstance(w, (list, tuple)) and len(w) == 2,
                     f"{where}: fit_window_db must be [lo, hi]")
            window = tuple(_number(v, float, f"{where}: fit_window_db entry") for v in w)
            _require(window[0] < window[1],
                     f"{where}: fit window must satisfy lo < hi")
        curves.append(CurveJob(label=label, spec=spec, grid=grid,
                               fit_window=window))

    overlays = tuple(_overlay_from_dict(entry, f"overlays[{i}]")
                     for i, entry in enumerate(_list(data, "overlays")))

    dims = []
    for i, entry in enumerate(_list(data, "dimension_checks")):
        where = f"dimension_checks[{i}]"
        _object(entry, where, ("label", "codec", "epsilons", "samples"),
                "dimension check")
        label = _check_label(entry.get("label"), where)
        spec = _codec_from_dict(entry.get("codec"), where + ".codec")
        eps = entry.get("epsilons")
        eps = DEFAULT_EPSILONS if eps is None else eps
        _require(isinstance(eps, (list, tuple)) and len(eps) >= 2,
                 f"{where}: epsilons must list at least two box sizes")
        eps = tuple(_number(e, float, f"{where}: epsilon") for e in eps)
        _require(eps[-1] > 0.0 and math.isfinite(eps[0])
                 and all(a > b for a, b in zip(eps, eps[1:])),
                 f"{where}: epsilons must be positive, finite and strictly decreasing")
        samples = _check_samples(
            _number(entry.get("samples", DEFAULT_DIMENSION_SAMPLES), int,
                    f"{where}: samples"),
            f"{where}: samples")
        dims.append(DimensionJob(label=label, spec=spec, epsilons=eps,
                                 samples=samples))

    _require(curves or dims, "config defines no curves and no dimension checks")
    _require(not (overlays and not curves),
             "overlays need at least one curve to plot against")

    labels = [c.label for c in curves] + [d.label for d in dims]
    _require(len(set(labels)) == len(labels), "labels must be unique")
    files = [_safe_name(v) for v in labels]
    _require(len(set(files)) == len(files),
             "labels collide after filename sanitizing")

    curve_ns = {c.spec.n for c in curves}
    curve_labels = {c.label for c in curves}
    for i, ov in enumerate(overlays):
        _require(ov.spec.n in curve_ns,
                 f"overlays[{i}]: no curve uses n={ov.spec.n}")
        if ov.anchor is not None:
            _require(ov.anchor in curve_labels,
                     f"overlays[{i}]: anchor {ov.anchor!r} names no curve")

    return Experiment(name=name, title=data.get("title", name),
                      master_seed=master_seed, min_trials=min_trials,
                      max_trials=max_trials, rel_se_target=rel_se,
                      curves=tuple(curves), overlays=overlays,
                      dimension_checks=tuple(dims))


# ---------------------------------------------------------------------------
# presets


def _span(lo: int, hi: int, step: int) -> list:
    return [float(v) for v in range(lo, hi + 1, step)]


def _preset_fig3():
    return {
        "schema_version": 1,
        "name": "fig3",
        "title": "bandwidth expansion n=4: fractal and folded codes",
        "master_seed": 24269,
        "snr_grid_db": _span(0, 80, 5),
        "sweep": {"min_trials": 100_000, "max_trials": 2_000_000,
                  "rel_se_target": 0.1},
        "curves": [
            {"label": "fractal alpha=3",
             "codec": {"scheme": "scheme1", "n": 4, "alpha": 3.0},
             "fit_window_db": [40.0, 80.0]},
            {"label": "fractal alpha=4",
             "codec": {"scheme": "scheme1", "n": 4, "alpha": 4.0},
             "fit_window_db": [40.0, 80.0]},
            {"label": "shift map a=3",
             "codec": {"scheme": "shift_map", "n": 4, "a": 3},
             "fit_window_db": [50.0, 80.0]},
            {"label": "repetition",
             "codec": {"scheme": "repetition", "n": 4},
             "fit_window_db": [20.0, 80.0]},
        ],
        "overlays": [
            {"kind": "opta_slb", "n": 4},
            {"kind": "scheme1_upper", "n": 4, "alpha": 3.0,
             "anchor": "fractal alpha=3"},
            {"kind": "scheme1_upper", "n": 4, "alpha": 4.0,
             "anchor": "fractal alpha=4"},
            {"kind": "shiftmap_upper", "n": 4, "anchor": "shift map a=3"},
        ],
    }


def _preset_fig4():
    return {
        "schema_version": 1,
        "name": "fig4",
        "title": "layered digit codes, n=4",
        "master_seed": 24269,
        "snr_grid_db": _span(0, 100, 5),
        "sweep": {"min_trials": 100_000, "max_trials": 2_000_000,
                  "rel_se_target": 0.1},
        "curves": [
            {"label": "layered standard",
             "codec": {"scheme": "scheme2", "n": 4,
                       "grouping_variant": "standard"},
             "fit_window_db": [40.0, 100.0]},
            {"label": "layered shifted",
             "codec": {"scheme": "scheme2", "n": 4,
                       "grouping_variant": "shifted"},
             "fit_window_db": [40.0, 100.0]},
        ],
        "overlays": [
            {"kind": "opta_slb", "n": 4},
            {"kind": "scheme2_upper", "n": 4, "rate": 2.0,
             "anchor": "layered standard"},
        ],
    }


def _preset_bounds_gallery():
    return {
        "schema_version": 1,
        "name": "bounds-gallery",
        "title": "reference curve shapes against one measured code",
        "master_seed": 24269,
        "snr_grid_db": _span(10, 50, 5),
        "sweep": {"min_trials": 20_000, "max_trials": 200_000,
                  "rel_se_target": 0.2},
        "curves": [
            {"label": "shift map a=3 n=2",
             "codec": {"scheme": "shift_map", "n": 2, "a": 3},
             "fit_window_db": [20.0, 50.0]},
        ],
        "overlays": [
            {"kind": "opta_slb", "n": 2},
            {"kind": "shiftmap_upper", "n": 2, "anchor": "shift map a=3 n=2"},
            {"kind": "shiftmap_lower", "n": 2, "anchor": "shift map a=3 n=2"},
            {"kind": "scheme1_upper", "n": 2, "alpha": 4.0,
             "anchor": "shift map a=3 n=2"},
            {"kind": "scheme2_upper", "n": 2, "rate": 2.0,
             "anchor": "shift map a=3 n=2"},
            {"kind": "type1_upper", "n": 2, "anchor": "shift map a=3 n=2"},
            {"kind": "type2_upper", "n": 2, "rate": 2.0,
             "anchor": "shift map a=3 n=2"},
            {"kind": "hda_lower", "n": 2, "m": 1,
             "anchor": "shift map a=3 n=2"},
        ],
    }


def _preset_dimension_check():
    eps = list(DEFAULT_EPSILONS)
    return {
        "schema_version": 1,
        "name": "dimension-check",
        "title": "box-counting dimension checks",
        "master_seed": 24269,
        "dimension_checks": [
            {"label": "fractal n=2 alpha=4",
             "codec": {"scheme": "scheme1", "n": 2, "alpha": 4.0},
             "epsilons": eps, "samples": 250_000},
            {"label": "fractal n=2 alpha=8",
             "codec": {"scheme": "scheme1", "n": 2, "alpha": 8.0},
             "epsilons": eps, "samples": 250_000},
            {"label": "shift map a=3 n=2 image",
             "codec": {"scheme": "shift_map", "n": 2, "a": 3},
             "epsilons": [2.0 ** -e for e in range(4, 11)],
             "samples": 250_000},
        ],
    }


PRESETS = {
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "bounds-gallery": _preset_bounds_gallery,
    "dimension-check": _preset_dimension_check,
}


# ---------------------------------------------------------------------------
# emitters


def _safe_name(label: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", label).strip("_")
    return cleaned or "item"


def format_point(label: str, p) -> str:
    return ",".join([label, repr(p.snr_db), repr(p.sigma), str(p.trials),
                     repr(p.distortion), repr(p.std_err), repr(p.sdr_db),
                     "1" if p.capped else "0"])


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


def _curve_csv(label: str, points) -> str:
    return _csv(CSV_HEADER, [format_point(label, p) for p in points])


def _boxcount_csv(est) -> str:
    return _csv("epsilon,count",
                [f"{e!r},{c}" for e, c in zip(est.epsilons, est.counts)])


def _write(path: str, text: str) -> None:
    """The one place the CLI writes a file; callers render the text first."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _overlay_points(job: OverlayJob, curves_by_label, all_points):
    snrs = [p.snr_db for pts in all_points.values() for p in pts]
    snr_lo = max(min(snrs), _OVERLAY_SNR_FLOOR)
    snr_hi = min(max(snrs), _OVERLAY_SNR_CEIL)
    if snr_hi <= snr_lo:
        return job.spec, []
    grid = np.linspace(snr_lo, snr_hi, 121)
    # The absolute opta_slb curve is written for the uniform source.
    spec, src_var = job.spec, numrep.SOURCE_VARIANCE["uniform"]
    if job.anchor is not None:
        anchor_job = curves_by_label[job.anchor]
        src_var = anchor_job.spec.source_variance
        pts = [p for p in all_points[job.anchor] if p.distortion > 0.0]
        if anchor_job.fit_window is not None:
            lo, hi = anchor_job.fit_window
            inside = [p for p in pts if lo <= p.snr_db <= hi]
            pts = inside or pts
        if not pts:
            raise ConfigError(
                f"overlay {job.label!r}: anchor curve has no usable points")
        best = max(pts, key=lambda p: p.snr_db)
        try:
            spec = analysis.anchored(spec, best.sigma, best.distortion)
        except ValueError as exc:
            raise ConfigError(f"overlay {job.label!r}: {exc}") from exc
    # Values past the float range become inf and drop out of the chart.
    with np.errstate(over="ignore", divide="ignore"):
        vals = analysis.bound_eval(spec, channel.sigma_from_snr_db(grid))
        sdr = 10.0 * np.log10(src_var / vals)
    return spec, list(zip(grid.tolist(), sdr.tolist()))


def _fit_note(job: CurveJob, points) -> str:
    if job.fit_window is None:
        return "no fit window"
    finite = [(p.snr_db, p.sdr_db) for p in points if math.isfinite(p.sdr_db)]
    if len(finite) < 4:
        return "fit window: too few points"
    x, y = zip(*finite)
    try:
        fit = analysis.slope_fit(x, y, job.fit_window)
    except ValueError:
        return "fit window: too few points"
    lo, hi = job.fit_window
    return (f"slope[{lo:g}..{hi:g} dB] = {fit.slope:.3f} "
            f"over {fit.n_points} points")


# ---------------------------------------------------------------------------
# subcommand drivers


def _load_experiment(args) -> Experiment:
    if args.preset is not None:
        data = PRESETS[args.preset]()
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{args.config}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read {args.config}: {exc}") from exc
    exp = parse_config(data)
    if args.seed is not None:
        exp = dataclasses.replace(exp, master_seed=_check_seed(args.seed, "--seed"))
    return exp


def _checked_plan(job: CurveJob, exp: Experiment) -> SweepPlan:
    """Build a curve's plan and every grid point's codec, so a bad curve
    fails before any job starts."""
    try:
        plan = SweepPlan(codec=job.spec, snr_grid_db=job.grid,
                         min_trials=exp.min_trials, max_trials=exp.max_trials,
                         rel_se_target=exp.rel_se_target,
                         master_seed=exp.master_seed)
        for spec, _ in harness.grid_points(plan):
            harness.cached_codec(spec)
    except ValueError as exc:
        raise ConfigError(f"curve {job.label!r}: {exc}") from exc
    return plan


def _checked_codec(spec: CodecSpec, where: str):
    """Build a codec up front, so a bad one fails before any Monte Carlo."""
    try:
        return harness.cached_codec(spec)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _dimension_estimate(job: DimensionJob, master_seed: int, index: int):
    """Build and box-count one dimension check; a bad codec, box size or
    sample exits 2 and a cap breach 3."""
    codec = _checked_codec(job.spec, f"dimension check {job.label!r}")
    rng = channel.derived_rng(master_seed, 0xD1, index)
    try:
        return analysis.boxcount_dimension(
            analysis.constellation_sampler(codec), job.epsilons, job.samples,
            rng=rng)
    except ValueError as exc:
        raise ConfigError(f"dimension check {job.label!r}: {exc}") from exc


def _simulate_files(exp: Experiment, curves, estimates, workers: int) -> list:
    """Every file of a run as (name, text) pairs, the summary last."""
    files, series = [], []
    summary = [f"experiment {exp.name}",
               f"seed {exp.master_seed}",
               f"workers {workers}"]
    all_points = {}
    curves_by_label = {c.label: c for c in exp.curves}
    for job, points in zip(exp.curves, curves):
        all_points[job.label] = points
        files.append((_safe_name(job.label) + ".csv",
                      _curve_csv(job.label, points)))
        series.append({"label": job.label, "dashed": False,
                       "points": [(p.snr_db, p.sdr_db) for p in points
                                  if math.isfinite(p.sdr_db)]})
        capped = sum(1 for p in points if p.capped)
        summary.append(f"curve {job.label}: {len(points)} points, "
                       f"{capped} capped, {_fit_note(job, points)}")

    for job in exp.overlays:
        fitted, pts = _overlay_points(job, curves_by_label, all_points)
        series.append({"label": job.label, "points": pts, "dashed": True})
        if job.anchor is None:
            summary.append(f"overlay {job.label}: absolute")
        else:
            summary.append(f"overlay {job.label}: anchored to {job.anchor}, "
                           f"scale {fitted.scale:.6g}")

    for job, est in zip(exp.dimension_checks, estimates):
        files.append((_safe_name(job.label) + ".csv", _boxcount_csv(est)))
        summary.append(f"dimension {job.label}: fitted {est.fitted_dimension:.4f}, "
                       f"saturated {int(est.saturated)}, "
                       f"residual {est.fit_residual:.4f}")

    if exp.curves:
        files.append((_safe_name(exp.name) + ".svg",
                      svgplot.svg_document(series, title=exp.title,
                                           x_label="channel SNR (dB)",
                                           y_label="SDR (dB)")))
    files.append((_safe_name(exp.name) + "_summary.txt",
                  "\n".join(summary) + "\n"))
    return files


def run_simulate(args) -> int:
    exp = _load_experiment(args)
    _require(args.workers >= 1, "worker count must be at least 1")
    plans = [_checked_plan(job, exp) for job in exp.curves]
    # Box counting draws from its own streams and is cheap, so it goes
    # before the sweeps: a check that cannot be counted fails first.
    estimates = [_dimension_estimate(job, exp.master_seed, index)
                 for index, job in enumerate(exp.dimension_checks)]
    try:
        curves = harness.sweep_curves(plans, args.workers)
    except harness.CurveError as exc:
        raise ConfigError(f"curve {exp.curves[exc.index].label!r}: {exc}") from exc
    files = _simulate_files(exp, curves, estimates, args.workers)
    os.makedirs(args.out, exist_ok=True)
    for name, text in files:
        _write(os.path.join(args.out, name), text)
    sys.stdout.write(files[-1][1])
    return 0


def _codec_from_json(text: str) -> CodecSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--codec: {exc.msg} at column {exc.colno}") from exc
    return _codec_from_dict(data, "--codec")


def _floats(text, flag: str, default: tuple) -> tuple:
    """A comma-separated option as floats, or default when it is not given."""
    if text is None:
        return default
    return tuple(_number(v, float, f"{flag} entry") for v in text.split(","))


def run_bounds(args) -> int:
    try:
        spec = BoundSpec(kind=args.kind, n=args.n, alpha=args.alpha, m=args.m,
                         scale=args.scale, rate=args.rate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lo, hi = args.sigma_lo, args.sigma_hi
    _require(0.0 < lo < hi <= analysis.SIGMA_MAX,
             f"sigma range must satisfy 0 < lo < hi <= {analysis.SIGMA_MAX:.6f}")
    _require(args.points >= 1, f"--points must be at least 1, got {args.points}")
    _require(args.points <= MAX_BOUND_POINTS,
             f"--points must be at most {MAX_BOUND_POINTS}, got {args.points}")
    sig = np.geomspace(lo, hi, args.points)
    vals = analysis.bound_eval(spec, sig)
    _write(args.out, _csv("kind,sigma,distortion",
                          [f"{spec.kind},{s!r},{v!r}"
                           for s, v in zip(sig.tolist(), vals.tolist())]))
    print(f"wrote {args.points} rows for {spec.describe()} to {args.out}")
    return 0


def run_dimension(args) -> int:
    job = DimensionJob(label="--codec", spec=_codec_from_json(args.codec),
                       epsilons=_floats(args.epsilons, "--epsilons",
                                        DEFAULT_EPSILONS),
                       samples=_check_samples(args.samples, "--samples"))
    est = _dimension_estimate(job, _check_seed(args.seed, "--seed"), 0)
    _write(args.out, _boxcount_csv(est))
    print(f"fitted_dimension {est.fitted_dimension:.4f} "
          f"saturated {int(est.saturated)} residual {est.fit_residual:.4f}")
    return 0


def run_stretch(args) -> int:
    spec = _codec_from_json(args.codec)
    samples = _check_samples(args.samples, "--samples")
    codec = _checked_codec(spec, "--codec")
    deltas = _floats(args.deltas, "--deltas",
                     tuple(np.geomspace(1e-2, 1e-4, 7).tolist()))
    rng = channel.derived_rng(_check_seed(args.seed, "--seed"), 0x57, 0)
    try:
        prof = analysis.stretch_profile(codec, deltas, samples, rng=rng)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _write(args.out, _csv("delta,mean_square",
                          [f"{d!r},{v!r}"
                           for d, v in zip(prof.deltas, prof.mean_square)]))
    print(f"gamma {prof.gamma:.4f} residual {prof.fit_residual:.4f}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jscc",
        description="Delay-limited joint source-channel code simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run sweep curves from a config")
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="JSON experiment file")
    group.add_argument("--preset", choices=sorted(PRESETS),
                       help="built-in experiment")
    sim.add_argument("--seed", type=int, default=None,
                     help="override the master seed")
    sim.add_argument("--out", default=".", help="output directory")
    # python -m jscc and the jscc script pin OpenBLAS to one thread per
    # process, so the processes do not oversubscribe the cores.
    sim.add_argument("--workers", type=int, default=1,
                     help="processes to run the sweep jobs on: this one "
                          "plus up to N-1 more, capped by the jobs and "
                          "available CPUs; results do not depend on it "
                          "(default: 1)")
    sim.set_defaults(func=run_simulate)

    bnd = sub.add_parser("bounds", help="tabulate a reference curve")
    bnd.add_argument("--kind", required=True, choices=BOUND_KINDS)
    bnd.add_argument("--n", required=True, type=int)
    bnd.add_argument("--alpha", type=float, default=None)
    bnd.add_argument("--m", type=int, default=None)
    bnd.add_argument("--rate", type=float, default=1.0)
    bnd.add_argument("--scale", type=float, default=1.0)
    bnd.add_argument("--sigma-lo", type=float, default=1e-4)
    bnd.add_argument("--sigma-hi", type=float, default=0.7)
    bnd.add_argument("--points", type=int, default=25)
    bnd.add_argument("--out", required=True)
    bnd.set_defaults(func=run_bounds)

    dim = sub.add_parser("dimension", help="box-counting dimension of a codec")
    dim.add_argument("--codec", required=True,
                     help="codec spec as JSON, e.g. "
                          '\'{"scheme":"scheme1","n":2,"alpha":4}\'')
    dim.add_argument("--epsilons", default=None,
                     help="comma-separated box sizes, decreasing")
    dim.add_argument("--samples", type=int, default=DEFAULT_DIMENSION_SAMPLES)
    dim.add_argument("--seed", type=int, default=channel.DEFAULT_MASTER_SEED)
    dim.add_argument("--out", required=True)
    dim.set_defaults(func=run_dimension)

    stp = sub.add_parser("stretch", help="stretch profile of a codec")
    stp.add_argument("--codec", required=True)
    stp.add_argument("--deltas", default=None,
                     help="comma-separated perturbations, decreasing")
    stp.add_argument("--samples", type=int, default=100_000)
    stp.add_argument("--seed", type=int, default=channel.DEFAULT_MASTER_SEED)
    stp.add_argument("--out", required=True)
    stp.set_defaults(func=run_stretch)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
