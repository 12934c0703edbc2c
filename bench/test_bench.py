"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from jscc import codecs  # noqa: E402
from jscc.codecs import CodecSpec  # noqa: E402

# A small experiment that still crosses every layer: an auto-resolved family,
# the spherical decoder, the Scheme1 codec, an overlay, a fit window and a
# box-count check.
SMALL_EXPERIMENT = {
    "schema_version": 1,
    "name": "small",
    "master_seed": 7,
    "sweep": {"min_trials": 8192, "max_trials": 16384, "rel_se_target": 0.1},
    "curves": [
        {"label": "shift auto", "codec": {"scheme": "shift_map", "n": 3},
         "snr_grid_db": [30, 40, 50], "fit_window_db": [30, 50]},
        {"label": "spherical", "codec": {"scheme": "spherical", "n": 2, "a": 3},
         "snr_grid_db": [10]},
        {"label": "fractal", "codec": {"scheme": "scheme1", "n": 3, "alpha": 3.0},
         "snr_grid_db": [20, 30]},
    ],
    "overlays": [{"kind": "opta_slb", "n": 3}],
    "dimension_checks": [
        {"label": "box", "codec": {"scheme": "scheme1", "n": 2, "alpha": 4.0},
         "epsilons": [0.0625, 0.03125, 0.015625], "samples": 20000},
    ],
}

# One concrete spec per scheme; the table must grow with jscc's scheme list.
EXAMPLE_SPECS = {
    "repetition": CodecSpec("repetition", n=2),
    "shift_map": CodecSpec("shift_map", n=2, a=3),
    "spherical": CodecSpec("spherical", n=2, a=3),
    "scheme1": CodecSpec("scheme1", n=2, alpha=4.0),
    "scheme2": CodecSpec("scheme2", n=2),
    "type1": CodecSpec("type1", n=2, k=3),
    "type2": CodecSpec("type2", n=2, k=3),
    "unbounded_wrap": CodecSpec("unbounded_wrap", n=2),
}


def _snapshot():
    state = {}
    for name, mod in tracing.jscc_modules().items():
        state.update({(name, k): v for k, v in vars(mod).items()})
    for cls in tracing.codec_classes():
        state.update({(cls, k): v for k, v in vars(cls).items()})
    return state


def test_traced_and_untraced_runs_write_identical_bytes(tmp_path):
    config = tmp_path / "small.json"
    config.write_text(json.dumps(SMALL_EXPERIMENT))
    work = run.Workload("small", ("--config", str(config), "--workers", "2"), None)
    plain = run.simulate(work, 11, tmp_path / "plain", traced=False, timeout=120)
    traced = run.simulate(work, 11, tmp_path / "traced", traced=True, timeout=120)
    assert plain.code == 0 and traced.code == 0
    assert sorted(p.name for p in plain.out_dir.iterdir()) == sorted(
        p.name for p in traced.out_dir.iterdir())
    assert checks.differing_files(str(plain.out_dir), str(traced.out_dir)) == []

    trace, meta = tracing.Trace.load(str(traced.spans))
    assert meta["exit_code"] == 0
    # Worker-thread spans hang under the point that spawned them.
    batches = trace.named("channel.batch_rng")
    assert batches and batches == trace.named("channel.batch_rng", under=tracing.POINT_SPAN)
    assert len({s.thread for s in batches}) >= 2  # one pool per point
    metrics = tracing.span_metrics(trace, meta)
    for layer in tracing.LAYERS:
        assert metrics[f"{layer}.self_s"][0] > 0.0, layer
    assert metrics["analysis.constellation_sampler.total_s"][0] > 0.0


def test_install_wraps_and_remove_restores():
    before = _snapshot()
    from jscc import harness

    original = harness.estimate_point
    patch = tracing.install(tracing.Tracer())
    try:
        assert harness.estimate_point is not original
        assert harness.estimate_point.__wrapped__ is original
    finally:
        patch.remove()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_reachable_codec_class_is_traced():
    assert set(EXAMPLE_SPECS) == set(codecs.SCHEMES)
    tracer = tracing.Tracer()
    patch = tracing.install(tracer)
    try:
        reached = set()
        for spec in EXAMPLE_SPECS.values():
            codec = codecs.build_codec(spec)
            reached.add(type(codec))
            reached.update(type(v) for v in vars(codec).values()
                           if isinstance(v, codecs.Codec))
            x = np.random.default_rng(3).uniform(-0.5, 0.5, 64)
            codec.decode(codec.encode(x), 0.01)
    finally:
        patch.remove()
    names = {s[2] for s in tracer.spans}
    concrete = set(tracing.codec_classes())
    assert concrete <= reached, concrete - reached
    for cls in concrete:
        assert f"codecs.{cls.__name__}.encode" in names
        assert f"codecs.{cls.__name__}.decode" in names


def test_self_time_subtracts_the_union_of_overlapping_children():
    # parent 0..100; children 10..50 and 30..70 on two threads; grandchild ignored
    trace = tracing.Trace([
        (1, 0, "harness.estimate_point", 0, 100, 1, 0, 0),
        (2, 1, "codecs.X.decode", 10, 50, 2, 0, 0),
        (3, 1, "codecs.X.decode", 30, 70, 3, 0, 0),
        (4, 2, "numrep.draw_source", 20, 40, 2, 0, 0),
    ])
    assert trace.self_s(trace.by_id[1]) == pytest.approx(40e-9)
    assert trace.total_s("codecs.X.decode") == pytest.approx(80e-9)
    assert trace.layer_self_s("codecs") == pytest.approx((20 + 40) * 1e-9)


def test_row_checks_accept_references_and_catch_a_changed_row(tmp_path):
    base = run.reference_dir("fig3", run.DEFAULT_SEED)
    held = run.reference_dir("fig3", run.HELD_OUT_SEED)
    rules = run.WORKLOADS["fig3"].rules
    exact = checks.check_outputs(str(base), str(base), str(base), rules)
    assert exact.failed == 0 and exact.attempted == 68
    assert exact.files_byte_identical == 4
    # Another seed's rows obey the sweep rules against the default seed's grid.
    lawful = checks.check_outputs(str(held), None, str(base), rules)
    assert lawful.failed == 0, lawful.problems

    out = tmp_path / "out"
    shutil.copytree(base, out)
    path = out / "repetition.csv"
    lines = path.read_text().split("\n")
    fields = lines[3].split(",")
    fields[3] = str(int(fields[3]) + 1)
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines))
    for ref in (str(base), None):
        verdict = checks.check_outputs(str(out), ref, str(base), rules)
        assert verdict.failed == 1, verdict.problems


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "fig3", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_speed_factor_scales_by_the_mean_of_slot_medians():
    ref = calibrate.REFERENCE_ROUND_S
    assert calibrate.speed_factor([ref, ref, 9.0]) == pytest.approx(1.0)
    assert calibrate.speed_factor([ref] * 3, [3 * ref] * 3) == pytest.approx(0.5)
    rounds = calibrate.Kernel().slot(0.0)
    assert len(rounds) == 3 and min(rounds) > 0


def test_tracer_is_thread_safe_under_contention():
    import threading

    tracer = tracing.Tracer()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        point = tracer.begin(tracing.POINT_SPAN)

        def work():
            for _ in range(2000):
                tracer.end(tracer.begin("codecs.X.decode"))

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        tracer.end(point)
    finally:
        sys.setswitchinterval(old)
    ids = [s[0] for s in tracer.spans]
    assert len(ids) == len(set(ids)) == 8001
    assert all(s[1] == point[0] for s in tracer.spans if s[2] == "codecs.X.decode")

