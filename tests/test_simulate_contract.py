"""Generative contract of `jscc simulate` for exits 0, 2 and 3.

Small valid experiments get at most one mutation each: a leaf replaced by
a bad value, a number made negative, non-integral or a float, a key or
list entry dropped, an unknown field added, or a patch that breaches a
codec cap.  Whatever the input, `cli.main` returns
0, 2 or 3 and raises nothing.  Exit 0 writes exactly the documented file
set, with the config's title in the SVG, and a second run writes the same
bytes; exits 2 and 3 print one line in the program's own words and leave
no output directory.
"""

import contextlib
import copy
import html
import io
import json
import math
import os
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from jscc import cli, codecs

# One base spec per scheme; the first three are concrete, for the dimension
# check.
CODECS = (
    {"scheme": "repetition", "n": 2},
    {"scheme": "shift_map", "n": 2, "a": 3},
    {"scheme": "scheme1", "n": 2, "alpha": 4.0},
    {"scheme": "type1", "n": 2},
    {"scheme": "spherical", "n": 2, "a": 3},
    {"scheme": "scheme2", "n": 2},
    {"scheme": "type2", "n": 2},
    {"scheme": "unbounded_wrap", "n": 2},
)
SNRS = (5.0, 15.0, 25.0, 40.0)

# Values a mutation puts in place of any leaf or container.  Nothing here
# asks for a large allocation: a count such as samples, n or min_trials
# only ever gets a small or invalid value.
BAD_VALUES = (math.nan, math.inf, -math.inf, "x", "", "mystery", -1, 0, 1.5,
              2.0, 2.5, 1e-300, 3000.0, 1e5, True, None, [], {}, [1.0],
              {"zzz": 1})

# Python's own phrasings, which a message must never pass on.
INTERPRETER_WORDS = ("not supported between", "NoneType", "object has no attribute",
                     "unhashable", "did not converge")

# Changes of a number that keep its size small.
NUMBER_CHANGES = (lambda v: v + 0.5, float, lambda v: -v)

# Patches that each breach one codec cap (exit 3), push an anchored
# overlay's reference curve below the float range, or ask a dimension check
# for one sample more than its cap (exit 2).
CAP_PATCHES = (
    ("curves", 0, {"codec": {"scheme": "type1", "n": 2}, "snr_grid_db": [160.0]}),
    ("curves", 0, {"codec": {"scheme": "type2", "n": 2, "k": 30}}),
    ("curves", 0, {"codec": {"scheme": "shift_map", "n": 3, "a": 2000}}),
    # Terabytes per normalization block, refused before anything is built.
    ("curves", 0, {"codec": {"scheme": "repetition", "n": 10 ** 8}}),
    ("curves", 0, {"snr_grid_db": [3000.0, 3010.0], "fit_window_db": None}),
    # Past the wrapper's decode window cap; each offset is an inner decode.
    ("curves", 0, {"codec": {"scheme": "unbounded_wrap", "n": 2},
                   "snr_grid_db": [-400.0]}),
    ("dimension_checks", 0, {"codec": {"scheme": "shift_map", "n": 3, "a": 2000}}),
    ("dimension_checks", 0, {"samples": cli.MAX_DIMENSION_SAMPLES + 1}),
)


def test_codecs_cover_every_scheme():
    assert sorted(c["scheme"] for c in CODECS) == sorted(codecs.SCHEMES)


def _slots(node, path=()):
    """Every (path, key) whose value a mutation may replace or drop."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path, key
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


def _dicts(node, path=()):
    if isinstance(node, dict):
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _dicts(value, path + (key,))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def experiments(draw):
    curves = []
    for i in range(draw(st.integers(1, 2))):
        grid = sorted(draw(st.sets(st.sampled_from(SNRS), min_size=1, max_size=3)))
        curves.append({"label": f"curve {i}",
                       "codec": dict(draw(st.sampled_from(CODECS))),
                       "snr_grid_db": grid,
                       "fit_window_db": [0.0, 40.0]})
    data = {
        "title": "contract",
        "schema_version": 1,
        "name": "contract",
        "master_seed": draw(st.integers(0, 2 ** 32)),
        "sweep": {"min_trials": 4096, "max_trials": 4096, "rel_se_target": 0.5},
        "curves": curves,
        "overlays": [{"kind": "opta_slb", "n": 2},
                     {"kind": "shiftmap_upper", "n": 2, "anchor": "curve 0"},
                     {"kind": "scheme1_upper", "n": 2, "alpha": 4.0,
                      "anchor": "curve 0"},
                     {"kind": "hda_lower", "n": 2, "m": 1, "anchor": "curve 0"},
                     {"kind": "scheme2_upper", "n": 2, "rate": 2.0,
                      "anchor": "curve 0"}],
    }
    if draw(st.booleans()):
        data["dimension_checks"] = [
            {"label": "dim", "codec": dict(draw(st.sampled_from(CODECS[:3]))),
             "epsilons": [0.25, 0.0625, 0.015625], "samples": 1000}]

    op = draw(st.sampled_from(("replace", "number", "drop", "unknown", "cap",
                               "none")))
    if op == "number":
        path, key = draw(st.sampled_from(
            [(p, k) for p, k in _slots(data) if _is_number(_at(data, p)[k])]))
        _at(data, path)[key] = draw(st.sampled_from(NUMBER_CHANGES))(
            _at(data, path)[key])
    elif op in ("replace", "drop"):
        path, key = draw(st.sampled_from(list(_slots(data))))
        parent = _at(data, path)
        if op == "drop":
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(BAD_VALUES)))
    elif op == "unknown":
        _at(data, draw(st.sampled_from(list(_dicts(data)))))["zzz"] = 1
    elif op == "cap":
        section, index, patch = draw(st.sampled_from(CAP_PATCHES))
        if section in data:
            data[section][index].update(copy.deepcopy(patch))
    return data


def _simulate(data, out):
    cfg = out + ".json"
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["simulate", "--config", cfg, "--out", out])
    return code, stderr.getvalue()


def _expected_files(data) -> set:
    exp = cli.parse_config(data)
    labels = [c.label for c in exp.curves] + [d.label for d in exp.dimension_checks]
    names = {cli._safe_name(v) + ".csv" for v in labels}
    names.add(cli._safe_name(exp.name) + "_summary.txt")
    if exp.curves:
        names.add(cli._safe_name(exp.name) + ".svg")
    return names


def _read_all(out) -> dict:
    files = {}
    for name in os.listdir(out):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(experiments())
def test_simulate_exits_0_2_or_3_and_leaves_whole_directories(data):
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "first")
        code, err = _simulate(data, first)
        assert code in (0, 2, 3), (code, err)
        if code != 0:
            assert not os.path.exists(first), err
            assert err.count("\n") == 1, err
            assert err.startswith(("config error: ", "capacity error: ")), err
            assert not any(words in err for words in INTERPRETER_WORDS), err
            return
        files = _read_all(first)
        assert set(files) == _expected_files(data)
        svg = cli._safe_name(data.get("name", "experiment")) + ".svg"
        if svg in files:
            title = data.get("title", data.get("name", "experiment"))
            assert f">{html.escape(title, quote=False)}<" in files[svg].decode()
        second = os.path.join(tmp, "second")
        assert _simulate(data, second)[0] == 0
        assert _read_all(second) == files
