"""Byte guards: each row of ROWS runs a `jscc` command at its seeds and compares,
by kind: reference, each named CSV with its copy under bench/references; pool,
every CSV on 1 and on 2 workers; alone, each curve of the config run alone with
the same curve beside the others; refusal, exit 3 within TIMEOUT_S with one
stderr line and no --out path.  Each distinct command runs once per seed, in a
fresh process writing to a temporary directory.  From a checkout's root, with no
arguments: `PYTHONPATH=src python tests/guards.py`.  Exits 1 if any row failed.
"""

import filecmp
import json
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (24269, 1009)
TIMEOUT_S = 120  # turns a hang into a failure, which no in-process test can
W1, W2 = ("--workers", "1"), ("--workers", "2")

# Codes no stored reference covers.  "wrap shifted" sets the p and grouping
# variant that choose its inner scheme2 code; repetition n=1 takes the
# one-column branch of measure_normalization, spherical n=3 its widest fold.
ROBUST = {"schema_version": 1, "name": "robust", "snr_grid_db": [10.0, 20.0, 30.0, 40.0, 50.0],
          "sweep": {"min_trials": 8192, "max_trials": 16384, "rel_se_target": 0.2},
          "curves": [{"label": label, "codec": dict(codec, n=n)} for label, n, codec in [
              ("type1", 2, {"scheme": "type1"}), ("type2", 2, {"scheme": "type2"}),
              ("wrap", 2, {"scheme": "unbounded_wrap"}),
              ("wrap shifted", 2, {"scheme": "unbounded_wrap", "p": 40,
                                   "grouping_variant": "shifted"}),
              ("layered shifted", 2, {"scheme": "scheme2", "grouping_variant": "shifted"}),
              ("spherical", 2, {"scheme": "spherical", "a": 3}),
              ("spherical n3", 3, {"scheme": "spherical", "a": 3}),
              ("repetition n1", 1, {"scheme": "repetition"})]]}
# At -400 dB the decode window would hold about 6e20 integer offsets.
WRAP = {"schema_version": 1, "name": "wrap", "snr_grid_db": [-400.0],
        "sweep": {"min_trials": 4096, "max_trials": 4096, "rel_se_target": 0.5},
        "curves": [{"label": "wrap", "codec": {"scheme": "unbounded_wrap", "n": 2}}]}

# kind is "reference", "pool", "alone" or "refusal"; command is jscc's arguments,
# where a dict is the --config file's content; csvs and reference name a reference
# row's CSVs and their directory; a seed of None runs without --seed.
Row = namedtuple("Row", "kind command csvs reference seeds", defaults=((), "", SEEDS))
FIG3 = ("simulate", "--preset", "fig3")
FIG3_CSVS = ("fractal_alpha_3", "fractal_alpha_4", "repetition")
ROWS = [
    # shift_map_a_3.csv is left out: its last digits vary with the BLAS kernel
    # (ROADMAP item 7).
    Row("reference", FIG3, FIG3_CSVS, "fig3"),
    Row("reference", FIG3 + W2, FIG3_CSVS, "fig3"),
    Row("reference", ("simulate", "--config", "bench/workloads/dimension-check.json"),
        ("fractal_n_2_alpha_4", "fractal_n_2_alpha_8", "shift_map_a_3_n_2_image"),
        "dimension-check"),
    # Check 0's sets at the default box sizes, as the workload's first check.
    Row("reference", ("dimension", "--codec", '{"scheme":"scheme1","n":2,"alpha":4.0}',
                      "--samples", "100000"), ("fractal_n_2_alpha_4",), "dimension-check"),
    # Only across workers: ml-decode's CSVs vary with the BLAS kernel (ROADMAP
    # item 7); both differ from their stored references on Nehalem and Sandybridge,
    # spherical_a_3_n_3.csv on Haswell and SkylakeX too.  The rest have none stored.
    Row("pool", ("simulate", "--config", "bench/workloads/ml-decode.json")),
    Row("pool", ("simulate", "--preset", "fig4")),
    Row("pool", ("simulate", "--preset", "bounds-gallery")),
    Row("pool", ("simulate", "--config", ROBUST)),
    # Curves with one source kind and channel dimension share each point's
    # draws, made once for all of them; no curve's bytes may move.
    Row("alone", ("simulate", "--config", ROBUST)),
    Row("refusal", ("simulate", "--config", WRAP), seeds=(None,)),
]


def main() -> int:
    runs, failed = {}, 0
    with tempfile.TemporaryDirectory(prefix="jscc-guards-") as tmp:
        def run(command, seed, code=0):
            """--out path of `jscc *command` at seed, run once; it must exit with code."""
            key = json.dumps([command, seed])
            if key not in runs:
                out = Path(tmp, str(len(runs)))
                # A dict reaches jscc on stdin, as the --config file.
                config = "".join(json.dumps(a) for a in command if isinstance(a, dict))
                args = [a if isinstance(a, str) else "/dev/stdin" for a in command]
                args += ["--out", str(out)] + ["--seed", str(seed)] * (seed is not None)
                p = subprocess.run([sys.executable, "-m", "jscc", *args], input=config,
                                   cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S)
                runs[key] = p.returncode, p.stderr, out
            got, err, out = runs[key]
            if got != code or code and (err.count("\n") != 1 or out.exists()):
                raise RuntimeError(f"exit {got}, --out made: {out.exists()}: {err.strip()}")
            return out

        def pairs(row, seed):
            """The (made, expected) CSV paths the row compares at seed."""
            if row.kind == "refusal":
                run(row.command, seed, 3)
                return []
            if row.kind == "reference":
                a = run(row.command, seed)
                b = ROOT / "bench" / "references" / row.reference / f"seed-{seed}"
                # `jscc dimension` writes its one CSV at --out itself.
                return [(a / f"{f}.csv" if a.is_dir() else a, b / f"{f}.csv") for f in row.csvs]
            if row.kind == "pool":
                a, b = run(row.command + W1, seed), run(row.command + W2, seed)
                names = {p.name for p in [*a.glob("*.csv"), *b.glob("*.csv")]}
                return [(a / f, b / f) for f in sorted(names)]
            (*head, config), b = row.command, run(row.command + W1, seed)
            made = {p.name: p for c in config["curves"]
                    for p in run((*head, dict(config, curves=[c]), *W1), seed).glob("*.csv")}
            return [(made.get(p.name, b / "absent"), p) for p in sorted(b.glob("*.csv"))]

        for row in ROWS:
            for seed in row.seeds:
                try:
                    compared = pairs(row, seed)
                    found = [f"{b.name} differs" for a, b in compared if not (
                        a.is_file() and b.is_file() and filecmp.cmp(a, b, shallow=False))]
                    if not compared and row.kind != "refusal":
                        found = ["no CSV written"]
                except (RuntimeError, subprocess.TimeoutExpired) as e:
                    found = [str(e)]
                failed += bool(found)
                shown = " ".join(a if isinstance(a, str) else a["name"] for a in row.command)
                print(f"{'FAIL' if found else 'ok':4}  {row.kind:9}  {shown}  seed {seed}",
                      *found, sep="\n      ", flush=True)
    print(f"{failed} of {sum(len(r.seeds) for r in ROWS)} checks failed ({len(runs)} runs)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
