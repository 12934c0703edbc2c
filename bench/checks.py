"""Row-level checks of a `jscc simulate` output directory.

One operation is one row of a curve CSV or of a box-count CSV.  A row fails
when it is missing, malformed, or disagrees with the reference.

For a seed with stored references (references/<workload>/seed-<n>/) every
row is compared with the reference row: labels and integer columns
(`trials`, `capped`, box `count`) must match exactly, float columns within
FLOAT_RTOL.  Files that also match byte for byte are counted separately.

For any other seed the seed-independent columns (label, snr_db, sigma,
epsilon, box count) are compared with the default seed's reference, and
each curve row must obey the sweep's own rules: whole batches between the
minimum and the cap, `capped` set exactly when the precision target was
missed, `sdr_db` consistent with `distortion`, and a distortion within
PLAUSIBLE_LOG_RATIO (natural log) of the default seed's.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

CURVE_HEADER = "label,snr_db,sigma,trials,distortion,std_err,sdr_db,capped"
BATCH_SIZE = 4096
UNIFORM_VARIANCE = 1.0 / 12.0

# Float columns are written with repr(); equal arithmetic gives equal text,
# so this only admits last-digit changes from a reordered reduction.
FLOAT_RTOL = 1e-9
# Two seeds' estimates of one point differ by a few relative standard
# errors (target 0.1); a factor of e**1.5 ~ 4.5 is far outside that.
PLAUSIBLE_LOG_RATIO = 1.5


@dataclass(frozen=True)
class SweepRules:
    min_trials: int
    max_trials: int
    rel_se_target: float


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    files_byte_identical: int = 0
    trials: int = 0
    problems: list = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def read_csv(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return (lines[0] if lines else ""), [ln.split(",") for ln in lines[1:]]


def _close(a: str, b: str) -> bool:
    return math.isclose(float(a), float(b), rel_tol=FLOAT_RTOL, abs_tol=0.0)


def _same_curve_row(row, ref) -> str | None:
    if row[0] != ref[0] or row[3] != ref[3] or row[7] != ref[7]:
        return "label, trials or capped differ"
    if not all(_close(row[i], ref[i]) for i in (1, 2, 4, 5, 6)):
        return f"float columns differ beyond rtol {FLOAT_RTOL}"
    return None


def _same_box_row(row, ref) -> str | None:
    if row[1] != ref[1] or not _close(row[0], ref[0]):
        return "epsilon or count differ"
    return None


def _lawful_curve_row(row, base, rules: SweepRules) -> str | None:
    """Rules any seed's curve row must obey; base is the default seed's row."""
    if row[0] != base[0] or not (_close(row[1], base[1]) and _close(row[2], base[2])):
        return "label, snr_db or sigma differ from the grid"
    trials, capped = int(row[3]), row[7]
    dist, se, sdr = float(row[4]), float(row[5]), float(row[6])
    lo = -(-rules.min_trials // BATCH_SIZE) * BATCH_SIZE
    hi = -(-rules.max_trials // BATCH_SIZE) * BATCH_SIZE
    if trials % BATCH_SIZE or not lo <= trials <= hi:
        return f"trials {trials} not whole batches in [{lo}, {hi}]"
    if not (dist >= 0.0 and se >= 0.0):
        return "negative distortion or standard error"
    met = dist == 0.0 or se <= rules.rel_se_target * dist * (1.0 + 1e-12)
    if capped not in ("0", "1") or (capped == "1" and trials != hi) or (capped == "0" and not met):
        return f"capped={capped} inconsistent with trials and precision"
    if dist == 0.0:
        return None if sdr == math.inf else "zero distortion without infinite sdr"
    if not math.isclose(sdr, 10.0 * math.log10(UNIFORM_VARIANCE / dist), rel_tol=1e-12):
        return "sdr_db inconsistent with distortion"
    base_dist = float(base[4])
    if base_dist > 0.0 and abs(math.log(dist / base_dist)) > PLAUSIBLE_LOG_RATIO:
        return f"distortion {dist:g} implausible against {base_dist:g}"
    return None


def check_outputs(out_dir: str, ref_dir: str | None, base_dir: str,
                  rules: SweepRules | None) -> Verdict:
    """Check every expected row of a run's outputs.

    ref_dir holds this seed's reference files, or is None; base_dir holds the
    default seed's, which fixes the expected files and rows.
    """
    verdict = Verdict()
    for name in sorted(f for f in os.listdir(base_dir) if f.endswith(".csv")):
        base_header, base_rows = read_csv(os.path.join(base_dir, name))
        verdict.attempted += len(base_rows)
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            verdict.fail(len(base_rows), f"{name}: missing")
            continue
        header, rows = read_csv(path)
        if header != base_header or len(rows) != len(base_rows):
            verdict.fail(len(base_rows), f"{name}: header or row count differs")
            continue
        if ref_dir is not None:
            with open(path, "rb") as a, open(os.path.join(ref_dir, name), "rb") as b:
                verdict.files_byte_identical += a.read() == b.read()
            ref_rows = read_csv(os.path.join(ref_dir, name))[1]
        for i, row in enumerate(rows):
            width = 8 if header == CURVE_HEADER else 2
            if len(row) != width:
                verdict.fail(1, f"{name} row {i + 1}: malformed")
                continue
            try:
                if header == CURVE_HEADER:
                    verdict.trials += int(row[3])
                    problem = (_same_curve_row(row, ref_rows[i]) if ref_dir is not None
                               else _lawful_curve_row(row, base_rows[i], rules))
                else:
                    problem = _same_box_row(row, ref_rows[i] if ref_dir is not None
                                            else base_rows[i])
            except ValueError:
                problem = "malformed number"
            if problem is not None:
                verdict.fail(1, f"{name} row {i + 1}: {problem}")
    return verdict


def differing_files(dir_a: str, dir_b: str) -> list:
    """Names of the output files that differ between two output directories."""
    names = sorted(set(os.listdir(dir_a)) | set(os.listdir(dir_b)))
    differ = []
    for name in names:
        try:
            with open(os.path.join(dir_a, name), "rb") as a, open(os.path.join(dir_b, name), "rb") as b:
                if a.read() != b.read():
                    differ.append(name)
        except FileNotFoundError:
            differ.append(name)
    return differ
