"""Correctness gate: exported outputs against values recorded at the commit
that introduced the benchmark.

For each input the reference holds the outcome (``ok`` or the exception
type raised), the verdicts from ``summary.json``, the SHA-256 of
``norms.csv`` and every row of ``norms.csv`` as floats.  An input recorded
as raising has no values to compare with; once it completes, its output
must pass the checks in ``sanity_problems``.  Only the exported
files are read, so the gate depends on the CSV and summary schema and on
nothing inside the package.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json.gz")
VERDICT_KEYS = ("validation_ok", "envelope_ok", "probe_within_one_stride")
# Largest relative deviation of a sampled norm that still passes.  Stated
# bit moves (about 1e-13 relative) pass; a 1e-9 perturbation fails.
OUTPUT_RTOL = 1e-10
# Values smaller than this share of their column's largest reference value
# are compared against that share instead, so rounding in a band that has
# decayed by many orders of magnitude does not read as a large relative
# change.
COLUMN_FLOOR = 1e-3
# Growth of the total energy between samples, relative to its peak, that
# counts as rounding in the reference-free check.
ENERGY_RTOL = 1e-12


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip().split("\n")
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def record_output(csv_path: Path, summary_path: Path) -> dict:
    """Reference entry for one successful execution."""
    header, rows = parse_csv(csv_path.read_text())
    summary = json.loads(summary_path.read_text())
    return {
        "outcome": "ok",
        "verdicts": {k: summary[k] for k in VERDICT_KEYS if k in summary},
        "sha256": sha256(csv_path),
        "header": header,
        "rows": rows,
    }


def record_error(exc: BaseException) -> dict:
    return {"outcome": type(exc).__name__}


def load_reference(path: Path = REFERENCE_FILE) -> dict[str, dict]:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(entries: dict[str, dict], path: Path = REFERENCE_FILE) -> None:
    # mtime=0 keeps the compressed file byte-stable across recordings.
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write((json.dumps(entries, sort_keys=True) + "\n").encode())


def max_rel_deviation(header, rows, ref_header, ref_rows) -> float:
    """Largest relative deviation of any sampled value; inf when the shape
    or the sample times differ."""
    if header != ref_header or len(rows) != len(ref_rows):
        return math.inf
    worst = 0.0
    for col in range(len(header)):
        ref_col = [r[col] for r in ref_rows]
        floor = COLUMN_FLOOR * max(abs(v) for v in ref_col)
        for row, ref in zip(rows, ref_col):
            if row[col] == ref:
                continue
            scale = max(abs(ref), floor)
            dev = abs(row[col] - ref) / scale if scale else math.inf
            worst = max(worst, dev if math.isfinite(dev) else math.inf)
    return worst


@dataclass
class Check:
    """Gate outcome for one execution."""

    verdict_mismatch: bool = False
    rel_err: float = 0.0
    sha_changed: bool = False
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_output(ref: dict | None, csv_path: Path, summary_path: Path) -> Check:
    """Compare a successful execution's exported files with its reference."""
    out = Check()
    if ref is None:
        out.problems.append("no reference recorded for this input")
        return out
    summary = json.loads(summary_path.read_text())
    if ref["outcome"] != "ok":
        # The recorded run raised; a run that now completes is a fix, and
        # only checks that need no recorded values apply to it.
        out.problems += sanity_problems(summary, *parse_csv(csv_path.read_text()))
        return out
    for key, want in ref["verdicts"].items():
        if summary.get(key) != want:
            out.verdict_mismatch = True
            out.problems.append(f"{key} is {summary.get(key)!r}, recorded {want!r}")
    header, rows = parse_csv(csv_path.read_text())
    out.rel_err = max_rel_deviation(header, rows, ref["header"], ref["rows"])
    if out.rel_err > OUTPUT_RTOL:
        out.problems.append(f"norms deviate by {out.rel_err:.3g} relative (limit {OUTPUT_RTOL:g})")
    out.sha_changed = sha256(csv_path) != ref["sha256"]
    return out


def sanity_problems(summary: dict, header: list[str], rows: list[list[float]]) -> list[str]:
    """Checks that need no reference: every norm finite, the sample times
    running from 0 to the scenario's ``t_final``, one row per sample, and
    the total energy never growing (the damping is coercive).
    """
    problems = []
    if any(not math.isfinite(v) for row in rows for v in row):
        problems.append("a sampled norm is not finite")
    times = [row[header.index("t")] for row in rows]
    t_final = summary.get("t_final")
    if (
        len(rows) != summary.get("n_samples")
        or not times
        or times[0] != 0.0
        or any(b <= a for a, b in zip(times, times[1:]))
        or not math.isclose(times[-1], t_final, rel_tol=1e-12)
    ):
        problems.append(f"sample times do not run from 0 to t_final = {t_final}")
    energy = [row[header.index("l2_total")] for row in rows]
    slack = ENERGY_RTOL * max(energy, default=0.0)
    if any(b > a + slack for a, b in zip(energy, energy[1:])):
        problems.append("l2_total grows between samples")
    return problems


def check_error(ref: dict | None, exc: BaseException) -> Check:
    """Gate outcome for an execution that raised: expected only when the
    reference recorded the same exception type."""
    out = Check()
    if ref is None or ref["outcome"] != type(exc).__name__:
        recorded = "nothing" if ref is None else ref["outcome"]
        out.problems.append(f"raised {type(exc).__name__}: {exc} (recorded {recorded})")
    return out
