"""Checks on the files one run writes; plain Python, no numpy."""

from __future__ import annotations

import hashlib
import math
from pathlib import Path


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    # Line 1 is the schema version, line 2 the header.
    lines = path.read_text().splitlines()
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _read_summary(path: Path) -> dict:
    pairs = (line.split(" = ", 1) for line in path.read_text().splitlines() if line)
    return {key: value for key, value in pairs}


def envelope_misses(header: list[str], values: list[list[float]]) -> int:
    """Rows whose variance leaves the active envelope +- 3 Monte Carlo SE."""
    col = {name: i for i, name in enumerate(header)}
    sigma2, se = col["sigma2"], col["sigma2_se"]
    lower, upper = col["bound_lower"], col["bound_upper"]
    return sum(
        1
        for row in values
        if row[sigma2] > row[upper] + 3.0 * row[se] or row[sigma2] < row[lower] - 3.0 * row[se]
    )


def check_run(run_dir: Path, steps: int, presets: dict) -> tuple[list[str], dict]:
    """Failures of one run directory, and facts recorded about it.

    Every run must write steps + 1 finite ``moments.csv`` rows, and its
    ``summary.txt`` must agree with ``moments.csv`` and ``updates.csv``.
    ``presets`` adds acceptance-suite values (see ``workloads.Workload``).
    """
    try:
        moments = (run_dir / "moments.csv").read_bytes()
        header, rows = _read_csv(run_dir / "moments.csv")
        values = [[float(x) for x in row] for row in rows]
        summary = _read_summary(run_dir / "summary.txt")
        _, updates = _read_csv(run_dir / "updates.csv")
        cost_j = float(summary["cost_J"])
        update_fraction = float(summary["update_fraction"])
        misses = envelope_misses(header, values)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    failures = []
    if len(values) != steps + 1:
        failures.append(f"moments.csv has {len(values)} rows, expected {steps + 1}")
    if any(len(row) != len(header) for row in values):
        failures.append("moments.csv has ragged rows")
    if not all(math.isfinite(x) for row in values for x in row):
        failures.append("moments.csv holds a non-finite value")
    if summary.get("n_steps") != str(steps):
        failures.append(f"summary n_steps = {summary.get('n_steps')}, expected {steps}")
    if summary.get("update_count") != str(len(updates)):
        failures.append("summary update_count disagrees with updates.csv")
    if values and cost_j != values[-1][header.index("running_J")]:
        failures.append("summary cost_J disagrees with the last running_J")
    if "cost_J" in presets:
        ref, rel = presets["cost_J"]
        if not abs(cost_j - ref) <= rel * abs(ref):
            failures.append(f"cost_J {cost_j:.6g} not within {rel:.0%} of {ref}")
    if "update_fraction" in presets:
        ref, tol = presets["update_fraction"]
        if not abs(update_fraction - ref) <= tol:
            failures.append(f"update fraction {update_fraction:.4g} not within {ref}+-{tol}")
    if presets.get("envelope") and misses:
        failures.append(f"{misses} rows outside the envelope +- 3 SE")
    facts = {
        "moments_sha256": hashlib.sha256(moments).hexdigest(),
        "envelope_misses": misses,
        "update_fraction": update_fraction,
        "cost_J": cost_j,
    }
    return failures, facts
