"""Smoke test of the benchmark itself, at three steps per run.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(workload: str, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--steps", "3"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_manifest_names_the_workloads():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in MANIFEST["end_to_end"]] == list(bench.END_TO_END_UNITS)
    assert [m["name"] for m in MANIFEST["per_layer"]] == list(bench.PER_LAYER_UNITS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace):
    lines = invoke(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    section = MANIFEST["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines
        ), name
    assert lines[0].startswith("stamp = ")
    stamp = json.loads(lines[0].split(" = ", 1)[1])
    assert {"nproc", "python", "numpy", "threads", "git_commit", "seed"} <= set(stamp)


def _drop_last_row(path: Path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _nan_value(path: Path):
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = "nan," + lines[5].split(",", 1)[1]
    path.write_text("".join(lines))


def _truncate(path: Path):
    path.write_text(path.read_text()[:200])


@pytest.fixture(scope="module")
def sweep_output():
    invoke("opinion-sweep", 0)
    out = HERE / "out" / "opinion-sweep"
    return out, json.loads((out / "result.json").read_text())


@pytest.mark.parametrize("corrupt", [_drop_last_row, _nan_value, _truncate])
def test_corrupted_output_counts_as_failed(corrupt, sweep_output, tmp_path):
    out, record = sweep_output
    tasks = record["setup"]["tasks"]
    call = record["calls"][0]
    workload = WORKLOADS["opinion-sweep"]
    assert not any(bench.check_call(workload, tasks, out / "call-0", call, {}, True).values())
    broken = tmp_path / "call"
    shutil.copytree(out / "call-0", broken)
    corrupt(broken / "delta_0.1" / "moments.csv")
    failures = bench.check_call(workload, tasks, broken, call, {}, True)
    assert failures["delta_0.1"]
    assert not any(found for label, found in failures.items() if label != "delta_0.1")


def test_repeat_with_other_bytes_counts_as_failed(sweep_output):
    out, record = sweep_output
    call = record["calls"][0]
    reference = {label: "0" * 64 for label in call["facts"]}
    failures = bench.check_call(
        WORKLOADS["opinion-sweep"], record["setup"]["tasks"], out / "call-0", call, reference, True
    )
    assert all(failures.values())


def test_counting_generator_keeps_the_stream():
    import numpy as np

    import spans
    from mdpc import ensemble

    recorder = spans.Recorder()
    for n, m in ((1000, 100), (500, 400), (9000, 300)):
        plain = ensemble.sample_partners(ensemble.step_rng(7, 3), n, m)
        counted = ensemble.sample_partners(
            spans.CountingGenerator(ensemble.step_rng(7, 3), recorder), n, m
        )
        np.testing.assert_array_equal(plain, counted)
    assert recorder.rows_drawn >= 1000 + 500 + 9000
