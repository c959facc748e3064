"""Benchmark of the mdpc pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs the workload's ``cli.run_sweep``/``cli.run_experiment`` call again and
again, each time in a fresh worker process, until the next call would end
after ``--seconds`` (at least twice).  A separate worker times repeated
set-ups.  Every run's output files are checked.  Prints each metric as
``name = value unit``, then one JSON line with the result.  With ``--trace 1``
every second call runs with layer spans on and the metrics are the
per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
MIN_CALLS = 2
# A worker that runs longer is killed; the whole benchmark must end in 180 s.
WORKER_TIMEOUT_S = 150.0
DEADLINE_S = 160.0
RICCATI_DEFECT_TOL = 1e-6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "particle_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}
PER_LAYER_UNITS = {
    "ensemble.partners_ms": "ms/step",
    "ensemble.partners_calls": "count",
    "ensemble.partner_draw_ratio": "ratio",
    "ensemble.step_self_ms": "ms/step",
    "ensemble.moments_ms": "ms/step",
    "ensemble.sample_initial_ms": "ms/call",
    "ensemble.pair_evals": "count/step",
    "ensemble.gather_bytes_computed": "B/step",
    "kernels.eval_ms": "ms/step",
    "kernels.evals_per_s": "1/s",
    "control.evaluate_ms": "ms/step",
    "control.cost_ms": "ms/step",
    "bounds.profile_ms": "ms/step",
    "bounds.profile_calls": "count",
    "bounds.adaptive_envelope_misses": "count",
    "riccati.solve_ms": "ms/call",
    "riccati.finite_n_ms": "ms/call",
    "mdpc.run_s": "s",
    "mdpc.self_ms": "ms/step",
    "mdpc.updates": "count",
    "cli.build_bundle_calls": "count",
    "cli.build_bundle_ms": "ms/call",
    "cli.micro_ms": "ms/call",
    "cli.write_ms": "ms/run",
    "cli.bytes_written": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}


class WorkerError(RuntimeError):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steps",
        type=int,
        default=None,
        help="cut every run to this many steps (smoke test); skips the "
        "acceptance values, which hold at the workload's own length only",
    )
    args = parser.parse_args(argv)
    if args.steps is not None and args.steps < 1:
        parser.error("--steps must be at least 1")
    return args


def worker(argv, env) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *map(str, argv)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {argv[0]} timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker {argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def check_call(workload, tasks, call_dir, result, reference, use_presets) -> dict:
    """Failures per run label of one call; fills ``reference`` on first use."""
    failures = {}
    for task in tasks:
        label = task["label"]
        presets = workload.presets.get(label, {}) if use_presets else {}
        found, facts = checks.check_run(call_dir / label, task["steps"], presets)
        defect = result["riccati_defect"][label]
        if not defect <= RICCATI_DEFECT_TOL:
            found.append(f"Riccati gain defect {defect:.3g} > {RICCATI_DEFECT_TOL}")
        sha = facts.get("moments_sha256")
        if reference.setdefault(label, sha) != sha:
            found.append("moments.csv differs from the first call at the same seed")
        failures[label] = found
        result.setdefault("facts", {})[label] = facts
    return failures


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    for needed in (ROOT / "src" / "mdpc" / "__init__.py", ROOT / workload.config):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a checkout "
                  "of the repository", file=sys.stderr)
            return 2
    seed = args.seed % 2**63
    steps = "-" if args.steps is None else args.steps
    nproc = len(os.sched_getaffinity(0))
    # A fixed hash seed keeps dict and set layouts, and so timings, the same
    # from one worker process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0", **{var: str(nproc) for var in THREAD_VARS})
    out = HERE / "out" / workload.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        setup = worker(["setup", workload.name, seed, steps, SETUP_REPEATS], env)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tasks = setup["tasks"]
    stamp = {
        "workload": workload.name,
        "seed": seed,
        "nproc": nproc,
        "python": setup["python"],
        "numpy": setup["numpy"],
        "blas": setup["blas"],
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": git_commit(),
    }
    print("stamp = " + json.dumps(stamp))

    calls, failed_labels = [], []
    reference: dict = {}
    attempted = 0
    measure_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        call_dir = out / f"call-{len(calls)}"
        begin = time.perf_counter()
        attempted += len(tasks)
        try:
            result = worker(["run", workload.name, seed, steps, call_dir, int(traced)], env)
            result["failures"] = check_call(
                workload, tasks, call_dir, result, reference, args.steps is None
            )
        except WorkerError as exc:
            result = {"error": str(exc), "failures": {t["label"]: [str(exc)] for t in tasks}}
        duration = time.perf_counter() - begin
        result["traced"] = traced
        for label, found in result["failures"].items():
            if found:
                failed_labels.append(label)
            for text in found:
                print(f"FAILED call {len(calls)} {label}: {text}", file=sys.stderr)
        calls.append(result)
        now = time.perf_counter()
        if now - started + duration > DEADLINE_S:
            break
        if len(calls) >= MIN_CALLS and now - measure_start + duration > args.seconds:
            break

    done = [c for c in calls if "error" not in c]
    plain = [c for c in done if not c["traced"]]
    traced_calls = [c for c in done if c["traced"]]
    if not plain or (args.trace and not traced_calls):
        print("error: no call of the kind needed completed; see the FAILED lines",
              file=sys.stderr)
        return 1
    median = statistics.median
    if args.trace:
        layer_names = traced_calls[0]["layers"]
        metrics = {k: median(c["layers"][k] for c in traced_calls) for k in layer_names}
        metrics["cli.bytes_written"] = median(c["bytes_written"] for c in traced_calls)
        adaptive = {t["label"] for t in tasks if t["mode"] in ("sigma", "mean_sigma")}
        metrics["bounds.adaptive_envelope_misses"] = sum(
            facts.get("envelope_misses", 0)
            for label, facts in traced_calls[-1]["facts"].items()
            if label in adaptive
        )
        untraced_wall = median(c["wall_s"] for c in plain)
        overhead = median(c["wall_s"] for c in traced_calls) - untraced_wall
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_frac"] = overhead / untraced_wall
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": median(c["wall_s"] for c in plain),
            "particle_steps_per_s": median(c["particle_steps"] / c["wall_s"] for c in plain),
            "setup_s": median(setup["setup_s"]),
            "peak_rss_mib": median(c["peak_rss_mib"] for c in plain),
            "ok_frac": 1.0 - len(failed_labels) / attempted,
        }
        units = END_TO_END_UNITS

    print(f"calls = {len(calls)} ({len(traced_calls)} traced), runs attempted = "
          f"{attempted}, failed = {len(failed_labels)}, "
          f"failed_frac = {len(failed_labels) / attempted:.4g}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    (out / "result.json").write_text(
        json.dumps({"stamp": stamp, "setup": setup, "calls": calls, "metrics": metrics},
                   indent=1)
    )
    print(
        json.dumps(
            {
                "correct": not failed_labels,
                "attempted": attempted,
                "failed": len(failed_labels),
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
