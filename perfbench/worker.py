"""Child process of the benchmark.

``run.py`` starts one worker per set-up batch and one per timed call,
so each call's peak RSS is its own.  The worker prints one JSON object.

    python3 perfbench/worker.py setup <workload> <seed> <steps|-> <repeats>
    python3 perfbench/worker.py run <workload> <seed> <steps|-> <out_dir> <trace 0|1>
"""

from __future__ import annotations

import dataclasses
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from mdpc import cli, mdpc, riccati  # noqa: E402
from workloads import WORKLOADS, run_labels  # noqa: E402


def base_config(workload, seed: int, steps: int | None):
    """The workload's config, with the benchmark seed and run length.

    ``steps`` overrides the workload's own run length."""
    cfg = cli.load_config(ROOT / workload.config)
    steps = steps or workload.steps
    horizon = cfg.horizon if steps is None else steps * cfg.dt
    return dataclasses.replace(cfg, seed=seed, horizon=horizon)


def task_configs(workload, cfg) -> list:
    """(label, config) of each run, as ``cli.run_sweep`` derives them."""
    if not workload.deltas:
        return [("run", cfg)]
    cfgs = [dataclasses.replace(cfg, delta=float(d)) for d in workload.deltas]
    cfgs.append(dataclasses.replace(cfg, mode=mdpc.MODE_CLOSED, delta=None, tau=None))
    return list(zip(run_labels(workload), cfgs))


def setup(workload, seed, steps, repeats: int) -> dict:
    """Time ``load_config`` + ``build_bundle`` ``repeats`` times."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        cfg = base_config(workload, seed, steps)
        cli.build_bundle(cfg)
        times.append(time.perf_counter() - start)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "setup_s": times,
        "tasks": [
            {
                "label": label,
                "n_samples": c.n_samples,
                "steps": round(c.horizon / c.dt),
                "mode": c.mode,
            }
            for label, c in task_configs(workload, cfg)
        ],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def run(workload, seed, steps, out: Path, traced: bool) -> dict:
    """One timed ``run_sweep``/``run_experiment`` call, then untimed checks."""
    cfg = base_config(workload, seed, steps)
    tasks = task_configs(workload, cfg)
    recorder = spans.Recorder() if traced else None
    restore = spans.install(recorder) if traced else None
    start = time.perf_counter()
    if workload.deltas:
        cli.run_sweep(cfg, workload.deltas, jobs=1, out_dir=out)
    else:
        cli.run_experiment(cfg, out / "run")
    wall = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "wall_s": wall,
        "peak_rss_mib": peak_rss_mib,
        "particle_steps": sum(c.n_samples * round(c.horizon / c.dt) for _, c in tasks),
        "bytes_written": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
    }
    if traced:
        restore()
        result["layers"] = spans.layer_metrics(recorder)
        spans.write_spans(recorder, out / "spans.jsonl")
    # Gain defect of each run's Riccati solve against the closed form.
    result["riccati_defect"] = {}
    for label, c in tasks:
        ric = cli.build_bundle(c).ric
        defect = np.max(np.abs(ric.s - riccati.s_closed_form(ric.t, c.nu, c.horizon)))
        result["riccati_defect"][label] = float(defect)
    return result


def main(argv) -> int:
    verb, name, seed, steps = argv[:4]
    workload = WORKLOADS[name]
    seed = int(seed)
    steps = None if steps == "-" else int(steps)
    if verb == "setup":
        result = setup(workload, seed, steps, int(argv[4]))
    else:
        result = run(workload, seed, steps, Path(argv[4]), argv[5] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
