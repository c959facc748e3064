"""The benchmark's workloads and the output checks that apply to each.

This module imports neither numpy nor the package, so the parent process of
the benchmark stays small; ``worker.py`` turns a workload into configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    why: str
    # Non-empty: the workload is one ``cli.run_sweep`` over these deltas plus
    # the closed-loop baseline; empty: one ``cli.run_experiment``.
    deltas: tuple = ()
    # Run length in steps; None keeps the preset's horizon.
    steps: int | None = None
    # Acceptance-suite values that hold at the workload's own run length:
    # label -> {"cost_J": (reference, relative tolerance),
    #           "update_fraction": (reference, absolute tolerance),
    #           "envelope": True (inside the envelope +- 3 SE on every row)}
    presets: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="opinion-sweep",
            config="configs/test1.cfg",
            why="test1 sweep over deltas 1, 0.1, 1e-8 plus the closed loop at one "
            "seed: shared partner draws, rebuilt bundles, micro.csv, trigger search",
            deltas=(1.0, 0.1, 1e-8),
            presets={"closed_loop": {"envelope": True}},
        ),
        Workload(
            name="alignment-run",
            config="configs/test2.cfg",
            why="test2 as shipped: n=1e5, m=100, second order, Cucker-Smale; "
            "large-m interaction and the (n, m, d) temporaries",
            presets={"run": {"cost_J": (3.0059, 0.02), "update_fraction": (0.13, 0.05)}},
        ),
        Workload(
            name="aggregation-run",
            config="configs/test3.cfg",
            why="test3 (n=1e5, m=10, 2-D) cut to 120 steps: small m, so the O(n) "
            "per-step layers and the 2-D gather dominate",
            steps=120,
        ),
    )
}


def run_labels(workload: Workload) -> list[str]:
    """Output directory of each run, in run order; a sweep's are named as
    ``cli.run_sweep`` names them."""
    if not workload.deltas:
        return ["run"]
    return [f"delta_{d:g}" for d in workload.deltas] + ["closed_loop"]
