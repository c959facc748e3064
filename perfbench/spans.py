"""Layer spans taken from outside the package.

``install`` replaces public module attributes of ``mdpc`` with wrappers that
record a span per call.  Every call site in the package looks these names up
at call time (``ensemble.sample_partners``, ``kernels.evaluate_sqdist``,
module globals such as ``cli.build_bundle``), so the wrappers see every call.
Spans stay in memory; ``write_spans`` dumps them when the worker ends.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from mdpc import bounds, cli, control, ensemble, kernels, mdpc, riccati

STEP = "ensemble.step"
PARTNERS = "ensemble.sample_partners"
KERNEL = "kernels.evaluate_sqdist"
RUN = "cli.run_experiment"


class Recorder:
    """Spans as [name, start_ns, end_ns, parent index, run index, info]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._run = -1
        self.rows_drawn = 0

    def call(self, name, info, fn, args, kwargs):
        idx = len(self.spans)
        outer_run = self._run
        if name == RUN:
            self._run = idx
        span = [name, 0, 0, self._stack[-1] if self._stack else -1, self._run, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()
            self._run = outer_run
        if info is not None:
            span[5] = info(args, result)
        return result


class CountingGenerator:
    """Delegates to a numpy Generator and counts the rows each draw requests.

    Only counting happens here; every value comes from the wrapped generator,
    so the partner stream, and with it every output file, is unchanged.
    """

    def __init__(self, gen, recorder: Recorder):
        self._gen = gen
        self._rec = recorder

    def integers(self, low, high=None, size=None, *args, **kwargs):
        self._rec.rows_drawn += _rows(size)
        return self._gen.integers(low, high, size, *args, **kwargs)

    def random(self, size=None, *args, **kwargs):
        self._rec.rows_drawn += _rows(size)
        return self._gen.random(size, *args, **kwargs)

    def choice(self, *args, **kwargs):
        self._rec.rows_drawn += 1
        return self._gen.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _rows(size) -> int:
    return int(size[0]) if isinstance(size, tuple) and len(size) > 1 else 1


def _partner_info(args, result):
    return result.shape  # (rows kept, partners per row)


def _kernel_info(args, result):
    return int(np.size(args[1]))


def _step_info(args, result):
    return args[0].dim


def _run_info(args, result):
    return len(result.update_times)


# (module, attribute, span name, info) for every wrapped call.
_TARGETS = [
    (ensemble, "sample_partners", PARTNERS, _partner_info),
    (ensemble, "mfmc_step_first_order", STEP, _step_info),
    (ensemble, "mfmc_step_second_order", STEP, _step_info),
    (ensemble, "empirical_moments", "ensemble.moments", None),
    (ensemble, "sigma2_standard_error", "ensemble.moments", None),
    (ensemble, "sample_initial", "ensemble.sample_initial", None),
    (kernels, "evaluate_sqdist", KERNEL, _kernel_info),
    (control, "evaluate_control", "control.evaluate", None),
    (control, "accumulate_cost", "control.cost", None),
    (bounds, "envelope_profiles", "bounds.profile", None),
    (bounds, "delta_sigma_profile", "bounds.profile", None),
    (bounds, "delta_m_profile", "bounds.profile", None),
    (riccati, "solve_limit", "riccati.solve", None),
    (riccati, "solve_scaled_finite_n", "riccati.finite_n", None),
    (mdpc, "run_mdpc", "mdpc.run", _run_info),
    (cli, "run_experiment", RUN, None),
    (cli, "build_bundle", "cli.build_bundle", None),
    (cli, "write_moments_csv", "cli.write", None),
    (cli, "write_updates_csv", "cli.write", None),
    (cli, "write_summary", "cli.write", None),
    (cli, "write_snapshots_csv", "cli.write", None),
    (cli, "write_micro_csv", "cli.micro", None),
]


def install(recorder: Recorder):
    """Wrap every target; returns a function that puts the originals back."""
    originals = []

    def wrap(module, attr, name, info):
        fn = getattr(module, attr)
        originals.append((module, attr, fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, info, fn, args, kwargs)

        setattr(module, attr, wrapper)

    for target in _TARGETS:
        wrap(*target)
    step_rng = ensemble.step_rng
    originals.append((ensemble, "step_rng", step_rng))
    ensemble.step_rng = functools.wraps(step_rng)(
        lambda *args, **kwargs: CountingGenerator(step_rng(*args, **kwargs), recorder)
    )

    def restore():
        for module, attr, fn in originals:
            setattr(module, attr, fn)

    return restore


def self_times(spans) -> list[int]:
    """Span duration minus the time its direct children cover, in ns."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer figures of one traced call, by metric name."""
    spans = recorder.spans
    own = self_times(spans)
    names = [s[0] for s in spans]

    def total_ms(name, where=lambda i: True):
        return sum(own[i] for i, n in enumerate(names) if n == name and where(i)) / 1e6

    def calls(name, where=lambda i: True):
        return sum(1 for i, n in enumerate(names) if n == name and where(i))

    def per_call_ms(name, where=lambda i: True):
        count = calls(name, where)
        return total_ms(name, where) / count if count else 0.0

    def parent_is(name):
        return lambda i: spans[i][3] >= 0 and names[spans[i][3]] == name

    steps = calls(STEP)
    runs = calls(RUN)
    in_step = parent_is(STEP)
    partners = [i for i, n in enumerate(names) if n == PARTNERS]
    rows_kept = sum(spans[i][5][0] for i in partners)
    gather_bytes = sum(
        2 * 8 * spans[i][5][0] * spans[i][5][1] * spans[spans[i][3]][5]
        for i in partners
        if in_step(i)
    )
    pair_evals = sum(spans[i][5] for i, n in enumerate(names) if n == KERNEL and in_step(i))
    kernel_ms = total_ms(KERNEL, in_step)
    run_spans = [s for s in spans if s[0] == "mdpc.run"]
    return {
        "ensemble.partners_ms": total_ms(PARTNERS) / steps,
        "ensemble.partners_calls": len(partners),
        "ensemble.partner_draw_ratio": recorder.rows_drawn / rows_kept,
        "ensemble.step_self_ms": total_ms(STEP) / steps,
        "ensemble.moments_ms": total_ms("ensemble.moments") / steps,
        "ensemble.sample_initial_ms": per_call_ms(
            "ensemble.sample_initial", parent_is("cli.build_bundle")
        ),
        "ensemble.pair_evals": pair_evals / steps,
        "ensemble.gather_bytes_computed": gather_bytes / steps,
        "kernels.eval_ms": kernel_ms / steps,
        "kernels.evals_per_s": pair_evals / (kernel_ms / 1e3),
        "control.evaluate_ms": total_ms("control.evaluate") / steps,
        "control.cost_ms": total_ms("control.cost") / steps,
        "bounds.profile_ms": total_ms("bounds.profile") / steps,
        "bounds.profile_calls": calls(
            "bounds.profile", lambda i: not parent_is("bounds.profile")(i)
        ),
        "riccati.solve_ms": per_call_ms("riccati.solve"),
        "riccati.finite_n_ms": per_call_ms("riccati.finite_n"),
        "mdpc.run_s": sum(s[2] - s[1] for s in run_spans) / 1e9 / len(run_spans),
        "mdpc.self_ms": total_ms("mdpc.run") / steps,
        "mdpc.updates": sum(s[5] for s in run_spans),
        "cli.build_bundle_calls": calls("cli.build_bundle"),
        "cli.build_bundle_ms": per_call_ms("cli.build_bundle"),
        "cli.micro_ms": per_call_ms("cli.micro"),
        "cli.write_ms": total_ms("cli.write") / runs,
        "trace.spans": len(spans),
    }


def write_spans(recorder: Recorder, path) -> None:
    """One JSON array per line: name, start_ns, end_ns, parent, run, info."""
    with open(path, "w") as fh:
        for span in recorder.spans:
            fh.write(json.dumps(span) + "\n")
