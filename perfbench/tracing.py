"""In-process tracing of safedmp's layers, installed from outside the program.

The tracer replaces module functions and engine methods with wrappers that
time each call and keep per-label totals in memory.  Wrapped calls nest, so
every label gets both its span time and its self time (span minus the time
covered by traced callees).  Nothing under ``src/`` is modified: wrappers are
installed with ``setattr`` and removed again by :meth:`Tracer.uninstall`.

Calls are aggregated instead of stored as individual spans because the
gauntlet makes several hundred thousand control calls per run; the control
methods additionally keep each call's duration so that percentiles can be
reported.
"""

from __future__ import annotations

import gc
import os
import time
from array import array


class Stat:
    """Totals for one traced label."""

    __slots__ = ("calls", "span", "self", "steps", "infeasible", "bytes",
                 "durations", "engaged")

    def __init__(self):
        self.calls = 0
        self.span = 0.0
        self.self = 0.0
        self.steps = 0
        self.infeasible = 0
        self.bytes = 0
        self.durations = array("d")
        self.engaged = bytearray()


def _rollout_done(stat, result, args, self_s):
    stat.steps += result.steps


def _log_done(stat, log, args, self_s):
    stat.steps += log.steps
    stat.infeasible += bool(log.safety_infeasible)


def _control_done(stat, result, args, self_s):
    stat.durations.append(self_s)
    # the engine returns (x_desired, x_nominal, x_target, x_safe, u); the
    # step is engaged when rerouting moved the target
    stat.engaged.append(result[3] != result[2])


def _apf_control_done(stat, result, args, self_s):
    stat.durations.append(self_s)


def _csv_done(stat, result, args, self_s):
    stat.bytes += os.path.getsize(args[1])


def traced_targets():
    """(owner, attribute, label, hook) for every traced entry point."""
    from safedmp import baselines, bench, cli, dmp, safe_exec, stt, trajectory

    return [
        (trajectory, "load_demo", "trajectory.load_demo", None),
        (trajectory, "preprocess", "trajectory.preprocess", None),
        (dmp, "learn_from_trajectory", "dmp.learn_from_trajectory", None),
        (dmp, "rollout", "dmp.rollout", _rollout_done),
        (dmp, "save_model", "dmp.save_model", None),
        (dmp, "load_model", "dmp.load_model", None),
        (stt, "stt_control", "stt.stt_control", None),
        (safe_exec, "run", "safe_exec.run", _log_done),
        (safe_exec.SafeDmpEngine, "step", "safe_exec.step", None),
        (safe_exec.SafeDmpEngine, "control", "safe_exec.control", _control_done),
        (baselines.ApfEngine, "step", "baselines.step", None),
        (baselines.ApfEngine, "control", "baselines.control", _apf_control_done),
        (bench, "compare", "bench.compare", None),
        (bench, "prepare", "bench.prepare", None),
        (bench, "evaluate", "bench.evaluate", None),
        (bench, "run_scenario", "bench.run_scenario", _log_done),
        (bench, "mae", "bench.mae", None),
        (bench, "convergence_time_perturb", "bench.convergence_time_perturb", None),
        (bench, "oscillation_flag", "bench.oscillation_flag", None),
        (cli, "cmd_run", "cli.cmd_run", None),
        (cli, "write_log_csv", "cli.write_log_csv", _csv_done),
    ]


class Tracer:
    """Wraps the traced entry points while installed; counts GC pauses too."""

    def __init__(self):
        self.stats = {}
        self.gc_collections = 0
        self.gc_pause = 0.0
        self._stack = [0.0]
        self._gc_start = 0.0
        self._patches = []
        for owner, attr, label, hook in traced_targets():
            stat = self.stats.setdefault(label, Stat())
            original = owner.__dict__[attr]
            self._patches.append(
                (owner, attr, original, self._wrap(original, stat, hook))
            )

    def stat(self, label: str) -> Stat:
        return self.stats[label]

    def _wrap(self, original, stat, hook):
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                result = original(*args, **kwargs)
            finally:
                span = perf() - start
                child = stack.pop()
                stack[-1] += span
                stat.calls += 1
                stat.span += span
                stat.self += span - child
            if hook is not None:
                hook(stat, result, args, span - child)
            return result

        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_collections += 1
            self.gc_pause += time.perf_counter() - self._gc_start

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
