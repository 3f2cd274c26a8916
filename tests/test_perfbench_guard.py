"""The benchmark's tracer and workloads still find and drive the program.

``perfbench/tracing.py`` wraps targets it reads from each owner's
``__dict__`` and expects ``SafeDmpEngine.control`` to return a 5-tuple of
plain sequences (its hook compares ``x_safe != x_target`` as one bool).  This
test installs the tracer around one small comparison and one logged run, so a
refactor that breaks those assumptions fails here rather than only in a
traced benchmark run.  ``perfbench/workloads.py`` calls the program's
functions directly; each workload is built and run for one cycle here, so a
refactor that breaks one of its call sites fails here too.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

from safedmp import bench, safe_exec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_both_engines(sshape_model, sshape_nominal):
    tracer = load_perfbench("tracing").Tracer()
    # both methods step after their replayed first block here, so both
    # controls run
    scenario = bench.load_scenario(ROOT / "scenarios" / "static_one_sshape.json")
    obstacle = bench.random_static_blocker(
        sshape_nominal.trajectory, np.random.default_rng(0)
    )
    tracer.install()
    try:
        rows = bench.compare([scenario])
        engine = safe_exec.SafeDmpEngine(sshape_model, obstacles=[obstacle])
        log = safe_exec.run(engine)
    finally:
        tracer.uninstall()
    assert all(row.error is None for row in rows)
    assert log.converged
    control = tracer.stat("safe_exec.control")
    assert control.calls > 0
    assert tracer.stat("baselines.control").calls > 0
    assert any(control.engaged)  # the blocker engaged the projection


@pytest.mark.parametrize("name", ["suite", "sweep", "gauntlet", "cli_run"])
def test_workload_cycle_has_no_failed_ops(name, tmp_path):
    workload = load_perfbench("workloads").WORKLOADS[name](ROOT, 1, tmp_path)
    latencies, failed = workload.cycle()
    assert latencies and failed == 0
    assert not workload.final_failures()
