"""The benchmark's tracer still finds and understands the engine entry points.

``perfbench/tracing.py`` wraps targets it reads from each owner's
``__dict__`` and expects ``SafeDmpEngine.control`` to return a 5-tuple of
plain sequences (its hook compares ``x_safe != x_target`` as one bool).  This
test installs the tracer around one small comparison and one logged run, so a
refactor that breaks those assumptions fails here rather than only in a
traced benchmark run.
"""

import importlib.util
import pathlib

import numpy as np

from safedmp import bench, safe_exec

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_both_engines(sshape_model, sshape_nominal):
    tracer = load_tracing().Tracer()
    scenario = bench.load_scenario(ROOT / "scenarios" / "free_minjerk.json")
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
