"""A run that replays its free prefix from the rollout logs the stepped run.

``safe_exec.run(..., nominal=rollout)`` copies the steps that the rollout
already holds instead of stepping them.  These tests compare such runs with
the same run stepped from its first step, bit for bit, over random
obstacles, perturbations, goal tolerances and horizons, and check that the
runs that must not replay (a timed engine, a lagging plant, a rollout of
another ``dt`` or model) call ``control`` once per logged row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safedmp import baselines, bench, dmp, safe_exec

DT = 0.005


def build(method, model, rollout, obstacles=(), goal_tol=dmp.DEFAULT_GOAL_TOL,
          delta_gamma=safe_exec.DEFAULT_DELTA_GAMMA, d0=None, timed=False):
    if method == "safedmp":
        safety = safe_exec.SafetyParams(delta_gamma=delta_gamma)
        return safe_exec.SafeDmpEngine(model, safety, obstacles, DT, goal_tol, timed)
    return baselines.ApfEngine(
        model, rollout.trajectory, baselines.ApfParams(d0=d0), obstacles, DT,
        goal_tol, delta_gamma, timed,
    )


def count_controls(engine) -> list:
    """The times of the engine's ``control`` calls from here on."""
    calls = []
    control = engine.control

    def counting(x_measured, t):
        calls.append(t)
        return control(x_measured, t)

    engine.control = counting
    return calls


def assert_same_log(a, b):
    assert a.rows.shape == b.rows.shape
    assert np.array_equal(a.rows.view(np.int64), b.rows.view(np.int64))
    assert a.converged == b.converged
    assert a.safety_infeasible == b.safety_infeasible


unit = st.floats(-1.0, 1.0)


@st.composite
def obstacle_near(draw, points):
    """A static, crossing or windowed sphere near a point of the path."""
    k = draw(st.integers(0, len(points) - 1))
    center = points[k] + 0.15 * np.array(draw(st.tuples(unit, unit, unit)))
    radius = draw(st.floats(0.01, 0.08))
    kind = draw(st.sampled_from(["static", "crossing", "windowed"]))
    if kind == "crossing":
        # up to 0.3 or 40 m/s per axis: the canned crossing speeds, and one at
        # which an obstacle moves 0.2 m, more than its diameter, per step
        speed = draw(st.sampled_from([0.3, 40.0]))
        velocity = speed * np.array(draw(st.tuples(unit, unit, unit)))
        # on the path point when the run passes it
        return safe_exec.Obstacle(center - velocity * (k * DT), radius, velocity)
    if kind == "windowed":
        t0 = draw(st.floats(0.0, 3.0))
        window = (t0, t0 + draw(st.floats(0.01, 2.0)))
        return safe_exec.Obstacle(center, radius, active_window=window)
    return safe_exec.Obstacle(center, radius)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_replay_equals_stepped_run(data, sshape_model, minjerk_model):
    model = data.draw(st.sampled_from([sshape_model, minjerk_model]))
    method = data.draw(st.sampled_from(bench.METHODS))
    goal_tol = data.draw(st.floats(1e-5, 0.05))
    # 0.3 tau never converges; a rollout made as bench.plan makes it shares
    # the run's step cap and goal tolerance, another may outlast the run
    horizon = data.draw(st.sampled_from([0.3, 2.0, 20.0])) * model.tau_nominal
    max_steps = dmp.step_cap(horizon, DT)
    rollout_horizon = st.sampled_from([horizon, 20.0 * model.tau_nominal])
    rollout = dmp.rollout(
        model, DT, horizon=data.draw(rollout_horizon),
        goal_tol=data.draw(st.sampled_from([goal_tol, 0.1 * goal_tol])),
    )
    points = rollout.trajectory.points
    obstacles = [
        obs for obs in data.draw(st.lists(obstacle_near(points), max_size=3))
        if np.linalg.norm(obs.center0 - model.x0) > obs.radius + 1e-6
    ]
    args = dict(
        obstacles=obstacles, goal_tol=goal_tol,
        delta_gamma=data.draw(st.floats(0.02, 0.2)),
        d0=data.draw(st.none() | st.floats(0.01, 0.3)),
    )

    # the unperturbed run's free prefix: its rows that the engine did not log
    probe = build(method, model, rollout, **args)
    free = safe_exec.run(probe, max_steps=max_steps, nominal=rollout).steps
    free -= len(probe.rows)

    # perturbations at t=0, about the prefix's last step and past the rollout
    steps = st.sampled_from(
        [0, max(free - 1, 0), free, free + 1, rollout.steps + 3]
    )
    perturbations = [
        bench.Perturbation(k * DT, 0.05 * np.array(offset))
        for k, offset in data.draw(
            st.lists(st.tuples(steps, st.tuples(unit, unit, unit)), max_size=3)
        )
    ]
    replayed = safe_exec.run(
        build(method, model, rollout, **args), perturbations=perturbations,
        max_steps=max_steps, nominal=rollout,
    )
    stepped = safe_exec.run(
        build(method, model, rollout, **args), perturbations=perturbations,
        max_steps=max_steps,
    )
    assert_same_log(replayed, stepped)


@pytest.mark.parametrize("method", bench.METHODS)
def test_free_run_replays_every_row(method, sshape_model, sshape_nominal):
    engine = build(method, sshape_model, sshape_nominal)
    calls = count_controls(engine)
    log = safe_exec.run(engine, nominal=sshape_nominal)
    assert calls == []
    assert log.converged and log.steps == sshape_nominal.steps
    assert_same_log(log, safe_exec.run(build(method, sshape_model, sshape_nominal)))


@pytest.mark.parametrize("method", bench.METHODS)
@pytest.mark.parametrize("case", ["timed", "lag", "other dt", "other model"])
def test_runs_that_must_step_every_row(case, method, sshape_model, sshape_nominal):
    rollout, model, plant, timed = sshape_nominal, sshape_model, None, False
    if case == "timed":
        timed = True
    elif case == "lag":
        plant = safe_exec.FirstOrderLagPlant(0.05, DT)
    elif case == "other dt":
        rollout = dmp.rollout(sshape_model, 0.004)
    else:  # the same floats in another model object
        model = dmp.model_from_dict(dmp.model_to_dict(sshape_model))
    engine = build(method, model, sshape_nominal, timed=timed)
    calls = count_controls(engine)
    log = safe_exec.run(engine, plant=plant, nominal=rollout)
    assert log.steps > 0 and len(calls) == log.steps
    if plant is None:
        stepped = safe_exec.run(build(method, sshape_model, sshape_nominal))
        assert_same_log(log, stepped)


@pytest.mark.parametrize("method", bench.METHODS)
def test_goal_whose_squares_overflow_ends_the_prefix(method):
    """1e160 m from the goal passes a 1e200 m tolerance, although the
    squared distance overflows: the prefix's goal screen must keep it."""
    centers, widths = dmp.default_basis(25, 25.0 / 6.0)
    model = dmp.DmpModel(
        d=3, n_basis=25, alpha=25.0, tau_nominal=1.0, x0=np.zeros(3),
        g=np.full(3, 1e160), centers=centers, widths=widths,
        weights=np.zeros((3, 25)),
    )
    rollout = dmp.rollout(model, DT, goal_tol=1e150)

    def engine():
        if method == "safedmp":
            return safe_exec.SafeDmpEngine(model, dt=DT, goal_tol=1e200)
        # the default force clamp takes a norm of g - x0, which overflows
        return baselines.ApfEngine(model, rollout.trajectory,
                                   baselines.ApfParams(max_force=1.0),
                                   dt=DT, goal_tol=1e200)

    replayed = safe_exec.run(engine(), nominal=rollout)
    stepped = safe_exec.run(engine())
    assert stepped.steps == 1 and stepped.converged
    assert_same_log(replayed, stepped)
