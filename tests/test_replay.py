"""A run that replays or coasts through free steps logs the stepped run.

Every untimed run under the ideal plant coasts through steps with nothing
to correct in blocks (``Engine.coast``), and with
``safe_exec.run(..., nominal=rollout)`` its first block reads the steps
that the rollout already holds instead of computing them.  A timed engine
steps every row, so these tests compare such runs with the same run of a
timed engine, bit for bit, over random obstacles, perturbations, goal
tolerances and horizons.  The runs that must step every row (a timed
engine, a lagging plant) call ``control`` once per logged row; a rollout of
another ``dt`` or model, or a run perturbed at step 0, is not replayed.
"""

import collections
import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safedmp import baselines, bench, dmp, safe_exec
from safedmp import trajectory as tj
from safedmp.errors import SafeDmpError

DT = 0.005
SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


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


def count_coasts(engine) -> list:
    """The steps at which the engine is asked to coast from here on."""
    steps = []
    coast = engine.coast

    def counting(x_measured, k, n, nominal=None):
        steps.append(k)
        return coast(x_measured, k, n, nominal)

    engine.coast = counting
    return steps


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

    # the unperturbed run's replayed first block, the coast call at step 0:
    # the steps before the engine's first control call or next coast call,
    # and its last step
    probe = build(method, model, rollout, **args)
    asked = count_controls(probe)
    coasts = count_coasts(probe)
    end = safe_exec.run(probe, max_steps=max_steps, nominal=rollout).steps
    assert coasts[:1] == [0]
    free = min([round(t / DT) for t in asked[:1]] + coasts[1:2] + [end])

    # perturbations at t=0, about the prefix's last step, about the run's
    # last step (whose goal test a perturbation changes) and past the rollout
    steps = st.sampled_from(
        [0, max(free - 1, 0), free, free + 1, max(end - 1, 0), end,
         rollout.steps + 3]
    )
    perturbations = [
        bench.Perturbation(k * DT, 0.05 * np.array(offset))
        for k, offset in data.draw(
            st.lists(st.tuples(steps, st.tuples(unit, unit, unit)), max_size=3)
        )
    ]
    stepped = safe_exec.run(
        build(method, model, rollout, timed=True, **args),
        perturbations=perturbations, max_steps=max_steps,
    )
    for nominal in (rollout, None):  # replayed and coasted, coasted only
        log = safe_exec.run(
            build(method, model, rollout, **args), perturbations=perturbations,
            max_steps=max_steps, nominal=nominal,
        )
        assert_same_log(log, stepped)


@pytest.mark.parametrize("method", bench.METHODS)
def test_free_run_replays_every_row(method, sshape_model, sshape_nominal):
    engine = build(method, sshape_model, sshape_nominal)
    calls = count_controls(engine)
    log = safe_exec.run(engine, nominal=sshape_nominal)
    assert calls == []
    assert log.converged and log.steps == sshape_nominal.steps
    assert_same_log(log, safe_exec.run(build(method, sshape_model, sshape_nominal)))


@pytest.mark.parametrize("method", bench.METHODS)
@pytest.mark.parametrize(
    "case", ["timed", "lag", "other dt", "other model", "perturbed at step 0"])
def test_runs_that_must_step_every_row(case, method, sshape_model, sshape_nominal):
    """A timed engine and a lagging plant step every row; a rollout of
    another ``dt`` or model object, or a perturbation at step 0, replays
    nothing, so the run coasts from step 0 and logs the timed run's rows."""
    rollout, model, plant, timed = sshape_nominal, sshape_model, None, False
    perturbations = ()
    if case == "timed":
        timed = True
    elif case == "lag":
        plant = safe_exec.FirstOrderLagPlant(0.05, DT)
    elif case == "other dt":
        rollout = dmp.rollout(sshape_model, 0.004)
    elif case == "other model":  # the same floats in another model object
        model = dmp.model_from_dict(dmp.model_to_dict(sshape_model))
    else:  # the run's model and dt, but no steps: reading them would raise
        perturbations = [bench.Perturbation(0.0, np.array([0.02, -0.01, 0.0]))]
        rollout = dataclasses.replace(
            sshape_nominal, trajectory=None, velocities=None, phases=None)
    engine = build(method, model, sshape_nominal, timed=timed)
    calls = count_controls(engine)
    coasts = count_coasts(engine)
    log = safe_exec.run(engine, plant=plant, perturbations=perturbations,
                        nominal=rollout)
    assert log.steps > 0
    if case in ("timed", "lag"):
        assert len(calls) == log.steps and coasts == []
    else:
        assert coasts[0] == 0 and len(calls) < log.steps
    if plant is None:
        stepped = safe_exec.run(build(method, sshape_model, sshape_nominal, timed=True),
                                perturbations=perturbations)
        assert_same_log(log, stepped)


@pytest.mark.parametrize("method", bench.METHODS)
def test_goal_whose_squares_overflow_ends_the_prefix(method):
    """1e160 m from the goal passes a 1e200 m tolerance, although the
    squared distance overflows: the first block's goal screen must keep it."""
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
        return baselines.ApfEngine(model, rollout.trajectory, dt=DT,
                                   goal_tol=1e200)

    replayed = safe_exec.run(engine(), nominal=rollout)
    stepped = safe_exec.run(engine())
    assert stepped.steps == 1 and stepped.converged
    assert_same_log(replayed, stepped)


@pytest.mark.parametrize("length", [2, 50])
def test_apf_reference_shorter_than_the_prefix(length, sshape_model, sshape_nominal):
    """A dmp-apf reference of its own, shorter than the replayed first
    block: the rows log its points, then its last point, as stepped rows do."""
    points = sshape_nominal.trajectory.points[:length] + 0.25
    reference = tj.TimedTrajectory(np.arange(length) * DT, points)

    def engine():
        return baselines.ApfEngine(sshape_model, reference, dt=DT)

    replaying = engine()
    calls = count_controls(replaying)
    replayed = safe_exec.run(replaying, nominal=sshape_nominal)
    stepped = safe_exec.run(engine())
    assert calls == [] and replayed.steps == sshape_nominal.steps > length
    assert_same_log(replayed, stepped)
    xn = replayed.rows[:, 1:4]
    assert np.array_equal(xn[:length], points)
    assert np.array_equal(xn[length:], np.broadcast_to(points[-1], xn[length:].shape))


def test_apf_stepped_rows_follow_the_seek_point(sshape_model, sshape_nominal):
    """A perturbation ends the replayed block at step 100 of a 120-point
    reference, and the perturbed step coasts, since its repulsion is zero;
    the later rows' reference columns go on from step 100, bit for bit as in
    the timed run, and hold the reference's last point past its end."""
    reference = tj.TimedTrajectory(sshape_nominal.trajectory.times[:120],
                                   sshape_nominal.trajectory.points[:120] - 0.5)
    perturbations = [bench.Perturbation(100 * DT, np.array([0.02, -0.01, 0.0]))]
    engines = [baselines.ApfEngine(sshape_model, reference, dt=DT, timed=timed)
               for timed in (False, True)]
    calls = count_controls(engines[0])
    coasts = count_coasts(engines[0])
    replayed, stepped = (
        safe_exec.run(engine, perturbations=perturbations, nominal=nominal)
        for engine, nominal in zip(engines, (sshape_nominal, None))
    )
    assert calls == [] and coasts[:2] == [0, 100]
    assert_same_log(replayed, stepped)
    xn = replayed.rows[:, 1:4]
    assert np.array_equal(xn[:120], reference.points)
    assert np.array_equal(xn[120:], np.broadcast_to(reference.points[-1], xn[120:].shape))


def raising_model(case):
    """A d=2 model whose phase grid stops: the phase step passes zero at
    step 0, the basis stops covering the phase at step 92, or the phase
    underflows to exactly 0 at step 162."""
    tau, alpha, widths = {
        "phase step past zero": (0.01, 25.0, [3000.0, 3000.0]),
        "degenerate basis": (0.5, 25.0, [3000.0, 3000.0]),
        "phase underflow": (DT / 0.99, 6.0, [1.0, 1.0]),
    }[case]
    return dmp.DmpModel(
        d=2, n_basis=2, alpha=alpha, tau_nominal=tau, x0=np.zeros(2),
        g=np.array([1.0, -0.5]), centers=np.array([1.0, 0.5]),
        widths=np.array(widths), weights=np.array([[1.0, -2.0], [0.5, 3.0]]),
    )


@pytest.mark.parametrize("method", bench.METHODS)
@pytest.mark.parametrize(
    "case", ["phase step past zero", "degenerate basis", "phase underflow"])
def test_coasted_run_raises_where_the_stepped_run_does(case, method):
    """A block stops before a step at which ``forcing_at`` or ``phase_step``
    raises, so the run raises at that step, as the timed run does.  The
    perturbation takes safedmp's phase off the grid first."""
    model = raising_model(case)
    reference = tj.TimedTrajectory(np.array([0.0, DT]), np.stack((model.x0, model.g)))
    perturbations = [bench.Perturbation(20 * DT, np.array([0.01, -0.02]))]
    raised = []
    for timed in (True, False):
        if method == "safedmp":
            engine = safe_exec.SafeDmpEngine(model, dt=DT, goal_tol=0.0, timed=timed)
        else:
            engine = baselines.ApfEngine(model, reference, dt=DT, goal_tol=0.0,
                                         timed=timed)
        with pytest.raises(SafeDmpError) as err:
            safe_exec.run(engine, perturbations=perturbations, max_steps=1000)
        raised.append((type(err.value), str(err.value), engine._k, engine.z))
    assert raised[0] == raised[1]

def test_canned_pass_control_traffic(monkeypatch):
    """The ``control`` calls of one ``bench.compare`` pass over
    ``scenarios/``, main runs and twins, that replay and coasting leave to
    step (6845 safedmp and 8712 dmp-apf rows are logged).  A gate that
    stops a block from being taken shows up here as a count."""
    calls = collections.Counter()
    for engine_class in (safe_exec.SafeDmpEngine, baselines.ApfEngine):
        def counting(self, x_measured, t, control=engine_class.control,
                     name=engine_class.__name__):
            calls[name] += 1
            return control(self, x_measured, t)

        monkeypatch.setattr(engine_class, "control", counting)
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        bench.compare([bench.load_scenario(path)])
    assert dict(calls) == {"SafeDmpEngine": 477, "ApfEngine": 1898}
