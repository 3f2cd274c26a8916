import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safedmp import baselines, bench, dmp, safe_exec
from safedmp.errors import InvalidInputError
from safedmp.trajectory import TimedTrajectory


def table(*obstacles, delta_gamma=safe_exec.DEFAULT_DELTA_GAMMA):
    return safe_exec.obstacle_table(obstacles, delta_gamma)


@st.composite
def apf_cases(draw):
    """Random static, moving and windowed spheres, a time, a point near one
    of them, the force parameters and a tube width."""
    d = draw(st.integers(1, 4))
    vector = st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)
    obstacles = []
    for _ in range(draw(st.integers(1, 4))):
        window = None
        if draw(st.booleans()):
            t0 = draw(st.floats(0.0, 10.0))
            window = (t0, t0 + draw(st.floats(1e-3, 10.0)))
        obstacles.append(safe_exec.Obstacle(
            center0=draw(vector),
            radius=draw(st.floats(1e-3, 1.0)),
            velocity=draw(st.none() | vector),
            active_window=window,
        ))
    # window edges are inclusive, so they are among the times drawn
    edges = [t for o in obstacles if o.active_window for t in o.active_window]
    t = draw(st.floats(0.0, 30.0) | st.sampled_from(edges or [0.0]))
    near = draw(st.sampled_from(obstacles))
    offset = draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d))
    x = (near.center0 + near.velocity * t + np.array(offset) * near.radius).tolist()
    params = baselines.ApfParams(
        eta=draw(st.floats(0.0, 1.0)),
        d0=draw(st.none() | st.floats(1e-3, 2.0)),
        max_force=draw(st.none() | st.floats(1e-3, 1e6)),
    )
    return obstacles, t, x, params, draw(st.floats(1e-3, 1.0))


def reference_force(x, obstacles, t, params, delta_gamma):
    """Reference: the potential-field law per obstacle, read off the
    :class:`~safedmp.safe_exec.Obstacle` fields; the norm is numpy's."""
    force = np.zeros(len(x))
    for obs in obstacles:
        if obs.active_window is not None and not (
            obs.active_window[0] <= t <= obs.active_window[1]
        ):
            continue
        diff = np.asarray(x) - (obs.center0 + obs.velocity * t)
        dist = float(np.linalg.norm(diff))
        d_surf = max(dist - obs.radius, baselines.SURFACE_DISTANCE_FLOOR)
        d0 = obs.radius + 0.5 * delta_gamma if params.d0 is None else params.d0
        if d_surf >= d0:
            continue
        magnitude = params.eta * (1.0 / d_surf - 1.0 / d0) / d_surf**2
        if params.max_force is not None:
            magnitude = min(magnitude, params.max_force)
        for i in range(len(x)):
            if dist < 1e-12:
                force[i] += magnitude * float(i == len(x) - 1)
            else:
                force[i] += magnitude * (diff[i] / dist)
    return force


class TestApfForce:
    params = baselines.ApfParams(eta=0.01, d0=0.1, max_force=1e6)

    def test_zero_outside_influence(self):
        obs = safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.05)
        f = baselines.apf_force([1.0, 0.0, 0.0], table(obs), 0.0, self.params)
        np.testing.assert_array_equal(f, 0.0)

    def test_magnitude_at_half_influence(self):
        obs = safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.05)
        d0 = self.params.d0
        x = np.array([0.05 + d0 / 2.0, 0.0, 0.0])
        f = baselines.apf_force(x, table(obs), 0.0, self.params)
        expected = 0.01 * (1.0 / (d0 / 2.0) - 1.0 / d0) / (d0 / 2.0) ** 2
        assert f[0] == pytest.approx(expected, rel=1e-9)
        assert f[1] == 0.0 and f[2] == 0.0

    def test_direction_radially_outward(self):
        rng = np.random.default_rng(2)
        obs = safe_exec.Obstacle(center0=[0.3, -0.2, 0.1], radius=0.05)
        for _ in range(50):
            x = obs.center0 + rng.normal(size=3) * 0.04
            f = baselines.apf_force(x, table(obs), 0.0, self.params)
            radial = x - obs.center0
            if np.linalg.norm(f) > 0:
                cosine = f @ radial / (np.linalg.norm(f) * np.linalg.norm(radial))
                assert cosine == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_pair_cancels_laterally(self):
        obstacles = [
            safe_exec.Obstacle(center0=[0.5, 0.04, 0.25], radius=0.02),
            safe_exec.Obstacle(center0=[0.5, -0.04, 0.25], radius=0.02),
        ]
        x = np.array([0.5, 0.0, 0.25])
        f = baselines.apf_force(x, table(*obstacles), 0.0, self.params)
        assert f[1] == 0.0  # lateral components cancel exactly
        assert f[0] == 0.0 and f[2] == 0.0  # fully symmetric here

    def test_clamped_near_contact(self):
        obs = safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.05)
        params = baselines.ApfParams(eta=0.01, d0=0.1, max_force=5.0)
        x = np.array([0.0500001, 0.0, 0.0])
        f = baselines.apf_force(x, table(obs), 0.0, params)
        assert np.linalg.norm(f) <= 5.0 + 1e-12

    def test_surface_floor_keeps_force_finite(self):
        obs = safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.05)
        params = baselines.ApfParams(eta=0.01, d0=0.1, max_force=None)
        f = baselines.apf_force([0.05, 0.0, 0.0], table(obs), 0.0, params)
        assert np.all(np.isfinite(f))

    def test_inactive_obstacle_ignored(self):
        obs = safe_exec.Obstacle(
            center0=[0.0, 0.0, 0.0], radius=0.05, active_window=(5.0, 9.0)
        )
        f = baselines.apf_force([0.06, 0.0, 0.0], table(obs), 0.0, self.params)
        np.testing.assert_array_equal(f, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(apf_cases())
    def test_matches_obstacle_reference_bit_for_bit(self, case):
        obstacles, t, x, params, delta_gamma = case
        got = baselines.apf_force(
            x, safe_exec.obstacle_table(obstacles, delta_gamma), t, params
        )
        expected = reference_force(x, obstacles, t, params, delta_gamma)
        assert got.tobytes() == expected.tobytes()

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            baselines.ApfParams(eta=-0.1)
        with pytest.raises(InvalidInputError):
            baselines.ApfParams(eta=0.1, d0=-1.0)

    @pytest.mark.parametrize("field, value", [
        ("eta", math.nan), ("eta", math.inf), ("d0", math.nan), ("d0", math.inf),
        ("max_force", math.nan), ("max_force", math.inf),
    ])
    def test_non_finite_param_rejected(self, field, value):
        with pytest.raises(InvalidInputError, match=field):
            baselines.ApfParams(**{field: value})


class TestApfRun:
    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, sshape_model, sshape_nominal, dt):
        with pytest.raises(InvalidInputError):
            baselines.ApfEngine(sshape_model, sshape_nominal.trajectory, dt=dt)

    @pytest.mark.parametrize("engine", [baselines.ApfEngine, safe_exec.SafeDmpEngine])
    def test_obstacle_dimension_must_match_model(self, sshape_model, sshape_nominal,
                                                 engine):
        obstacle = safe_exec.Obstacle(center0=[0.5, 0.5], radius=0.05)
        nominal = {"nominal_reference": sshape_nominal.trajectory}
        with pytest.raises(InvalidInputError, match="obstacle dimension"):
            engine(sshape_model, obstacles=[obstacle],
                   **(nominal if engine is baselines.ApfEngine else {}))

    def test_nominal_reference_is_required(self, sshape_model):
        with pytest.raises(TypeError, match="nominal_reference"):
            baselines.ApfEngine(sshape_model)

    def test_default_clamp_is_resolved_once(self, sshape_model, sshape_nominal):
        engine = baselines.ApfEngine(sshape_model, sshape_nominal.trajectory)
        assert engine.params.max_force == baselines.default_max_force(sshape_model)
        params = baselines.ApfParams(max_force=5.0)
        engine = baselines.ApfEngine(sshape_model, sshape_nominal.trajectory, params)
        assert engine.params is params

    def test_default_clamp_keeps_the_finite_norm(self, sshape_model):
        m = sshape_model
        extent = float(np.linalg.norm(m.g - m.x0))
        assert baselines.default_max_force(m) == (
            10.0 * m.alpha * m.beta * extent / m.tau_nominal**2
        )

    def test_default_clamp_of_an_overflowing_norm(self, sshape_model):
        """Retargeted by 1e160, the squares of ``g - x0`` overflow; the clamp
        falls back to the scaled norm, and the engine runs."""
        m = dmp.retarget(sshape_model, sshape_model.x0 * 1e160,
                         sshape_model.g * 1e160)
        with np.errstate(over="ignore"):
            assert np.linalg.norm(m.g - m.x0) == math.inf
        extent = math.hypot(*(m.g - m.x0).tolist())
        expected = 10.0 * m.alpha * m.beta * extent / m.tau_nominal**2
        assert math.isfinite(expected)
        assert baselines.default_max_force(m) == expected
        nominal = dmp.rollout(m, 0.005, goal_tol=1e150)
        engine = baselines.ApfEngine(m, nominal.trajectory, goal_tol=1e150)
        assert engine.params.max_force == expected
        log = safe_exec.run(engine, nominal=nominal)
        assert log.converged and np.all(np.isfinite(log.rows[:, :-1]))

    @pytest.mark.parametrize("scale", [1e306, 1.5e308])
    def test_default_clamp_past_the_float_range(self, sshape_model, scale):
        """The force (1e306) or even the extent (1.5e308) is not finite: the
        error names the extent, not the clamp."""
        d = sshape_model.d
        m = dmp.retarget(sshape_model, np.full(d, -scale), np.full(d, scale))
        with pytest.raises(InvalidInputError, match="goal-to-start extent"):
            baselines.default_max_force(m)
        with pytest.raises(InvalidInputError, match="goal-to-start extent"):
            baselines.ApfEngine(m, TimedTrajectory([0.0, 1.0], [m.x0, m.g]))

    def test_obstacle_free_reproduces_rollout_bitwise(self, sshape_model):
        nominal = dmp.rollout(sshape_model, 0.005)
        log = safe_exec.run(baselines.ApfEngine(sshape_model, nominal.trajectory))
        assert log.converged
        n = min(log.steps, nominal.trajectory.n)
        np.testing.assert_array_equal(
            log.x_measured[:n], nominal.trajectory.points[:n]
        )

    def test_zero_eta_reproduces_rollout_bitwise(self, sshape_model,
                                                 sshape_nominal):
        # obstacle present but the coupling disabled: still the pure rollout
        pts = sshape_nominal.trajectory.points
        obs = safe_exec.Obstacle(center0=pts[pts.shape[0] // 2], radius=0.03)
        log = safe_exec.run(baselines.ApfEngine(
            sshape_model, sshape_nominal.trajectory,
            params=baselines.ApfParams(eta=0.0), obstacles=[obs],
        ))
        n = min(log.steps, sshape_nominal.trajectory.n)
        np.testing.assert_array_equal(
            log.x_measured[:n], sshape_nominal.trajectory.points[:n]
        )

    def test_off_path_obstacle_detour_converges(self, sshape_model, sshape_nominal):
        pts = sshape_nominal.trajectory.points
        anchor = pts[pts.shape[0] // 2]
        obs = safe_exec.Obstacle(center0=anchor + [0.0, 0.04, 0.0], radius=0.03)
        log = safe_exec.run(baselines.ApfEngine(
            sshape_model, sshape_nominal.trajectory, obstacles=[obs]
        ))
        assert log.converged
        # the detour is visible: the executed path deviates from the nominal
        from safedmp.trajectory import TimedTrajectory

        executed = TimedTrajectory(log.t, log.x_measured)
        assert bench.mae(executed, sshape_nominal.trajectory) > 1e-4

    def test_head_on_symmetric_failure(self, straight_line_model):
        obs = safe_exec.Obstacle(center0=[0.3, 0.0, 0.25], radius=0.05)
        nominal = dmp.rollout(straight_line_model, 0.005)
        log = safe_exec.run(baselines.ApfEngine(
            straight_line_model, nominal.trajectory, obstacles=[obs]
        ))
        stalled = bench.stall_detected(log)
        collided = bench.collision_count(log) > 0
        assert stalled or collided

    def test_perturbation_recovery_via_attractor(self, sshape_model, sshape_nominal,
                                                 standard_impulses):
        engine = baselines.ApfEngine(sshape_model, sshape_nominal.trajectory)
        log = safe_exec.run(engine, perturbations=standard_impulses)
        assert log.converged
        conv = bench.convergence_time_perturb(
            log, sshape_nominal.trajectory, standard_impulses
        )
        assert np.isfinite(conv) and conv > 0.0


class TestFloatPath:
    """The measurement is converted once per step, so the float path holds."""

    @pytest.mark.parametrize("plant", [
        safe_exec.IdealPlant(),
        safe_exec.FirstOrderLagPlant(tau_plant=0.05, dt=0.005),
    ], ids=["ideal", "first_order_lag"])
    def test_run_keeps_state_and_rows_float(
        self, plant, sshape_model, sshape_nominal, standard_impulses
    ):
        obs = bench.random_static_blocker(
            sshape_nominal.trajectory, np.random.default_rng(0)
        )
        engine = baselines.ApfEngine(
            sshape_model, sshape_nominal.trajectory, obstacles=[obs], dt=0.005
        )
        log = safe_exec.run(
            engine, plant=plant, perturbations=standard_impulses[:1]
        )
        # the repulsion acted: the run left the obstacle-free rollout
        n = min(log.steps, sshape_nominal.trajectory.n)
        assert np.any(log.x_measured[:n] != sshape_nominal.trajectory.points[:n])
        values = [engine.tau, engine.z, *engine._x, *engine._v]
        assert all(type(v) is float for v in values)
        assert all(type(v) is float for row in engine.rows for v in row)
