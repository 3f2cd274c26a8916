import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safedmp import baselines, bench, dmp, safe_exec
from safedmp.errors import InvalidInputError, SafetyInfeasibleError

import stt_oracle


def project(target, obstacles, delta_gamma, t=0.0, fallback=(0.0, 0.0, 1.0)):
    table = safe_exec.obstacle_table(obstacles, delta_gamma)
    return np.asarray(safe_exec.project(table, list(target), t, list(fallback))[0])


class TestObstacle:
    """An obstacle's center and activity as the engine's table gives them."""

    def test_static_position(self):
        obs = safe_exec.Obstacle(center0=[1.0, 2.0, 3.0], radius=0.1)
        table = safe_exec.obstacle_table([obs], 0.1)
        for t in (0.0, 7.5):
            assert safe_exec.worst_violation(table, [0.0, 0.0, 0.0], t)[1] == (1, 2, 3)

    def test_constant_velocity(self):
        obs = safe_exec.Obstacle(
            center0=[0.0, 0.0, 0.0], radius=0.1, velocity=[0.1, 0.0, 0.0]
        )
        table = safe_exec.obstacle_table([obs], 0.1)
        center = safe_exec.worst_violation(table, [0.0, 0.0, 0.0], 2.0)[1]
        np.testing.assert_allclose(center, [0.2, 0.0, 0.0])

    def test_inactive_reports_infinity(self):
        obs = safe_exec.Obstacle(
            center0=[0.0, 0.0, 0.0], radius=0.1, active_window=(1.0, 2.0)
        )
        table = safe_exec.obstacle_table([obs], 0.1)
        origin = [0.0, 0.0, 0.0]
        assert safe_exec.worst_violation(table, origin, 0.5)[:2] == (math.inf, None)
        assert math.isfinite(safe_exec.worst_violation(table, origin, 1.5)[0])

    def test_table_row(self):
        obs = safe_exec.Obstacle(
            center0=[1, 2, 3], radius=0.25, velocity=[0.5, 0, 0],
            active_window=(1, 2),
        )
        still = safe_exec.Obstacle(center0=[0.0, 0.0], radius=0.125)
        assert safe_exec.obstacle_table([obs], 0.1) == [
            ((1.0, 2.0, 3.0), (0.5, 0.0, 0.0), 0.25 + 0.5 * 0.1, (1.0, 2.0),
             True, 0.25),
        ]
        assert safe_exec.obstacle_table([still], 0.5) == [
            ((0.0, 0.0), (0.0, 0.0), 0.375, None, False, 0.125),
        ]
        row = safe_exec.obstacle_table([obs], 0.1)[0]
        assert all(type(v) is float for v in (*row[0], *row[1], row[2], row[5]))

    def test_both_engines_read_one_table(self, straight_line_model):
        obs = safe_exec.Obstacle(center0=[0.3, 0.1, 0.25], radius=0.05)
        nominal = dmp.rollout(straight_line_model, 0.005).trajectory
        safety = safe_exec.SafetyParams(delta_gamma=0.04)
        engines = [
            safe_exec.SafeDmpEngine(straight_line_model, safety, [obs]),
            baselines.ApfEngine(straight_line_model, nominal, obstacles=[obs],
                                delta_gamma=0.04),
        ]
        for engine in engines:
            assert engine._table == safe_exec.obstacle_table([obs], 0.04)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.0)
        with pytest.raises(InvalidInputError):
            safe_exec.Obstacle(
                center0=[0.0, 0.0, 0.0], radius=0.1, active_window=(2.0, 1.0)
            )
        for bad in (
            dict(center0=[0.0, math.nan, 0.0], radius=0.1),
            dict(center0=[0.0, 0.0, 0.0], radius=math.nan),
            dict(center0=[0.0, 0.0, 0.0], radius=math.inf),
            dict(center0=[0.0, 0.0, 0.0], radius=0.1, velocity=[math.inf, 0, 0]),
            dict(center0=[0.0, 0.0, 0.0], radius=0.1, active_window=(0.0, math.nan)),
        ):
            with pytest.raises(InvalidInputError):
                safe_exec.Obstacle(**bad)


class TestReroute:
    def test_quoted_projection(self):
        obs = safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.1)
        out = project([0.05, 0.0, 0.0], [obs], delta_gamma=0.1)
        np.testing.assert_allclose(out, [0.15, 0.0, 0.0], atol=1e-12)

    def test_outside_buffer_unchanged(self):
        obs = safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.1)
        target = np.array([0.5, 0.0, 0.0])
        out = project(target, [obs], delta_gamma=0.1)
        np.testing.assert_array_equal(out, target)

    def test_on_sphere_is_fixed_point(self):
        # radius and half-width chosen binary-exact so clearance == 0.25
        obs = safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.125)
        target = np.array([0.25, 0.0, 0.0])  # exactly on the clearance sphere
        out = project(target, [obs], delta_gamma=0.25)
        np.testing.assert_array_equal(out, target)

    def test_center_fallback_direction(self):
        obs = safe_exec.Obstacle(center0=[0.2, 0.3, 0.4], radius=0.1)
        out = project([0.2, 0.3, 0.4], [obs], delta_gamma=0.1)
        np.testing.assert_allclose(out, [0.2, 0.3, 0.55], atol=1e-12)
        out = project([0.2, 0.3, 0.4], [obs], delta_gamma=0.1,
                      fallback=(1.0, 0.0, 0.0))
        np.testing.assert_allclose(out, [0.35, 0.3, 0.4], atol=1e-12)

    def test_never_reduces_obstacle_distance(self):
        rng = np.random.default_rng(11)
        obs = safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.08)
        clearance = 0.08 + 0.05
        for _ in range(200):
            target = rng.normal(size=3) * 0.1
            out = project(target, [obs], delta_gamma=0.1)
            before = np.linalg.norm(target)
            after = np.linalg.norm(out)
            if before <= clearance:
                assert after >= before - 1e-12
            assert after >= clearance - 1e-9

    def test_disjoint_spheres_guarantee(self):
        rng = np.random.default_rng(5)
        obstacles = [
            safe_exec.Obstacle(center0=[0.0, 0.0, 0.0], radius=0.05),
            safe_exec.Obstacle(center0=[0.4, 0.0, 0.0], radius=0.05),
            safe_exec.Obstacle(center0=[0.0, 0.4, 0.0], radius=0.05),
        ]
        for _ in range(300):
            target = rng.uniform(-0.2, 0.6, size=3)
            out = project(target, obstacles, delta_gamma=0.1)
            for obs in obstacles:
                assert np.linalg.norm(out - obs.center0) >= 0.1 - 1e-9

    def test_overlapping_chain_infeasible(self):
        # a chain of heavily overlapping clearance spheres exhausts the
        # projection passes from the middle of the chain
        obstacles = [
            safe_exec.Obstacle(center0=[0.08 * i, 0.0, 0.0], radius=0.1)
            for i in range(3)
        ]
        with pytest.raises(SafetyInfeasibleError):
            project([0.04, 0.0, 0.0], obstacles, delta_gamma=0.1)

    def test_ignores_inactive(self):
        obs = safe_exec.Obstacle(
            center0=[0.0, 0.0, 0.0], radius=0.1, active_window=(5.0, 6.0)
        )
        target = np.array([0.01, 0.0, 0.0])
        out = project(target, [obs], delta_gamma=0.1)
        np.testing.assert_array_equal(out, target)


class TestSttModulation:
    def test_zero_at_center(self):
        params = safe_exec.SafetyParams(delta_gamma=0.1, gain=1.0)
        x = [0.3, 0.2, 0.1]
        u, x_desired, shift = safe_exec.tube_correction(x, x, x, 0.005, params)
        assert u == [0.0, 0.0, 0.0]
        assert x_desired == x and shift == 0.0

    def test_quoted_value(self):
        params = safe_exec.SafetyParams(delta_gamma=0.1, gain=1.0)
        u, x_desired, shift = safe_exec.tube_correction(
            [0.025, 0.0, 0.0], [0.0] * 3, [0.0] * 3, 0.005, params
        )
        expected = -(4.0 / (0.1 * 0.75)) * math.log(3.0)
        assert u[0] == pytest.approx(expected, rel=1e-9)
        assert x_desired[0] == pytest.approx(expected * 0.005, rel=1e-9)
        assert shift == pytest.approx(abs(expected) * 0.005, rel=1e-9)

    def test_matches_tube_module_composition(self):
        params = safe_exec.SafetyParams(delta_gamma=0.1, gain=0.7)
        rng = np.random.default_rng(1)
        for _ in range(50):
            center = rng.normal(size=3)
            x = center + rng.uniform(-0.2, 0.2, size=3)
            u, _, _ = safe_exec.tube_correction(x, center, center, 0.005, params)
            ref = stt_oracle.stt_control(
                x, center - 0.05, center + 0.05, gain=0.7, clip_limit=0.99
            )
            np.testing.assert_allclose(u, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("gain, delta_gamma", [(1e308, 0.1), (1.0, 1e-308)])
    def test_rejects_a_tube_scale_that_overflows(self, gain, delta_gamma):
        # a non-finite -4 gain/delta_gamma would make the law NaN at zero error
        with pytest.raises(InvalidInputError):
            safe_exec.SafetyParams(delta_gamma=delta_gamma, gain=gain)

    def test_clip_saturation_bound(self):
        params = safe_exec.SafetyParams(delta_gamma=0.1, gain=1.0)
        u, _, _ = safe_exec.tube_correction(
            [0.3, 0.0, 0.0], [0.0] * 3, [0.0] * 3, 0.005, params
        )
        bound = stt_oracle.control_magnitude_bound(1.0, 0.1, 0.99)
        assert np.isfinite(u[0])
        assert abs(u[0]) == pytest.approx(bound, rel=1e-9)

    def test_logged_tube_term_matches_reference_law(
        self, sshape_model, sshape_nominal, standard_impulses
    ):
        # lagged plant plus impulses keep the tube term busy; the blocker
        # makes the tube center (the previous safe point) differ from the
        # primitive's target
        obs = bench.random_static_blocker(
            sshape_nominal.trajectory, np.random.default_rng(0)
        )
        params = safe_exec.SafetyParams()
        engine = safe_exec.SafeDmpEngine(
            sshape_model, safety=params, obstacles=[obs], dt=0.005
        )
        # the tube term is not logged: record what each control call returns
        tube_terms = []
        control = engine.control

        def recording_control(x_measured, t):
            result = control(x_measured, t)
            tube_terms.append(result[4])
            return result

        engine.control = recording_control
        plant = safe_exec.FirstOrderLagPlant(tau_plant=0.05, dt=0.005)
        log = safe_exec.run(engine, plant=plant, perturbations=standard_impulses)
        assert len(tube_terms) == log.steps
        half = 0.5 * params.delta_gamma
        prev_safe = sshape_model.x0
        for x_measured, x_safe, u in zip(log.x_measured, log.x_safe, tube_terms):
            ref = stt_oracle.stt_control(
                x_measured, prev_safe - half, prev_safe + half,
                params.gain, params.clip_limit,
            )
            np.testing.assert_allclose(u, ref, rtol=0, atol=1e-12)
            prev_safe = x_safe
        assert max(np.max(np.abs(u)) for u in tube_terms) > 1e-3


class TestEngineReduction:
    def test_matches_rollout_bitwise(self, sshape_model, sshape_nominal):
        engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
        log = safe_exec.run(engine)
        assert log.converged
        n = min(log.steps, sshape_nominal.trajectory.n)
        measured = log.x_measured[:n]
        nominal = sshape_nominal.trajectory.points[:n]
        assert np.max(np.abs(measured - nominal)) < 1e-12

    def test_single_step_zero_tube_term(self, sshape_model):
        engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
        x_desired, _, x_target, _, u = engine.control(engine.initial_position(), 0.0)
        np.testing.assert_array_equal(u, 0.0)
        np.testing.assert_array_equal(x_desired, x_target)


class TestExactTracking:
    """The step's shortcuts at zero tracking error return the full law's bits."""

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
    def test_tube_law_at_zero_error(self, as_array):
        params = safe_exec.SafetyParams(delta_gamma=0.1, gain=0.7)
        wrap = np.array if as_array else list
        x_measured = wrap([0.0, -0.0, -0.0, 0.3, 0.0])
        center = wrap([-0.0, 0.0, -0.0, 0.3, 0.0])
        x_target = wrap([0.0, -0.0, 1.5, -2.0, 5e-324])
        u, x_desired, shift = safe_exec.tube_correction(
            x_measured, center, x_target, 0.005, params
        )
        assert all(u_i == 0.0 and math.copysign(1.0, u_i) == -1.0 for u_i in u)
        assert np.asarray(x_desired).tobytes() == np.asarray(x_target).tobytes()
        assert shift == 0.0 and math.copysign(1.0, shift) == 1.0

    def test_tube_law_at_infinite_equal_inputs_stays_nan(self):
        # inf - inf is NaN, not zero, so the law runs and gives NaN as before
        params = safe_exec.SafetyParams()
        u, x_desired, shift = safe_exec.tube_correction(
            [math.inf, 0.0], [math.inf, 0.0], [0.0, 0.0], 0.005, params
        )
        assert math.isnan(u[0]) and math.isnan(x_desired[0]) and math.isnan(shift)

    @pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
    def test_coupling_at_rest(self, as_array):
        wrap = np.array if as_array else list
        tau_nominal = 1.7300000000000002
        e, tau = safe_exec.coupling_step(
            wrap([0.0, 0.0, 0.0]), wrap([0.1, -0.0, 0.0]), wrap([0.1, 0.0, -0.0]),
            0.005, 2.5, 50.0, tau_nominal,
        )
        assert tau.hex() == tau_nominal.hex()
        assert list(e) == [0.0, 0.0, 0.0]

    def test_coupling_at_infinite_equal_positions_stays_nan(self):
        _, tau = safe_exec.coupling_step(
            [0.0], [math.inf], [math.inf], 0.005, 2.5, 50.0, 1.0
        )
        assert math.isnan(tau)

    def test_command_after_a_center_push_is_projected_anew(self, sshape_model):
        # the first target lands exactly on the obstacle's center, so the
        # target's projection pushes along the initial fallback (+z); the
        # command is then projected with the fallback _note_motion set
        free = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
        first_target = free.control(free.initial_position(), 0.0)[2]
        obs = safe_exec.Obstacle(center0=first_target, radius=0.02)
        engine = safe_exec.SafeDmpEngine(sshape_model, obstacles=[obs], dt=0.005)
        x_desired, _, x_target, x_safe, _ = engine.control(
            engine.initial_position(), 0.0
        )
        assert x_target == first_target
        clearance = 0.02 + 0.05
        assert x_safe == [*x_target[:2], x_target[2] + clearance]
        expected, centered = safe_exec.project(
            engine._table, list(x_target), 0.0, engine._fallback
        )
        assert centered
        assert x_desired == expected
        assert x_desired != x_safe


class TestEngineSafety:
    def test_static_blocker_clearances(self, sshape_model, sshape_nominal):
        rng = np.random.default_rng(0)
        obs = bench.random_static_blocker(sshape_nominal.trajectory, rng)
        engine = safe_exec.SafeDmpEngine(sshape_model, obstacles=[obs], dt=0.005)
        log = safe_exec.run(engine)
        assert log.converged and not log.safety_infeasible
        assert log.min_surface_clearance() >= obs.radius * 0.0  # never below surface
        clearance = obs.radius + 0.05
        dist = np.linalg.norm(log.x_measured - obs.center0, axis=1)
        assert np.all(dist >= clearance - 1e-9)
        assert np.all(log.min_clearance >= 0.0)

    def test_randomized_blockers_with_impulses_stay_off_surface(
        self, sshape_model, sshape_nominal
    ):
        # impulses below half the tube width can never push the realized
        # position through an obstacle surface
        duration = sshape_nominal.trajectory.duration
        half_width = 0.5 * safe_exec.SafetyParams().delta_gamma
        for seed in range(25):
            rng = np.random.default_rng(seed)
            obs = bench.random_static_blocker(sshape_nominal.trajectory, rng)
            perts = []
            for _ in range(3):
                direction = rng.normal(size=3)
                direction /= np.linalg.norm(direction)
                perts.append(bench.Perturbation(
                    t_apply=rng.uniform(0.1, 1.2) * duration,
                    offset=direction * half_width * 0.98,
                ))
            engine = safe_exec.SafeDmpEngine(
                sshape_model, obstacles=[obs], dt=0.005
            )
            log = safe_exec.run(engine, perturbations=perts)
            assert log.min_surface_clearance() >= 0.0, f"seed {seed}"

    def test_moving_obstacle_crossing(self, sshape_model, sshape_nominal):
        rng = np.random.default_rng(42)
        obs = bench.random_crossing_obstacle(sshape_nominal.trajectory, rng)
        engine = safe_exec.SafeDmpEngine(sshape_model, obstacles=[obs], dt=0.005)
        log = safe_exec.run(engine)
        assert log.converged
        assert np.all(log.min_clearance >= 0.0)

    def test_obstacle_on_goal_never_violates(self, straight_line_model):
        m = straight_line_model
        obs = safe_exec.Obstacle(center0=m.g.copy(), radius=0.05)
        engine = safe_exec.SafeDmpEngine(m, obstacles=[obs], dt=0.005)
        log = safe_exec.run(engine)
        assert not log.converged  # goal is unreachable by construction
        assert np.all(log.min_clearance >= -1e-9)

    def test_reroute_applied_to_command(self, straight_line_model):
        m = straight_line_model
        obs = safe_exec.Obstacle(center0=[0.3, 0.0, 0.25], radius=0.05)
        engine = safe_exec.SafeDmpEngine(m, obstacles=[obs], dt=0.005)
        log = safe_exec.run(engine)
        assert log.converged
        clearance = 0.05 + 0.05
        for positions in (log.x_desired, log.x_safe):
            dist = np.linalg.norm(positions - obs.center0, axis=1)
            assert np.all(dist >= clearance - 1e-9)


def assert_plain_float_state(engine):
    """The engine state holds Python floats, no numpy scalars."""
    values = [engine.tau, engine.z, *engine._x, *engine._v, *engine._ec]
    assert all(type(v) is float for v in values)


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
        engine = safe_exec.SafeDmpEngine(sshape_model, obstacles=[obs], dt=0.005)
        log = safe_exec.run(
            engine, plant=plant, perturbations=standard_impulses[:1]
        )
        assert log.converged and np.any(log.x_safe != log.x_nominal)
        assert_plain_float_state(engine)
        assert all(type(v) is float for row in engine.rows for v in row)

    @pytest.mark.parametrize("plant", [
        safe_exec.IdealPlant(),
        safe_exec.FirstOrderLagPlant(tau_plant=0.05, dt=0.005),
    ], ids=["ideal", "first_order_lag"])
    def test_run_hands_control_float_lists(
        self, plant, sshape_model, sshape_nominal, standard_impulses
    ):
        obs = bench.random_static_blocker(
            sshape_nominal.trajectory, np.random.default_rng(0)
        )
        engine = safe_exec.SafeDmpEngine(sshape_model, obstacles=[obs], dt=0.005)
        control, coast = engine.control, engine.coast
        seen, coasted = [], []

        def recording_control(x_measured, t):
            seen.append(x_measured)
            return control(x_measured, t)

        def recording_coast(x_measured, k, n, nominal=None):
            coasted.append(x_measured)
            return coast(x_measured, k, n, nominal)

        engine.control, engine.coast = recording_control, recording_coast
        kick_at_start = bench.Perturbation(t_apply=0.0, offset=[0.0, 0.01, 0.0])
        perturbations = [kick_at_start, *standard_impulses]
        log = safe_exec.run(engine, plant=plant, perturbations=perturbations)
        assert log.converged and seen
        assert all(
            type(x) is list and all(type(v) is float for v in x)
            for x in seen + coasted
        )
        if isinstance(plant, safe_exec.FirstOrderLagPlant):
            assert len(seen) == log.steps and coasted == []
        else:  # the coasted rows are the timed engine's stepped rows
            timed = safe_exec.SafeDmpEngine(
                sshape_model, obstacles=[obs], dt=0.005, timed=True
            )
            stepped = safe_exec.run(timed, plant=plant, perturbations=perturbations)
            assert len(seen) < log.steps
            assert log.rows.tobytes() == stepped.rows.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(1e-4, 10.0), st.floats(1e-4, 0.1),
        st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
            min_size=1, max_size=20,
        ),
    )
    def test_lag_plant_matches_ndarray_expression(self, tau_plant, dt, steps):
        plant = safe_exec.FirstOrderLagPlant(tau_plant, dt)
        blend = 1.0 - math.exp(-dt / tau_plant)
        x0 = np.array([steps[0][0], -steps[0][0], 0.5])
        plant.reset(x0)
        x = x0.copy()
        for a, b in steps:
            u = np.array([b, a, b - a])
            x = x + blend * (u - x)
            got = plant.track(u.tolist())
            assert type(got) is list and all(type(v) is float for v in got)
            assert np.array_equal(np.array(got).view(np.int64), x.view(np.int64))

    def test_changing_a_returned_position_leaves_the_plant(self):
        plant = safe_exec.FirstOrderLagPlant(tau_plant=0.05, dt=0.005)
        twin = safe_exec.FirstOrderLagPlant(tau_plant=0.05, dt=0.005)
        for p in (plant, twin):
            p.reset([0.0, 0.0])
        returned = plant.track([1.0, 2.0])
        assert returned == twin.track([1.0, 2.0])
        returned[:] = [50.0, 60.0]
        assert plant.track([1.0, 2.0]) == twin.track([1.0, 2.0])

    def test_direct_control_from_ndarray_keeps_state_float(self, sshape_model):
        engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
        x_measured = engine.initial_position()
        for k in range(50):
            assert isinstance(x_measured, np.ndarray)
            x_desired = engine.control(x_measured, k * engine.dt)[0]
            x_measured = np.asarray(x_desired) + 1e-4
        assert not engine.rows
        assert_plain_float_state(engine)


class TestAdaptiveTiming:
    def test_tau_rises_and_recovers(self, sshape_model, sshape_nominal,
                                    standard_impulses):
        engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
        log = safe_exec.run(engine, perturbations=standard_impulses)
        assert log.converged
        taus = log.tau
        assert np.all(taus >= sshape_model.tau_nominal)
        assert taus.max() > sshape_model.tau_nominal + 1e-9
        assert taus[-1] - sshape_model.tau_nominal < 1e-3

    def test_tau_decays_within_filter_horizon(self, sshape_model):
        # one large impulse, then watch tau come back down
        pert = bench.Perturbation(t_apply=0.5, offset=np.array([0.0, 0.05, 0.0]))
        engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
        log = safe_exec.run(engine, perturbations=[pert])
        taus = log.tau
        times = log.t
        peak = np.argmax(taus)
        horizon = times[peak] + 5.0 / sshape_model.alpha_e
        settled = taus[(times > horizon)]
        if settled.size:
            assert np.all(settled - sshape_model.tau_nominal < 1e-3)
        tail = taus[peak:]
        assert np.all(np.diff(tail) <= 1e-15)


class TestRunLoop:
    def test_obstacle_free_converges(self, sshape_model):
        engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
        log = safe_exec.run(engine)
        assert log.converged
        assert np.linalg.norm(log.x_measured[-1] - sshape_model.g) < 2e-3
        assert log.steps > 0
        times = log.t
        assert np.all(np.diff(times) > 0)

    def test_max_steps_flagging(self, straight_line_model):
        engine = safe_exec.SafeDmpEngine(straight_line_model, dt=0.005)
        log = safe_exec.run(engine, max_steps=10)
        assert not log.converged
        assert log.steps == 10

    def test_determinism(self, sshape_model, standard_impulses):
        def one_run():
            engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
            return safe_exec.run(engine, perturbations=standard_impulses)

        a, b = one_run(), one_run()
        assert a.steps == b.steps
        np.testing.assert_array_equal(a.rows, b.rows)

    def test_first_order_lag_plant_tracks(self, sshape_model):
        engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
        plant = safe_exec.FirstOrderLagPlant(tau_plant=0.02, dt=0.005)
        log = safe_exec.run(engine, plant=plant)
        assert log.converged

    @pytest.mark.parametrize("tau_plant, dt", [
        (math.nan, 0.005), (math.inf, 0.005), (0.05, math.nan), (0.05, math.inf),
        (0.0, 0.005), (0.05, -0.005),
    ])
    def test_first_order_lag_plant_rejects_bad_constants(self, tau_plant, dt):
        with pytest.raises(InvalidInputError):
            safe_exec.FirstOrderLagPlant(tau_plant, dt)

    @pytest.mark.parametrize("offset", [[0.0, 0.05], [0.0, 0.05, 0.0, 0.0]])
    def test_offset_dimension_must_match_model(self, straight_line_model, offset):
        engine = safe_exec.SafeDmpEngine(straight_line_model, dt=0.005)
        kick = bench.Perturbation(t_apply=0.1, offset=offset)
        with pytest.raises(InvalidInputError, match="perturbation offset"):
            safe_exec.run(engine, perturbations=[kick])
        assert not engine.rows  # rejected before the first step

    def test_infeasible_flagged_not_raised(self, straight_line_model):
        # overlapping chain of clearance spheres straddling the path
        obstacles = [
            safe_exec.Obstacle(center0=[0.26 + 0.06 * i, 0.0, 0.25], radius=0.06)
            for i in range(3)
        ]
        engine = safe_exec.SafeDmpEngine(
            straight_line_model, obstacles=obstacles, dt=0.005
        )
        log = safe_exec.run(engine)
        assert log.safety_infeasible
        assert not log.converged
        assert log.steps >= 1  # partial log retained

    def test_infeasible_at_step_zero_gives_empty_log(self, straight_line_model):
        # clearance spheres 0.26 apart on the path axis around a start 0.01 m
        # outside the near surface: each push of the first target lands
        # inside the other sphere
        x0 = straight_line_model.x0
        obstacles = [
            safe_exec.Obstacle(center0=x0 + [dx, 0.0, 0.0], radius=0.1)
            for dx in (-0.11, 0.15)
        ]
        engine = safe_exec.SafeDmpEngine(
            straight_line_model, obstacles=obstacles, dt=0.005
        )
        log = safe_exec.run(engine)
        assert log.safety_infeasible and not log.converged
        assert log.rows.shape == (0, 4 * 3 + 4)
        assert log.min_surface_clearance() == math.inf

    @staticmethod
    def _boxed_start(model, window=None):
        # the start 0.01 m from the center of a radius-0.1 sphere
        return safe_exec.SafeDmpEngine(model, dt=0.005, obstacles=[
            safe_exec.Obstacle(center0=model.x0 + [dx, 0.0, 0.0], radius=0.1,
                               active_window=window)
            for dx in (-0.01, 0.15)
        ])

    @pytest.mark.parametrize("window", [None, (0.0, 1.0)])
    def test_start_inside_an_obstacle_is_an_input_error(
        self, straight_line_model, window
    ):
        engine = self._boxed_start(straight_line_model, window)
        with pytest.raises(InvalidInputError, match="start lies inside an obstacle"):
            safe_exec.run(engine)
        assert engine.rows == []

    def test_start_inside_a_later_obstacle_runs(self, straight_line_model):
        engine = self._boxed_start(straight_line_model, window=(1.0, 2.0))
        assert safe_exec.run(engine, max_steps=5).steps == 5


# --- the log's clearance column -------------------------------------------------

coords = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def clearance_cases(draw):
    """Random static, moving and windowed spheres, times and points."""
    d = draw(st.integers(1, 4))
    vector = st.lists(coords, min_size=d, max_size=d)
    obstacles = []
    for _ in range(draw(st.integers(0, 4))):
        window = None
        if draw(st.booleans()):
            t0 = draw(st.floats(0.0, 10.0))
            window = (t0, t0 + draw(st.floats(1e-3, 10.0)))
        obstacles.append(safe_exec.Obstacle(
            center0=draw(vector),
            radius=draw(st.floats(1e-3, 10.0)),
            velocity=draw(st.none() | vector),
            active_window=window,
        ))
    # window edges are inclusive, so they are always among the times
    edges = [t for o in obstacles if o.active_window for t in o.active_window]
    times = draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=20)) + edges
    points = draw(st.lists(vector, min_size=len(times), max_size=len(times)))
    return obstacles, np.array(times), np.array(points, dtype=float).reshape(-1, d)


def scalar_clearance(obstacles, t, x):
    """Reference: per step and obstacle, sqrt of the sequential sum minus
    the radius, inf when inactive; then the min over obstacles."""
    out = []
    for t_k, x_k in zip(t.tolist(), x.tolist()):
        best = math.inf
        for obs in obstacles:
            if obs.active_window is not None and not (
                obs.active_window[0] <= t_k <= obs.active_window[1]
            ):
                continue
            acc = 0.0
            for p, c, v in zip(x_k, obs.center0.tolist(), obs.velocity.tolist()):
                diff = p - (c + v * t_k)
                acc += diff * diff
            best = min(best, math.sqrt(acc) - obs.radius)
        out.append(best)
    return np.array(out)


class TestSurfaceClearance:
    @settings(max_examples=200, deadline=None)
    @given(clearance_cases())
    def test_matches_scalar_reference_bit_for_bit(self, case):
        obstacles, t, x = case
        got = safe_exec.surface_clearance(obstacles, t, x)
        assert got.shape == t.shape
        assert got.tobytes() == scalar_clearance(obstacles, t, x).tobytes()

    def test_run_fills_the_column_from_its_own_rows(self, sshape_model, sshape_nominal):
        rng = np.random.default_rng(42)
        obs = bench.random_crossing_obstacle(sshape_nominal.trajectory, rng)
        log = safe_exec.run(
            safe_exec.SafeDmpEngine(sshape_model, obstacles=[obs], dt=0.005)
        )
        expected = scalar_clearance([obs], log.t, log.x_measured)
        assert log.min_clearance.tobytes() == expected.tobytes()
