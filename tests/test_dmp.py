import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safedmp import baselines, bench, dmp, safe_exec
from safedmp import trajectory as tj
from safedmp.errors import (
    DegeneratePhaseError,
    InsufficientDataError,
    InvalidInputError,
    PhaseStepError,
)


def zero_weight_model(d=1, x0=None, g=None, tau=1.0, alpha=25.0, n_basis=25):
    centers, widths = dmp.default_basis(n_basis, alpha / 6.0)
    x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float)
    g = np.ones(d) if g is None else np.asarray(g, dtype=float)
    return dmp.DmpModel(
        d=d, n_basis=n_basis, alpha=alpha, tau_nominal=tau,
        x0=x0, g=g, centers=centers, widths=widths,
        weights=np.zeros((d, n_basis)),
    )


def random_model(seed=3, d=2, tau=1.5, scale=50.0):
    centers, widths = dmp.default_basis(25, 25.0 / 6.0)
    rng = np.random.default_rng(seed)
    return dmp.DmpModel(
        d=d, n_basis=25, alpha=25.0, tau_nominal=tau,
        x0=np.zeros(d), g=np.linspace(0.8, 0.4, d),
        centers=centers, widths=widths,
        weights=rng.uniform(-scale, scale, size=(d, 25)),
    )


class TestModelInvariants:
    def test_gain_ratios(self):
        m = zero_weight_model(alpha=25.0)
        assert m.beta == pytest.approx(25.0 / 4.0, abs=1e-12)
        assert m.alpha_z == pytest.approx(25.0 / 6.0, abs=1e-12)
        assert m.alpha_e == pytest.approx(2.5, abs=1e-12)
        assert m.k_c == pytest.approx(50.0, abs=1e-12)

    def test_basis_layout(self):
        centers, widths = dmp.default_basis(25, 25.0 / 6.0)
        assert centers[0] == 1.0
        assert np.all(centers > 0) and np.all(centers <= 1)
        assert np.all(np.diff(centers) < 0)
        assert np.all(widths > 0)
        assert widths[-1] == widths[-2]

    def test_rejects_bad_centers(self):
        with pytest.raises(InvalidInputError):
            dmp.DmpModel(
                d=1, n_basis=3, alpha=25.0, tau_nominal=1.0,
                x0=np.zeros(1), g=np.ones(1),
                centers=np.array([0.2, 0.5, 0.9]),  # increasing
                widths=np.ones(3), weights=np.zeros((1, 3)),
            )


class TestBasisActivations:
    def test_unit_at_center(self):
        m = zero_weight_model()
        for j in (0, 7, 24):
            psi = dmp.basis_activations(m, float(m.centers[j]))
            assert psi[j] == pytest.approx(1.0)

    def test_vanishes_for_large_widths(self):
        centers, _ = dmp.default_basis(5, 25.0 / 6.0)
        m = dmp.DmpModel(
            d=1, n_basis=5, alpha=25.0, tau_nominal=1.0,
            x0=np.zeros(1), g=np.ones(1), centers=centers,
            widths=np.full(5, 1e12), weights=np.zeros((1, 5)),
        )
        psi = dmp.basis_activations(m, 0.5)
        off_center = np.abs(0.5 - centers) > 1e-3
        assert np.all(psi[off_center] < 1e-30)

    def test_matches_scalar_evaluation(self):
        m = zero_weight_model()
        z = 0.5
        psi = dmp.basis_activations(m, z)
        assert psi.sum() > 0
        for j in range(m.n_basis):
            expected = math.exp(-m.widths[j] * (z - m.centers[j]) ** 2)
            assert psi[j] == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_phase(self):
        m = zero_weight_model()
        with pytest.raises(InvalidInputError):
            dmp.basis_activations(m, 0.0)
        with pytest.raises(InvalidInputError):
            dmp.basis_activations(m, 1.5)


class TestForcing:
    def test_zero_weights(self):
        m = zero_weight_model(d=3, g=[1.0, 2.0, 3.0])
        for z in (1.0, 0.5, 1e-6):
            np.testing.assert_array_equal(dmp.forcing(m, z), np.zeros(3))

    def test_zero_amplitude_dimension(self):
        m = random_model(d=2)
        m = dmp.retarget(m, [0.0, 0.3], [1.0, 0.3])  # dim 1 has g == x0
        f = dmp.forcing(m, 0.6)
        assert f[1] == 0.0

    def test_vanishes_with_phase(self):
        m = random_model()
        assert np.linalg.norm(dmp.forcing(m, 1e-9)) < 1e-6 * np.linalg.norm(
            dmp.forcing(m, 0.5)
        ) + 1e-12


class TestTargetForcing:
    def test_equilibrium_is_zero(self):
        g = np.array([0.4, -0.2])
        kin = tj.DerivedKinematics(
            positions=np.tile(g, (10, 1)),
            velocities=np.zeros((10, 2)),
            accelerations=np.zeros((10, 2)),
        )
        f = dmp.target_forcing(kin, 25.0, g, g, 1.0)
        np.testing.assert_allclose(f, 0.0, atol=1e-12)

    def test_generative_round_trip(self):
        m = random_model()
        res = dmp.rollout(m, 1e-3, horizon=m.tau_nominal, stop_at_goal=False)
        kin = tj.finite_differences(res.trajectory)
        f_target = dmp.target_forcing(kin, m.alpha, m.g, m.x0, m.tau_nominal)
        z = np.exp(-m.alpha_z * res.trajectory.times / m.tau_nominal)
        f_model = np.array([dmp.forcing(m, zk) for zk in z])
        scale = np.max(np.abs(f_model))
        assert np.max(np.abs(f_target - f_model)) < 0.05 * scale

    def test_pure_attractor_round_trip(self):
        m = zero_weight_model(d=1)
        res = dmp.rollout(m, 1e-3, horizon=m.tau_nominal, stop_at_goal=False)
        kin = tj.finite_differences(res.trajectory)
        f_target = dmp.target_forcing(kin, m.alpha, m.g, m.x0, m.tau_nominal)
        # attractor-only forcing should vanish up to discretization error
        assert np.max(np.abs(f_target)) < 0.05 * m.alpha * m.beta


class TestLearnWeights:
    def test_minjerk_fidelity(self, minjerk_demo, minjerk_model):
        res = dmp.rollout(
            minjerk_model, 1e-3, horizon=minjerk_model.tau_nominal, stop_at_goal=False
        )
        err = bench.mae(res.trajectory, minjerk_demo)
        assert err < 0.01 * minjerk_demo.bounding_box_diagonal()

    def test_recovers_generating_model(self):
        m = random_model(seed=3)
        res = dmp.rollout(m, 1e-3, horizon=m.tau_nominal, stop_at_goal=False)
        kin = tj.finite_differences(res.trajectory)
        learned = dmp.learn_weights(kin, n_basis=25, alpha=25.0, tau=m.tau_nominal)
        replay = dmp.rollout(
            learned, 1e-3, horizon=m.tau_nominal, stop_at_goal=False
        ).trajectory
        reference = res.trajectory
        assert bench.mae(replay, reference) < 1e-3

    def test_constant_demo_zero_weights(self):
        pos = np.tile([0.3, 0.4], (100, 1))
        kin = tj.DerivedKinematics(pos, np.zeros_like(pos), np.zeros_like(pos))
        m = dmp.learn_weights(kin, n_basis=25, alpha=25.0, tau=1.0)
        np.testing.assert_array_equal(m.weights, 0.0)
        res = dmp.rollout(m, 0.005, horizon=2.0, stop_at_goal=False)
        assert np.max(np.abs(res.trajectory.points - pos[0])) < 1e-12

    def test_rejects_insufficient_samples(self):
        pos = np.linspace(0, 1, 10)[:, None]
        kin = tj.DerivedKinematics(pos, np.zeros_like(pos), np.zeros_like(pos))
        with pytest.raises(InsufficientDataError):
            dmp.learn_weights(kin, n_basis=25, alpha=25.0, tau=1.0)


class TestPhaseStep:
    def test_quoted_value(self):
        assert dmp.phase_step(1.0, 1.0, 0.005, 4.0) == pytest.approx(0.98)

    def test_zero_dt_identity(self):
        assert dmp.phase_step(0.7, 1.0, 0.0, 4.0) == 0.7

    def test_monotone_decrease(self):
        z = 1.0
        for _ in range(100):
            z_next = dmp.phase_step(z, 1.0, 0.005, 25.0 / 6.0)
            assert 0.0 < z_next < z
            z = z_next

    def test_matches_exponential(self):
        alpha_z, dt, tau = 25.0 / 6.0, 0.005, 1.0
        z = 1.0
        max_rel = 0.0
        for k in range(1, int(2 * tau / (alpha_z * dt))):
            z = dmp.phase_step(z, tau, dt, alpha_z)
            exact = math.exp(-alpha_z * k * dt / tau)
            max_rel = max(max_rel, abs(z - exact) / exact)
        assert max_rel <= 2 * alpha_z * dt / tau

    def test_rejects_overlong_step(self):
        with pytest.raises(PhaseStepError):
            dmp.phase_step(1.0, 1.0, 0.5, 4.0)

    def test_rejects_nan_dt(self):
        with pytest.raises(InvalidInputError):
            dmp.phase_step(0.5, 1.0, math.nan, 4.0)

    def test_rejects_nan_tau(self):
        with pytest.raises(InvalidInputError):
            dmp.phase_step(0.5, math.nan, 0.005, 4.0)

    def test_rejects_negative_tau(self):
        # a negative time scale would make the phase grow (0.5 -> 0.51)
        with pytest.raises(InvalidInputError):
            dmp.phase_step(0.5, -1.0, 0.005, 4.0)


class TestTransformationAccel:
    """The attractor acceleration of :func:`dmp.attractor_step`, read back
    from the velocity update ``v' = v + a dt``."""

    def test_fixed_point(self):
        m = zero_weight_model(d=2, g=[1.0, -1.0])
        g = m.g.tolist()
        x_next, v_next = dmp.attractor_step(
            g, [0.0, 0.0], [0.0, 0.0], g, 1.0, 0.005, m.alpha, m.beta
        )
        assert x_next == g and v_next == [0.0, 0.0]

    def test_restoring_direction(self):
        m = zero_weight_model(d=1)
        dt = 0.005
        _, v_next = dmp.attractor_step(
            [m.g[0] - 0.1], [0.0], [0.0], m.g.tolist(), 1.0, dt, m.alpha, m.beta
        )
        assert v_next[0] / dt == pytest.approx(m.alpha * m.beta * 0.1)

    def test_tau_squared_scaling(self):
        m = zero_weight_model(d=1)
        dt = 0.005

        def accel(v, tau):
            _, v_next = dmp.attractor_step(
                [0.3], [v], [0.0], m.g.tolist(), tau, dt, m.alpha, m.beta
            )
            return (v_next[0] - v) / dt

        # hold the damping term tau*v fixed while doubling tau
        assert accel(0.1, 2.0) == pytest.approx(accel(0.2, 1.0) / 4.0)


class TestIntegrateStep:
    """The position and velocity update of :func:`dmp.attractor_step`."""

    def test_rest_identity(self):
        # a forcing that cancels the spring exactly leaves a resting state put
        m = zero_weight_model(d=1)
        x = [0.3]
        f = [-(m.alpha * (m.beta * (m.g[0] - x[0])))]
        x_next, v_next = dmp.attractor_step(
            x, [0.0], f, m.g.tolist(), 1.0, 0.01, m.alpha, m.beta
        )
        assert x_next == [0.3] and v_next == [0.0]

    def test_constant_acceleration_exact(self):
        # with the spring and damper off (alpha = 0) the forcing is the
        # acceleration, and the Taylor step integrates a constant one exactly
        x, v = [0.0], [0.0]
        dt = 0.01
        for _ in range(100):
            x, v = dmp.attractor_step(x, v, [2.0], [0.0], 1.0, dt, 0.0, 0.0)
        assert x[0] == pytest.approx(0.5 * 2.0 * (100 * dt) ** 2, rel=1e-12)

    def test_against_fine_reference(self):
        m = random_model(seed=9)
        coarse = dmp.rollout(m, 5e-3, horizon=m.tau_nominal, stop_at_goal=False)
        fine = dmp.rollout(m, 5e-4, horizon=m.tau_nominal, stop_at_goal=False)
        idx = np.arange(coarse.trajectory.n) * 10
        idx = idx[idx < fine.trajectory.n]
        dev = np.max(np.abs(
            coarse.trajectory.points[: idx.size] - fine.trajectory.points[idx]
        ))
        assert dev < 20 * 5e-3  # first-order step error


class TestRollout:
    def test_critically_damped_no_overshoot(self):
        m = zero_weight_model(d=1)
        res = dmp.rollout(m, 1e-3, horizon=6.0, stop_at_goal=False)
        x = res.trajectory.points[:, 0]
        assert np.max(x) <= 1.0 + 1e-6
        t = res.trajectory.times
        pole = m.alpha / (2.0 * m.tau_nominal)
        closed = 1.0 - (1.0 + pole * t) * np.exp(-pole * t)
        assert np.max(np.abs(x - closed)) < 5e-3

    def test_goal_convergence_random_weights(self):
        for seed in range(5):
            m = random_model(seed=seed, d=3, tau=1.0, scale=100.0)
            res = dmp.rollout(m, 0.005, horizon=10.0, stop_at_goal=False)
            assert np.linalg.norm(res.trajectory.points[-1] - m.g) < 1e-3

    def test_learned_stroke_reproduction(self, sshape_demo, sshape_model):
        res = dmp.rollout(
            sshape_model, 1e-3, horizon=sshape_model.tau_nominal, stop_at_goal=False
        )
        err = bench.mae(res.trajectory, sshape_demo)
        assert err < 0.02 * sshape_demo.bounding_box_diagonal()

    def test_nonconvergence_flagged(self):
        m = zero_weight_model(d=1, tau=10.0)
        res = dmp.rollout(m, 0.005, horizon=0.2)
        assert not res.converged

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_bad_horizon(self, horizon):
        with pytest.raises(InvalidInputError):
            dmp.rollout(zero_weight_model(d=1), 0.005, horizon=horizon)


def no_stepping(*args, **kwargs):
    pytest.fail("stepping started on an over-budget run")


class TestStepBudget:
    """Over-budget runs are rejected before their first step, never run."""

    def test_cap_reaches_the_budget(self):
        assert dmp.step_cap(0.5 * dmp.MAX_RUN_STEPS, 0.5) == dmp.MAX_RUN_STEPS
        with pytest.raises(InvalidInputError, match="dt"):
            dmp.step_cap(0.5 * dmp.MAX_RUN_STEPS + 1.0, 0.5)

    @pytest.mark.parametrize("horizon, dt", [(1e4, 0.005), (2.0, 1e-6)])
    def test_rollout_rejected(self, horizon, dt, monkeypatch):
        monkeypatch.setattr(dmp, "attractor_step", no_stepping)
        with pytest.raises(InvalidInputError, match="max_horizon_factor"):
            dmp.rollout(zero_weight_model(d=1), dt, horizon=horizon)

    def test_run_rejected(self, monkeypatch):
        engine = safe_exec.SafeDmpEngine(zero_weight_model(d=3), dt=1e-6)
        monkeypatch.setattr(engine, "step", no_stepping)
        with pytest.raises(InvalidInputError, match="dt=1e-06"):
            safe_exec.run(engine)


def is_float_row(f, d):
    """A stored table entry: an immutable tuple of d Python floats."""
    return type(f) is tuple and len(f) == d and all(type(v) is float for v in f)


#: Tolerances whose square ``tol^2`` or ``(2 tol)^2`` is subnormal,
#: underflows to 0 or overflows to inf.
EDGE_TOLERANCES = [1e-300, 1e-162, 2.3e-162, 3.2e-162, 1e-154, 1.5e-154, 1e200]


@st.composite
def goal_screen_cases(draw):
    """``(x, g, tol)`` with ``x - g`` near the tolerance, subnormal, huge
    (its squares overflow to inf), with a NaN component, or arbitrary."""
    d = draw(st.integers(1, 7))
    tol = draw(st.one_of(st.floats(1e-300, 1e3), st.sampled_from(EDGE_TOLERANCES)))
    g = draw(st.one_of(
        st.just([0.0] * d),
        st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d),
    ))
    kind = draw(st.sampled_from(["near", "subnormal", "huge", "nan", "any"]))
    if kind == "near":
        direction = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
        norm = math.sqrt(sum(v * v for v in direction)) or 1.0
        direction = direction if any(direction) else [1.0] + [0.0] * (d - 1)
        scale = draw(st.one_of(st.just(1.0), st.floats(0.5, 3.0)))
        diff = [v / norm * (scale * tol) for v in direction]
    elif kind == "subnormal":
        diff = draw(st.lists(
            st.floats(-2.3e-308, 2.3e-308), min_size=d, max_size=d))
    elif kind == "huge":
        magnitude = st.floats(1e154, 1.7e308)
        diff = [
            draw(magnitude) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(d)
        ]
    elif kind == "nan":
        diff = draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d))
        diff[draw(st.integers(0, d - 1))] = math.nan
    else:
        diff = draw(st.lists(
            st.floats(allow_nan=False), min_size=d, max_size=d))
    return [g_i + v for g_i, v in zip(g, diff)], g, tol


class TestEngineGoalScreen:
    """Both engines' ``goal_distance()`` is :func:`math.dist` of their state,
    the primitive's side of the one goal test ``math.dist(x, g) <= goal_tol``."""

    @settings(max_examples=2000, deadline=None)
    @given(goal_screen_cases())
    def test_goal_distance_is_math_dist(self, case):
        x, g, tol = case
        model = zero_weight_model(d=len(g), g=g)
        nominal = tj.TimedTrajectory([0.0, 1.0], [model.x0, model.g])
        engines = [
            safe_exec.SafeDmpEngine(model, goal_tol=tol),
            baselines.ApfEngine(model, nominal, goal_tol=tol),
        ]
        expected = np.float64(math.dist(x, g)).tobytes()
        for engine in engines:
            engine._x = x
            assert np.float64(engine.goal_distance()).tobytes() == expected


class TestRolloutAndRunStopTogether:
    """The rollout and a stepped run stop on the same step, even where that
    step lies exactly at the tolerance."""

    @pytest.fixture(scope="class")
    def at_tolerance(self, sshape_model):
        """``(k, goal_tol)``: point k of the free rollout is the first to come
        within 1 cm of the goal, so its distance is a strict running minimum,
        and ``goal_tol`` is that distance."""
        free = dmp.rollout(sshape_model, 0.005, stop_at_goal=False)
        g = sshape_model.g.tolist()
        dist = [math.dist(x, g) for x in free.trajectory.points.tolist()]
        k = next(i for i, d in enumerate(dist) if d < 0.01)
        assert k > 0 and dist[k] < min(dist[:k])
        return k, dist[k]

    def test_rollout_stops_at_the_tolerance(self, sshape_model, at_tolerance):
        k, goal_tol = at_tolerance
        rollout = dmp.rollout(sshape_model, 0.005, goal_tol=goal_tol)
        assert rollout.steps == k and rollout.converged

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_stepped_run_stops_at_the_tolerance(self, method, sshape_model,
                                                sshape_nominal, at_tolerance):
        k, goal_tol = at_tolerance
        if method == "safedmp":
            engine = safe_exec.SafeDmpEngine(sshape_model, goal_tol=goal_tol)
        else:
            engine = baselines.ApfEngine(
                sshape_model, sshape_nominal.trajectory, goal_tol=goal_tol
            )
        log = safe_exec.run(engine, nominal=None)
        assert log.steps == k and log.converged


class TestForcingTable:
    """The phase-grid forcing table behind :func:`dmp.forcing_at`."""

    def test_entries_are_forcing_on_the_grid(self):
        m = random_model(seed=5, d=3)
        dmp.rollout(m, 0.005, horizon=0.5, stop_at_goal=False)
        phases, forces = m.forcing_tables[0.005]
        assert len(phases) == len(forces) + 1
        z = 1.0
        for k, f in enumerate(forces):
            assert phases[k] == z
            assert np.array_equal(f, dmp.forcing(m, z))
            z = dmp.phase_step(z, m.tau_nominal, 0.005, m.alpha_z)
        assert phases[-1] == z

    def test_stored_entries_read_only(self):
        m = random_model(seed=5, d=3)
        dmp.rollout(m, 0.005, horizon=0.5, stop_at_goal=False)
        _, forces = m.forcing_tables[0.005]
        assert forces and all(is_float_row(f, 3) for f in forces)
        with pytest.raises(TypeError):
            forces[0][0] = 1.0

    @pytest.mark.parametrize("horizon", [0.05, 0.5, 20.0])
    def test_length_bounded_by_step_cap(self, horizon):
        m = random_model(seed=5, d=3, tau=1.0)
        cap = max(1, round(horizon / 0.005))
        dmp.rollout(m, 0.005, horizon=horizon, stop_at_goal=False)
        dmp.rollout(m, 0.005, horizon=horizon)
        phases, forces = m.forcing_tables[0.005]
        assert len(forces) <= cap and len(phases) <= cap + 1
        engine = safe_exec.SafeDmpEngine(m, dt=0.005)
        safe_exec.run(engine, max_steps=cap)
        assert len(m.forcing_tables[0.005][0]) <= cap + 1

    def test_each_dt_has_its_own_grid(self):
        m = random_model(seed=5, d=3)
        for dt in (0.005, 0.002):
            dmp.rollout(m, dt, horizon=0.2, stop_at_goal=False)
        assert sorted(m.forcing_tables) == [0.002, 0.005]
        for dt, steps in ((0.005, 40), (0.002, 100)):
            phases, forces = m.forcing_tables[dt]
            assert len(forces) == steps
            assert phases[1] == dmp.phase_step(1.0, m.tau_nominal, dt, m.alpha_z)

    def test_off_grid_phase_is_computed(self):
        m = random_model(seed=5, d=3)
        dmp.rollout(m, 0.005, horizon=0.5, stop_at_goal=False)
        phases, forces = m.forcing_tables[0.005]
        n = len(forces)
        for z in (np.nextafter(phases[5], 0.0), np.nextafter(phases[5], 1.0)):
            f = dmp.forcing_at(m, 0.005, 5, z)
            assert f is not forces[5]
            assert np.array_equal(f, dmp.forcing(m, z))
        # an off-grid phase at the table's end is not stored either
        off = np.nextafter(phases[n], 0.0)
        assert np.array_equal(dmp.forcing_at(m, 0.005, n, off), dmp.forcing(m, off))
        assert len(forces) == n

    def test_retarget_starts_a_fresh_table(self):
        m = random_model(seed=5, d=3)
        dmp.rollout(m, 0.005, horizon=0.5, stop_at_goal=False)
        moved = dmp.retarget(m, m.x0 + 0.1, 2.0 * m.g)
        assert moved.forcing_tables == {}
        f0 = dmp.forcing_at(moved, 0.005, 0, 1.0)
        assert np.array_equal(f0, dmp.forcing(moved, 1.0))
        assert not np.array_equal(f0, m.forcing_tables[0.005][1][0])


def narrow_basis_model():
    """Two narrow basis functions: grid phases below ~0.02 have basis sum < 1e-300."""
    return dmp.DmpModel(
        d=2, n_basis=2, alpha=25.0, tau_nominal=0.5,
        x0=np.zeros(2), g=np.array([1.0, -0.5]),
        centers=np.array([1.0, 0.5]), widths=np.array([3000.0, 3000.0]),
        weights=np.array([[1.0, -2.0], [0.5, 3.0]]),
    )


#: First step of a dt=0.005 grid on :func:`narrow_basis_model` whose phase the
#: basis does not cover; one-step table growth raised at this step too.
NARROW_DEGENERATE_STEP = 92


class TestForcingTableEnds:
    """Where the phase grid stops: uncovered phases and a phase step past zero."""

    def test_converged_rollout_stops_before_uncovered_phase(self):
        m = narrow_basis_model()
        result = dmp.rollout(m, 0.005)
        assert result.converged and result.steps < NARROW_DEGENERATE_STEP
        # the doubled block stopped before the uncovered phase
        phases, forces = m.forcing_tables[0.005]
        assert len(forces) == NARROW_DEGENERATE_STEP
        with pytest.raises(DegeneratePhaseError):
            dmp.forcing(m, phases[-1])

    def test_uncovered_phase_raises_at_its_step(self):
        m = narrow_basis_model()
        with pytest.raises(DegeneratePhaseError) as err:
            dmp.rollout(m, 0.005, stop_at_goal=False)
        phases, forces = m.forcing_tables[0.005]
        assert len(forces) == NARROW_DEGENERATE_STEP
        assert str(err.value) == (
            f"basis does not cover phase z={phases[NARROW_DEGENERATE_STEP]}"
        )

    def test_phase_step_past_zero_ends_grid_with_nan(self):
        m = random_model(seed=5, d=3, tau=0.01)  # alpha_z*dt/tau = 2.08
        assert m.alpha_z * 0.005 / m.tau_nominal >= 1.0
        with pytest.raises(PhaseStepError):
            dmp.rollout(m, 0.005, stop_at_goal=False)
        phases, forces = m.forcing_tables[0.005]
        assert phases[0] == 1.0 and math.isnan(phases[1]) and len(phases) == 2
        assert len(forces) == 1
        assert np.array_equal(forces[0], dmp.forcing(m, 1.0))
        # the NaN phase matches no run's phase, so later steps are computed
        assert np.array_equal(dmp.forcing_at(m, 0.005, 1, 0.5), dmp.forcing(m, 0.5))
        assert len(forces) == 1


@st.composite
def table_models(draw):
    d = draw(st.integers(1, 4))
    n_basis = draw(st.integers(2, 40))
    alpha = draw(st.floats(5.0, 50.0))
    centers, widths = dmp.default_basis(n_basis, alpha / 6.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 50.0, 1e4]))
    return dmp.DmpModel(
        d=d, n_basis=n_basis, alpha=alpha,
        tau_nominal=draw(st.floats(0.2, 3.0)),
        x0=rng.uniform(-1.0, 1.0, d), g=rng.uniform(-1.0, 1.0, d),
        centers=centers, widths=widths,
        weights=rng.uniform(-scale, scale, size=(d, n_basis)),
    )


class TestForcingTableProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        table_models(),
        st.sampled_from([0.001, 0.002, 0.005, 0.01]),
        st.lists(
            st.tuples(st.floats(0.01, 1.5), st.booleans()), min_size=1, max_size=3
        ),
    )
    def test_batch_fill_matches_scalar_forcing(self, m, dt, runs):
        """Every table entry is ``forcing`` at its grid phase, bit for bit (the
        stacked matmul must dispatch the same gemv as ``weights @ psi``), and
        the table is at most the largest rollout cap and twice the longest run."""
        longest, cap = 0, 0
        for horizon_factor, stop_at_goal in runs:
            horizon = horizon_factor * m.tau_nominal
            cap = max(cap, max(1, round(horizon / dt)))
            result = dmp.rollout(m, dt, horizon=horizon, stop_at_goal=stop_at_goal)
            longest = max(longest, result.steps)
        if longest == 0:  # started at the goal: no step read the table
            return
        phases, forces = m.forcing_tables[dt]
        assert len(phases) == len(forces) + 1
        assert len(forces) <= cap and len(forces) <= 2 * longest
        z = 1.0
        for k, f in enumerate(forces):
            assert phases[k] == z
            assert is_float_row(f, m.d)
            assert np.array_equal(f, dmp.forcing(m, z))
            z = dmp.phase_step(z, m.tau_nominal, dt, m.alpha_z)
        assert phases[-1] == z


def oracle_rollout(model, dt, horizon, goal_tol=dmp.DEFAULT_GOAL_TOL,
                   stop_at_goal=True):
    """The rollout loop as first written: each step calls :func:`dmp.forcing_at`
    at its own phase and advances it with :func:`dmp.phase_step`.  Returns
    ``(points, velocities, phases, steps, converged)``."""
    max_steps = dmp.step_cap(horizon, dt)
    tau = model.tau_nominal
    g = model.g.tolist()
    x = model.x0.tolist()
    v = [0.0] * model.d
    z = 1.0
    positions, velocities, phases = [x], [v], [z]
    for k in range(max_steps):
        if stop_at_goal and math.dist(x, g) <= goal_tol:
            break
        f = dmp.forcing_at(model, dt, k, z, max_steps)
        x, v = dmp.attractor_step(x, v, f, g, tau, dt, model.alpha, model.beta)
        z = dmp.phase_step(z, tau, dt, model.alpha_z)
        positions.append(x)
        velocities.append(v)
        phases.append(z)
    return (np.asarray(positions), velocities, phases, len(positions) - 1,
            math.dist(x, g) <= goal_tol)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def raising_step(rollout, model, dt):
    """The step at which ``rollout(model, dt, horizon, stop_at_goal=False)``
    raises, found as the fewest steps whose horizon raises, with the
    exception; each attempt runs on a fresh copy of ``model``."""
    for steps in range(1, 200):
        try:
            rollout(dmp.retarget(model, model.x0, model.g), dt, horizon=steps * dt,
                    stop_at_goal=False)
        except Exception as err:  # noqa: BLE001 - any exception is the answer
            return steps - 1, type(err), str(err)
    return None


def underflow_model():
    """Wide basis functions cover phase 0, and the grid factor 0.01 drives the
    phase to exactly 0 (an :class:`InvalidInputError` phase) at step 162."""
    return dmp.DmpModel(
        d=2, n_basis=2, alpha=6.0, tau_nominal=0.005 / 0.99,
        x0=np.zeros(2), g=np.array([1.0, -0.5]),
        centers=np.array([1.0, 0.5]), widths=np.array([1.0, 1.0]),
        weights=np.array([[1.0, -2.0], [0.5, 3.0]]),
    )


class TestRolloutOracle:
    """``dmp.rollout`` walks the phase grid and reads each step's row from the
    table; the oracle calls ``forcing_at`` and ``phase_step`` on every step.
    Both give the same bits, and raise the same exception at the same step."""

    @settings(max_examples=60, deadline=None)
    @given(
        table_models(),
        st.sampled_from([0.001, 0.002, 0.005, 0.01]),
        st.lists(
            st.tuples(st.floats(0.01, 3.0), st.booleans(),
                      st.sampled_from([1e-4, dmp.DEFAULT_GOAL_TOL, 0.05])),
            min_size=1, max_size=3,
        ),
    )
    def test_rollout_matches_oracle(self, m, dt, runs):
        """Run after run, so the later ones start from a table of another
        length; the oracle's model is a copy with a table of its own."""
        twin = dmp.retarget(m, m.x0, m.g)
        for horizon_factor, stop_at_goal, goal_tol in runs:
            horizon = horizon_factor * m.tau_nominal
            points, velocities, phases, steps, converged = oracle_rollout(
                twin, dt, horizon, goal_tol, stop_at_goal
            )
            if steps == 0:  # a one-point trajectory is refused
                with pytest.raises(InsufficientDataError):
                    dmp.rollout(m, dt, horizon, goal_tol, stop_at_goal)
                continue
            got = dmp.rollout(m, dt, horizon, goal_tol, stop_at_goal)
            assert np.array_equal(bits(got.trajectory.points), bits(points))
            assert np.array_equal(bits(got.velocities), bits(velocities))
            assert np.array_equal(bits(got.phases), bits(phases))
            assert (got.steps, got.converged) == (steps, converged)

    @pytest.mark.parametrize("model, step, error", [
        (random_model(seed=5, d=3, tau=0.01), 0, PhaseStepError),
        (narrow_basis_model(), NARROW_DEGENERATE_STEP, DegeneratePhaseError),
        (underflow_model(), 162, InvalidInputError),
    ], ids=["phase step past zero", "degenerate basis", "phase underflow"])
    def test_same_exception_at_the_same_step(self, model, step, error):
        oracle = raising_step(
            lambda m, dt, horizon, stop_at_goal:
                oracle_rollout(m, dt, horizon, stop_at_goal=stop_at_goal),
            model, 0.005,
        )
        assert raising_step(dmp.rollout, model, 0.005) == oracle
        assert oracle[:2] == (step, error)
        # and from the table the oracle left
        warm = dmp.retarget(model, model.x0, model.g)
        horizon = (step + 1) * 0.005
        with pytest.raises(error):
            oracle_rollout(warm, 0.005, horizon, stop_at_goal=False)
        with pytest.raises(error) as got:
            dmp.rollout(warm, 0.005, horizon, stop_at_goal=False)
        assert str(got.value) == oracle[2]

    def test_grid_that_ends_in_nan(self):
        """An engine's first ``forcing_at`` leaves a table whose next phase is
        NaN; a rollout reading it raises at step 0, as the oracle does."""
        m = random_model(seed=5, d=3, tau=0.01)
        dmp.forcing_at(m, 0.005, 0, 1.0)
        phases, forces = m.forcing_tables[0.005]
        assert len(forces) == 1 and math.isnan(phases[1])
        with pytest.raises(PhaseStepError) as got:
            dmp.rollout(m, 0.005, horizon=0.005)
        with pytest.raises(PhaseStepError) as expected:
            oracle_rollout(m, 0.005, 0.005)
        assert str(got.value) == str(expected.value)


class TestGridFillTraffic:
    """A cold rollout of each builtin demo at dt = 0.005 fills its table in
    doubling blocks: 1, 1, 2, ..., 256 rows, ten passes for 512 rows."""

    @pytest.mark.parametrize("name, steps", [
        ("minjerk", 403), ("sine2", 411), ("sshape", 401),
    ])
    def test_cold_rollout_passes_and_rows(self, name, steps, monkeypatch):
        model = dmp.learn_from_trajectory(
            tj.preprocess(tj.load_demo(f"builtin:{name}"))
        )
        starts = []
        extend = dmp._extend_table

        def counting(model, dt, table, max_steps):
            starts.append(len(table[1]))
            extend(model, dt, table, max_steps)

        monkeypatch.setattr(dmp, "_extend_table", counting)
        assert dmp.rollout(model, 0.005).steps == steps
        assert starts == [0, 1, 2, 4, 8, 16, 32, 64, 128, 256]
        phases, forces = model.forcing_tables[0.005]
        assert (len(forces), len(phases)) == (512, 513)


class TestAdaptTiming:
    """The engine's coupling routine: leaky deviation filter and dilated tau."""

    def test_fixed_point(self):
        x = [0.1, 0.2]
        e, tau = safe_exec.coupling_step([0.0, 0.0], x, x, 0.005, 2.5, 50.0, 1.0)
        assert e == [0.0, 0.0]
        assert tau == 1.0

    def test_quoted_tau_value(self):
        # zero deviation and zero dt-step contribution: tau from ||e||^2 alone
        _, tau = safe_exec.coupling_step(
            [0.1, 0.0], [0.0, 0.0], [0.0, 0.0], 1e-12, 1e-12, 50.0, 1.0
        )
        assert tau == pytest.approx(1.0 + 50.0 * 0.01, rel=1e-6)

    def test_decay_after_transient(self):
        dt, alpha_e = 0.005, 2.5
        e, tau = [0.0], 1.0
        # sustained deviation, then release
        for _ in range(400):
            e, tau = safe_exec.coupling_step(e, [0.1], [0.0], dt, alpha_e, 50.0, 1.0)
        assert tau > 1.0
        taus = []
        for _ in range(1000):
            e, tau = safe_exec.coupling_step(e, [0.0], [0.0], dt, alpha_e, 50.0, 1.0)
            taus.append(tau)
        assert all(t2 <= t1 for t1, t2 in zip(taus, taus[1:]))
        assert taus[-1] - 1.0 < 1e-3
        assert all(t >= 1.0 for t in taus)


class TestRetarget:
    def test_identity(self, sshape_model):
        same = dmp.retarget(sshape_model, sshape_model.x0, sshape_model.g)
        a = dmp.rollout(same, 0.005).trajectory
        b = dmp.rollout(sshape_model, 0.005).trajectory
        np.testing.assert_array_equal(a.points, b.points)

    def test_affine_equivariance(self):
        m = random_model(seed=5, d=2)
        new_x0 = np.array([0.2, -0.1])
        new_g = np.array([1.8, 0.7])
        moved = dmp.retarget(m, new_x0, new_g)
        base = dmp.rollout(m, 1e-3, horizon=m.tau_nominal, stop_at_goal=False).trajectory
        mapped = dmp.rollout(
            moved, 1e-3, horizon=m.tau_nominal, stop_at_goal=False
        ).trajectory
        scale = (new_g - new_x0) / (m.g - m.x0)
        expected = new_x0 + (base.points - m.x0) * scale
        assert np.max(np.abs(mapped.points - expected)) < 1e-3 * np.max(
            np.abs(expected - new_x0)
        )

    def test_double_amplitude_1d(self):
        m = random_model(seed=8, d=1)
        doubled = dmp.retarget(m, m.x0, m.x0 + 2.0 * (m.g - m.x0))
        base = dmp.rollout(m, 1e-3, horizon=m.tau_nominal, stop_at_goal=False).trajectory
        big = dmp.rollout(
            doubled, 1e-3, horizon=m.tau_nominal, stop_at_goal=False
        ).trajectory
        expected = m.x0 + 2.0 * (base.points - m.x0)
        np.testing.assert_allclose(big.points, expected, atol=1e-9)

    def test_collapsed_dimension_constant(self):
        m = random_model(seed=2, d=2)
        flat = dmp.retarget(m, m.x0, np.array([m.g[0], m.x0[1]]))
        res = dmp.rollout(flat, 0.005, horizon=flat.tau_nominal, stop_at_goal=False)
        np.testing.assert_allclose(res.trajectory.points[:, 1], m.x0[1], atol=1e-12)


class TestSerialization:
    def test_round_trip(self, sshape_model, tmp_path):
        path = tmp_path / "model.json"
        dmp.save_model(sshape_model, path)
        back = dmp.load_model(path)
        np.testing.assert_array_equal(back.weights, sshape_model.weights)
        np.testing.assert_array_equal(back.centers, sshape_model.centers)
        assert back.tau_nominal == sshape_model.tau_nominal
        a = dmp.rollout(back, 0.005).trajectory
        b = dmp.rollout(sshape_model, 0.005).trajectory
        np.testing.assert_array_equal(a.points, b.points)

    def test_field_layout(self, sshape_model, tmp_path):
        path = tmp_path / "model.json"
        dmp.save_model(sshape_model, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "d", "n_basis", "alpha", "tau_nominal", "x0", "g",
            "centers", "widths", "weights",
        }
        assert len(doc["weights"]) == sshape_model.d * sshape_model.n_basis

    def test_rejects_unknown_fields(self, sshape_model):
        doc = dmp.model_to_dict(sshape_model)
        doc["extra"] = 1
        with pytest.raises(InvalidInputError):
            dmp.model_from_dict(doc)
