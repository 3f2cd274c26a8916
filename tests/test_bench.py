import itertools
import math
import pathlib
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safedmp import baselines, bench, dmp, safe_exec
from safedmp import trajectory as tj
from safedmp.errors import (
    InvalidInputError, SafetyInfeasibleError, UndefinedMetricError,
)

from stall import stall_detected

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_PATHS = sorted(SCENARIO_DIR.glob("*.json"))


def line_traj(n=100, d=3, duration=1.0):
    t = np.linspace(0.0, duration, n)
    pts = np.tile(np.linspace(0.0, 1.0, n)[:, None], (1, d))
    return tj.TimedTrajectory(t, pts)


class TestMae:
    def test_identical_is_zero(self):
        a = line_traj()
        assert bench.mae(a, a) == 0.0

    def test_constant_offset(self):
        ref = line_traj()
        shifted = tj.TimedTrajectory(ref.times, ref.points + 0.01)
        assert bench.mae(shifted, ref) == pytest.approx(0.01)

    def test_single_displaced_sample(self):
        ref = line_traj(n=100, d=3)
        pts = ref.points.copy()
        pts[50, 0] += 0.1
        executed = tj.TimedTrajectory(ref.times, pts)
        assert bench.mae(executed, ref) == pytest.approx(0.1 / (3 * 100))

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 1, 80)
        a = tj.TimedTrajectory(t, rng.normal(size=(80, 2)))
        b = tj.TimedTrajectory(t, rng.normal(size=(80, 2)))
        c = tj.TimedTrajectory(t, rng.normal(size=(80, 2)))
        assert bench.mae(a, b) == pytest.approx(bench.mae(b, a), abs=1e-9)
        assert bench.mae(a, c) <= bench.mae(a, b) + bench.mae(b, c) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            bench.mae(line_traj(d=2), line_traj(d=3))


def synthetic_log(times, measured, goal, dt, converged=True):
    # zero nominal and safe positions, command = measured, tau = z = 1
    n, d = measured.shape
    rows = np.column_stack([
        times, np.zeros((n, 2 * d)), measured, measured,
        np.ones((n, 2)), np.full(n, math.inf),
    ])
    return safe_exec.ExecutionLog(
        rows=rows, converged=converged, safety_infeasible=False,
        dt=dt, goal=np.asarray(goal, dtype=float),
        wall_time_mean=0.0, wall_time_p99=0.0,
    )


class TestConvergenceTimePerturb:
    dt = 0.01

    def make_log(self, deviation_profile):
        n = len(deviation_profile)
        times = np.arange(n) * self.dt
        nominal_pts = np.zeros((n, 3))
        measured = nominal_pts + np.array(deviation_profile)[:, None] * np.array([0, 1, 0])
        nominal = tj.TimedTrajectory(times, nominal_pts)
        return synthetic_log(times, measured, [0, 0, 0], self.dt), nominal

    def test_zero_magnitude_is_zero(self):
        log, nominal = self.make_log([0.0] * 50)
        pert = bench.Perturbation(t_apply=0.1, offset=np.zeros(3))
        assert bench.convergence_time_perturb(log, nominal, [pert]) == 0.0

    def test_single_impulse(self):
        profile = [0.0] * 10 + [0.05] * 5 + [0.0] * 50
        log, nominal = self.make_log(profile)
        pert = bench.Perturbation(t_apply=0.1, offset=np.array([0, 0.05, 0]))
        conv = bench.convergence_time_perturb(log, nominal, [pert], tol=0.005)
        assert conv == pytest.approx(15 * self.dt - 0.1)

    def test_two_impulses_mean(self):
        profile = [0.0] * 10 + [0.05] * 5 + [0.0] * 20 + [0.05] * 10 + [0.0] * 30
        log, nominal = self.make_log(profile)
        p1 = bench.Perturbation(t_apply=10 * self.dt, offset=np.array([0, 0.05, 0]))
        p2 = bench.Perturbation(t_apply=35 * self.dt, offset=np.array([0, 0.05, 0]))
        t1 = bench.convergence_time_perturb(log, nominal, [p1])
        t2 = bench.convergence_time_perturb(log, nominal, [p2])
        both = bench.convergence_time_perturb(log, nominal, [p1, p2])
        assert both == pytest.approx((t1 + t2) / 2.0)

    def test_never_reconverges_is_inf(self):
        profile = [0.0] * 10 + [0.05] * 90
        log, nominal = self.make_log(profile)
        pert = bench.Perturbation(t_apply=0.1, offset=np.array([0, 0.05, 0]))
        assert math.isinf(bench.convergence_time_perturb(log, nominal, [pert]))

    def test_dwell_skips_transient_crossing(self):
        # deviation dips below tol for fewer than dwell samples, then returns
        profile = [0.0] * 10 + [0.05] * 5 + [0.0] * 3 + [0.05] * 5 + [0.0] * 30
        log, nominal = self.make_log(profile)
        pert = bench.Perturbation(t_apply=0.1, offset=np.array([0, 0.05, 0]))
        conv = bench.convergence_time_perturb(log, nominal, [pert], dwell=10)
        assert conv == pytest.approx(23 * self.dt - 0.1)

    @pytest.mark.parametrize("dwell", [0, -1, -10])
    def test_dwell_below_one_rejected(self, dwell):
        log, nominal = self.make_log([0.0] * 50)
        pert = bench.Perturbation(t_apply=0.1, offset=np.zeros(3))
        with pytest.raises(InvalidInputError, match="dwell"):
            bench.convergence_time_perturb(log, nominal, [pert], dwell=dwell)


def oracle_convergence_time_perturb(log, nominal, perturbations, tol, dwell):
    """The metric as a candidate loop: from each impulse on, one window of
    ``dwell`` samples (clipped at the log's end) per index until one is all
    below ``tol``."""
    times = log.t
    ref = np.empty_like(log.x_measured)
    for i in range(nominal.d):
        ref[:, i] = np.interp(times, nominal.times, nominal.points[:, i])
    below = np.linalg.norm(log.x_measured - ref, axis=1) < tol
    results = []
    for pert in perturbations:
        t_apply = pert.t_apply
        found = math.inf
        for idx in np.nonzero(times >= t_apply - 1e-12)[0]:
            window = below[idx: idx + dwell]
            if window.all() and (window.size == dwell or bool(below[idx:].all())):
                found = times[idx] - t_apply
                break
        results.append(max(found, 0.0))
    return float(np.mean(results))


@st.composite
def reconvergence_cases(draw):
    """A log of 1-300 rows whose deviation from a moving nominal lies below
    or above tol in drawn runs, a dwell of 1-15 samples and 1-3 impulses
    before, on (to the 1e-12 slack), between and past the log's samples."""
    runs = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 40)),
                         min_size=1, max_size=30))
    below = np.concatenate([np.full(k, b) for b, k in runs])[:300]
    n = len(below)
    dt = draw(st.sampled_from([0.004, 0.005, 0.01]))
    t0 = draw(st.sampled_from([0.0, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = t0 + np.arange(n) * dt
    nominal = tj.TimedTrajectory(
        np.arange(n + 2) * dt,
        np.cumsum(rng.normal(scale=0.01, size=(n + 2, 3)), axis=0),
    )
    ref = np.column_stack(
        [np.interp(times, nominal.times, nominal.points[:, i]) for i in range(3)]
    )
    tol = bench.DEFAULT_RECONVERGENCE_TOL
    size = tol * np.where(below, rng.uniform(0.0, 0.99, n), rng.uniform(1.01, 20.0, n))
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    log = synthetic_log(times, ref + size[:, None] * direction, [0, 0, 0], dt)
    on_grid = st.tuples(
        st.integers(0, n + 3), st.sampled_from([-2e-12, -1e-12, 0.0, 1e-12])
    ).map(lambda k_eps: max(0.0, t0 + k_eps[0] * dt + k_eps[1]))
    t_apply = on_grid | st.floats(0.0, times[-1] + 20 * dt)
    perturbations = [bench.Perturbation(t, np.zeros(3))
                     for t in draw(st.lists(t_apply, min_size=1, max_size=3))]
    return log, nominal, perturbations, tol, draw(st.integers(1, 15))


class TestConvergenceSearchOracle:
    """The one-pass search returns the candidate loop's bits."""

    @settings(max_examples=300, deadline=None)
    @given(reconvergence_cases())
    def test_matches_candidate_loop(self, case):
        got = bench.convergence_time_perturb(*case)
        assert got.hex() == oracle_convergence_time_perturb(*case).hex()


class TestConvergenceTimeOa:
    @staticmethod
    def time_to_goal(steps, converged=True):
        times = np.arange(steps) * 0.01
        log = synthetic_log(times, np.zeros((steps, 3)), [0, 0, 0], 0.01, converged)
        return log.time_to_goal()

    def test_zero_obstacles(self):
        t_w, t_f = self.time_to_goal(100), self.time_to_goal(100)
        assert bench.convergence_time_oa(t_w, t_f, 0) == 0.0

    def test_identical_runs_within_dt(self):
        t_w, t_f = self.time_to_goal(100), self.time_to_goal(100)
        assert bench.convergence_time_oa(t_w, t_f, 1) == 0.0

    def test_positive_overhead_per_obstacle(self):
        t_w, t_f = self.time_to_goal(160), self.time_to_goal(100)
        assert bench.convergence_time_oa(t_w, t_f, 2) == pytest.approx(0.3)

    def test_negative_clamped(self):
        t_w, t_f = self.time_to_goal(90), self.time_to_goal(100)
        assert bench.convergence_time_oa(t_w, t_f, 1) == 0.0

    def test_nonconverged_undefined(self):
        converged = self.time_to_goal(100)
        stuck = self.time_to_goal(100, converged=False)
        assert stuck == math.inf
        for t_w, t_f in ((stuck, converged), (converged, stuck)):
            with pytest.raises(UndefinedMetricError):
                bench.convergence_time_oa(t_w, t_f, 1)


@pytest.fixture(scope="module")
def canned_prepared():
    return {p.stem: bench.prepare(bench.load_scenario(p)) for p in SCENARIO_PATHS}


def count_controls(patch) -> list:
    """The times of every engine ``control`` call while ``patch`` holds."""
    calls = []
    for engine in (safe_exec.SafeDmpEngine, baselines.ApfEngine):
        def counting(self, x_measured, t, control=engine.control):
            calls.append(t)
            return control(self, x_measured, t)

        patch.setattr(engine, "control", counting)
    return calls


class TestUnperturbedTwin:
    """A twin is the stepped run of the twin scenario; under the ideal plant
    an obstacle-free twin replays the whole rollout."""

    @staticmethod
    def assert_twin_equals_stepped_run(prepared, method, monkeypatch):
        for with_obstacles in (False, True):
            twin = replace(
                prepared.scenario, perturbations=(),
                obstacles=prepared.scenario.obstacles if with_obstacles else (),
            )
            log = bench.run_scenario(
                replace(prepared, scenario=twin, rollout=None), method
            )
            with monkeypatch.context() as patch:
                calls = count_controls(patch)
                path, time_to_goal = bench.unperturbed_twin(
                    prepared, method, with_obstacles
                )
            assert np.array_equal(path.times, log.t)
            assert np.array_equal(path.points, log.x_measured)
            assert time_to_goal == log.time_to_goal()
            if not twin.obstacles:
                assert calls == []  # replayed, not stepped
                assert prepared.nominal_converged == log.converged

    def test_ten_canned_scenarios(self):
        assert len(SCENARIO_PATHS) == 10

    @pytest.mark.parametrize("method", bench.METHODS)
    @pytest.mark.parametrize("name", [p.stem for p in SCENARIO_PATHS])
    def test_canned_twin_equals_simulated_run(
        self, name, method, canned_prepared, monkeypatch
    ):
        prepared = canned_prepared[name]
        assert prepared.scenario.execution.plant == "ideal"
        self.assert_twin_equals_stepped_run(prepared, method, monkeypatch)

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_step_cap_follows_horizon_factor(self, method, sshape_model, monkeypatch):
        # a horizon too short to converge: rollout and run stop at one cap
        scenario = bench.Scenario(
            name="short", execution=bench.ExecutionOptions(max_horizon_factor=0.5)
        )
        prepared = bench.plan(scenario, sshape_model)
        assert not prepared.nominal_converged
        assert prepared.nominal.n - 1 == round(0.5 * sshape_model.tau_nominal / 0.005)
        self.assert_twin_equals_stepped_run(prepared, method, monkeypatch)
        assert bench.unperturbed_twin(prepared, method)[1] == math.inf

    def test_lag_plant_twin_is_simulated(self, sshape_model):
        scenario = bench.Scenario(
            name="lag", execution=bench.ExecutionOptions(plant="first-order-lag")
        )
        prepared = bench.plan(scenario, sshape_model)
        path, time_to_goal = bench.unperturbed_twin(prepared, with_obstacles=False)
        assert not scenario.perturbations
        log = bench.run_scenario(prepared)
        assert np.array_equal(path.points, log.x_measured)
        assert time_to_goal == log.time_to_goal()
        # the lag makes this twin differ from the rollout
        assert not np.array_equal(path.points, prepared.nominal.points[:-1])


def table_variant(canned_prepared, name):
    """A canned scenario, or a lag-plant or perturbed variant of one."""
    if name == "lag":
        prepared = canned_prepared["perturb_two_sshape"]
        scenario = prepared.scenario
        scenario = replace(
            scenario, execution=replace(scenario.execution, plant="first-order-lag")
        )
    elif name == "perturbed":
        prepared = canned_prepared["moving_cross_sshape"]
        scenario = replace(
            prepared.scenario,
            perturbations=bench.standard_perturbations(prepared.nominal.duration),
        )
    else:
        return canned_prepared[name]
    return bench.plan(scenario, prepared.model, prepared.demo)


class TestForcingTableInRuns:
    """Runs read the rollout's forcing table without changing a bit."""

    @pytest.mark.parametrize("method", bench.METHODS)
    @pytest.mark.parametrize(
        "name", [p.stem for p in SCENARIO_PATHS] + ["lag", "perturbed"]
    )
    def test_cold_model_rows_equal_warm(self, name, method, canned_prepared):
        warm = table_variant(canned_prepared, name)
        assert warm.model.forcing_tables[warm.scenario.dt][1]  # filled by the rollout
        cold = replace(
            warm, model=dmp.model_from_dict(dmp.model_to_dict(warm.model))
        )
        assert cold.model.forcing_tables == {}
        assert np.array_equal(
            bench.run_scenario(cold, method).rows,
            bench.run_scenario(warm, method).rows,
        )

    def test_warm_free_run_computes_no_forcing(self, canned_prepared, monkeypatch):
        prepared = canned_prepared["free_sshape"]
        calls = []
        forcing = dmp.forcing
        monkeypatch.setattr(
            dmp, "forcing", lambda model, z: calls.append(z) or forcing(model, z)
        )
        for method in bench.METHODS:
            assert bench.run_scenario(prepared, method).converged
        assert calls == []


class TestPlan:
    def test_perturbation_beyond_horizon_rejected(self, sshape_model):
        scenario = bench.Scenario(perturbations=(
            bench.Perturbation(t_apply=1000.0, offset=[0.0, 0.05, 0.0]),
        ))
        with pytest.raises(InvalidInputError, match="execution horizon"):
            bench.plan(scenario, sshape_model)

    def test_loaded_model_uses_nominal_as_demo(self, sshape_model):
        prepared = bench.plan(bench.Scenario(), sshape_model)
        assert prepared.demo is prepared.nominal
        assert prepared.nominal_converged


def oracle_oscillation_flag(log) -> bool:
    """The flag with numpy's norms and a ``np.convolve`` window count."""
    if log.steps < 3:
        return False
    measured, dt = log.x_measured, log.dt
    vel = np.diff(measured, axis=0) / dt
    w = max(2, int(round(bench.OSCILLATION_SMOOTH_S / dt)))
    csum = np.cumsum(vel, axis=0)
    smooth = np.empty_like(vel)
    smooth[:w] = csum[:w] / np.arange(1, len(csum[:w]) + 1)[:, None]
    smooth[w:] = (csum[w:] - csum[:-w]) / w
    dots = np.einsum("ij,ij->i", vel, smooth)
    speed = np.linalg.norm(vel, axis=1)
    extent = float(np.linalg.norm(log.goal - measured[0]))
    goal_radius = max(0.02, 0.05 * extent)
    away = np.linalg.norm(measured[:-1] - log.goal[None, :], axis=1) > goal_radius
    opposing = (dots < 0.0) & away & (speed > 1e-9)
    onsets = opposing & ~np.concatenate([[False], opposing[:-1]])
    window = dmp.step_cap(bench.OSCILLATION_WINDOW_S, dt)
    counts = np.convolve(onsets.astype(float), np.ones(window), mode="valid")
    return bool(np.any(counts > bench.OSCILLATION_MAX_REVERSALS))


@st.composite
def zigzag_logs(draw, max_rows, max_run):
    """A path that drifts along x and turns in y after drawn runs of steps,
    some of them standing still, with a goal far away or at its end."""
    runs = draw(st.lists(st.integers(1, max_run), min_size=1, max_size=max_rows))
    turns = np.concatenate([np.full(k, (-1.0) ** i) for i, k in enumerate(runs)])
    dt = draw(st.sampled_from([0.004, 0.005, 0.01]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = min(len(turns), max_rows - 1)
    steps = np.column_stack([
        np.full(m, draw(st.sampled_from([0.0, 0.02, 0.2]))),
        turns[:m] * draw(st.floats(0.05, 1.0)),
        rng.normal(scale=0.02, size=m),
    ]) * dt * (rng.uniform(size=m) > 0.1)[:, None]
    measured = np.vstack([np.zeros((1, 3)), np.cumsum(steps, axis=0)])
    goal = [5.0, 0.0, 0.0] if draw(st.booleans()) else measured[-1]
    return synthetic_log(np.arange(m + 1) * dt, measured, goal, dt)


class TestOscillationOracle:
    """The cumulative window count returns the ``np.convolve`` flag."""

    @settings(max_examples=300, deadline=None)
    @given(zigzag_logs(max_rows=300, max_run=30))
    def test_matches_convolve(self, log):
        assert bench.oscillation_flag(log) == oracle_oscillation_flag(log)

    @settings(max_examples=200, deadline=None)
    @given(zigzag_logs(max_rows=50, max_run=4))
    def test_log_shorter_than_the_window_matches_convolve(self, log):
        # fewer onset samples than the 50-125-sample window
        assert log.steps - 1 < dmp.step_cap(bench.OSCILLATION_WINDOW_S, log.dt)
        assert bench.oscillation_flag(log) == oracle_oscillation_flag(log)

    def test_short_log_counts_as_one_window(self):
        dt = 0.005
        n = 60  # 59 onset samples, a 100-sample window
        k = np.arange(n)
        times = k * dt
        y = 0.002 * np.cumsum(np.where(k // 4 % 2, -1.0, 1.0))  # turns every 4 steps
        measured = np.column_stack([0.0005 * k, y, np.zeros(n)])
        log = synthetic_log(times, measured, [5.0, 0, 0], dt)
        assert oracle_oscillation_flag(log)
        assert bench.oscillation_flag(log)
        few = synthetic_log(times[:12], measured[:12], [5.0, 0, 0], dt)
        assert not oracle_oscillation_flag(few) and not bench.oscillation_flag(few)


class TestOscillationAndStall:
    def test_smooth_run_not_flagged(self, sshape_model):
        engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
        log = safe_exec.run(engine)
        assert not bench.oscillation_flag(log)
        assert not stall_detected(log)

    def test_ringing_flagged(self):
        dt = 0.005
        n = 400
        times = np.arange(n) * dt
        y = 0.03 * np.sin(2 * np.pi * 8.0 * times)
        measured = np.column_stack([np.zeros(n), y, np.zeros(n)])
        log = synthetic_log(times, measured, [1.0, 0, 0], dt)
        assert bench.oscillation_flag(log)

    @pytest.mark.parametrize("n", [3, 10, 20, 21])
    def test_log_shorter_than_the_smoothing_span(self, n):
        # 0.1 s smoothing at dt=0.005 averages 20 velocities
        dt = 0.005
        times = np.arange(n) * dt
        measured = np.column_stack([0.2 * times, np.zeros(n), np.zeros(n)])
        log = synthetic_log(times, measured, [5.0, 0, 0], dt)
        assert not bench.oscillation_flag(log)

    def test_single_smooth_turn_not_flagged(self):
        dt = 0.005
        n = 400
        times = np.arange(n) * dt
        # one U-turn in y while far from the goal
        y = 0.1 * np.sin(np.pi * times / times[-1])
        measured = np.column_stack([0.2 * times, y, np.zeros(n)])
        log = synthetic_log(times, measured, [5.0, 0, 0], dt)
        assert not bench.oscillation_flag(log)

    def test_stall_detector(self):
        dt = 0.005
        n = 400
        times = np.arange(n) * dt
        measured = np.zeros((n, 3))
        log = synthetic_log(times, measured, [1.0, 0, 0], dt)
        assert stall_detected(log)


class TestScenarioIo:
    def make_scenario(self):
        return bench.Scenario(
            name="demo",
            demo_source="builtin:minjerk",
            method="safedmp",
            dt=0.005,
            obstacles=(
                safe_exec.Obstacle(
                    center0=[0.4, 0.3, 0.25], radius=0.04,
                    velocity=[0.0, 0.1, 0.0], active_window=(0.2, 1.5),
                ),
            ),
            perturbations=(
                bench.Perturbation(t_apply=0.5, offset=np.array([0, 0.05, 0])),
            ),
        )

    def test_round_trip(self, tmp_path):
        scenario = self.make_scenario()
        path = tmp_path / "scenario.json"
        bench.save_scenario(scenario, path)
        back = bench.load_scenario(path)
        assert back.name == "demo"  # explicit document name wins over the stem
        assert back.dt == scenario.dt
        np.testing.assert_array_equal(
            back.obstacles[0].center0, scenario.obstacles[0].center0
        )
        assert back.obstacles[0].active_window == (0.2, 1.5)
        assert back.perturbations[0].t_apply == 0.5

    def test_unknown_field_rejected(self, tmp_path):
        import json

        doc = bench.scenario_to_dict(self.make_scenario())
        doc["surprise"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError):
            bench.load_scenario(path)

    def test_nested_unknown_field_rejected(self, tmp_path):
        import json

        doc = bench.scenario_to_dict(self.make_scenario())
        doc["safety"]["extra"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError):
            bench.load_scenario(path)

    def test_defaults_for_missing_fields(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text('{"demo_source": "builtin:minjerk"}')
        scenario = bench.load_scenario(path)
        assert scenario.dt == safe_exec.DEFAULT_DT
        assert scenario.method == "safedmp"
        assert scenario.safety.delta_gamma == safe_exec.DEFAULT_DELTA_GAMMA


class TestEvaluateAndCompare:
    def test_safedmp_obstacle_scenario_metrics(self, sshape_nominal):
        rng = np.random.default_rng(3)
        obs = bench.random_static_blocker(sshape_nominal.trajectory, rng)
        scenario = bench.Scenario(
            name="static", demo_source="builtin:sshape", obstacles=(obs,)
        )
        prepared = bench.prepare(scenario)
        log = bench.run_scenario(prepared, "safedmp")
        report = bench.evaluate(prepared, log, "safedmp")
        assert report.converged
        assert report.collision_count == 0
        assert report.min_clearance_m is not None and report.min_clearance_m >= 0.0
        assert report.conv_time_oa_s is not None and report.conv_time_oa_s >= 0.0
        assert report.exec_time_mean_s is None  # timing off by default

    def test_compare_rows_and_determinism(self, tmp_path):
        scenario = bench.Scenario(name="free", demo_source="builtin:minjerk")
        rows_a = bench.compare([scenario])
        rows_b = bench.compare([scenario])
        assert [r.method for r in rows_a] == ["safedmp", "dmp-apf"]
        assert bench.report_to_json(rows_a) == bench.report_to_json(rows_b)
        for row in rows_a:
            assert row.error is None
            assert row.metrics.collision_count == 0

    def test_compare_learns_each_demo_once(self, monkeypatch):
        counts = {"preprocess": 0, "learn": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tj, "preprocess", counted("preprocess", tj.preprocess))
        monkeypatch.setattr(
            dmp, "learn_from_trajectory", counted("learn", dmp.learn_from_trajectory)
        )
        scenarios = [bench.load_scenario(p) for p in SCENARIO_PATHS]
        assert len({s.demo_source for s in scenarios}) == 3
        rows = bench.compare(scenarios)
        assert len(rows) == 20 and all(r.error is None for r in rows)
        assert counts == {"preprocess": 3, "learn": 3}

    def test_compare_plans_each_scenario_given(self):
        # two scenarios that share a name keep their own plans and obstacles
        free, static = (
            bench.load_scenario(SCENARIO_DIR / f"{name}.json")
            for name in ("free_sshape", "static_one_sshape")
        )
        static = replace(static, name=free.name)
        together = bench.compare([free, static])
        assert bench.report_to_json(together[2:]) == bench.report_to_json(
            bench.compare([static])
        )
        assert together[2].metrics.min_clearance_m is not None

    def test_compare_records_cell_failures(self):
        bad = bench.Scenario(name="broken", demo_source="builtin:doesnotexist")
        rows = bench.compare([bad], methods=("safedmp",))
        assert rows[0].metrics is None
        assert "doesnotexist" in rows[0].error

    def test_compare_records_only_input_errors(self, monkeypatch):
        scenario = bench.Scenario(name="free", demo_source="builtin:minjerk")

        def raising(exc):
            def run_scenario(*args, **kwargs):
                raise exc
            return run_scenario

        monkeypatch.setattr(bench, "run_scenario", raising(InvalidInputError("bad")))
        assert [row.error for row in bench.compare([scenario])] == ["bad", "bad"]
        monkeypatch.setattr(bench, "run_scenario", raising(RuntimeError("a bug")))
        with pytest.raises(RuntimeError, match="a bug"):
            bench.compare([scenario])

    def test_symmetric_scenario_flags_apf(self, straight_line_model):
        obs = safe_exec.Obstacle(center0=[0.3, 0.0, 0.25], radius=0.05)
        nominal = dmp.rollout(straight_line_model, 0.005)
        scenario = bench.Scenario(name="headon", obstacles=(obs,), method="dmp-apf")
        prepared = bench.PreparedScenario(
            scenario=scenario,
            model=straight_line_model,
            demo=nominal.trajectory,
            nominal=nominal.trajectory,
            nominal_converged=nominal.converged,
        )
        log = bench.run_scenario(prepared, "dmp-apf")
        report = bench.evaluate(prepared, log, "dmp-apf")
        assert (
            report.oscillation_flag
            or report.collision_count > 0
            or stall_detected(log)
        )
        safe_report = bench.evaluate(
            prepared, bench.run_scenario(prepared, "safedmp"), "safedmp"
        )
        assert safe_report.converged and safe_report.collision_count == 0


def timing_prepared(model, obstacles=()):
    nominal = dmp.rollout(model, 0.005)
    scenario = bench.Scenario(
        name="timing", demo_source="builtin:minjerk", obstacles=obstacles
    )
    return bench.PreparedScenario(
        scenario=scenario, model=model, demo=nominal.trajectory,
        nominal=nominal.trajectory, nominal_converged=True,
    )


class TestTimingHarness:
    def test_mean_and_stability(self, minjerk_model):
        prepared = timing_prepared(minjerk_model)
        mean1, p99 = bench.timing_harness(prepared, repetitions=400)
        mean2, _ = bench.timing_harness(prepared, repetitions=800)
        assert 0.0 < mean1 < 1e-3
        assert p99 >= mean1 * 0.5
        assert abs(mean2 - mean1) < 0.5 * max(mean1, mean2)

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_positive_means_for_both_methods(self, method, minjerk_model):
        mean, p99 = bench.timing_harness(
            timing_prepared(minjerk_model), repetitions=100, method=method
        )
        assert mean > 0.0 and p99 > 0.0

    def test_rejects_too_few_repetitions(self, minjerk_model):
        with pytest.raises(InvalidInputError):
            bench.timing_harness(timing_prepared(minjerk_model), repetitions=10)

    def test_infeasible_scenario_raises(self, minjerk_model):
        # 26 touching spheres box in the path's midpoint: the safedmp run
        # cannot clear them (at step 183), so there is no step cost to report
        pts = dmp.rollout(minjerk_model, 0.005).trajectory.points
        mid = pts[pts.shape[0] // 2]
        obstacles = tuple(
            safe_exec.Obstacle(center0=mid + 0.05 * np.array(o), radius=0.05)
            for o in itertools.product((-1, 0, 1), repeat=3) if any(o)
        )
        prepared = timing_prepared(minjerk_model, obstacles)
        with pytest.raises(SafetyInfeasibleError):
            bench.timing_harness(prepared, repetitions=400)
        # the potential field never projects, so it still has a step cost
        mean, _ = bench.timing_harness(prepared, repetitions=100, method="dmp-apf")
        assert mean > 0.0


class TestOptInTiming:
    """Only runs that ask for timing read the clock."""

    @pytest.fixture
    def clock_calls(self, monkeypatch):
        calls = []
        clock = time.perf_counter

        def counting_clock():
            calls.append(None)
            return clock()

        monkeypatch.setattr(time, "perf_counter", counting_clock)
        return calls

    @pytest.fixture
    def engines(self, monkeypatch):
        built = []
        build = bench.build_engine

        def recording_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(bench, "build_engine", recording_build)
        return built

    @pytest.fixture(scope="class")
    def prepared(self):
        scenario = bench.load_scenario(
            next(p for p in SCENARIO_PATHS if p.stem == "static_one_sshape")
        )
        return bench.prepare(scenario)

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_untimed_run_reads_no_clock(self, method, prepared, clock_calls, engines):
        log = bench.run_scenario(prepared, method)
        assert log.steps > 100
        assert clock_calls == []
        assert [engine.step_seconds for engine in engines] == [[]]
        assert log.wall_time_mean is None and log.wall_time_p99 is None

    @pytest.mark.parametrize("method", bench.METHODS)
    def test_timed_run_times_each_control_call(
        self, method, prepared, clock_calls, engines
    ):
        untimed = bench.run_scenario(prepared, method)
        log = bench.run_scenario(prepared, method, with_timing=True)
        assert len(clock_calls) == 2 * log.steps
        assert len(engines[-1].step_seconds) == log.steps
        assert log.wall_time_mean > 0.0 and log.wall_time_p99 > 0.0
        assert log.rows.tobytes() == untimed.rows.tobytes()


class TestGenerators:
    def test_static_blocker_intersects_path(self, sshape_nominal):
        rng = np.random.default_rng(1)
        obs = bench.random_static_blocker(sshape_nominal.trajectory, rng)
        dists = np.linalg.norm(
            sshape_nominal.trajectory.points - obs.center0, axis=1
        )
        assert dists.min() < obs.radius + 0.05  # inside the buffer somewhere
        x0 = sshape_nominal.trajectory.points[0]
        g = sshape_nominal.trajectory.points[-1]
        assert np.linalg.norm(obs.center0 - x0) > obs.radius + 0.05
        assert np.linalg.norm(obs.center0 - g) > obs.radius + 0.05

    def test_crossing_obstacle_crosses(self, sshape_nominal):
        rng = np.random.default_rng(2)
        obs = bench.random_crossing_obstacle(sshape_nominal.trajectory, rng)
        assert np.linalg.norm(obs.velocity) > 0
        traj = sshape_nominal.trajectory
        dists = [
            np.linalg.norm(p - (obs.center0 + obs.velocity * t))
            for t, p in zip(traj.times, traj.points)
        ]
        assert min(dists) < obs.radius + 0.05

    def test_seeded_reproducibility(self, sshape_nominal):
        a = bench.random_static_blocker(
            sshape_nominal.trajectory, np.random.default_rng(9)
        )
        b = bench.random_static_blocker(
            sshape_nominal.trajectory, np.random.default_rng(9)
        )
        np.testing.assert_array_equal(a.center0, b.center0)
        assert a.radius == b.radius
