"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines, or plainly via ``pytest`` (failures surface either way).
"""

import math
import pathlib
import shutil
import statistics
import time

import numpy as np

from safedmp import baselines, bench, cli, dmp, safe_exec
from safedmp import trajectory as tj

import stt_oracle
from stall import stall_detected

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def report(number, name, detail):
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({detail})")


def test_01_tube_collision_invariance(sshape_model, sshape_nominal):
    start = time.perf_counter()
    worst_surface = math.inf
    worst_clearance_gap = math.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        obs = bench.random_static_blocker(sshape_nominal.trajectory, rng)
        engine = safe_exec.SafeDmpEngine(sshape_model, obstacles=[obs], dt=0.005)
        log = safe_exec.run(engine)
        assert not log.safety_infeasible
        clearance = obs.radius + 0.5 * engine.safety.delta_gamma
        for x_measured in log.x_measured:
            dist = float(np.linalg.norm(x_measured - obs.center0))
            worst_surface = min(worst_surface, dist - obs.radius)
            worst_clearance_gap = min(worst_clearance_gap, dist - clearance)
    elapsed = time.perf_counter() - start
    assert worst_surface >= 0.0
    assert worst_clearance_gap >= -1e-9
    assert elapsed < 60.0
    report(1, "tube-collision-invariance",
           f"100 scenarios, min surface gap {worst_surface:.3e} m, "
           f"min clearance gap {worst_clearance_gap:.2e} m, {elapsed:.1f} s")


def test_02_reduction_to_nominal(sshape_model, sshape_nominal):
    start = time.perf_counter()
    engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
    log = safe_exec.run(engine)
    assert log.converged
    n = min(log.steps, sshape_nominal.trajectory.n)
    deviation = np.max(np.abs(
        log.x_measured[:n] - sshape_nominal.trajectory.points[:n]
    ))
    elapsed = time.perf_counter() - start
    assert deviation < 1e-9
    assert elapsed < 1.0
    report(2, "reduction-to-nominal",
           f"max per-step deviation {deviation:.2e} m, {elapsed:.2f} s")


def test_03_learning_fidelity():
    start = time.perf_counter()
    percents = {}
    for source, limit in (("minjerk", 0.01), ("sine2", 0.01), ("sshape", 0.02)):
        demo = tj.preprocess(tj.load_demo(f"builtin:{source}"))
        model = dmp.learn_from_trajectory(demo, n_basis=25)
        result = dmp.rollout(model, 1e-3, horizon=model.tau_nominal,
                             stop_at_goal=False)
        err = bench.mae(result.trajectory, demo)
        ratio = err / demo.bounding_box_diagonal()
        assert ratio < limit, f"{source}: {ratio:.4f} >= {limit}"
        percents[source] = ratio
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    detail = ", ".join(f"{k} {100 * v:.2f}%" for k, v in percents.items())
    report(3, "learning-fidelity", f"{detail}, {elapsed:.1f} s")


def test_04_perturbation_recovery(sshape_model, sshape_nominal, standard_impulses):
    engine = safe_exec.SafeDmpEngine(sshape_model, dt=0.005)
    log_safe = safe_exec.run(engine, perturbations=standard_impulses)
    assert log_safe.converged
    conv_safe = bench.convergence_time_perturb(
        log_safe, sshape_nominal.trajectory, standard_impulses
    )
    assert math.isfinite(conv_safe)
    taus = log_safe.tau
    assert taus.max() > sshape_model.tau_nominal
    assert abs(taus[-1] - sshape_model.tau_nominal) < 1e-3

    engine = baselines.ApfEngine(sshape_model, sshape_nominal.trajectory, dt=0.005)
    log_apf = safe_exec.run(engine, perturbations=standard_impulses)
    conv_apf = bench.convergence_time_perturb(
        log_apf, sshape_nominal.trajectory, standard_impulses
    )
    assert conv_safe < conv_apf
    report(4, "perturbation-recovery",
           f"conv safedmp {conv_safe:.4f} s < dmp-apf {conv_apf:.4f} s, "
           f"tau excess max {taus.max() - sshape_model.tau_nominal:.2e}")


def test_05_phase_system_oracle():
    alpha_z = 25.0 / 6.0
    dt, tau = 0.005, 1.0
    bound = 2.0 * alpha_z * dt / tau
    z = 1.0
    max_abs = 0.0
    max_rel_early = 0.0
    early_horizon = 2.0 * tau / alpha_z
    for k in range(1, 2001):
        z = dmp.phase_step(z, tau, dt, alpha_z)
        exact = math.exp(-alpha_z * k * dt / tau)
        max_abs = max(max_abs, abs(z - exact))
        if k * dt <= early_horizon:
            max_rel_early = max(max_rel_early, abs(z - exact) / exact)
    # The Euler recursion drifts from the exponential multiplicatively, so a
    # whole-horizon relative bound is unattainable for any step size; the
    # stated bound holds as an absolute error over the full 2000 steps and
    # as a relative error over the initial stretch where z is meaningful.
    assert max_abs <= bound
    assert max_rel_early <= bound
    report(5, "phase-system-oracle",
           f"2000 steps: abs err {max_abs:.2e} <= {bound:.2e}, "
           f"early rel err {max_rel_early:.3f} <= {bound:.3f}")


def test_06_stt_law_unit_properties():
    # the engine's own law, safe_exec.tube_correction, with the grid as one
    # vector of coordinates; the tube has center 0 and half-width 1
    grid = np.linspace(-0.99, 0.99, 10_000)
    center, half = 0.0, 1.0
    params = safe_exec.SafetyParams(delta_gamma=2.0 * half, gain=1.0)

    def law(x):
        n = len(x)
        return np.array(safe_exec.tube_correction(
            list(x), [center] * n, [0.0] * n, 0.005, params)[0])

    assert law([center]) == 0.0  # the zero-error shortcut
    assert law([center + 0.5 * half, center])[1] == 0.0  # the evaluated law
    u = law(grid * half + center)
    nonzero = np.abs(grid) > 1e-12
    assert np.all(np.sign(u[nonzero]) == -np.sign(grid[nonzero]))
    pos = grid > 0
    assert np.all(np.diff(np.abs(u[pos])) > 0)  # strictly monotone in |e|
    u_flipped = law(-grid * half + center)
    assert np.max(np.abs(u + u_flipped)) < 1e-12  # odd
    bound = stt_oracle.control_magnitude_bound(params.gain, params.delta_gamma,
                                               params.clip_limit)
    assert np.all(np.abs(u) <= bound + 1e-12)
    beyond = np.array([1.0, 1.5, 1e6]) * half
    saturated = np.abs(np.concatenate([law(center + beyond), law(center - beyond)]))
    assert np.max(np.abs(saturated - bound)) < 1e-12 * bound  # clip bound reached
    round_trip = stt_oracle.inverse_log_error(stt_oracle.log_error(grid))
    assert np.max(np.abs(round_trip - grid)) < 1e-12
    report(6, "stt-law-unit-properties",
           "tube_correction on a 10^4-point grid: zero at center, centering "
           "sign, strict monotonicity, oddness, clip bound and log round-trip "
           "all within 1e-12")


def _timing_prepared():
    demo = tj.preprocess(tj.load_demo("builtin:minjerk"))
    base = dmp.learn_from_trajectory(demo)
    model = dmp.retarget(base, (0.1, 0.2, 0.25), (1.5, 0.2, 0.25))
    nominal = dmp.rollout(model, 0.005)
    obstacles = tuple(
        safe_exec.Obstacle(center0=(x, 0.2 + lat, 0.25), radius=0.02)
        for x, lat in ((0.35, 0.02), (0.6, -0.02), (0.85, 0.02),
                       (1.1, -0.02), (1.35, 0.02))
    )
    scenario = bench.Scenario(
        name="timing-gauntlet",
        obstacles=obstacles,
        safety=safe_exec.SafetyParams(delta_gamma=0.06),
    )
    return bench.PreparedScenario(
        scenario=scenario, model=model, demo=nominal.trajectory,
        nominal=nominal.trajectory, nominal_converged=nominal.converged,
    )


#: Alternating blocks per method in :func:`test_07_timing`.
TIMING_BLOCKS = 10


def test_07_timing(capsys):
    prepared = _timing_prepared()
    # the scenario itself must be live: engaged obstacles, safe convergence
    log = bench.run_scenario(prepared, "safedmp")
    assert log.converged and bench.collision_count(log) == 0
    # 10 000 measured steps per method in ten alternating blocks, so a burst
    # of host load falls on both methods; equal blocks make the mean of the
    # block means the mean over all steps
    blocks = {"safedmp": [], "dmp-apf": []}
    for _ in range(TIMING_BLOCKS):
        for method, results in blocks.items():
            results.append(bench.timing_harness(
                prepared, repetitions=10_000 // TIMING_BLOCKS, method=method
            ))
    mean_safe = statistics.fmean(mean for mean, _ in blocks["safedmp"])
    mean_apf = statistics.fmean(mean for mean, _ in blocks["dmp-apf"])
    p99_safe = statistics.median(p99 for _, p99 in blocks["safedmp"])
    assert mean_safe < 1e-3
    assert mean_safe < mean_apf
    report(7, "timing",
           f"safedmp mean {mean_safe * 1e6:.1f} us (median block p99 "
           f"{p99_safe * 1e6:.1f} us) < 1 ms and < dmp-apf mean "
           f"{mean_apf * 1e6:.1f} us (dmp-apf/safedmp {mean_apf / mean_safe:.2f}), "
           "5 obstacles active")


def test_08_baseline_failure_demonstration(straight_line_model):
    obs = safe_exec.Obstacle(center0=[0.3, 0.0, 0.25], radius=0.05)
    nominal = dmp.rollout(straight_line_model, 0.005)

    engine = baselines.ApfEngine(
        straight_line_model, nominal.trajectory, obstacles=[obs], dt=0.005
    )
    log_apf = safe_exec.run(engine)
    stalled = stall_detected(log_apf)
    violated = bench.collision_count(log_apf) > 0
    assert stalled or violated

    engine = safe_exec.SafeDmpEngine(straight_line_model, obstacles=[obs], dt=0.005)
    log_safe = safe_exec.run(engine)
    assert log_safe.converged
    assert bench.collision_count(log_safe) == 0
    assert log_safe.min_surface_clearance() >= 0.0
    mode = "stall" if stalled else "clearance violation"
    report(8, "baseline-failure-demonstration",
           f"dmp-apf head-on: {mode}; safedmp converged with "
           f"min surface clearance {log_safe.min_surface_clearance():.3f} m")


def test_09_moving_obstacle_safety(sshape_model, sshape_nominal):
    worst = math.inf
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        obs = bench.random_crossing_obstacle(sshape_nominal.trajectory, rng)
        engine = safe_exec.SafeDmpEngine(sshape_model, obstacles=[obs], dt=0.005)
        log = safe_exec.run(engine)
        assert log.converged, f"seed {seed} did not converge"
        min_clear = log.min_surface_clearance()
        assert min_clear >= 0.0, f"seed {seed} violated the surface"
        worst = min(worst, min_clear)
    report(9, "moving-obstacle-safety",
           f"20 crossing geometries converged, min surface clearance {worst:.3f} m")


def test_10_determinism(tmp_path):
    model_path = tmp_path / "model.json"
    assert cli.main(["learn", "--demo", "builtin:sshape",
                     "--out", str(model_path)]) == 0
    for tag in ("a", "b"):
        code = cli.main([
            "run", "--model", str(model_path),
            "--scenario", str(SCENARIO_DIR / "moving_cross_sshape.json"),
            "--out", str(tmp_path / f"run_{tag}"),
        ])
        assert code == 0
    log_same = (
        (tmp_path / "run_a_log.csv").read_bytes()
        == (tmp_path / "run_b_log.csv").read_bytes()
    )
    metrics_same = (
        (tmp_path / "run_a_metrics.json").read_bytes()
        == (tmp_path / "run_b_metrics.json").read_bytes()
    )

    subset = tmp_path / "subset"
    subset.mkdir()
    for name in ("free_sshape.json", "static_one_sshape.json",
                 "perturb_two_sshape.json", "headon_symmetric_minjerk.json"):
        shutil.copy(SCENARIO_DIR / name, subset / name)
    for tag in ("a", "b"):
        code = cli.main(["bench", "--scenario-dir", str(subset),
                         "--out", str(tmp_path / f"bench_{tag}")])
        assert code == 0
    report_same = (
        (tmp_path / "bench_a_report.json").read_bytes()
        == (tmp_path / "bench_b_report.json").read_bytes()
    )
    assert log_same and metrics_same and report_same
    report(10, "determinism",
           "repeated run and bench invocations byte-identical "
           "(log CSV, metrics JSON, report JSON)")
