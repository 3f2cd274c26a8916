"""The four benchmark workloads.

Each workload is built once (its set-up) and then runs whole *cycles*: a
fixed, repeating unit of work whose ops are timed one by one.  Because every
cycle of a run does identical work, the traced run can report deterministic
per-cycle counts.

- ``suite``: one op is ``bench.compare([scenario])`` for one canned
  scenario (2 cells); a cycle is one pass over ``scenarios/*.json``.
- ``sweep``: one op is one logged ``safe_exec.run`` of a fresh
  ``SafeDmpEngine`` on the sshape model; a cycle is one pass over a pool of
  seeded geometries that alternate static blockers and crossing obstacles.
- ``gauntlet``: one op is one ``SafeDmpEngine.control`` call against
  ``IdealPlant`` with no logging on the 5-obstacle corridor; a cycle is one
  engine run from start to goal.
- ``cli_run``: one op is ``cli.main(["run", ...])`` for one canned
  scenario; a cycle is one pass over ``scenarios/*.json``.

``cycle()`` returns the op latencies in seconds and the number of failed
ops; ``final_failures()`` runs checks that need no per-op timing.
"""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import numpy as np

from safedmp import bench, cli, dmp, safe_exec, trajectory

DT = 0.005
#: Geometries per sweep cycle: large enough that the mix, and so the mean
#: op cost, changes little from seed to seed.
SWEEP_POOL = 64
#: Gauntlet corridor from acceptance criterion 07: (x, lateral offset) of
#: five 2 cm spheres along a 1.4 m straight minjerk stroke.
GAUNTLET_OBSTACLES = ((0.35, 0.02), (0.6, -0.02), (0.85, 0.02),
                      (1.1, -0.02), (1.35, 0.02))


def _scenario_paths(root: Path) -> list[Path]:
    paths = sorted((root / "scenarios").glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no scenarios under {root / 'scenarios'}")
    return paths


class Workload:
    min_ops = 100

    def final_failures(self) -> bool:
        return False


class Suite(Workload):
    name = "suite"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.scenarios = [bench.load_scenario(p) for p in _scenario_paths(root)]
        self.golden = (root / "tests" / "data" / "golden_report.json").read_bytes()

    def cycle(self):
        perf = time.perf_counter
        latencies = []
        rows = []
        for scenario in self.scenarios:
            start = perf()
            rows += bench.compare([scenario])
            latencies.append(perf() - start)
        same = bench.report_to_json(rows).encode("utf-8") == self.golden
        return latencies, 0 if same else len(latencies)


class Sweep(Workload):
    name = "sweep"

    def __init__(self, root: Path, seed: int, workdir: Path):
        demo = trajectory.preprocess(trajectory.load_demo("builtin:sshape"))
        self.model = dmp.learn_from_trajectory(demo)
        nominal = dmp.rollout(self.model, DT).trajectory
        rng = np.random.default_rng(seed)
        self.obstacles = [
            bench.random_static_blocker(nominal, rng) if i % 2 == 0
            else bench.random_crossing_obstacle(nominal, rng)
            for i in range(SWEEP_POOL)
        ]

    def cycle(self):
        perf = time.perf_counter
        latencies = []
        failed = 0
        for obstacle in self.obstacles:
            start = perf()
            engine = safe_exec.SafeDmpEngine(self.model, obstacles=[obstacle], dt=DT)
            log = safe_exec.run(engine)
            latencies.append(perf() - start)
            if (not log.converged or log.safety_infeasible
                    or not log.min_surface_clearance() >= 0.0):
                failed += 1
        return latencies, failed


class Gauntlet(Workload):
    name = "gauntlet"
    min_ops = 1000

    def __init__(self, root: Path, seed: int, workdir: Path):
        demo = trajectory.preprocess(trajectory.load_demo("builtin:minjerk"))
        model = dmp.retarget(dmp.learn_from_trajectory(demo),
                             (0.1, 0.2, 0.25), (1.5, 0.2, 0.25))
        nominal = dmp.rollout(model, DT)
        scenario = bench.Scenario(
            name="gauntlet",
            obstacles=tuple(
                safe_exec.Obstacle(center0=(x, 0.2 + lateral, 0.25), radius=0.02)
                for x, lateral in GAUNTLET_OBSTACLES
            ),
            safety=safe_exec.SafetyParams(delta_gamma=0.06),
        )
        self.prepared = bench.PreparedScenario(
            scenario=scenario, model=model, demo=nominal.trajectory,
            nominal=nominal.trajectory, nominal_converged=nominal.converged,
        )
        self.goal_tol = scenario.execution.goal_tol
        self.max_steps = int(round(
            scenario.execution.max_horizon_factor * model.tau_nominal / DT
        ))

    def cycle(self):
        perf = time.perf_counter
        engine = bench.build_engine(self.prepared, "safedmp")
        plant = safe_exec.IdealPlant()
        x_measured = engine.initial_position()
        plant.reset(x_measured)
        control = engine.control
        latencies = []
        converged = False
        for k in range(self.max_steps):
            start = perf()
            result = control(x_measured, k * DT)
            latencies.append(perf() - start)
            x_measured = plant.track(result[0])
            if engine.goal_distance() <= self.goal_tol:
                converged = True
                break
        return latencies, 0 if converged else len(latencies)

    def final_failures(self) -> bool:
        """Acceptance 07 liveness: a logged run converges without collisions."""
        log = bench.run_scenario(self.prepared, "safedmp")
        return not (log.converged and bench.collision_count(log) == 0)


class CliRun(Workload):
    name = "cli_run"

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.jobs = []
        models = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for path in _scenario_paths(root):
                source = bench.load_scenario(path).demo_source
                if source not in models:
                    models[source] = workdir / f"model_{len(models)}.json"
                    code = cli.main(["learn", "--demo", source,
                                     "--out", str(models[source])])
                    if code != 0:
                        raise RuntimeError(f"safedmp learn {source} exited {code}")
                prefix = workdir / path.stem
                self.jobs.append((
                    ["run", "--model", str(models[source]), "--scenario",
                     str(path), "--out", str(prefix)],
                    prefix.with_name(prefix.name + "_log.csv"),
                    prefix.with_name(prefix.name + "_metrics.json"),
                ))
        self.reference = {}

    def cycle(self):
        perf = time.perf_counter
        latencies = []
        failed = 0
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for argv, log_path, metrics_path in self.jobs:
                log_path.unlink(missing_ok=True)
                metrics_path.unlink(missing_ok=True)
                start = perf()
                code = cli.main(argv)
                latencies.append(perf() - start)
                if code != 0 or not log_path.exists() or not metrics_path.exists():
                    failed += 1
                    continue
                outputs = (log_path.read_bytes(), metrics_path.read_bytes())
                if self.reference.setdefault(log_path, outputs) != outputs:
                    failed += 1
        return latencies, failed


WORKLOADS = {w.name: w for w in (Suite, Sweep, Gauntlet, CliRun)}
