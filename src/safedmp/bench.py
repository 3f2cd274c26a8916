"""Scenario construction, execution metrics and the method comparison grid.

Metrics follow the harness conventions: trajectory error is the mean
absolute per-dimension deviation after resampling both trajectories to the
reference length, re-convergence requires a dwell below tolerance, and the
obstacle-avoidance overhead is the extra time to goal per obstacle.  All
metrics are deterministic given (scenario, platform); wall-clock
timing is measured separately and never enters deterministic reports by
default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, codec, dmp, safe_exec, trajectory
from .errors import (
    INPUT_ERRORS, InvalidInputError, SafetyInfeasibleError, UndefinedMetricError,
)

SCHEMA_VERSION = 1

DEFAULT_RECONVERGENCE_TOL = 0.005
DEFAULT_RECONVERGENCE_DWELL = 10
DEFAULT_PERTURBATION_MAGNITUDE = 0.05
DEFAULT_PERTURBATION_FRACTIONS = (0.25, 0.60)

#: :func:`oscillation_flag`: more than this many reversals inside one window
#: of this many seconds flag a run; reversals oppose the velocity averaged
#: over the trailing smoothing span.
OSCILLATION_MAX_REVERSALS = 5
OSCILLATION_WINDOW_S = 0.5
OSCILLATION_SMOOTH_S = 0.1

#: Radius range of :func:`random_static_blocker`'s spheres.
BLOCKER_RADIUS_RANGE = (0.03, 0.08)
#: Radius and speed ranges of :func:`random_crossing_obstacle`'s spheres, and
#: the range of path fractions whose point the track crosses.
CROSSING_RADIUS_RANGE = (0.03, 0.06)
CROSSING_SPEED_RANGE = (0.05, 0.25)
CROSSING_FRACTION_RANGE = (0.3, 0.7)

METHODS = ("safedmp", "dmp-apf")
#: Control steps :func:`timing_harness` runs before it starts measuring.
TIMING_WARMUP = 200


@dataclass(frozen=True)
class Perturbation:
    """Displacement added to the measured position for one control step."""

    t_apply: float
    offset: np.ndarray

    def __post_init__(self):
        offset = np.asarray(self.offset, dtype=float).copy()
        if offset.ndim != 1 or not np.all(np.isfinite(offset)):
            raise InvalidInputError("offset must be a finite vector")
        if not 0.0 <= self.t_apply < math.inf:
            raise InvalidInputError("t_apply must be non-negative and finite")
        offset.flags.writeable = False
        object.__setattr__(self, "offset", offset)


@dataclass(frozen=True)
class PreprocessOptions:
    """:func:`trajectory.preprocess` options; ``rotation`` is row-major 3x3."""

    resample_n: int = trajectory.DEFAULT_RESAMPLE_N
    cutoff_hz: float = trajectory.DEFAULT_CUTOFF_HZ
    z_height: float = trajectory.DEFAULT_Z_HEIGHT
    rotation: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.resample_n < 2:
            raise InvalidInputError("resample_n must be at least 2")
        if not 0.0 < self.cutoff_hz < math.inf:
            raise InvalidInputError("cutoff_hz must be positive and finite")
        if not math.isfinite(self.z_height):
            raise InvalidInputError("z_height must be finite")
        if self.rotation is not None and (
            len(self.rotation) != 9 or not all(map(math.isfinite, self.rotation))
        ):
            raise InvalidInputError("rotation must be null or 9 finite numbers")

    def rotation_matrix(self) -> np.ndarray | None:
        if self.rotation is None:
            return None
        return np.asarray(self.rotation, dtype=float).reshape(3, 3)


@dataclass(frozen=True)
class DmpOptions:
    """Learning options: the attractor gain and the number of basis functions."""

    alpha: float = dmp.DEFAULT_ALPHA
    n_basis: int = dmp.DEFAULT_N_BASIS

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise InvalidInputError("alpha must be positive and finite")
        if self.n_basis < 2:
            raise InvalidInputError("n_basis must be at least 2")


@dataclass(frozen=True)
class ExecutionOptions:
    goal_tol: float = dmp.DEFAULT_GOAL_TOL
    max_horizon_factor: float = dmp.DEFAULT_HORIZON_FACTOR
    plant: str = "ideal"
    plant_tau: float = 0.05

    def __post_init__(self):
        if self.plant not in ("ideal", "first-order-lag"):
            raise InvalidInputError(f"unknown plant kind {self.plant!r}")
        for name in ("goal_tol", "max_horizon_factor", "plant_tau"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidInputError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class Scenario:
    """Benchmark input: demonstration source, environment and parameters."""

    name: str = "scenario"
    demo_source: str = "builtin:sshape"
    method: str = "safedmp"
    dt: float = safe_exec.DEFAULT_DT
    obstacles: tuple[safe_exec.Obstacle, ...] = ()
    perturbations: tuple[Perturbation, ...] = ()
    preprocess: PreprocessOptions = field(default_factory=PreprocessOptions)
    dmp: DmpOptions = field(default_factory=DmpOptions)
    safety: safe_exec.SafetyParams = field(default_factory=safe_exec.SafetyParams)
    apf: baselines.ApfParams = field(default_factory=baselines.ApfParams)
    execution: ExecutionOptions = field(default_factory=ExecutionOptions)

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise InvalidInputError("dt must be positive and finite")
        if self.method not in METHODS:
            raise InvalidInputError(f"method must be one of {METHODS}")
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        object.__setattr__(self, "perturbations", tuple(self.perturbations))


@dataclass
class MetricsReport:
    """Quantitative summary of one (method, scenario) execution."""

    exec_time_mean_s: float | None
    exec_time_p99_s: float | None
    mae_nominal_m: float | None
    mae_perturbed_m: float | None
    conv_time_perturb_s: float | None
    conv_time_oa_s: float | None
    collision_count: int
    min_clearance_m: float | None
    oscillation_flag: bool
    converged: bool


# --- core metrics ---------------------------------------------------------------

def mae(
    executed: trajectory.TimedTrajectory,
    reference: trajectory.TimedTrajectory,
) -> float:
    """Mean absolute deviation per sample and dimension after alignment.

    Both trajectories are uniformly resampled to the reference length, so
    inputs of different durations are compared fraction-of-duration-wise.
    """
    if executed.d != reference.d:
        raise InvalidInputError(
            f"dimension mismatch: executed d={executed.d}, reference d={reference.d}"
        )
    n = reference.n
    a = trajectory.resample(executed, n).points
    b = trajectory.resample(reference, n).points
    return float(np.mean(np.abs(a - b)))


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=1)`` of a float array, without its wrapper."""
    return np.sqrt(np.add.reduce(v * v, axis=1))


def _deviation_from_nominal(
    log: safe_exec.ExecutionLog, nominal: trajectory.TimedTrajectory
) -> np.ndarray:
    times = log.t
    measured = log.x_measured
    ref = np.empty_like(measured)
    for i in range(nominal.d):
        ref[:, i] = np.interp(times, nominal.times, nominal.points[:, i])
    return _row_norms(measured - ref)


def convergence_time_perturb(
    log: safe_exec.ExecutionLog,
    nominal: trajectory.TimedTrajectory,
    perturbations,
    tol: float = DEFAULT_RECONVERGENCE_TOL,
    dwell: int = DEFAULT_RECONVERGENCE_DWELL,
) -> float:
    """Mean time from each impulse until the path re-joins the nominal one.

    Re-joining requires the deviation to stay below ``tol`` for ``dwell``
    consecutive samples, or until the log ends; an impulse that never
    re-converges contributes infinity to the mean.  ``dwell`` must be at
    least 1.
    """
    perturbations = list(perturbations)
    if not perturbations:
        raise UndefinedMetricError("scenario has no perturbations")
    if dwell < 1:
        raise InvalidInputError(f"dwell must be at least 1 sample, got {dwell}")
    deviation = _deviation_from_nominal(log, nominal)
    times = log.t
    n = len(times)
    # above[i]: samples at or above tol before i; sample i has settled when
    # its dwell window, clipped at the log's end, holds none of them
    above = np.concatenate(([0], np.cumsum(~(deviation < tol))))
    settled = above[np.minimum(np.arange(n) + min(dwell, n), n)] == above[:n]
    results = []
    for pert in perturbations:
        t_apply = pert.t_apply
        hits = np.flatnonzero(settled & (times >= t_apply - 1e-12))
        found = times[hits[0]] - t_apply if hits.size else math.inf
        results.append(max(found, 0.0))
    return float(np.mean(results))


def convergence_time_oa(
    time_with_obstacles: float,
    time_free: float,
    n_obstacles: int,
) -> float:
    """Extra time to goal attributable to avoidance, per obstacle.

    Takes the two runs' times to goal (``ExecutionLog.time_to_goal``), where
    infinity means the run did not converge.
    """
    if n_obstacles == 0:
        return 0.0
    if math.isinf(time_with_obstacles) or math.isinf(time_free):
        raise UndefinedMetricError(
            "convergence_time_oa needs both runs to have converged"
        )
    return max(0.0, time_with_obstacles - time_free) / n_obstacles


def collision_count(log: safe_exec.ExecutionLog) -> int:
    """Number of samples whose measured position penetrates an obstacle."""
    return int(np.count_nonzero(log.min_clearance < 0.0))


def oscillation_flag(log: safe_exec.ExecutionLog) -> bool:
    """Detect direction-reversal chatter away from the goal.

    A reversal is a step whose velocity opposes the moving-average velocity;
    more than :data:`OSCILLATION_MAX_REVERSALS` of them inside any
    :data:`OSCILLATION_WINDOW_S` window flags the run.  "Away" is farther
    from the goal than 5% of the start-to-goal distance, and at least 2 cm.
    """
    if log.steps < 3:
        return False
    measured = log.x_measured
    dt = log.dt
    vel = np.diff(measured, axis=0) / dt
    # trailing average: the recent motion trend a reversal must oppose
    w = max(2, int(round(OSCILLATION_SMOOTH_S / dt)))
    csum = np.cumsum(vel, axis=0)
    smooth = np.empty_like(vel)
    # a log shorter than the span averages over all its steps
    smooth[:w] = csum[:w] / np.arange(1, len(csum[:w]) + 1)[:, None]
    smooth[w:] = (csum[w:] - csum[:-w]) / w
    dots = np.einsum("ij,ij->i", vel, smooth)
    speed = _row_norms(vel)
    extent = float(np.linalg.norm(log.goal - measured[0]))
    goal_radius = max(0.02, 0.05 * extent)
    away = _row_norms(measured[:-1] - log.goal[None, :]) > goal_radius
    opposing = (dots < 0.0) & away & (speed > 1e-9)
    # one reversal = the onset of an opposing stretch, so a single smooth
    # turn of the path counts once however many samples it spans
    onsets = opposing & ~np.concatenate([[False], opposing[:-1]])
    # onsets per window of samples; a log shorter than one window is one
    window = min(dmp.step_cap(OSCILLATION_WINDOW_S, dt), len(onsets))
    csum = np.concatenate(([0], np.cumsum(onsets)))
    return bool((csum[window:] - csum[:-window] > OSCILLATION_MAX_REVERSALS).any())


# --- scenario execution ---------------------------------------------------------

@dataclass(frozen=True)
class PreparedScenario:
    """Model and nominal plan shared by every run of one scenario.

    ``rollout``, the source of ``nominal`` and ``nominal_converged`` in a
    :func:`plan`, is what :func:`run_scenario` hands :func:`~.safe_exec.run`
    for the first block of each run.
    """

    scenario: Scenario
    model: dmp.DmpModel
    demo: trajectory.TimedTrajectory
    nominal: trajectory.TimedTrajectory
    nominal_converged: bool
    rollout: dmp.RolloutResult | None = None


def learn_demo(
    demo_source: str, preprocess: PreprocessOptions, options: DmpOptions
) -> tuple[trajectory.TimedTrajectory, dmp.DmpModel]:
    """Load, check and preprocess a demonstration; return it with its model."""
    demo_raw = trajectory.load_demo(demo_source)
    if demo_raw.n < options.n_basis:
        raise InvalidInputError(
            f"demonstration has {demo_raw.n} samples; "
            f"need at least n_basis={options.n_basis}"
        )
    demo = trajectory.preprocess(
        demo_raw,
        resample_n=preprocess.resample_n,
        cutoff_hz=preprocess.cutoff_hz,
        z_height=preprocess.z_height,
        rotation=preprocess.rotation_matrix(),
    )
    return demo, dmp.learn_from_trajectory(
        demo, n_basis=options.n_basis, alpha=options.alpha
    )


def prepare(scenario: Scenario, learned: dict | None = None) -> PreparedScenario:
    """:func:`learn_demo` the scenario's demonstration, then :func:`plan`.

    ``learned`` memoizes ``(demo, model)`` by the fields learning reads
    (demo source, preprocessing, basis count and alpha), so scenarios that
    share a demonstration learn it once and share its forcing tables.
    """
    learned = {} if learned is None else learned
    key = (scenario.demo_source, scenario.preprocess, scenario.dmp)
    if key not in learned:
        learned[key] = learn_demo(*key)
    demo, model = learned[key]
    return plan(scenario, model, demo)


def plan(
    scenario: Scenario,
    model: dmp.DmpModel,
    demo: trajectory.TimedTrajectory | None = None,
) -> PreparedScenario:
    """Check the perturbations against the horizon and roll out the nominal.

    The rollout's step cap is the one :func:`run_scenario` gives the engine.
    ``demo`` defaults to the nominal when the model was loaded, not learned.
    """
    horizon = scenario.execution.max_horizon_factor * model.tau_nominal
    for pert in scenario.perturbations:
        if pert.t_apply > horizon:
            raise InvalidInputError(
                f"perturbation at t={pert.t_apply} s lies beyond the "
                f"{horizon:.3g} s execution horizon"
            )
    nominal = dmp.rollout(
        model, scenario.dt, horizon=horizon, goal_tol=scenario.execution.goal_tol
    )
    return PreparedScenario(
        scenario=scenario,
        model=model,
        demo=nominal.trajectory if demo is None else demo,
        nominal=nominal.trajectory,
        nominal_converged=nominal.converged,
        rollout=nominal,
    )


def build_engine(
    prepared: PreparedScenario, method: str | None = None, timed: bool = False
):
    """A fresh engine of ``method`` for the scenario; ``timed`` engines time
    each control call into ``step_seconds``."""
    scenario = prepared.scenario
    method = method or scenario.method
    if method == "safedmp":
        return safe_exec.SafeDmpEngine(
            prepared.model,
            safety=scenario.safety,
            obstacles=scenario.obstacles,
            dt=scenario.dt,
            goal_tol=scenario.execution.goal_tol,
            timed=timed,
        )
    if method == "dmp-apf":
        return baselines.ApfEngine(
            prepared.model,
            params=scenario.apf,
            obstacles=scenario.obstacles,
            dt=scenario.dt,
            goal_tol=scenario.execution.goal_tol,
            delta_gamma=scenario.safety.delta_gamma,
            nominal_reference=prepared.nominal,
            timed=timed,
        )
    raise InvalidInputError(f"unknown method {method!r}")


def _build_plant(scenario: Scenario):
    if scenario.execution.plant == "ideal":
        return safe_exec.IdealPlant()
    return safe_exec.FirstOrderLagPlant(scenario.execution.plant_tau, scenario.dt)


def _step_cap(prepared: PreparedScenario) -> int:
    """Control steps a run may take: those of the execution horizon."""
    scenario = prepared.scenario
    horizon = scenario.execution.max_horizon_factor * prepared.model.tau_nominal
    return dmp.step_cap(horizon, scenario.dt)


def run_scenario(
    prepared: PreparedScenario,
    method: str | None = None,
    with_timing: bool = False,
) -> safe_exec.ExecutionLog:
    """One run of the scenario; only ``with_timing`` fills the log's wall
    times (see :func:`build_engine`)."""
    scenario = prepared.scenario
    return safe_exec.run(
        build_engine(prepared, method, timed=with_timing),
        plant=_build_plant(scenario),
        perturbations=scenario.perturbations,
        max_steps=_step_cap(prepared),
        nominal=prepared.rollout,
    )


def standard_perturbations(
    nominal_duration: float,
    magnitude: float = DEFAULT_PERTURBATION_MAGNITUDE,
    direction=(0.0, 1.0, 0.0),
) -> tuple[Perturbation, ...]:
    """Impulses of fixed magnitude at the :data:`DEFAULT_PERTURBATION_FRACTIONS`
    of the nominal run."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    return tuple(
        Perturbation(t_apply=f * nominal_duration, offset=magnitude * direction)
        for f in DEFAULT_PERTURBATION_FRACTIONS
    )


def unperturbed_twin(
    prepared: PreparedScenario,
    method: str | None = None,
    with_obstacles: bool = True,
) -> tuple[trajectory.TimedTrajectory, float]:
    """Measured path and time to goal of :func:`run_scenario` of the scenario
    without perturbations, and without obstacles unless ``with_obstacles``."""
    scenario = prepared.scenario
    twin = replace(
        scenario, perturbations=(),
        obstacles=scenario.obstacles if with_obstacles else (),
    )
    log = run_scenario(replace(prepared, scenario=twin), method)
    return trajectory.TimedTrajectory(log.t, log.x_measured), log.time_to_goal()


def evaluate(
    prepared: PreparedScenario,
    log: safe_exec.ExecutionLog,
    method: str | None = None,
) -> MetricsReport:
    """Compute every metric of one (method, scenario) cell from its main run.

    ``log`` is the scenario's run as given (see :func:`run_scenario`); the
    report copies its wall times, None for an untimed run.  Only the twins
    come from :func:`unperturbed_twin`.  When the scenario carries
    perturbations an unperturbed twin provides the nominal-conditions
    error, and when it carries obstacles an obstacle-free twin provides the
    baseline time to goal.  A log of fewer than 2 steps (a run infeasible
    from its start) is no trajectory: its trajectory metrics are None.
    """
    scenario = prepared.scenario
    method = method or scenario.method

    has_perts = bool(scenario.perturbations)
    has_obstacles = bool(scenario.obstacles)

    mae_nominal = mae_perturbed = conv_perturb = conv_oa = None
    if log.steps >= 2:
        measured = trajectory.TimedTrajectory(log.t, log.x_measured)
        if has_perts:
            unperturbed, unperturbed_time = unperturbed_twin(prepared, method)
            mae_perturbed = mae(measured, prepared.nominal)
            conv_perturb = convergence_time_perturb(
                log, prepared.nominal, scenario.perturbations
            )
            if math.isinf(conv_perturb):
                conv_perturb = None
        else:
            unperturbed, unperturbed_time = measured, log.time_to_goal()
        mae_nominal = mae(unperturbed, prepared.nominal)

        if has_obstacles:
            _, free_time = unperturbed_twin(prepared, method, with_obstacles=False)
            try:
                conv_oa = convergence_time_oa(
                    unperturbed_time, free_time, len(scenario.obstacles)
                )
            except UndefinedMetricError:
                pass

    min_clear = log.min_surface_clearance()
    return MetricsReport(
        exec_time_mean_s=log.wall_time_mean,
        exec_time_p99_s=log.wall_time_p99,
        mae_nominal_m=mae_nominal,
        mae_perturbed_m=mae_perturbed,
        conv_time_perturb_s=conv_perturb,
        conv_time_oa_s=conv_oa,
        collision_count=collision_count(log),
        min_clearance_m=None if math.isinf(min_clear) else min_clear,
        oscillation_flag=oscillation_flag(log),
        converged=log.converged,
    )


def timing_harness(
    prepared: PreparedScenario,
    repetitions: int = 10_000,
    method: str | None = None,
) -> tuple[float, float]:
    """Wall-clock cost of one control step: mean and p99 over ``repetitions``.

    Fresh engines run through :func:`safe_exec.run` (the scenario's plant and
    step cap, no perturbations) until ``TIMING_WARMUP + repetitions`` steps
    are timed, the first ``TIMING_WARMUP`` dropped.  A step's time is the
    timed engine's span around ``control`` (``step_seconds``); logging is not
    counted.  An infeasible run raises :class:`SafetyInfeasibleError`.  At
    least 100 measured steps are required.
    """
    if repetitions < 100:
        raise InvalidInputError("timing needs at least 100 measured steps")
    scenario = prepared.scenario
    total = TIMING_WARMUP + repetitions
    seconds: list[float] = []
    while len(seconds) < total:
        engine = build_engine(prepared, method, timed=True)
        log = safe_exec.run(
            engine,
            plant=_build_plant(scenario),
            max_steps=min(_step_cap(prepared), total - len(seconds)),
        )
        if log.safety_infeasible or not log.steps:
            raise SafetyInfeasibleError(
                f"{scenario.name!r} is infeasible at step {log.steps}")
        seconds += engine.step_seconds
    durations = seconds[TIMING_WARMUP:]
    return float(np.mean(durations)), float(np.percentile(durations, 99))


# --- comparison grid ------------------------------------------------------------

@dataclass
class ReportRow:
    scenario: str
    method: str
    metrics: MetricsReport | None
    error: str | None = None


def compare(
    scenarios,
    methods=METHODS,
    with_timing: bool = False,
) -> list[ReportRow]:
    """Run every (method, scenario) pair; a cell's input error becomes its row.

    Any exception outside :data:`errors.INPUT_ERRORS` propagates.  Each
    demonstration is learned once (see :func:`prepare`) and each scenario
    given is planned once.
    """
    learned: dict = {}

    def cell(prepared, method):
        scenario = prepared.scenario
        try:
            log = run_scenario(prepared, method, with_timing=with_timing)
            return ReportRow(scenario.name, method, evaluate(prepared, log, method))
        except INPUT_ERRORS as exc:  # recorded, not fatal
            return ReportRow(scenario.name, method, None, error=str(exc))

    rows = []
    for scenario in scenarios:
        try:
            prepared = prepare(scenario, learned)
        except INPUT_ERRORS as exc:
            rows += [ReportRow(scenario.name, m, None, error=str(exc)) for m in methods]
            continue
        rows += [cell(prepared, method) for method in methods]
    return rows


def report_to_dict(rows) -> dict:
    return {"schema_version": SCHEMA_VERSION, "rows": [codec.to_doc(r) for r in rows]}


def report_to_json(rows) -> str:
    return json.dumps(report_to_dict(rows), indent=2, sort_keys=True) + "\n"


_TABLE_COLUMNS = (
    ("scenario", 28), ("method", 8), ("conv", 5), ("mae_nom", 10),
    ("mae_pert", 10), ("convT_pert", 11), ("convT_oa", 9),
    ("coll", 5), ("min_clear", 10), ("oscill", 6),
)


def _fmt(value, width):
    if value is None:
        text = "-"
    elif isinstance(value, bool):
        text = "yes" if value else "no"
    elif isinstance(value, float):
        text = f"{value:.4g}"
    else:
        text = str(value)
    return text.rjust(width)


def report_to_text(rows) -> str:
    header = " ".join(name.rjust(width) for name, width in _TABLE_COLUMNS)
    lines = [header, "-" * len(header)]
    for row in rows:
        m = row.metrics
        if m is None:
            cells = [row.scenario.rjust(28), row.method.rjust(8),
                     f"error: {row.error}"]
            lines.append(" ".join(cells))
            continue
        values = (
            row.scenario, row.method, m.converged, m.mae_nominal_m,
            m.mae_perturbed_m, m.conv_time_perturb_s, m.conv_time_oa_s,
            m.collision_count, m.min_clearance_m, m.oscillation_flag,
        )
        lines.append(" ".join(
            _fmt(v, w) for v, (_, w) in zip(values, _TABLE_COLUMNS)
        ))
    return "\n".join(lines) + "\n"


# --- scenario (de)serialization --------------------------------------------------

def scenario_to_dict(scenario: Scenario) -> dict:
    return {"schema_version": SCHEMA_VERSION, **codec.to_doc(scenario)}


def scenario_from_dict(data: dict, name: str | None = None) -> Scenario:
    """The :class:`Scenario` tree of a document (see :mod:`.codec`) with an
    optional ``schema_version``; ``name`` is used when the document has none."""
    if isinstance(data, dict):
        data = dict(data)
        version = data.pop("schema_version", SCHEMA_VERSION)
        if type(version) is not int or version != SCHEMA_VERSION:
            raise InvalidInputError(
                f"scenario.schema_version: unsupported version {version!r}"
            )
        if name is not None:
            data.setdefault("name", name)
    return codec.from_doc(Scenario, data, "scenario")


def load_scenario(path) -> Scenario:
    import pathlib

    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return scenario_from_dict(data, name=pathlib.Path(path).stem)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


# --- randomized scenario generators ----------------------------------------------

def random_static_blocker(
    nominal: trajectory.TimedTrajectory,
    rng: np.random.Generator,
    delta_gamma: float = safe_exec.DEFAULT_DELTA_GAMMA,
    fraction_range=(0.25, 0.75),
    existing=(),
) -> safe_exec.Obstacle:
    """Sphere intersecting the nominal path, clear of its endpoints.

    The drawn sphere's clearance region is kept disjoint from those of any
    ``existing`` obstacles, so scenarios stay projection-feasible.
    """
    points = nominal.points
    x0, g = points[0], points[-1]
    for _ in range(256):
        frac = rng.uniform(*fraction_range)
        anchor = points[int(frac * (nominal.n - 1))]
        radius = rng.uniform(*BLOCKER_RADIUS_RANGE)
        clearance = radius + 0.5 * delta_gamma
        offset = rng.normal(size=points.shape[1])
        offset *= rng.uniform(0.0, 0.3 * clearance) / max(np.linalg.norm(offset), 1e-12)
        center = anchor + offset
        if (
            np.linalg.norm(center - x0) <= clearance + 0.05
            or np.linalg.norm(center - g) <= clearance + 0.05
        ):
            continue
        disjoint = all(
            np.linalg.norm(center - other.center0)
            > clearance + other.radius + 0.5 * delta_gamma + 0.01
            for other in existing
        )
        if disjoint:
            return safe_exec.Obstacle(center0=center, radius=radius)
    raise InvalidInputError("could not place a blocking obstacle on this path")


def random_crossing_obstacle(
    nominal: trajectory.TimedTrajectory,
    rng: np.random.Generator,
    delta_gamma: float = safe_exec.DEFAULT_DELTA_GAMMA,
) -> safe_exec.Obstacle:
    """Constant-velocity sphere whose track crosses the path mid-run."""
    points = nominal.points
    x0, g = points[0], points[-1]
    d = points.shape[1]
    for _ in range(256):
        frac = rng.uniform(*CROSSING_FRACTION_RANGE)
        idx = int(frac * (nominal.n - 1))
        anchor = points[idx]
        t_hit = nominal.times[idx]
        radius = rng.uniform(*CROSSING_RADIUS_RANGE)
        clearance = radius + 0.5 * delta_gamma
        direction = rng.normal(size=d)
        direction /= max(np.linalg.norm(direction), 1e-12)
        speed = rng.uniform(*CROSSING_SPEED_RANGE)
        velocity = speed * direction
        center0 = anchor - velocity * t_hit
        # keep the moving sphere away from the goal late in the run
        late = np.linalg.norm((center0 + velocity * (t_hit + 2.0)) - g)
        if late > clearance + 0.05 and np.linalg.norm(center0 - x0) > clearance + 0.05:
            return safe_exec.Obstacle(center0=center0, radius=radius, velocity=velocity)
    raise InvalidInputError("could not construct a crossing obstacle")
