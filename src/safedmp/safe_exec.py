"""Real-time execution loop: primitive prediction, clearance rerouting,
tube modulation, adaptive timing and a simulated positioning plant.

Each control step advances the internal primitive, predicts the next nominal
point, projects it out of any obstacle's clearance sphere (radius plus half
the tube width), adds the tube correction computed from the measured
position, and projects the final command again so that what is issued can
never penetrate a clearance sphere.  The internal primitive never sees the
obstacles; deviations feed back only through the time-dilation coupling, so
execution slows down while the measured motion detours and re-converges.

The step math lives in four module-level routines over plain float
sequences: :func:`worst_violation`, :func:`project`, :func:`tube_correction`
and :func:`coupling_step`.  The engine calls them, and so do the tests.
No control decision reads the surface clearance: :func:`run` computes the
log's column for all steps at once (:func:`surface_clearance`).
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import chain
from operator import sub

import numpy as np

from . import dmp
from .errors import InvalidInputError, PhaseStepError, SafetyInfeasibleError

DEFAULT_DT = 0.005
DEFAULT_DELTA_GAMMA = 0.1
DEFAULT_STT_GAIN = 5e-4
DEFAULT_CLIP_LIMIT = 0.99

#: Most steps of one of :func:`run`'s coasting blocks.
COAST_BLOCK = 64

#: Slack allowed when verifying a projected point against a clearance sphere.
PROJECTION_TOL = 1e-9


@dataclass(frozen=True)
class Obstacle:
    """Sphere with optional constant drift and activity window.

    An engine reads obstacles only once, into its obstacle table (see
    :func:`obstacle_table`), and :func:`run` reads them once more for the
    log's clearance column (:func:`surface_clearance`).  In a scenario
    document the center is ``center``, and a zero velocity and an absent
    window are left out.
    """

    center0: np.ndarray = field(metadata={"key": "center"})
    radius: float
    velocity: np.ndarray | None = field(
        default=None, metadata={"omit": lambda v: not np.any(v)}
    )
    active_window: tuple[float, float] | None = field(
        default=None, metadata={"omit": lambda w: w is None}
    )

    def __post_init__(self):
        center0 = np.asarray(self.center0, dtype=float).copy()
        velocity = (
            np.zeros_like(center0)
            if self.velocity is None
            else np.asarray(self.velocity, dtype=float).copy()
        )
        if center0.ndim != 1 or velocity.shape != center0.shape:
            raise InvalidInputError("center0 and velocity must be matching vectors")
        if not (np.all(np.isfinite(center0)) and np.all(np.isfinite(velocity))):
            raise InvalidInputError("obstacle center and velocity must be finite")
        if not 0.0 < self.radius < math.inf:
            raise InvalidInputError("obstacle radius must be positive and finite")
        if self.active_window is not None:
            if len(self.active_window) != 2:
                raise InvalidInputError("active_window must be [t_start, t_end]")
            t0, t1 = (float(v) for v in self.active_window)
            if not -math.inf < t0 < t1 < math.inf:
                raise InvalidInputError(
                    "active_window must be finite with t_start < t_end"
                )
            object.__setattr__(self, "active_window", (t0, t1))
        center0.flags.writeable = False
        velocity.flags.writeable = False
        object.__setattr__(self, "center0", center0)
        object.__setattr__(self, "velocity", velocity)

    @property
    def d(self) -> int:
        return self.center0.shape[0]


@dataclass(frozen=True)
class SafetyParams:
    """Tube configuration: width, boundary-repulsion gain and clip limit.

    Each obstacle claims a clearance region of its radius plus half the tube
    width; that single threshold both triggers and bounds the rerouting.
    """

    delta_gamma: float = DEFAULT_DELTA_GAMMA
    gain: float = DEFAULT_STT_GAIN
    clip_limit: float = DEFAULT_CLIP_LIMIT

    def __post_init__(self):
        if not 0.0 < self.delta_gamma < math.inf:
            raise InvalidInputError("delta_gamma must be positive and finite")
        if not 0.0 < self.gain < math.inf:
            raise InvalidInputError("gain must be positive and finite")
        if not math.isfinite(4.0 * self.gain / self.delta_gamma):
            raise InvalidInputError("gain / delta_gamma must keep the tube law finite")
        if not 0.0 < self.clip_limit < 1.0:
            raise InvalidInputError("clip_limit must lie in (0, 1)")


def log_columns(d: int) -> list[str]:
    """Column names of a d-dimensional run log, in the order of its rows.

    ``t``; the d components each of the nominal (``xn``), safe (``xs``),
    desired (``xd``) and measured (``xm``) positions; then ``tau``, ``z``
    and ``min_clearance``.  The CSV log uses the same names and order.
    """
    names = ["t"]
    for prefix in ("xn", "xs", "xd", "xm"):
        names += [f"{prefix}_{i}" for i in range(d)]
    return names + ["tau", "z", "min_clearance"]


@dataclass
class ExecutionLog:
    """One run's per-step log plus run-level outcome flags and step timing.

    ``rows`` is a ``(steps, 4d+4)`` float array with one row per control
    step and the columns of :func:`log_columns`; the properties are views
    of its columns.  The wall times are None unless the engine was timed.
    """

    rows: np.ndarray
    converged: bool
    safety_infeasible: bool
    dt: float
    goal: np.ndarray
    wall_time_mean: float | None
    wall_time_p99: float | None

    @property
    def steps(self) -> int:
        return self.rows.shape[0]

    def _block(self, k: int) -> np.ndarray:
        d = self.goal.shape[0]
        return self.rows[:, 1 + k * d: 1 + (k + 1) * d]

    t = property(lambda self: self.rows[:, 0])
    x_nominal = property(lambda self: self._block(0))
    x_safe = property(lambda self: self._block(1))
    x_desired = property(lambda self: self._block(2))
    x_measured = property(lambda self: self._block(3))
    tau = property(lambda self: self.rows[:, -3])
    z = property(lambda self: self.rows[:, -2])
    min_clearance = property(lambda self: self.rows[:, -1])

    def time_to_goal(self) -> float:
        """Duration until convergence; inf when the run did not converge."""
        if not self.converged or not self.steps:
            return math.inf
        return float(self.rows[-1, 0]) + self.dt

    def min_surface_clearance(self) -> float:
        return float(self.min_clearance.min()) if self.steps else math.inf


# --- the step math -----------------------------------------------------------


def obstacle_table(obstacles, delta_gamma: float) -> list[tuple]:
    """An engine's obstacle table: one plain-float row per obstacle.

    A row is ``(center0, velocity, clearance, window, moving, radius)``:
    center at t=0 and velocity as tuples, the clearance radius (radius plus
    half the tube width), the activity window or None, whether the obstacle
    moves, and its radius.  :class:`Engine` builds it, and both control
    laws scan it (:func:`worst_violation`, :func:`~.baselines.apf_force`)
    on every step, so rows are plain tuples.
    """
    return [
        (
            tuple(float(v) for v in o.center0),
            tuple(float(v) for v in o.velocity),
            o.radius + 0.5 * delta_gamma,
            o.active_window,
            bool(np.any(o.velocity != 0.0)),
            o.radius,
        )
        for o in obstacles
    ]


def worst_violation(table, point, t: float):
    """Deepest clearance breach of ``point`` among obstacles active at ``t``.

    Returns ``(gap, center, dist, clearance)`` for the obstacle with
    the smallest ``gap = dist - clearance`` (negative inside its clearance
    sphere), where ``center`` is its center at ``t`` and ``dist`` the
    distance from ``point`` to it; ``gap`` is inf and ``center`` None when
    no obstacle is active.
    """
    gap_min = math.inf
    w_center, w_dist, w_clearance = None, 0.0, 0.0
    sqrt = math.sqrt
    for center0, vel, clearance, window, moving, _ in table:
        if window is not None and not window[0] <= t <= window[1]:
            continue
        if moving:
            center = tuple(c + v * t for c, v in zip(center0, vel))
        else:
            center = center0
        acc = 0.0
        for p_i, c_i in zip(point, center):
            diff = p_i - c_i
            acc += diff * diff
        dist = sqrt(acc)
        gap = dist - clearance
        if gap < gap_min:
            gap_min, w_center, w_dist, w_clearance = gap, center, dist, clearance
    return gap_min, w_center, w_dist, w_clearance


def project(table, point: list, t: float, fallback, hit=None) -> tuple[list, bool]:
    """Move ``point`` (mutated and returned) out of every clearance sphere.

    Each pass pushes the point radially onto the boundary of the deepest
    breached sphere and re-scans; a point at a sphere's center is pushed
    along the unit vector ``fallback``.  ``hit`` is the caller's own
    :func:`worst_violation` of ``point`` when it already has one.  After the
    first push and d+1 re-checked passes a point still inside some sphere
    means the clearance regions overlap, which raises
    :class:`SafetyInfeasibleError`.  Returns ``(point, centered)``, where
    ``centered`` tells whether any pass pushed along ``fallback``.
    """
    if hit is None:
        hit = worst_violation(table, point, t)
    gap, center, dist, clearance = hit
    d = len(point)
    centered = False
    for _ in range(d + 2):
        if not gap < 0.0:
            return point, centered
        if dist < 1e-12:
            centered = True
            for i in range(d):
                point[i] = center[i] + fallback[i] * clearance
        else:
            for i in range(d):
                point[i] = center[i] + (point[i] - center[i]) / dist * clearance
        gap, center, dist, clearance = worst_violation(table, point, t)
    if gap < -PROJECTION_TOL:
        raise SafetyInfeasibleError(
            "clearance spheres overlap; no collision-free projection found"
        )
    return point, centered


def tube_correction(x_measured, center, x_target, dt: float, safety: SafetyParams):
    """Tube term of a fixed-width symmetric tube around ``center``.

    Per dimension ``e = (x_meas - center)/(delta_gamma/2)`` clipped to the
    clip limit, ``u = -gain * 4/(delta_gamma (1 - e^2)) * ln((1+e)/(1-e))``.
    This is the package's one tube law (:func:`stt.stt_control` evaluates it
    on arrays).  Returns ``(u, x_desired, shift)`` with
    ``x_desired = x_target + u dt`` and ``shift = ||u dt||``.

    When ``x_measured - center`` is zero in every dimension every ``e`` is
    +-0.0 and ``ln(1) = 0``, so the law's value is returned unevaluated:
    ``u = u_scale * 0.0`` (-0.0), a copy of ``x_target`` (adding -0.0 keeps
    every bit for a finite ``dt >= 0``) and ``shift = 0.0``.
    """
    u_scale = -4.0 * safety.gain / safety.delta_gamma
    d = len(x_target)
    # the first component alone settles a miss without building the map
    if x_measured[0] - center[0] == 0.0 and not any(map(sub, x_measured, center)):
        return [u_scale * 0.0] * d, list(x_target), 0.0
    half = 0.5 * safety.delta_gamma
    clip = safety.clip_limit
    u = [0.0] * d
    x_desired = [0.0] * d
    shift2 = 0.0
    for i in range(d):
        e_i = (x_measured[i] - center[i]) / half
        if e_i > clip:
            e_i = clip
        elif e_i < -clip:
            e_i = -clip
        u_i = u_scale * (math.log((1.0 + e_i) / (1.0 - e_i)) / (1.0 - e_i * e_i))
        u[i] = u_i
        step_i = u_i * dt
        shift2 += step_i * step_i
        x_desired[i] = x_target[i] + step_i
    return u, x_desired, math.sqrt(shift2)


def coupling_step(
    e_couple, x_measured, x_nominal, dt: float,
    alpha_e: float, k_c: float, tau_nominal: float,
):
    """Update the coupling error and re-derive the time scale.

    The coupling error is a leaky first-order filter of the tracking
    deviation, ``e' = e + alpha_e ((x_meas - x_nom) - e) dt``, so it decays
    at rate alpha_e once the deviation is gone; the time scale is
    ``tau = tau_nominal + k_c ||e'||^2`` and therefore never drops below
    nominal.  Returns ``(e', tau)``.

    At rest (``e`` and ``x_measured - x_nominal`` zero in every dimension)
    the update gives zero error and ``tau_nominal + k_c * 0.0``, so
    ``(e_couple, tau_nominal)`` is returned as is (for finite gains).
    """
    if not any(e_couple) and not any(map(sub, x_measured, x_nominal)):
        return e_couple, tau_nominal
    d = len(e_couple)
    e_new = [0.0] * d
    tau_excess = 0.0
    for i in range(d):
        e_i = e_couple[i] + alpha_e * ((x_measured[i] - x_nominal[i]) - e_couple[i]) * dt
        e_new[i] = e_i
        tau_excess += e_i * e_i
    return e_new, tau_nominal + k_c * tau_excess


# --- plants and the engine ---------------------------------------------------


class IdealPlant:
    """Positioning plant that realizes each command exactly."""

    def reset(self, x0: Sequence[float]) -> None:
        pass

    def track(self, x_desired: Sequence[float]) -> Sequence[float]:
        return x_desired


class FirstOrderLagPlant:
    """Plant that moves a fixed fraction of the way to each command.

    Discrete first-order lag with time constant ``tau_plant``: the realized
    position converges exponentially toward a held command.  The position
    is a list of floats, updated per dimension as ``x + b (u - x)``.
    """

    def __init__(self, tau_plant: float, dt: float):
        if not (0.0 < tau_plant < math.inf and 0.0 < dt < math.inf):
            raise InvalidInputError("tau_plant and dt must be positive and finite")
        self._blend = 1.0 - math.exp(-dt / tau_plant)
        self._x = None

    def reset(self, x0: Sequence[float]) -> None:
        self._x = np.asarray(x0, dtype=float).tolist()

    def track(self, x_desired: Sequence[float]) -> list:
        """The next realized position, a new list the caller may change."""
        if self._x is None:
            raise InvalidInputError("plant must be reset before tracking")
        self._x = [x + self._blend * (u - x) for x, u in zip(self._x, x_desired)]
        return self._x.copy()


def clocked(control, seconds: list):
    """``control`` that appends the ``perf_counter`` span of each call to
    ``seconds``: the control method of an engine built with ``timed=True``.

    An untimed engine keeps its plain method and calls no clock.
    """
    perf = time.perf_counter

    def timed_control(x_measured, t):
        start = perf()
        result = control(x_measured, t)
        seconds.append(perf() - start)
        return result

    return timed_control


class Engine:
    """What :func:`run`, :func:`~.bench.timing_harness` and the benchmark
    read from an engine; a method subclasses it and adds its own
    parameters, ``control``, ``step`` and ``_coast_chain`` (see
    :meth:`coast`); one that defines ``control`` but no ``_coast_chain``
    gets this class's, which coasts no step.

    The constructor checks the arguments every method shares (a positive
    finite ``dt``, obstacles of the model's dimension), builds ``_table``,
    the :func:`obstacle_table` for tube width ``delta_gamma`` that both
    control laws read, and sets up the primitive's state as plain floats:
    phase ``z``, time scale ``tau``, position ``_x``, velocity ``_v``, goal
    ``_g`` and ``_k``, the control steps taken (the index into the forcing
    table).  ``control`` converts each measurement to a float list,
    ``_x_measured``, which ``step`` logs in its row of ``rows``.  With
    ``timed=True`` each ``control`` call appends its wall time to
    ``step_seconds`` (see :func:`clocked`); otherwise no step reads a clock
    and ``step_seconds`` stays empty.  A method sets ``reaches``, per
    obstacle the surface clearance at and above which its control law
    ignores it, and may set ``reference``, the points :func:`run` writes
    into the log's ``xn_*`` columns.  :meth:`goal_distance` is the
    primitive's side of the one goal test, ``math.dist(x, g) <= goal_tol``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "control" in vars(cls) and "_coast_chain" not in vars(cls):
            cls._coast_chain = Engine._coast_chain  # a new law coasts nothing

    def __init__(
        self,
        model: dmp.DmpModel,
        obstacles=(),
        dt: float = DEFAULT_DT,
        goal_tol: float = dmp.DEFAULT_GOAL_TOL,
        timed: bool = False,
        delta_gamma: float = DEFAULT_DELTA_GAMMA,
    ):
        self.obstacles = tuple(obstacles)
        if not 0.0 < dt < math.inf:
            raise InvalidInputError("dt must be positive and finite")
        if any(obs.d != model.d for obs in self.obstacles):
            raise InvalidInputError(
                f"obstacle dimension must match the model's d={model.d}"
            )
        self._table = obstacle_table(self.obstacles, delta_gamma)
        self.model = model
        self.dt = dt
        self.goal_tol = goal_tol
        self.rows: list[tuple] = []
        self.reference = None
        self.step_seconds: list[float] = []
        self.timed = timed
        if timed:
            self.control = clocked(self.control, self.step_seconds)
        self._k = 0
        self.z = 1.0
        self.tau = model.tau_nominal
        self._x = model.x0.tolist()
        self._v = [0.0] * model.d
        self._g = model.g.tolist()
        self._x_measured = self._x

    def initial_position(self) -> np.ndarray:
        return self.model.x0.copy()

    def goal_distance(self) -> float:
        """Distance of the primitive to the goal, ``math.dist(x, g)``."""
        return math.dist(self._x, self._g)

    def _coast_chain(self, x_measured: list, n: int):
        """None: step k does not coast (see :meth:`coast`)."""
        return None

    def coast(self, x_measured: list, k: int, n: int,
              nominal: dmp.RolloutResult | None = None) -> np.ndarray | None:
        """Take up to ``n`` steps from step k at once while they have nothing
        to correct, move the engine past them and return the rows
        :meth:`step` would log for them; None if the method's
        ``_coast_chain`` says step k is not such a step.  The chain gives
        ``x_k`` and the steps' time scales, phases and forcing rows, cut
        before any step at which ``control`` would raise, and
        :func:`dmp.attractor_step` their positions.  Given ``nominal``, a
        rollout of the model at ``dt`` for a run unperturbed at step 0, the
        block at step 0 reads its points, velocities and phases from it at
        ``tau_nominal`` instead, unless the method has no ``_coast_chain`` of
        its own.  The engine takes the leading steps that pass
        :func:`_screen`."""
        model, dt, v, g = self.model, self.dt, self._v, self._g
        if nominal is not None and type(self)._coast_chain is not Engine._coast_chain:
            xs = nominal.trajectory.points[:n + 1]
            velocities, phases = nominal.velocities, nominal.phases
            taus = [self.tau] * len(xs)  # tau_nominal
        else:
            chain = self._coast_chain(x_measured, n)
            if chain is None:
                return None
            x, taus, phases, forces = chain
            points, velocities = [x], [v]
            for f, tau in zip(forces, taus):
                x, v = dmp.attractor_step(x, v, f, g, tau, dt, model.alpha, model.beta)
                points.append(x)
                velocities.append(v)
            xs = np.array(points)
        c = _screen(self, k, xs)
        self._k, self._x, self.tau = k + c, xs[c].tolist(), taus[c]
        self._v, self.z = velocities[c], phases[c]
        rows = np.column_stack((
            np.arange(k, k + c) * dt, xs[:c], xs[1:c + 1], xs[1:c + 1], xs[:c],
            taus[1:c + 1], phases[1:c + 1],
        ))
        rows[:1, 1 + 3 * model.d: 1 + 4 * model.d] = x_measured  # as given, zero signs too
        return rows


class SafeDmpEngine(Engine):
    """One scenario's closed-loop controller; owns its state and log.

    The measured position handed to :meth:`step` is compared against the
    safe target the previous command was steering to, which makes the tube
    term exactly zero under perfect tracking, and every issued command is
    itself projected clear of the clearance spheres.

    The control step screens and projects over the engine's obstacle table,
    works on plain float lists and advances the primitive with the nominal
    integrator's own step, so an obstacle-free run reproduces the nominal
    rollout bit for bit.  Until the time scale first leaves ``tau_nominal``
    the phase is on the nominal grid and the forcing comes from the model's
    table (:func:`dmp.forcing_at`).

    :func:`run` hands :meth:`control` float lists, and :meth:`control`
    converts any float sequence to Python floats once, at its entry, so the
    state and the log rows hold only ``float``: a numpy scalar let in there
    would slow each later operation of the step several times.
    """

    def __init__(
        self,
        model: dmp.DmpModel,
        safety: SafetyParams | None = None,
        obstacles=(),
        dt: float = DEFAULT_DT,
        goal_tol: float = dmp.DEFAULT_GOAL_TOL,
        timed: bool = False,
    ):
        self.safety = safety = safety if safety is not None else SafetyParams()
        super().__init__(model, obstacles, dt, goal_tol, timed, safety.delta_gamma)
        # coupling error and the safe point the last command steered to
        self._ec = [0.0] * model.d
        self._x_safe_prev = self._x
        # push direction for a point at a sphere center: the last projected
        # motion of the safe point, or +z before any
        self._fallback = [0.0] * model.d
        self._fallback[-1] = 1.0
        self._gains = (model.alpha, model.beta, model.alpha_z)
        self._coupling = (model.alpha_e, model.k_c, model.tau_nominal)
        self.reaches = (0.5 * safety.delta_gamma,) * len(self.obstacles)

    def control(self, x_measured: Sequence[float], t: float) -> tuple:
        """One control computation; advances the internal state.

        ``x_measured`` is any sequence of d floats (an ndarray, a list); it
        is converted to a list of Python floats once, here.  Returns
        ``(x_desired, x_nominal, x_target, x_safe, u)`` as float lists,
        where ``x_nominal`` is the internal primitive position at the time
        of the measurement.

        A command equal to a projected target would repeat that projection's
        passes, so it is a copy of ``x_safe``, unless a pass pushed along the
        fallback direction, which ``_note_motion`` changes in between.
        """
        x_measured = self._x_measured = list(map(float, x_measured))
        model = self.model
        dt = self.dt

        # primitive prediction (the nominal integrator's step)
        f = dmp.forcing_at(model, dt, self._k, self.z)
        self._k += 1
        alpha, beta, alpha_z = self._gains
        x = self._x
        x_target, v_next = dmp.attractor_step(
            x, self._v, f, self._g, self.tau, dt, alpha, beta
        )

        # project the target out of every clearance sphere
        table = self._table
        hit = worst_violation(table, x_target, t)
        if hit[0] < 0.0:
            x_safe, centered = project(table, list(x_target), t, self._fallback, hit)
            self._note_motion(x_safe)
        else:
            x_safe = x_target

        # tube correction around the previously commanded safe point; the
        # command needs re-checking only if the shift can reach a sphere
        u, x_desired, shift = tube_correction(
            x_measured, self._x_safe_prev, x_target, dt, self.safety
        )
        if hit[0] < shift:
            if hit[0] < 0.0 and not centered and x_desired == x_target:
                x_desired = x_safe.copy()  # the same passes from the same point
            else:
                x_desired = project(table, x_desired, t, self._fallback)[0]

        # coupling error, time dilation, phase decay, state integration
        self._ec, self.tau = coupling_step(
            self._ec, x_measured, x, dt, *self._coupling
        )
        self.z = dmp.phase_step(self.z, self.tau, dt, alpha_z)
        self._x = x_target
        self._v = v_next
        self._x_safe_prev = x_safe
        return x_desired, x, x_target, x_safe, u

    def _coast_chain(self, x_measured: list, n: int):
        """Step k coasts when ``x_measured``, the last safe point and ``x_k``
        are equal and its target clears every clearance sphere; the tube law
        and the coupling then see no deviation, so the time scales and phases
        follow from ``coupling_step`` and ``phase_step`` alone."""
        x = self._x
        if not x_measured == self._x_safe_prev == x:
            return None
        zero = [0.0] * len(x)
        ec, tau, z = self._ec, self.tau, self.z
        # the coupling errors, kept for :meth:`coast` to take the last one
        self._ecs, taus, phases = [ec], [tau], [z]
        for _ in range(n):
            ec, tau = coupling_step(ec, zero, zero, self.dt, *self._coupling)
            try:
                z = dmp.phase_step(z, tau, self.dt, self._gains[2])
            except (InvalidInputError, PhaseStepError):
                break  # the stepped control raises at this step
            self._ecs.append(ec)
            taus.append(tau)
            phases.append(z)
        forces = dmp.forcing_rows(self.model, np.array(phases[:-1]))
        return x, taus, phases, forces.tolist()

    def coast(self, x_measured: list, k: int, n: int,
              nominal: dmp.RolloutResult | None = None) -> np.ndarray | None:
        rows = super().coast(x_measured, k, n, nominal)
        if rows is not None:
            if nominal is None:  # a replayed block leaves the error at rest
                self._ec = self._ecs[len(rows)]
            self._x_safe_prev = self._x
        return rows

    def _note_motion(self, x_safe) -> None:
        d = len(x_safe)
        motion = [x_safe[i] - self._x_safe_prev[i] for i in range(d)]
        norm = math.sqrt(sum(m * m for m in motion))
        if norm > 1e-12:
            self._fallback = [m / norm for m in motion]

    def step(self, x_measured: Sequence[float], t: float) -> list:
        """Control computation plus one log row; returns the command, the
        float list of :meth:`control`.

        The row logs the measurement as :meth:`control` converted it.
        """
        x_desired, x_nominal, _, x_safe, _ = self.control(x_measured, t)
        self.rows.append(
            (t, *x_nominal, *x_safe, *x_desired, *self._x_measured,
             self.tau, self.z)
        )
        return x_desired


def surface_clearance(obstacles, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Distance from each ``x[k]`` to the nearest surface of an obstacle
    active at ``t[k]`` (inf if none), each squared distance summed in
    dimension order as in :func:`worst_violation`.

    This is the measurement the safety claim is judged by, so it reads the
    :class:`Obstacle` fields, not an engine's obstacle table: a fault in
    the table cannot hide in the log's clearance column.
    """
    best = np.full(t.shape, math.inf)
    for obs in obstacles:
        acc = 0.0
        for i in range(x.shape[1]):
            diff = x[:, i] - (obs.center0[i] + obs.velocity[i] * t)
            acc = acc + diff * diff
        gap = np.sqrt(acc) - obs.radius
        if obs.active_window is not None:
            t0, t1 = obs.active_window
            gap[(t < t0) | (t > t1)] = math.inf
        np.minimum(best, gap, out=best)
    return best


def _screen(engine, k: int, points: np.ndarray) -> int:
    """How many of the steps k, k+1, ... through ``points`` (``x_k`` to
    ``x_{k+n}``) have nothing to correct: the steps before the first whose
    ``x_j`` or ``x_{j+1}`` is not finite or lies within an obstacle's reach
    (``engine.reaches``, plus rounding slack) at ``t_j``, and at most up to
    the first whose ``x_{j+1}`` passes :func:`run`'s goal test, which ends
    the run.  The one screen of every coasted block, the replayed first
    block included.
    """
    n, goal_tol = len(points) - 1, engine.goal_tol
    # the largest coordinate gap is at most math.dist, with no squares to
    # overflow or underflow, so the screen keeps every point that passes;
    # it is not finite where the point is not
    gap = np.abs(points - engine.model.g).max(axis=1)
    for j in np.flatnonzero(gap[1:] <= 2.0 * goal_tol):
        if math.dist(points[j + 1].tolist(), engine._g) <= goal_tol:
            n = int(j) + 1
            break
    finite = np.isfinite(gap)
    clear = finite[:n] & finite[1:n + 1]
    if engine.obstacles:
        t = np.arange(k, k + n) * engine.dt
        t, both = np.concatenate((t, t)), np.concatenate((points[:n], points[1:n + 1]))
        slack = 1e-9 * (1.0 + max(engine.reaches)
                        + max(o.radius for o in engine.obstacles))
        for obs, reach in zip(engine.obstacles, engine.reaches):
            gaps = surface_clearance((obs,), t, both).reshape(2, n)
            clear &= (gaps >= reach + slack).all(axis=0)
    blocked = np.flatnonzero(~clear)
    return int(blocked[0]) if blocked.size else n


def run(
    engine,
    plant=None,
    perturbations=(),
    max_steps: int | None = None,
    nominal: dmp.RolloutResult | None = None,
) -> ExecutionLog:
    """Drive an :class:`Engine` against a simulated plant until the goal or
    a cap.

    The package's one closed loop: every engine run goes through here, and
    each step of a timed engine (those :func:`~.bench.timing_harness`
    times) is one ``engine.step`` call, which logs one row and times the
    engine's ``control``.  The run ends once the engine and the plant both
    pass the one goal test, ``math.dist(x, g) <= engine.goal_tol``.  The
    plant realizes each command one control period later; perturbations displace
    the measured position for exactly one step.  Safety infeasibility flags
    the log and stops the run instead of propagating.  A start inside an
    obstacle active at t=0 (by :func:`surface_clearance`) is an input error,
    raised before the first step.
    Engines log ``4d+3`` columns per step; the ``min_clearance`` column is
    added here from the ``t`` and ``xm_*`` columns and ``engine.obstacles``.
    The log's wall times are the mean and p99 of a timed engine's
    ``step_seconds``, and None for an untimed one.

    An untimed engine under :class:`IdealPlant` takes the steps with
    nothing to correct without stepping them, and logs the stepped run bit
    for bit: it coasts through them in blocks (:meth:`Engine.coast`) of up
    to :data:`COAST_BLOCK` steps, and a block cut short backs off the next
    try by 1, 2, 4, ... steps.  Given ``nominal``, a rollout of
    ``engine.model`` at ``engine.dt``, and no perturbation at step 0, the
    block at step 0 reads the rollout, uncapped.  An engine's ``reference``
    fills the ``xn_*`` columns: row k logs its point k, or its last point.
    """
    if plant is None:
        plant = IdealPlant()
    dt = engine.dt
    model = engine.model
    goal_tol = engine.goal_tol
    if max_steps is None:
        max_steps = dmp.step_cap(dmp.DEFAULT_HORIZON_FACTOR * model.tau_nominal, dt)

    offsets: dict[int, list] = {}
    zero = [0.0] * model.d
    for pert in perturbations:
        if np.shape(pert.offset) != (model.d,):
            raise InvalidInputError(
                f"perturbation offset must have the model's {model.d} components"
            )
        k = int(math.ceil(pert.t_apply / dt - 1e-9))
        # summed from 0.0 as the ndarray sums were: a -0.0 component adds as 0.0
        offsets[k] = [s + float(o) for s, o in zip(offsets.get(k, zero), pert.offset)]

    x0 = np.asarray(engine.initial_position(), dtype=float)
    start_gap = surface_clearance(engine.obstacles, np.zeros(1), x0[None, :])[0]
    if start_gap < 0.0:
        raise InvalidInputError(
            f"the start lies inside an obstacle ({-start_gap:.3g} m deep at t=0)"
        )
    plant.reset(x0)

    width = 4 * model.d + 3
    coasting = type(plant) is IdealPlant and not engine.timed
    if not (coasting and nominal is not None and nominal.model is model
            and nominal.dt == dt and 0 not in offsets):
        nominal = None  # the first block cannot read the rollout
    x_measured = x0.tolist()
    if 0 in offsets:
        x_measured = [x + o for x, o in zip(x_measured, offsets[0])]

    step, track, goal_distance = engine.step, plant.track, engine.goal_distance
    g = model.g.tolist()
    k, converged, infeasible = 0, False, False
    blocks = []  # (rows stepped before it, the block's rows)
    wait, retry, stop = 1, 0, 0
    while k < max_steps and not converged:
        block = None
        if coasting and k >= retry:
            if k >= stop:  # a block ends at the next perturbation or the cap
                stop = min([max_steps, *(p for p in offsets if p > k)])
            n = stop - k if nominal is not None else min(COAST_BLOCK, stop - k)
            block = engine.coast(x_measured, k, n, nominal)
            nominal = None  # only the block at step 0 reads the rollout
            if block is not None and len(block) < n:  # cut short: back off
                wait, retry = 2 * wait, k + len(block) + wait
            elif block is not None:
                wait = 1
        if block is not None and len(block):
            blocks.append((len(engine.rows), block))
            k += len(block)
            # the ideal plant realizes the block's last command
            x_measured = block[-1, 1 + 2 * model.d: 1 + 3 * model.d].tolist()
        else:
            try:
                x_desired = step(x_measured, k * dt)
            except SafetyInfeasibleError:
                infeasible = True
                break
            x_measured = track(x_desired)
            k += 1
        if k in offsets:
            x_measured = [x + o for x, o in zip(x_measured, offsets[k])]
        converged = goal_distance() <= goal_tol and math.dist(x_measured, g) <= goal_tol

    stepped = np.fromiter(
        chain.from_iterable(engine.rows), float, count=len(engine.rows) * width
    ).reshape(-1, width)
    pieces, start = [], 0
    for at, block in blocks:
        pieces += (stepped[start:at], block)
        start = at
    rows = np.concatenate((*pieces, stepped[start:]))
    if engine.reference is not None:  # row k logs point k, or the last one
        steps = np.arange(len(rows))
        rows[:, 1:1 + model.d] = engine.reference.take(steps, axis=0, mode="clip")
    x_measured = rows[:, 1 + 3 * model.d: 1 + 4 * model.d]
    clearance = surface_clearance(engine.obstacles, rows[:, 0], x_measured)
    seconds = engine.step_seconds
    return ExecutionLog(
        rows=np.column_stack((rows, clearance)),
        converged=converged,
        safety_infeasible=infeasible,
        dt=dt,
        goal=model.g.copy(),
        wall_time_mean=float(np.mean(seconds)) if seconds else None,
        wall_time_p99=float(np.percentile(seconds, 99)) if seconds else None,
    )
