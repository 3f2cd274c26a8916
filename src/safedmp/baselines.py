"""Potential-field comparison method.

The same primitive is integrated with an inverse-distance repulsive
coupling added to its transformation system.  The force law is the classic
gradient form

    F = eta * (1/d_s - 1/d0) * (1/d_s^2) * (x - c)/||x - c||,  d_s < d0,

with d_s the surface distance; it is reactive only, so it keeps the
primitive's speed but inherits the textbook failure modes: head-on symmetric
geometry stalls in a force balance, and steep near-contact gradients can
ring or collide.  Nothing here prevents clearance violations; they are
recorded, not avoided.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import dmp
from .errors import InvalidInputError, PhaseStepError
from .safe_exec import DEFAULT_DELTA_GAMMA, DEFAULT_DT, Engine
from .trajectory import TimedTrajectory

DEFAULT_ETA = 0.01

#: Surface distances below this floor are treated as the floor itself.
SURFACE_DISTANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class ApfParams:
    """Repulsion gain, influence radius and per-obstacle force clamp.

    ``d0=None`` defaults the influence radius to each obstacle's clearance
    (radius plus half tube width) so both methods react at the same range;
    ``max_force=None`` defaults to ten times the attractor's peak pull over
    the path extent.
    """

    eta: float = DEFAULT_ETA
    d0: float | None = None
    max_force: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.eta < math.inf:
            raise InvalidInputError(
                "eta must be non-negative and finite (0 disables coupling)"
            )
        for name in ("d0", "max_force"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise InvalidInputError(f"{name} must be positive and finite")


def default_max_force(model: dmp.DmpModel) -> float:
    """Ten times the attractor's peak pull over the goal-to-start extent
    ``||g - x0||`` (numpy's norm); :class:`InvalidInputError` if that force
    is not finite."""
    with np.errstate(over="ignore"):
        diff = model.g - model.x0
        extent = float(np.linalg.norm(diff))
    if extent == math.inf:  # the squares overflow; hypot scales by the largest component
        extent = math.hypot(*diff.tolist())
    force = 10.0 * model.alpha * model.beta * max(extent, 1e-6) / model.tau_nominal**2
    if force == math.inf:
        raise InvalidInputError(
            f"the goal-to-start extent of {extent:.6g} m gives no finite default "
            "max_force; set the dmp-apf max_force"
        )
    return force


def apf_force(x, table, t: float, params: ApfParams) -> np.ndarray:
    """Summed repulsive acceleration from every active obstacle in range of
    ``x``, over the rows of :func:`~.safe_exec.obstacle_table`; ``d0=None``
    is each row's clearance radius."""
    x = np.asarray(x, dtype=float)
    force = np.zeros(len(x))
    for center0, vel, clearance, window, _, radius in table:
        if window is not None and not window[0] <= t <= window[1]:
            continue
        diff = x - [c + v * t for c, v in zip(center0, vel)]
        dist = float(np.linalg.norm(diff))
        d_surf = max(dist - radius, SURFACE_DISTANCE_FLOOR)
        d0 = params.d0 if params.d0 is not None else clearance
        if d_surf >= d0:
            continue
        magnitude = params.eta * (1.0 / d_surf - 1.0 / d0) / d_surf**2
        if params.max_force is not None:
            magnitude = min(magnitude, params.max_force)
        if dist < 1e-12:
            direction = np.zeros_like(x)
            direction[-1] = 1.0
        else:
            direction = diff / dist
        force += magnitude * direction
    return force


class ApfEngine(Engine):
    """Primitive plus potential-field coupling, integrated as one system.

    The measured position handed to :meth:`step` is adopted as the current
    state (so impulses displace the integration directly); with eta
    effectively zero the run reproduces the nominal rollout bit for bit.

    The state is the plain floats of :class:`~.safe_exec.Engine`:
    :meth:`control` converts the measurement once, adds the repulsion of
    :func:`apf_force` (not called without obstacles) to the forcing row
    from :func:`dmp.forcing_at` and advances the primitive with
    :func:`dmp.attractor_step`, the rollout's own step.  The time scale
    stays ``tau_nominal``; a ``params.max_force`` of None is resolved to
    :func:`default_max_force` once, here.  The log's ``xn_*`` columns
    report ``nominal_reference``, kept as the array ``reference``, which
    :func:`~.safe_exec.run` writes into them.
    """

    def __init__(
        self,
        model: dmp.DmpModel,
        nominal_reference: TimedTrajectory,
        params: ApfParams | None = None,
        obstacles=(),
        dt: float = DEFAULT_DT,
        goal_tol: float = dmp.DEFAULT_GOAL_TOL,
        delta_gamma: float = DEFAULT_DELTA_GAMMA,
        timed: bool = False,
    ):
        super().__init__(model, obstacles, dt, goal_tol, timed, delta_gamma)
        self.params = params if params is not None else ApfParams()
        if self.params.max_force is None:
            self.params = replace(self.params, max_force=default_max_force(model))
        d0 = self.params.d0
        self.reaches = tuple(row[2] if d0 is None else d0 for row in self._table)
        self.reference = nominal_reference.points
        self._free = True  # the last step's repulsion was exactly zero

    def control(self, x_measured: Sequence[float], t: float) -> list:
        """One control computation; advances the internal state.

        ``x_measured`` is any sequence of d floats, adopted as the current
        position; returns the next command as a float list.
        """
        model = self.model
        dt = self.dt
        tau = self.tau
        x = self._x_measured = list(map(float, x_measured))
        f_ext = dmp.forcing_at(model, dt, self._k, self.z)
        self._k += 1
        if self._table:
            f_apf = apf_force(x, self._table, t, self.params).tolist()
            self._free = not any(f_apf)
            tau2 = tau**2
            f_total = [f_e + f_a * tau2 for f_e, f_a in zip(f_ext, f_apf)]
        else:  # no repulsion: the bits of f_e + 0.0 * tau**2
            f_total = [f_e + 0.0 for f_e in f_ext]
        self.z = dmp.phase_step(self.z, tau, dt, model.alpha_z)
        self._x, self._v = dmp.attractor_step(
            x, self._v, f_total, self._g, tau, dt, model.alpha, model.beta
        )
        return self._x

    def _coast_chain(self, x_measured: list, n: int):
        """Tried after a step whose repulsion was zero, step k coasts when no
        obstacle is within its reach of ``x_measured``, adopted as ``x_k``;
        the repulsion is then exactly zero, so the step is a forcing row plus
        ``0.0``."""
        if not self._free:
            return None
        tau, z = self.tau, self.z
        phases = [z]
        for _ in range(n):
            try:
                z = dmp.phase_step(z, tau, self.dt, self.model.alpha_z)
            except (InvalidInputError, PhaseStepError):
                break  # the stepped control raises at this step
            phases.append(z)
        forces = dmp.forcing_rows(self.model, np.array(phases[:-1])) + 0.0
        return x_measured, [tau] * len(phases), phases, forces.tolist()

    def step(self, x_measured: Sequence[float], t: float) -> list:
        """Control computation plus one log row; returns the command, the
        float list of :meth:`control`.

        The method has no projection, so the logged safe position is the
        command itself; the row logs the measurement as :meth:`control`
        converted it, also in the ``xn_*`` slots that
        :func:`~.safe_exec.run` fills from ``reference``.
        """
        x_next = self.control(x_measured, t)
        x = self._x_measured
        self.rows.append((t, *x, *x_next, *x_next, *x, self.tau, self.z))
        return x_next

