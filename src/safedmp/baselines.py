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
from itertools import chain, repeat

import numpy as np

from . import dmp
from .errors import InvalidInputError
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


def _reference_rows(points: np.ndarray, k: int):
    """The ``xn_*`` columns of steps k, k+1, ...: ``points[k:]``, then the
    last point for as long as the run lasts, each converted to floats only
    when ``chain.from_iterable`` first reads it."""
    yield points[k:].tolist()
    yield repeat(points[-1].tolist())


class ApfEngine(Engine):
    """Primitive plus potential-field coupling, integrated as one system.

    The measured position handed to :meth:`step` is adopted as the current
    state (so impulses displace the integration directly); with eta
    effectively zero the run reproduces the nominal rollout bit for bit.

    The state is the plain floats of :class:`~.safe_exec.Engine`:
    :meth:`control` converts the measurement once, adds the repulsion of
    :func:`apf_force` to the forcing row from :func:`dmp.forcing_at` and
    advances the primitive with :func:`dmp.attractor_step`, the rollout's own
    step.  The time scale stays ``tau_nominal``; a ``params.max_force`` of
    None is resolved to :func:`default_max_force` once, here.  The log's
    ``xn_*`` columns report ``nominal_reference``: step k logs its point k,
    or its last point once the run outlasts it.  The reference stays an
    array: :meth:`seek` returns its rows for a replayed prefix as a slice,
    and the stepped rows convert only the points from the seek point on.
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
        self.reach = max((row[2] if d0 is None else d0 for row in self._table),
                         default=0.0)
        self._reference = nominal_reference.points
        self._nominal = chain.from_iterable(_reference_rows(self._reference, 0))

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
        f_apf = apf_force(x, self._table, t, self.params).tolist()
        tau2 = tau**2
        f_total = [f_e + f_a * tau2 for f_e, f_a in zip(f_ext, f_apf)]
        self.z = dmp.phase_step(self.z, tau, dt, model.alpha_z)
        self._x, self._v = dmp.attractor_step(
            x, self._v, f_total, self._g, tau, dt, model.alpha, model.beta
        )
        return self._x

    def seek(self, k: int, x: list, v: list, z: float) -> np.ndarray:
        super().seek(k, x, v, z)
        self._nominal = chain.from_iterable(_reference_rows(self._reference, k))
        xn = self._reference[:k]
        if len(xn) < k:  # the run outlasts the reference: pad with its last point
            xn = np.concatenate((xn, np.repeat(xn[-1:], k - len(xn), axis=0)))
        return xn

    def step(self, x_measured: Sequence[float], t: float) -> list:
        """Control computation plus one log row; returns the command, the
        float list of :meth:`control`.

        The method has no projection, so the logged safe position is the
        command itself; the row logs the measurement as :meth:`control`
        converted it.
        """
        x_next = self.control(x_measured, t)
        x_nominal = next(self._nominal)
        self.rows.append(
            (t, *x_nominal, *x_next, *x_next, *self._x_measured, self.tau, self.z)
        )
        return x_next

