"""Dynamic movement primitive: phase system, forcing term, learning, rollout.

The primitive is a critically damped second-order attractor

    tau^2 xdd = alpha * (beta * (g - x) - tau * xd) + f(z),    beta = alpha / 4

driven by a phase variable z that decays from 1 toward 0,

    tau * zd = -alpha_z * z,    alpha_z = alpha / 6,

so the learned forcing term f(z) vanishes as the goal is approached.  The
remaining gain ratios used by the execution layer are alpha_e = alpha / 10
(coupling-error filter) and k_c = 2 * alpha (time-dilation gain).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import codec
from .errors import (
    DegeneratePhaseError,
    InsufficientDataError,
    InvalidInputError,
    PhaseStepError,
)
from .trajectory import DerivedKinematics, TimedTrajectory

DEFAULT_ALPHA = 25.0
DEFAULT_N_BASIS = 25
DEFAULT_GOAL_TOL = 1e-3
DEFAULT_HORIZON_FACTOR = 20.0

#: Most steps a rollout or run may take (the canned runs cap at about 8 000);
#: :func:`step_cap` rejects a horizon and ``dt`` that need more.
MAX_RUN_STEPS = 1_000_000

#: Dimensions with goal-to-start amplitude below this are left unforced.
ZERO_AMPLITUDE_TOL = 1e-9

#: Ridge factor applied to the weighted least-squares denominator.
RIDGE_FACTOR = 1e-12


def default_basis(n_basis: int, alpha_z: float) -> tuple[np.ndarray, np.ndarray]:
    """Basis centers equally spaced in time (exponentially spaced in phase).

    Widths are set from consecutive center gaps, ``h_j = 1/(2 (c_{j+1}-c_j)^2)``,
    with the last width copied, which gives heavy overlap between neighbours.
    """
    if n_basis < 2:
        raise InvalidInputError("need at least 2 basis functions")
    j = np.arange(n_basis)
    centers = np.exp(-alpha_z * j / (n_basis - 1))
    gaps = np.diff(centers)
    widths = 1.0 / (2.0 * gaps**2)
    widths = np.append(widths, widths[-1])
    return centers, widths


@dataclass(frozen=True)
class DmpModel:
    """Learned primitive: gains, basis layout, weights and endpoints.

    ``weights`` has shape (d, n_basis); ``centers`` are strictly decreasing
    in (0, 1].  The damping and phase constants are derived from ``alpha``
    (beta = alpha/4, alpha_z = alpha/6) so critical damping holds by
    construction.
    """

    d: int
    n_basis: int
    alpha: float
    tau_nominal: float
    x0: np.ndarray
    g: np.ndarray
    centers: np.ndarray
    widths: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float).copy()
        g = np.asarray(self.g, dtype=float).copy()
        centers = np.asarray(self.centers, dtype=float).copy()
        widths = np.asarray(self.widths, dtype=float).copy()
        weights = np.asarray(self.weights, dtype=float).copy()
        if self.d < 1 or self.n_basis < 1:
            raise InvalidInputError("d and n_basis must be positive")
        if x0.shape != (self.d,) or g.shape != (self.d,):
            raise InvalidInputError("x0 and g must have shape (d,)")
        if centers.shape != (self.n_basis,) or widths.shape != (self.n_basis,):
            raise InvalidInputError("centers and widths must have shape (n_basis,)")
        if weights.shape != (self.d, self.n_basis):
            raise InvalidInputError("weights must have shape (d, n_basis)")
        if not (0.0 < self.alpha < math.inf and 0.0 < self.tau_nominal < math.inf):
            raise InvalidInputError("alpha and tau_nominal must be positive and finite")
        if not all(np.all(np.isfinite(a)) for a in (x0, g, centers, widths, weights)):
            raise InvalidInputError("x0, g, centers, widths and weights must be finite")
        if np.any(centers <= 0) or np.any(centers > 1) or np.any(np.diff(centers) >= 0):
            raise InvalidInputError("centers must be strictly decreasing in (0, 1]")
        if np.any(widths <= 0):
            raise InvalidInputError("widths must be positive")
        for name, arr in (
            ("x0", x0), ("g", g), ("centers", centers),
            ("widths", widths), ("weights", weights),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def beta(self) -> float:
        return self.alpha / 4.0

    @property
    def alpha_z(self) -> float:
        return self.alpha / 6.0

    @property
    def alpha_e(self) -> float:
        return self.alpha / 10.0

    @property
    def k_c(self) -> float:
        return 2.0 * self.alpha

    @cached_property
    def amplitude(self) -> tuple:
        """Goal-to-start offset ``g - x0`` as floats; computed once, the
        forcing term reads it on every step."""
        return tuple((self.g - self.x0).tolist())

    @cached_property
    def neg_widths(self) -> np.ndarray:
        """``-widths``; computed once, the basis activations read it on every
        call."""
        return -self.widths

    @cached_property
    def forcing_tables(self) -> dict:
        """Phase-grid forcing tables of :func:`forcing_at`, keyed by ``dt``.

        Each value is ``(phases, forces)``: the grid phases ``z_k`` and the
        forcing values ``f_k = forcing(model, z_k)`` computed so far (tuples
        of floats), with one phase more than forces (the next grid phase, NaN
        where :func:`phase_step` would raise :class:`PhaseStepError`).  A table
        that runs out doubles (see :func:`forcing_at`), so it is never longer
        than twice the longest run on its ``dt``.  A model made by
        ``dataclasses.replace`` (e.g. :func:`retarget`) starts empty.
        """
        return {}


def _activations(model: DmpModel, z):
    """``exp(-h_j (z - c_j)^2)`` at a float phase, shape (n,), or at each row
    of a ``(K, 1)`` column of phases, shape (K, n); the phase is not checked.

    Computed in place (same bits as ``np.exp(-widths * (z - centers)**2)``):
    the scalar call runs on every off-grid step, where each temporary counts.
    """
    psi = z - model.centers
    psi *= psi
    psi *= model.neg_widths
    return np.exp(psi, out=psi)


def basis_activations(model: DmpModel, z: float) -> np.ndarray:
    """Gaussian activations ``psi_j = exp(-h_j (z - c_j)^2)``."""
    if not 0.0 < z <= 1.0:
        raise InvalidInputError(f"phase must lie in (0, 1], got {z}")
    return _activations(model, z)


def _gated(w_psi, z, total, amplitude):
    """The forcing formula ``amplitude * ((W psi * z) / total)``, given the
    matvec ``W psi`` and the sum ``total`` of the activations at phase ``z``;
    evaluated on floats per dimension for one phase (:func:`forcing`) and on
    arrays for a block of phases (:func:`forcing_rows`), same IEEE operations."""
    return amplitude * ((w_psi * z) / total)


def forcing(model: DmpModel, z: float) -> list:
    """Phase-gated forcing ``f_i = (g_i - x0_i) * z * (psi . w_i) / sum(psi)``."""
    # basis_activations inlined: one call less on every off-grid step
    if not 0.0 < z <= 1.0:
        raise InvalidInputError(f"phase must lie in (0, 1], got {z}")
    psi = _activations(model, z)
    total = float(np.add.reduce(psi))
    if total < 1e-300:
        raise DegeneratePhaseError(f"basis does not cover phase z={z}")
    # the dgemv that ``weights @ psi`` dispatches, without the operator's overhead
    w_psi = model.weights.dot(psi).tolist()
    return [_gated(w, z, total, a) for w, a in zip(w_psi, model.amplitude)]


def forcing_at(
    model: DmpModel, dt: float, k: int, z: float, max_steps: int | None = None
) -> tuple | list:
    """``forcing(model, z)`` for step k of a run with time step ``dt``.

    Every run at the constant nominal time scale steps through the same
    phase grid ``z_0 = 1``, ``z_{k+1} = phase_step(z_k, tau_nominal, dt,
    alpha_z)``, so ``f_k = forcing(model, z_k)`` is computed once per model
    and ``dt`` and stored in ``model.forcing_tables[dt]`` as a tuple of
    floats, returned only when ``z == z_k`` exactly (the same function of the
    same input); any other phase is computed (a list) and not stored.  A
    run that reaches the table's end on the grid appends the next block in
    one numpy pass (:func:`_extend_table`): the table doubles, but never
    past ``max_steps``, the caller's step cap (steps k < ``max_steps``).  So
    a table is never longer than twice the longest run on ``dt``, nor than
    the cap of a rollout that grew it.
    """
    table = model.forcing_tables.get(dt)
    if table is None:
        table = model.forcing_tables[dt] = ([1.0], [])
    phases, forces = table
    n = len(forces)
    if k < n:
        if z == phases[k]:
            return forces[k]
    elif k == n and z == phases[k]:
        _extend_table(model, dt, table, max_steps)
        if k < len(forces):
            return forces[k]
    return forcing(model, z)


def _extend_table(model: DmpModel, dt: float, table, max_steps: int | None):
    """Append the next grid phases and their forcing values to ``table``.

    The table doubles (an empty one gets one entry), but not past
    ``max_steps``.  The phases are the sequential products of
    :func:`phase_step` (``np.multiply.accumulate``), and the block stops
    before the first phase outside (0, 1] or whose basis sum is below 1e-300:
    it is stored as the next phase, and the step that reaches it raises from
    :func:`forcing` as it would without a table.  Where :func:`phase_step`
    raises :class:`PhaseStepError`, only one entry is added and the next phase
    is NaN, since no run at the nominal time scale gets past it.
    """
    phases, forces = table
    n = len(forces)
    count = max(n, 1)
    if max_steps is not None:
        count = min(count, max_steps - n)
    try:
        # phase_step(z) is z * (1 - alpha_z dt / tau), and this factor is it at z = 1
        factor = phase_step(1.0, model.tau_nominal, dt, model.alpha_z)
    except PhaseStepError:
        count, factor = 1, math.nan
    grid = np.full(count + 1, factor)
    grid[0] = phases[n]
    grid = np.multiply.accumulate(grid, out=grid)
    f = forcing_rows(model, grid[:-1])
    forces.extend(map(tuple, f.tolist()))
    phases.extend(grid[1 : len(f) + 1].tolist())


def forcing_rows(model: DmpModel, z: np.ndarray) -> np.ndarray:
    """``forcing(model, z_k)`` for each phase of the 1-D array ``z``, bit for
    bit, as the rows of a (K, d) array computed in one numpy pass.  The rows
    stop before the first phase at which :func:`forcing` would raise (outside
    (0, 1], or a basis sum below 1e-300)."""
    z = z[:, None]
    psi = _activations(model, z)
    total = np.add.reduce(psi, axis=-1, keepdims=True)
    ok = (z > 0.0) & (z <= 1.0) & (total >= 1e-300)
    if not ok.all():
        count = int(np.argmin(ok))
        z, psi, total = z[:count], psi[:count], total[:count]
    # numpy's stacked matmul over psi columns runs the gemv of ``weights.dot(psi)``
    # per row, so a row equals forcing() bit for bit; one gemm would not
    w_psi = np.matmul(model.weights, psi[..., None])[..., 0]
    return _gated(w_psi, z, total, model.amplitude)


def target_forcing(
    demo: DerivedKinematics,
    alpha: float,
    g: np.ndarray,
    x0: np.ndarray,
    tau: float,
) -> np.ndarray:
    """Forcing values the primitive would need to reproduce the demonstration.

    Solves the transformation equation for f at each sample:
    ``f = tau^2 xdd - alpha (beta (g - x) - tau xd)``.
    """
    if tau <= 0:
        raise InvalidInputError("tau must be positive")
    beta = alpha / 4.0
    g = np.asarray(g, dtype=float)
    return (
        tau**2 * demo.accelerations
        - alpha * (beta * (g[None, :] - demo.positions) - tau * demo.velocities)
    )


def learn_weights(
    demo: DerivedKinematics,
    n_basis: int = DEFAULT_N_BASIS,
    alpha: float = DEFAULT_ALPHA,
    tau: float = 1.0,
) -> DmpModel:
    """Fit basis weights to one demonstration by locally weighted regression.

    Samples are assumed to span [0, tau] uniformly.  Per dimension i and
    basis j the weight is the psi-weighted ridge solution of
    ``f_target ~ w * zeta`` with regressor ``zeta = z * (g_i - x0_i)``;
    dimensions with negligible amplitude keep zero weights.
    """
    n = demo.n
    if n < n_basis:
        raise InsufficientDataError(
            f"need at least n_basis={n_basis} samples, got {n}"
        )
    alpha_z = alpha / 6.0
    centers, widths = default_basis(n_basis, alpha_z)
    x0 = demo.positions[0]
    g = demo.positions[-1]
    f_target = target_forcing(demo, alpha, g, x0, tau)

    u = np.linspace(0.0, 1.0, n)
    z = np.exp(-alpha_z * u)
    psi = np.exp(-widths[None, :] * (z[:, None] - centers[None, :]) ** 2)

    weights = np.zeros((demo.d, n_basis))
    amplitude = g - x0
    for i in range(demo.d):
        if abs(amplitude[i]) < ZERO_AMPLITUDE_TOL:
            continue
        zeta = z * amplitude[i]
        lam = RIDGE_FACTOR * np.max(zeta**2)
        numer = psi.T @ (zeta * f_target[:, i])
        denom = psi.T @ (zeta**2) + lam
        weights[i] = numer / denom

    return DmpModel(
        d=demo.d,
        n_basis=n_basis,
        alpha=alpha,
        tau_nominal=tau,
        x0=x0,
        g=g,
        centers=centers,
        widths=widths,
        weights=weights,
    )


def learn_from_trajectory(
    traj: TimedTrajectory,
    n_basis: int = DEFAULT_N_BASIS,
    alpha: float = DEFAULT_ALPHA,
) -> DmpModel:
    """Differentiate a preprocessed demonstration and fit a model to it.

    The nominal time scale is the demonstration duration.
    """
    from .trajectory import finite_differences

    kin = finite_differences(traj)
    return learn_weights(kin, n_basis=n_basis, alpha=alpha, tau=traj.duration)


def phase_step(z: float, tau: float, dt: float, alpha_z: float) -> float:
    """One explicit Euler step of the phase decay: ``z' = z (1 - alpha_z dt / tau)``."""
    if not 0.0 < z <= 1.0:
        raise InvalidInputError(f"phase must lie in (0, 1], got {z}")
    if not 0.0 < tau < math.inf:
        raise InvalidInputError("tau must be positive and finite")
    if not 0.0 <= dt < math.inf:
        raise InvalidInputError("dt must be non-negative and finite")
    if dt == 0.0:
        return z
    ratio = alpha_z * dt / tau
    if ratio >= 1.0:
        raise PhaseStepError(
            f"alpha_z*dt/tau = {ratio:.3g} >= 1 would drive the phase past zero"
        )
    return z * (1.0 - ratio)


def attractor_step(x, v, f, g, tau: float, dt: float, alpha: float, beta: float):
    """One step of the transformation system on plain floats.

    Per dimension, the attractor acceleration
    ``a = (alpha (beta (g - x) - tau v) + f) / tau^2``, then position with its
    second-order Taylor term, ``x' = x + v dt + (a/2) dt^2``, then velocity,
    ``v' = v + a dt``.  The rollout and both engines step with it.  Takes
    sequences of d floats; returns the lists ``(x', v')``.
    """
    tau2 = tau**2
    dt2 = dt**2
    d = len(x)
    x_next = [0.0] * d
    v_next = [0.0] * d
    for i in range(d):
        x_i = x[i]
        v_i = v[i]
        a_i = (alpha * (beta * (g[i] - x_i) - tau * v_i) + f[i]) / tau2
        x_next[i] = x_i + v_i * dt + (0.5 * a_i) * dt2
        v_next[i] = v_i + a_i * dt
    return x_next, v_next


def step_cap(horizon: float, dt: float) -> int:
    """Steps of ``dt`` in ``horizon`` seconds, rounded, at least 1: a run's
    step cap, and the sample count of a time window.  More than
    :data:`MAX_RUN_STEPS` raise :class:`InvalidInputError`, so an over-budget
    run is rejected before its first step."""
    steps = horizon / dt
    if steps > MAX_RUN_STEPS:
        raise InvalidInputError(
            f"a {horizon:.6g} s horizon at dt={dt:.6g} s takes {steps:.6g} steps, "
            f"more than the {MAX_RUN_STEPS} a run may take; raise dt or lower "
            "max_horizon_factor"
        )
    return max(1, int(round(steps)))


@dataclass(frozen=True)
class RolloutResult:
    """A rollout's points with their velocities and phases, its model and dt."""

    trajectory: TimedTrajectory
    converged: bool
    steps: int
    velocities: list
    phases: list
    model: DmpModel
    dt: float


def rollout(
    model: DmpModel,
    dt: float,
    horizon: float | None = None,
    goal_tol: float = DEFAULT_GOAL_TOL,
    stop_at_goal: bool = True,
) -> RolloutResult:
    """Integrate the obstacle-free primitive from rest at x0.

    Stops once ``math.dist(x, g) <= goal_tol``, the package's one goal test
    (unless ``stop_at_goal`` is False), or when the horizon elapses, in
    which case the result is flagged non-converged rather than raising.  A
    start that already passes the goal test raises
    :class:`InvalidInputError` before the first step.
    The state is plain floats, stepped by :func:`attractor_step`.  At the
    nominal time scale the phase stays on the grid of :func:`forcing_at`, so
    step k reads its forcing row straight from the model's table, which
    grows by :func:`_extend_table` (with the rollout's step cap) only when k
    reaches its end, and the grid's phases are the rollout's; where the grid
    stops, the step raises what :func:`forcing` or :func:`phase_step` would.
    The result keeps the
    velocity and phase of every point, from which :func:`~.safe_exec.run`
    reads the first block of a run (:meth:`~.safe_exec.Engine.coast`).
    """
    if not 0.0 < dt < math.inf:
        raise InvalidInputError("dt must be positive and finite")
    if horizon is None:
        horizon = DEFAULT_HORIZON_FACTOR * model.tau_nominal
    if not 0.0 < horizon < math.inf:
        raise InvalidInputError("horizon must be positive and finite")
    max_steps = step_cap(horizon, dt)
    alpha, beta, alpha_z = model.alpha, model.beta, model.alpha_z
    tau = model.tau_nominal
    g = model.g.tolist()
    x = model.x0.tolist()
    if stop_at_goal and math.dist(x, g) <= goal_tol:
        raise InvalidInputError(
            f"the start lies {math.dist(x, g):.6g} m from the goal, within "
            f"goal_tol={goal_tol}: there is nothing to roll out"
        )
    v = [0.0] * model.d
    phases, forces = table = model.forcing_tables.setdefault(dt, ([1.0], []))
    n = 0  # steps below n read their row without a look at the table's end
    positions, velocities = [x], [v]
    for k in range(max_steps):
        if stop_at_goal and math.dist(x, g) <= goal_tol:
            break
        if k == n:
            if k == len(forces):
                _extend_table(model, dt, table, max_steps)
            n = len(forces)
            if k == n:  # the grid stops before step k
                forcing(model, phases[k])  # raises, as forcing_at would
            if math.isnan(phases[n]):  # the phase step would pass zero
                phase_step(phases[k], tau, dt, alpha_z)  # raises PhaseStepError
        x, v = attractor_step(x, v, forces[k], g, tau, dt, alpha, beta)
        positions.append(x)
        velocities.append(v)
    converged = math.dist(x, g) <= goal_tol
    times = np.arange(len(positions)) * dt
    return RolloutResult(
        trajectory=TimedTrajectory(times, np.asarray(positions)),
        converged=converged,
        steps=len(positions) - 1,
        velocities=velocities, phases=phases[: len(positions)], model=model,
        dt=dt,
    )


def retarget(model: DmpModel, new_x0, new_g) -> DmpModel:
    """Re-anchor the primitive to new endpoints; weights are untouched.

    Spatial scaling is implicit in the (g - x0) factor of the forcing term,
    so the rollout of the returned model is the per-dimension affine image
    of the original one.
    """
    new_x0 = np.asarray(new_x0, dtype=float)
    new_g = np.asarray(new_g, dtype=float)
    if new_x0.shape != (model.d,) or new_g.shape != (model.d,):
        raise InvalidInputError("new endpoints must have shape (d,)")
    return replace(model, x0=new_x0, g=new_g)


# --- serialization -------------------------------------------------------------

def model_to_dict(model: DmpModel) -> dict:
    """Every field of the model (see :mod:`.codec`), weights flattened row-major."""
    doc = codec.to_doc(model)
    doc["weights"] = model.weights.ravel().tolist()
    return doc


def model_from_dict(data: dict) -> DmpModel:
    kwargs = codec.read_fields(DmpModel, data, "model")
    shape = (kwargs["d"], kwargs["n_basis"])
    if min(shape) > 0 and kwargs["weights"].size == shape[0] * shape[1]:
        kwargs["weights"] = kwargs["weights"].reshape(shape)
    return codec.construct(DmpModel, kwargs, "model")


def save_model(model: DmpModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> DmpModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
