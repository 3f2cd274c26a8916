"""Independent numpy reference for the tube law the engine runs.

The engine evaluates the law per dimension on floats
(:func:`safedmp.safe_exec.tube_correction`); this module writes it as the
composition of its named parts, on arrays, so the tests can check both the
parts and the engine against it.

A state coordinate constrained to ``rho_l(t) < x < rho_u(t)`` is mapped to a
normalized error in (-1, 1), then through a logarithmic transform that
diverges at the walls.  The control

    u = -k * xi(e) * eps(e),    eps(e) = ln((1+e)/(1-e)),
    xi(e) = 4 / (rho_d * (1 - e^2)),   rho_d = rho_u - rho_l,

is zero at the tube center, always points back toward it, and grows without
bound as either wall is approached, so no online optimization is needed to
keep the state inside.  All functions accept scalars or arrays and are pure.
"""

from __future__ import annotations

import numpy as np

from safedmp.errors import InvalidInputError, SafeDmpError

#: Minimum admissible gap between upper and lower bounds (meters).
MIN_TUBE_GAP = 1e-9

DEFAULT_CLIP_LIMIT = 0.99


class TubeDomainError(SafeDmpError, ValueError):
    """Normalized tube error is outside (-1, 1); clip before transforming."""


class InvalidTubeError(SafeDmpError, ValueError):
    """Tube bounds are degenerate (upper bound not above lower bound)."""


def _check_tube(rho_l, rho_u):
    rho_d = np.asarray(rho_u, dtype=float) - np.asarray(rho_l, dtype=float)
    if np.any(rho_d < MIN_TUBE_GAP):
        raise InvalidTubeError(
            f"tube gap must be at least {MIN_TUBE_GAP}, got min {np.min(rho_d)}"
        )
    return rho_d


def normalized_error(x, rho_l, rho_u):
    """Map position inside the tube to (-1, 1): -1 at the lower bound,
    0 at the center, +1 at the upper bound."""
    rho_d = _check_tube(rho_l, rho_u)
    center = 0.5 * (np.asarray(rho_u, dtype=float) + np.asarray(rho_l, dtype=float))
    return 2.0 / rho_d * (np.asarray(x, dtype=float) - center)


def clip_error(e, limit: float = DEFAULT_CLIP_LIMIT):
    """Clamp the normalized error to [-limit, limit], limit in (0, 1)."""
    if not 0.0 < limit < 1.0:
        raise InvalidInputError(f"clip limit must lie in (0, 1), got {limit}")
    return np.clip(e, -limit, limit)


def log_error(e):
    """Transformed error ``ln((1+e)/(1-e))``; odd, zero at the center,
    divergent toward the walls.  Requires |e| < 1 (clip first)."""
    e = np.asarray(e, dtype=float)
    if np.any(np.abs(e) >= 1.0):
        raise TubeDomainError("normalized error must satisfy |e| < 1; clip first")
    return np.log((1.0 + e) / (1.0 - e))


def inverse_log_error(eps):
    """Inverse of :func:`log_error`: ``e = tanh(eps / 2)``."""
    return np.tanh(0.5 * np.asarray(eps, dtype=float))


def gain_xi(e, rho_d):
    """Wall-diverging gain ``4 / (rho_d (1 - e^2))``.

    This is the derivative of the transformed error with respect to
    position, so the control authority is minimal (4/rho_d) at the center
    and unbounded at the walls.
    """
    e = np.asarray(e, dtype=float)
    rho_d = np.asarray(rho_d, dtype=float)
    if np.any(rho_d <= 0):
        raise InvalidTubeError("rho_d must be positive")
    if np.any(np.abs(e) >= 1.0):
        raise TubeDomainError("normalized error must satisfy |e| < 1; clip first")
    return 4.0 / (rho_d * (1.0 - e**2))


def stt_control(x, rho_l, rho_u, gain: float, clip_limit: float = DEFAULT_CLIP_LIMIT):
    """Velocity-level correction keeping ``x`` inside the tube.

    ``u = -gain * xi(e~) * eps(e~)`` with ``e~`` the clipped normalized
    error; exactly zero at the tube center and directed toward it
    everywhere else.
    """
    if gain <= 0:
        raise InvalidInputError(f"gain must be positive, got {gain}")
    rho_d = _check_tube(rho_l, rho_u)
    e = clip_error(normalized_error(x, rho_l, rho_u), clip_limit)
    return -gain * gain_xi(e, rho_d) * log_error(e)


def control_magnitude_bound(gain: float, rho_d, clip_limit: float = DEFAULT_CLIP_LIMIT):
    """Largest |u| reachable once the error is clipped at ``clip_limit``."""
    return (
        gain
        * (4.0 / np.asarray(rho_d, dtype=float))
        * (1.0 / (1.0 - clip_limit**2))
        * np.log((1.0 + clip_limit) / (1.0 - clip_limit))
    )
