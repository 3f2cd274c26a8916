"""Stall detection for the dmp-apf failure-mode tests and acceptance 08.

No report scores a stall; the tests use it to name the failure that the
potential field falls into on a symmetric blocker.
"""

import numpy as np

from safedmp import dmp, safe_exec

#: :func:`stall_detected`: speed below this, away from the goal, for this long.
STALL_SPEED_TOL = 1e-4
STALL_MIN_DURATION_S = 1.0


def stall_detected(log: safe_exec.ExecutionLog) -> bool:
    """True when the motion sits nearly still (:data:`STALL_SPEED_TOL`) for
    :data:`STALL_MIN_DURATION_S`, farther than ten goal tolerances
    (``10 * dmp.DEFAULT_GOAL_TOL``) from the goal."""
    if log.steps < 3:
        return False
    measured = log.x_measured
    dt = log.dt
    speed = np.linalg.norm(np.diff(measured, axis=0) / dt, axis=1)
    goal_radius = 10 * dmp.DEFAULT_GOAL_TOL
    away = np.linalg.norm(measured[:-1] - log.goal[None, :], axis=1) > goal_radius
    stalled = (speed < STALL_SPEED_TOL) & away
    needed = int(round(STALL_MIN_DURATION_S / dt))
    run_length = 0
    for flag in stalled:
        run_length = run_length + 1 if flag else 0
        if run_length >= needed:
            return True
    return False
