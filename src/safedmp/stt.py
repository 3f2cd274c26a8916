"""Array form of the engine's tube law, :func:`safe_exec.tube_correction`."""

from __future__ import annotations

import numpy as np

from .safe_exec import DEFAULT_CLIP_LIMIT, SafetyParams, tube_correction


def stt_control(x, rho_l, rho_u, gain: float, clip_limit: float = DEFAULT_CLIP_LIMIT):
    """Tube term of :func:`safe_exec.tube_correction` at each element of the
    broadcast ``x``, ``rho_l`` and ``rho_u``.

    The tube ``rho_l < x < rho_u`` is centered at ``(rho_l + rho_u)/2`` and
    ``rho_u - rho_l`` wide; :class:`safe_exec.SafetyParams` checks that width,
    ``gain`` and ``clip_limit`` (``InvalidInputError``).  Scalar inputs give a
    numpy scalar.
    """
    x, rho_l, rho_u = np.broadcast_arrays(
        np.asarray(x, dtype=float), np.asarray(rho_l, dtype=float),
        np.asarray(rho_u, dtype=float),
    )
    u = [
        tube_correction(
            [x_i], [0.5 * (lo + hi)], [0.0], 0.0, SafetyParams(hi - lo, gain, clip_limit)
        )[0][0]
        for x_i, lo, hi in zip(x.ravel().tolist(), rho_l.ravel().tolist(),
                               rho_u.ravel().tolist())
    ]
    return np.array(u, dtype=float).reshape(x.shape)[()]
