"""Demonstration ingestion and preprocessing.

Turns raw time-stamped position samples into clean, uniformly sampled
position/velocity/acceleration triples: piecewise-linear resampling,
zero-phase low-pass smoothing, planar-to-3D lifting, rigid rotation and
finite-difference differentiation.  All functions are pure and operate on
immutable :class:`TimedTrajectory` values.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InsufficientDataError,
    InvalidInputError,
    ParseError,
)

#: Absolute tolerance on time-grid uniformity after resampling (seconds).
UNIFORM_TOL = 1e-9

DEFAULT_RESAMPLE_N = 500
DEFAULT_CUTOFF_HZ = 5.0
DEFAULT_Z_HEIGHT = 0.25

#: Samples one demonstration column may hold while :func:`preprocess`
#: smooths it: the ``resample_n`` resampled points plus :func:`low_pass`'s
#: constant extension on both sides, which grows as 1/cutoff.  A canned
#: demonstration (500 points over 2 s, 5 Hz) holds 532.  Near this budget
#: (``resample_n`` 90 000) preprocessing the 2-D sshape demonstration took
#: 0.12 s and 20 MB of peak memory on a 2-core Xeon.
MAX_DEMO_SAMPLES = 100_000


@dataclass(frozen=True)
class TimedTrajectory:
    """Time-stamped sequence of d-dimensional positions.

    ``times`` is a strictly increasing (n,) array in seconds and ``points``
    the matching (n, d) array in meters.  Arrays are copied and locked on
    construction so instances can be shared freely.
    """

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).copy()
        points = np.asarray(self.points, dtype=float).copy()
        if times.ndim != 1:
            raise InvalidInputError("times must be a 1-D sequence")
        if points.ndim != 2:
            raise InvalidInputError("points must be an (n, d) array")
        if times.shape[0] != points.shape[0]:
            raise InvalidInputError(
                f"times ({times.shape[0]}) and points ({points.shape[0]}) disagree"
            )
        if times.shape[0] < 2:
            raise InsufficientDataError("a trajectory needs at least 2 samples")
        if points.shape[1] < 1:
            raise DimensionError("points must have dimension >= 1")
        if not (np.isfinite(times).all() and np.isfinite(points).all()):
            raise InvalidInputError("times and points must be finite")
        # for finite times, the same test as np.diff(times) > 0
        if not (times[1:] > times[:-1]).all():
            raise InvalidInputError("times must be strictly increasing")
        times.flags.writeable = False
        points.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.times.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def is_uniform(self) -> bool:
        steps = np.diff(self.times)
        return bool(np.max(np.abs(steps - steps.mean())) <= UNIFORM_TOL)

    def mean_dt(self) -> float:
        return self.duration / (self.n - 1)

    def bounding_box_diagonal(self) -> float:
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.linalg.norm(span))

    def path_length(self) -> float:
        return float(np.sum(np.linalg.norm(np.diff(self.points, axis=0), axis=1)))


@dataclass(frozen=True)
class DerivedKinematics:
    """Aligned position, velocity and acceleration samples."""

    positions: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        vel = np.asarray(self.velocities, dtype=float)
        acc = np.asarray(self.accelerations, dtype=float)
        if not (pos.shape == vel.shape == acc.shape):
            raise InvalidInputError("positions, velocities, accelerations must align")
        if not (np.all(np.isfinite(vel)) and np.all(np.isfinite(acc))):
            raise InvalidInputError("derived kinematics must be finite")
        for name, arr in (("positions", pos), ("velocities", vel), ("accelerations", acc)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]


def resample(traj: TimedTrajectory, n: int) -> TimedTrajectory:
    """Resample onto a uniform time grid with piecewise-linear interpolation.

    The output spans exactly ``[times[0], times[-1]]`` with ``n`` samples;
    endpoints are preserved bit-exactly.  A trajectory whose times already
    are that grid, bit for bit, is returned as it is: ``np.interp`` at its
    own knots returns their values.
    """
    if n < 2:
        raise InvalidInputError(f"resample needs n >= 2, got {n}")
    grid = np.linspace(traj.times[0], traj.times[-1], n)
    if n == traj.n and grid.tobytes() == traj.times.tobytes():
        return traj
    out = np.empty((n, traj.d))
    for i in range(traj.d):
        out[:, i] = np.interp(grid, traj.times, traj.points[:, i])
    return TimedTrajectory(grid, out)


def _omega0(cutoff_hz: float) -> float:
    return 2.0 * math.pi * cutoff_hz / math.sqrt(math.sqrt(2.0) - 1.0)


def _pad(cutoff_hz: float, dt: float):
    """Samples of constant extension :func:`low_pass` adds on each side:
    three filter time constants, at least 3; inf when their count overflows
    a float."""
    step = _omega0(cutoff_hz) * dt
    scale = 3.0 / step if step > 0.0 else math.inf
    return max(3, math.ceil(scale)) if scale < math.inf else math.inf


def check_sample_budget(n: int, dt: float, cutoff_hz: float) -> None:
    """Reject ``n`` samples of spacing ``dt`` that :func:`low_pass` at
    ``cutoff_hz`` would pad beyond :data:`MAX_DEMO_SAMPLES`, naming the
    preprocessing option at fault.  A cutoff outside (0, inf) is left to
    :func:`low_pass` to reject."""
    if n > MAX_DEMO_SAMPLES:
        raise InvalidInputError(
            f"resample_n={n} exceeds the budget of {MAX_DEMO_SAMPLES} samples "
            "per demonstration"
        )
    if 0.0 < cutoff_hz < math.inf and n + 2 * _pad(cutoff_hz, dt) > MAX_DEMO_SAMPLES:
        raise InvalidInputError(
            f"cutoff_hz={cutoff_hz} pads {n} samples beyond the budget of "
            f"{MAX_DEMO_SAMPLES} samples per demonstration"
        )


@functools.lru_cache(maxsize=16)
def _critically_damped_coeffs(cutoff_hz: float, fs: float):
    # Double real pole placed so the -3 dB point of one pass sits at cutoff_hz:
    # |H(jw)| = w0^2/(w0^2 + w^2) equals 1/sqrt(2) at w = w0*sqrt(sqrt(2)-1).
    # Discretized by the bilinear transform s = 2 fs (z - 1)/(z + 1) with the
    # polynomial arithmetic of ``scipy.signal.bilinear`` (2 fs split as
    # sqrt(2 fs) between the two binomials), then divided by den[0] as its
    # ``normalize`` does, so ``b`` and ``a`` are scipy's bits.  ``zi`` is
    # ``scipy.signal.lfilter_zi``: the step-response steady state, solved
    # from (I - companion(a).T) zi = b[1:] - a[1:] b[0].  Cached: every
    # preprocess asks for the same few (cutoff, rate) pairs.
    omega0 = _omega0(cutoff_hz)
    fac = np.sqrt(fs * 2)
    zp1 = np.polynomial.Polynomial((1, 1)) / fac
    zm1 = np.polynomial.Polynomial((-1, 1)) * fac
    num = sum(b_ * zp1**(2 - q) * zm1**q for q, b_ in enumerate(np.array([omega0**2])))
    den = sum(a_ * zp1**(2 - p) * zm1**p
              for p, a_ in enumerate(np.array([omega0**2, 2.0 * omega0, 1.0])))
    b = num.coef[::-1] / den.coef[-1]
    a = den.coef[::-1] / den.coef[-1]
    zi = np.linalg.solve([[1.0 + a[1], -1.0], [a[2], 1.0]], b[1:] - a[1:] * b[0])
    return tuple(b.tolist()), tuple(a.tolist()), tuple(zi.tolist()), omega0


def _filtfilt(b, a, zi, x: list) -> list:
    """``scipy.signal.filtfilt(b, a, x, padtype=None)`` of one float column.

    Each pass is ``lfilter`` with the state ``zi`` scaled by its first input,
    in the operation order of scipy's direct-form-II-transposed C loop, so
    the result is scipy's bits.
    """
    b0, b1, b2 = b
    _, a1, a2 = a
    for _ in range(2):
        first = x[0]
        z0, z1 = zi[0] * first, zi[1] * first
        out = []
        append = out.append
        for v in x:
            y = z0 + b0 * v
            z0 = z1 + v * b1 - y * a1
            z1 = v * b2 - y * a2
            append(y)
        out.reverse()
        x = out
    return x


def low_pass(traj: TimedTrajectory, cutoff_hz: float) -> TimedTrajectory:
    """Zero-phase second-order low-pass smoothing.

    A critically damped second-order section is applied forward and backward
    (two passes, no phase lag).  The input must be uniformly sampled and the
    cutoff below Nyquist.  Endpoints are protected by constant extension of
    at least three filter time constants, and the per-dimension sample mean
    is restored afterwards so the DC component survives edge effects exactly.
    """
    if not traj.is_uniform():
        raise InvalidInputError("low_pass requires uniform sampling; resample first")
    dt = traj.mean_dt()
    fs = 1.0 / dt
    if not 0.0 < cutoff_hz < 0.5 * fs:
        raise InvalidInputError(
            f"cutoff {cutoff_hz} Hz must lie in (0, Nyquist={0.5 * fs:.6g} Hz)"
        )
    check_sample_budget(traj.n, dt, cutoff_hz)
    b, a, zi, _ = _critically_damped_coeffs(cutoff_hz, fs)
    pad = _pad(cutoff_hz, dt)
    columns = [
        _filtfilt(b, a, zi, [c[0]] * pad + c + [c[-1]] * pad)[pad:-pad]
        for c in traj.points.T.tolist()
    ]
    # C order, as the sum order of ``mean(axis=0)`` depends on the layout
    smoothed = np.array(columns).T.copy()
    smoothed = smoothed + (traj.points.mean(axis=0) - smoothed.mean(axis=0))
    return TimedTrajectory(traj.times, smoothed)


def lift_to_3d(traj: TimedTrajectory, z_height: float) -> TimedTrajectory:
    """Append a constant third coordinate to a planar trajectory."""
    if traj.d != 2:
        raise DimensionError(f"lift_to_3d expects d=2 input, got d={traj.d}")
    column = np.full((traj.n, 1), float(z_height))
    return TimedTrajectory(traj.times, np.hstack([traj.points, column]))


def rotate(traj: TimedTrajectory, rotation: np.ndarray) -> TimedTrajectory:
    """Apply a proper rotation (orthonormal, det +1, checked to 1e-9)."""
    if traj.d != 3:
        raise DimensionError(f"rotate expects d=3 input, got d={traj.d}")
    rot = np.asarray(rotation, dtype=float)
    if rot.shape != (3, 3):
        raise InvalidInputError("rotation must be a 3x3 matrix")
    if np.max(np.abs(rot.T @ rot - np.eye(3))) > 1e-9:
        raise InvalidInputError("rotation matrix is not orthonormal")
    if abs(np.linalg.det(rot) - 1.0) > 1e-9:
        raise InvalidInputError("rotation matrix must have determinant +1")
    return TimedTrajectory(traj.times, traj.points @ rot.T)


def finite_differences(traj: TimedTrajectory) -> DerivedKinematics:
    """Differentiate a uniformly sampled trajectory twice.

    Central differences on the interior, one-sided second-order stencils at
    the endpoints; exact for polynomials up to degree two.
    """
    if traj.n < 3:
        raise InsufficientDataError("finite differences need at least 3 samples")
    if not traj.is_uniform():
        raise InvalidInputError("finite_differences requires uniform sampling")
    dt = traj.mean_dt()
    vel = np.gradient(traj.points, dt, axis=0, edge_order=2)
    acc = np.gradient(vel, dt, axis=0, edge_order=2)
    return DerivedKinematics(traj.points, vel, acc)


def preprocess(
    traj: TimedTrajectory,
    resample_n: int = DEFAULT_RESAMPLE_N,
    cutoff_hz: float = DEFAULT_CUTOFF_HZ,
    z_height: float = DEFAULT_Z_HEIGHT,
    rotation: np.ndarray | None = None,
) -> TimedTrajectory:
    """Standard demonstration cleanup: resample, smooth, lift, rotate.

    The resampled and padded length is checked against
    :data:`MAX_DEMO_SAMPLES` before anything is allocated.
    """
    if resample_n >= 2:
        check_sample_budget(resample_n, traj.duration / (resample_n - 1), cutoff_hz)
    out = resample(traj, resample_n)
    out = low_pass(out, cutoff_hz)
    if out.d == 2:
        out = lift_to_3d(out, z_height)
    if rotation is not None:
        out = rotate(out, rotation)
    return out


def read_demo_csv(path) -> TimedTrajectory:
    """Read a demonstration from CSV with header ``t,x,y`` or ``t,x,y,z``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty demonstration file", line=1) from None
        cols = [c.strip().lower() for c in header]
        if cols not in (["t", "x", "y"], ["t", "x", "y", "z"]):
            raise ParseError(
                f"expected header 't,x,y[,z]', got {','.join(cols)}", line=1
            )
        width = len(cols)
        times, points = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != width:
                raise ParseError(
                    f"expected {width} fields, got {len(row)}", line=lineno
                )
            try:
                values = [float(c) for c in row]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            times.append(values[0])
            points.append(values[1:])
    if len(times) < 2:
        raise InsufficientDataError("demonstration needs at least 2 samples")
    return TimedTrajectory(np.asarray(times), np.asarray(points))


# --- synthetic demonstrations -------------------------------------------------

def _min_jerk_progress(u: np.ndarray) -> np.ndarray:
    return 10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5


def minimum_jerk_demo(
    x0=(0.2, 0.2, 0.25),
    g=(0.8, 0.55, 0.25),
    duration: float = 2.0,
    n: int = 201,
) -> TimedTrajectory:
    """Straight-line stroke with a minimum-jerk speed profile."""
    x0 = np.asarray(x0, dtype=float)
    g = np.asarray(g, dtype=float)
    times = np.linspace(0.0, duration, n)
    s = _min_jerk_progress(times / duration)
    return TimedTrajectory(times, x0[None, :] + s[:, None] * (g - x0)[None, :])


def two_sine_demo(duration: float = 2.0, n: int = 201) -> TimedTrajectory:
    """3-D stroke whose lateral coordinate mixes two sine frequencies.

    The z coordinate is constant, exercising the zero-amplitude path of the
    learner; lateral terms vanish at both ends so the stroke starts and ends
    at rest.
    """
    times = np.linspace(0.0, duration, n)
    s = _min_jerk_progress(times / duration)
    x = 0.2 + 0.6 * s
    y = 0.3 + 0.08 * np.sin(2.0 * np.pi * s) + 0.04 * np.sin(4.0 * np.pi * s)
    z = np.full(n, 0.25)
    return TimedTrajectory(times, np.stack([x, y, z], axis=1))


def stroke_2d_demo(duration: float = 2.0, n: int = 201) -> TimedTrajectory:
    """Planar handwriting-style stroke with two bends, for lifting tests."""
    times = np.linspace(0.0, duration, n)
    s = _min_jerk_progress(times / duration)
    x = 0.15 + 0.5 * s
    y = 0.25 + 0.12 * np.sin(np.pi * s) - 0.08 * np.sin(2.0 * np.pi * s) * (1.0 - s)
    return TimedTrajectory(times, np.stack([x, y], axis=1))


#: Built-in demonstration generators addressable as ``builtin:<name>``.
BUILTIN_DEMOS = {
    "minjerk": minimum_jerk_demo,
    "sine2": two_sine_demo,
    "sshape": stroke_2d_demo,
}


def load_demo(source: str) -> TimedTrajectory:
    """Resolve ``builtin:<name>`` or a CSV path into a trajectory."""
    if source.startswith("builtin:"):
        name = source.split(":", 1)[1]
        try:
            return BUILTIN_DEMOS[name]()
        except KeyError:
            raise InvalidInputError(
                f"unknown builtin demonstration {name!r}; "
                f"available: {sorted(BUILTIN_DEMOS)}"
            ) from None
    return read_demo_csv(source)
