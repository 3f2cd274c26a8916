import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from safedmp import trajectory as tj
from safedmp.errors import (
    DimensionError,
    InsufficientDataError,
    InvalidInputError,
    ParseError,
)


def make_traj(times, points):
    return tj.TimedTrajectory(np.asarray(times), np.asarray(points))


def low_pass_response(cutoff_hz: float, fs: float, freq_hz: float) -> float:
    """Two-pass magnitude response of :func:`tj.low_pass` at ``freq_hz``."""
    b, a, _, _ = tj._critically_damped_coeffs(cutoff_hz, fs)
    _, h = signal.freqz(b, a, worN=[2.0 * math.pi * freq_hz / fs])
    return float(np.abs(h[0]) ** 2)


def write_demo_csv(traj: tj.TimedTrajectory, path) -> None:
    """Write a demonstration in the CSV format :func:`tj.read_demo_csv` reads."""
    header = ["t", "x", "y"] + (["z"] if traj.d == 3 else [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, p in zip(traj.times, traj.points):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in p])


class TestTimedTrajectory:
    def test_validation(self):
        with pytest.raises(InsufficientDataError):
            make_traj([0.0], [[0.0]])
        with pytest.raises(InvalidInputError):
            make_traj([0.0, 0.0], [[0.0], [1.0]])
        with pytest.raises(InvalidInputError):
            make_traj([0.0, 1.0], [[0.0]])

    finite_times = st.lists(
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308]),
        min_size=2, max_size=8,
    )

    @settings(max_examples=300, deadline=None)
    @given(finite_times | finite_times.map(sorted))
    def test_increasing_check_is_the_diff_test(self, times):
        """For finite times, ``t[1:] > t[:-1]`` is ``np.diff(t) > 0``: a
        difference is zero only for equal operands, and an overflow keeps
        its sign."""
        increasing = not np.any(np.diff(np.asarray(times)) <= 0)
        points = np.zeros((len(times), 1))
        if increasing:
            assert make_traj(times, points).times.tolist() == times
        else:
            with pytest.raises(InvalidInputError, match="strictly increasing"):
                make_traj(times, points)

    def test_immutability(self):
        traj = make_traj([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            traj.points[0, 0] = 5.0

    def test_properties(self):
        traj = make_traj([0.0, 0.5, 1.0], [[0, 0], [1, 0], [2, 0]])
        assert traj.n == 3 and traj.d == 2
        assert traj.duration == 1.0
        assert traj.is_uniform()
        assert traj.path_length() == pytest.approx(2.0)


class TestResample:
    def test_midpoint_interpolation(self):
        traj = make_traj([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])
        out = tj.resample(traj, 3)
        assert out.times[1] == pytest.approx(0.5)
        np.testing.assert_allclose(out.points[1], [0.5, 0.0])

    def test_identity_on_uniform_input(self):
        times = np.linspace(0.0, 2.0, 37)
        points = np.column_stack([np.sin(times), np.cos(times)])
        traj = make_traj(times, points)
        out = tj.resample(traj, 37)
        np.testing.assert_allclose(out.times, times, atol=1e-12)
        np.testing.assert_allclose(out.points, points, atol=1e-12)

    def test_endpoints_exact(self):
        traj = make_traj([0.3, 0.9, 2.7], [[1.0], [5.0], [-2.0]])
        out = tj.resample(traj, 50)
        assert out.times[0] == traj.times[0] and out.times[-1] == traj.times[-1]
        assert out.points[0, 0] == 1.0 and out.points[-1, 0] == -2.0

    def test_cubic_error_within_linear_interp_bound(self):
        # piecewise-linear error bound: h^2 * max|f''| / 8
        coeffs = (2.0, -1.5, 0.3)

        def f(x):
            return coeffs[0] * x**3 + coeffs[1] * x**2 + coeffs[2] * x

        def fdd(x):
            return 6.0 * coeffs[0] * x + 2.0 * coeffs[1]

        times = np.linspace(0.0, 1.0, 11)
        traj = make_traj(times, f(times)[:, None])
        out = tj.resample(traj, 101)
        err = np.max(np.abs(out.points[:, 0] - f(out.times)))
        h = times[1] - times[0]
        bound = h**2 * np.max(np.abs(fdd(np.linspace(0, 1, 2001)))) / 8.0
        assert err <= bound

    def test_uniform_grid_tolerance(self):
        traj = make_traj([0.0, 0.1, 0.9, 1.0], np.zeros((4, 1)))
        out = tj.resample(traj, 500)
        steps = np.diff(out.times)
        assert np.max(np.abs(steps - steps.mean())) <= 1e-9

    def test_rejects_small_n(self):
        traj = make_traj([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(InvalidInputError):
            tj.resample(traj, 1)

    @staticmethod
    def interpolated(traj, n):
        """Every column interpolated onto the n-point grid of the span."""
        grid = np.linspace(traj.times[0], traj.times[-1], n)
        columns = [np.interp(grid, traj.times, c) for c in traj.points.T]
        return grid, np.column_stack(columns)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-10.0, 10.0), st.floats(1e-3, 100.0), st.integers(2, 300),
        st.integers(1, 4), st.integers(0, 2**32 - 1),
    )
    def test_trajectory_on_its_grid_is_returned_as_is(self, t0, span, n, d, seed):
        """Its interpolation at its own knots gives the same bits, -0.0
        included, so the trajectory itself is the result."""
        times = np.linspace(t0, t0 + span, n)
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, d)) * (rng.uniform(size=(n, d)) > 0.3)
        points[rng.uniform(size=(n, d)) < 0.2] = -0.0
        traj = make_traj(times, points)
        assert tj.resample(traj, n) is traj
        grid, interpolated = self.interpolated(traj, n)
        assert grid.tobytes() == traj.times.tobytes()
        assert interpolated.tobytes() == traj.points.tobytes()

    @pytest.mark.parametrize("times", [
        np.arange(7) * 0.1,  # 0.6 / 6 * k is not 0.1 * k on every sample
        [0.0, 0.1, 0.3, 0.35, 0.5, 0.9, 1.0],
        [-0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5],  # linspace starts at +0.0
    ], ids=["arange", "uneven", "negative-zero start"])
    def test_trajectory_off_the_grid_is_interpolated(self, times):
        points = np.column_stack([np.sin(times), -np.asarray(times) ** 2])
        traj = make_traj(times, points)
        grid = np.linspace(traj.times[0], traj.times[-1], traj.n)
        assert grid.tobytes() != traj.times.tobytes()
        for n in (traj.n, 5, 20):
            grid, interpolated = self.interpolated(traj, n)
            out = tj.resample(traj, n)
            assert out is not traj
            assert out.times.tobytes() == grid.tobytes()
            assert out.points.tobytes() == interpolated.tobytes()


class TestLowPass:
    fs = 100.0

    def sine_traj(self, freq, n=1001):
        t = np.arange(n) / self.fs
        return make_traj(t, np.sin(2 * np.pi * freq * t)[:, None])

    @staticmethod
    def fitted_amplitude(traj, freq):
        t = traj.times
        basis = np.vstack(
            [np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t), np.ones(t.size)]
        ).T
        coef, *_ = np.linalg.lstsq(basis, traj.points[:, 0], rcond=None)
        return math.hypot(coef[0], coef[1])

    def test_constant_unchanged(self):
        traj = make_traj(np.linspace(0, 1, 101), np.full((101, 2), 3.7))
        out = tj.low_pass(traj, 5.0)
        np.testing.assert_allclose(out.points, traj.points, atol=1e-9)

    def test_passband_amplitude_preserved(self):
        traj = self.sine_traj(0.25)  # cutoff/20
        out = tj.low_pass(traj, 5.0)
        amp = self.fitted_amplitude(out, 0.25)
        assert abs(amp - 1.0) < 0.01

    def test_cutoff_attenuation_matches_response(self):
        traj = self.sine_traj(5.0)
        out = tj.low_pass(traj, 5.0)
        amp = self.fitted_amplitude(out, 5.0)
        predicted = low_pass_response(5.0, self.fs, 5.0)
        assert abs(amp - 0.5) < 0.05  # two -3 dB passes
        assert amp == pytest.approx(predicted, abs=0.01)

    def test_mean_preserved(self):
        rng = np.random.default_rng(0)
        t = np.arange(2000) / self.fs
        sig = 0.5 + 0.2 * np.sin(2 * np.pi * 3 * t) + 0.05 * rng.normal(size=t.size)
        traj = make_traj(t, sig[:, None])
        out = tj.low_pass(traj, 5.0)
        span = sig.max() - sig.min()
        assert abs(out.points[:, 0].mean() - sig.mean()) < 1e-6 * span

    def test_rejects_nonuniform(self):
        traj = make_traj([0.0, 0.1, 0.5, 1.0], np.zeros((4, 1)))
        with pytest.raises(InvalidInputError):
            tj.low_pass(traj, 5.0)

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 4),
        n=st.integers(4, 1500),
        fs=st.floats(5.0, 5000.0),
        cutoff_frac=st.floats(2e-3, 0.49),
        log_magnitude=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scipy_bits(self, d, n, fs, cutoff_frac, log_magnitude, seed):
        # the in-package filter reproduces scipy's design and filtfilt bit
        # for bit, including the layout that the mean restore sums in
        rng = np.random.default_rng(seed)
        points = 10.0**log_magnitude * np.cumsum(rng.normal(size=(n, d)), axis=0)
        traj = make_traj(np.arange(n) / fs, points + rng.normal(size=d))
        dt = traj.mean_dt()
        fs = 1.0 / dt
        cutoff_hz = cutoff_frac * fs

        b, a, zi, omega0 = tj._critically_damped_coeffs(cutoff_hz, fs)
        b_ref, a_ref = signal.bilinear(
            [omega0**2], [1.0, 2.0 * omega0, omega0**2], fs=fs
        )
        assert np.array(b).tobytes() == b_ref.tobytes()
        assert np.array(a).tobytes() == a_ref.tobytes()
        assert np.array(zi).tobytes() == signal.lfilter_zi(b_ref, a_ref).tobytes()

        pad = max(3, math.ceil(3.0 / (omega0 * dt)))
        padded = np.pad(traj.points, ((pad, pad), (0, 0)), mode="edge")
        ref = signal.filtfilt(b_ref, a_ref, padded, axis=0, padtype=None)[pad:-pad]
        ref = ref + (traj.points.mean(axis=0) - ref.mean(axis=0))
        assert tj.low_pass(traj, cutoff_hz).points.tobytes() == ref.tobytes()

    def test_rejects_cutoff_beyond_nyquist(self):
        traj = self.sine_traj(1.0)
        with pytest.raises(InvalidInputError):
            tj.low_pass(traj, 60.0)


class TestLift:
    def test_definition(self):
        traj = make_traj([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        out = tj.lift_to_3d(traj, 0.3)
        np.testing.assert_array_equal(out.points, [[0, 0, 0.3], [1, 1, 0.3]])

    def test_zero_height(self):
        traj = make_traj([0.0, 1.0], [[2.0, 3.0], [4.0, 5.0]])
        out = tj.lift_to_3d(traj, 0.0)
        assert np.all(out.points[:, 2] == 0.0)

    def test_round_trip(self):
        stroke = tj.stroke_2d_demo()
        lifted = tj.lift_to_3d(stroke, 0.25)
        np.testing.assert_array_equal(lifted.points[:, :2], stroke.points)
        np.testing.assert_array_equal(lifted.times, stroke.times)

    def test_rejects_3d_input(self):
        traj = make_traj([0.0, 1.0], [[0, 0, 0], [1, 1, 1]])
        with pytest.raises(DimensionError):
            tj.lift_to_3d(traj, 0.1)


def rotation_about_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


class TestRotate:
    def test_identity(self):
        traj = tj.lift_to_3d(tj.stroke_2d_demo(), 0.25)
        out = tj.rotate(traj, np.eye(3))
        np.testing.assert_array_equal(out.points, traj.points)

    def test_involution(self):
        traj = tj.lift_to_3d(tj.stroke_2d_demo(), 0.25)
        flip = rotation_about_z(math.pi)
        back = tj.rotate(tj.rotate(traj, flip), flip)
        np.testing.assert_allclose(back.points, traj.points, atol=1e-12)

    def test_path_length_preserved(self):
        traj = tj.lift_to_3d(tj.stroke_2d_demo(), 0.25)
        rot = rotation_about_z(1.234) @ np.array(
            [[1, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float
        )
        out = tj.rotate(traj, rot)
        assert out.path_length() == pytest.approx(traj.path_length(), rel=1e-9)

    def test_pairwise_distances_preserved(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(size=(20, 3))
        traj = make_traj(np.arange(20.0), pts)
        out = tj.rotate(traj, rotation_about_z(0.7))
        for i in (0, 5, 13):
            before = np.linalg.norm(pts - pts[i], axis=1)
            after = np.linalg.norm(out.points - out.points[i], axis=1)
            np.testing.assert_allclose(after, before, atol=1e-9)

    def test_rejects_non_orthonormal(self):
        traj = make_traj([0.0, 1.0], [[0, 0, 0], [1, 1, 1]])
        with pytest.raises(InvalidInputError):
            tj.rotate(traj, np.eye(3) * 1.001)
        with pytest.raises(InvalidInputError):
            tj.rotate(traj, np.diag([1.0, 1.0, -1.0]))  # det = -1


class TestFiniteDifferences:
    def test_linear_exact(self):
        t = np.linspace(0.0, 1.0, 51)
        traj = make_traj(t, (2.0 * t)[:, None])
        kin = tj.finite_differences(traj)
        np.testing.assert_allclose(kin.velocities, 2.0, atol=1e-9)
        np.testing.assert_allclose(kin.accelerations, 0.0, atol=1e-9)

    def test_quadratic_acceleration_exact(self):
        t = np.linspace(0.0, 1.0, 51)
        traj = make_traj(t, (t**2)[:, None])
        kin = tj.finite_differences(traj)
        np.testing.assert_allclose(kin.accelerations, 2.0, atol=1e-9)

    def test_sine_velocity_second_order(self):
        errs = []
        for n in (501, 1001):
            t = np.linspace(0.0, 1.0, n)
            traj = make_traj(t, np.sin(2 * np.pi * t)[:, None])
            kin = tj.finite_differences(traj)
            analytic = 2 * np.pi * np.cos(2 * np.pi * t)
            errs.append(np.max(np.abs(kin.velocities[:, 0] - analytic)))
        # halving dt should cut the error by about four
        assert errs[1] < errs[0] / 3.0

    def test_trapezoid_reintegration(self):
        t = np.linspace(0.0, 1.0, 1001)
        traj = make_traj(t, np.column_stack([np.sin(3 * t), np.cos(2 * t)]))
        kin = tj.finite_differences(traj)
        dt = t[1] - t[0]
        rebuilt = traj.points[0] + np.vstack([
            np.zeros(2),
            np.cumsum(0.5 * (kin.velocities[1:] + kin.velocities[:-1]) * dt, axis=0),
        ])
        assert np.max(np.abs(rebuilt - traj.points)) < 10 * dt**2

    def test_rejects_short_input(self):
        with pytest.raises(InsufficientDataError):
            tj.finite_differences(make_traj([0.0, 1.0], [[0.0], [1.0]]))


class TestCsv:
    def test_round_trip(self, tmp_path):
        demo = tj.stroke_2d_demo(n=31)
        path = tmp_path / "demo.csv"
        write_demo_csv(demo, path)
        back = tj.read_demo_csv(path)
        np.testing.assert_array_equal(back.times, demo.times)
        np.testing.assert_array_equal(back.points, demo.points)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0,0\n")
        with pytest.raises(ParseError):
            tj.read_demo_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y\n0,0,0\n0.1,oops,0\n")
        with pytest.raises(ParseError) as err:
            tj.read_demo_csv(path)
        assert err.value.line == 3

    def test_load_demo_builtin_and_unknown(self):
        assert tj.load_demo("builtin:minjerk").d == 3
        with pytest.raises(InvalidInputError):
            tj.load_demo("builtin:nope")


class TestPreprocess:
    def test_pipeline_lifts_and_uniformizes(self):
        raw = tj.stroke_2d_demo(n=73)
        out = tj.preprocess(raw)
        assert out.d == 3
        assert out.n == tj.DEFAULT_RESAMPLE_N
        assert out.is_uniform()
        assert np.all(out.points[:, 2] == tj.DEFAULT_Z_HEIGHT)


class TestSampleBudget:
    """A demonstration's resampled and padded length is bounded before any
    work: over-budget values are only ever rejected, never run."""

    @staticmethod
    def forbid_work(monkeypatch):
        def no_work(*args, **kwargs):
            pytest.fail("preprocessing started on an over-budget demonstration")

        monkeypatch.setattr(tj, "resample", no_work)
        monkeypatch.setattr(tj, "_filtfilt", no_work)

    @pytest.mark.parametrize("options, field", [
        ({"resample_n": 10**9}, "resample_n"),
        ({"resample_n": tj.MAX_DEMO_SAMPLES + 1}, "resample_n"),
        ({"cutoff_hz": 1e-6}, "cutoff_hz"),
        ({"cutoff_hz": 5e-324}, "cutoff_hz"),
    ])
    def test_rejected_before_any_work(self, options, field, monkeypatch):
        raw = tj.load_demo("builtin:sshape")
        self.forbid_work(monkeypatch)
        with pytest.raises(InvalidInputError, match=field):
            tj.preprocess(raw, **options)

    def test_low_pass_checks_its_padding(self, monkeypatch):
        traj = tj.resample(tj.load_demo("builtin:sshape"), 500)
        self.forbid_work(monkeypatch)
        with pytest.raises(InvalidInputError, match="cutoff_hz"):
            tj.low_pass(traj, 1e-6)

    def test_budget_boundary(self):
        # at dt = 1 s and 1 Hz three time constants are under 3 samples, so
        # the padding is its floor of 3 per side
        assert tj._pad(1.0, 1.0) == 3
        tj.check_sample_budget(tj.MAX_DEMO_SAMPLES - 6, 1.0, 1.0)
        with pytest.raises(InvalidInputError, match="cutoff_hz"):
            tj.check_sample_budget(tj.MAX_DEMO_SAMPLES - 5, 1.0, 1.0)

    def test_canned_demonstrations_within_budget(self):
        for name in ("minjerk", "sine2", "sshape"):
            raw = tj.load_demo(f"builtin:{name}")
            dt = raw.duration / (tj.DEFAULT_RESAMPLE_N - 1)
            padded = tj.DEFAULT_RESAMPLE_N + 2 * tj._pad(tj.DEFAULT_CUTOFF_HZ, dt)
            assert padded < tj.MAX_DEMO_SAMPLES // 100
