import math

import numpy as np
import pytest

from safedmp import stt
from safedmp.errors import InvalidInputError, InvalidTubeError, TubeDomainError


class TestNormalizedError:
    def test_center_is_zero(self):
        assert stt.normalized_error(1.0, 0.0, 2.0) == 0.0

    def test_bounds_map_to_unit(self):
        assert stt.normalized_error(2.0, 0.0, 2.0) == 1.0
        assert stt.normalized_error(0.0, 0.0, 2.0) == -1.0

    def test_quoted_value(self):
        assert stt.normalized_error(1.5, 0.0, 2.0) == pytest.approx(0.5)

    def test_vector_bounds(self):
        e = stt.normalized_error(
            np.array([0.5, 1.0]), np.array([0.0, 0.0]), np.array([2.0, 4.0])
        )
        np.testing.assert_allclose(e, [-0.5, -0.5])

    def test_degenerate_tube(self):
        with pytest.raises(InvalidTubeError):
            stt.normalized_error(0.0, 1.0, 1.0)
        with pytest.raises(InvalidTubeError):
            stt.normalized_error(0.0, 1.0, 0.5)


class TestClipError:
    def test_interior_untouched(self):
        assert stt.clip_error(0.5, 0.99) == 0.5

    def test_clamps_both_sides(self):
        assert stt.clip_error(1.7, 0.99) == 0.99
        assert stt.clip_error(-3.0, 0.99) == -0.99

    def test_rejects_bad_limit(self):
        with pytest.raises(InvalidInputError):
            stt.clip_error(0.5, 1.5)


class TestLogError:
    def test_zero_at_center(self):
        assert stt.log_error(0.0) == 0.0

    def test_quoted_values(self):
        assert stt.log_error(0.5) == pytest.approx(math.log(3.0))
        assert stt.log_error(0.99) == pytest.approx(math.log(199.0))

    def test_odd(self):
        for e in (0.1, 0.5, 0.9):
            assert stt.log_error(-e) == pytest.approx(-stt.log_error(e), abs=1e-15)

    def test_round_trip_with_inverse(self):
        grid = np.linspace(-0.99, 0.99, 1001)
        back = stt.inverse_log_error(stt.log_error(grid))
        np.testing.assert_allclose(back, grid, atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(TubeDomainError):
            stt.log_error(1.0)


class TestGainXi:
    def test_center_minimum(self):
        assert stt.gain_xi(0.0, 2.0) == pytest.approx(2.0)

    def test_quoted_value(self):
        assert stt.gain_xi(0.5, 2.0) == pytest.approx(8.0 / 3.0)

    def test_even_symmetry(self):
        assert stt.gain_xi(0.3, 1.0) == stt.gain_xi(-0.3, 1.0)

    def test_strictly_increasing_in_abs_e(self):
        grid = np.linspace(0.0, 0.99, 500)
        vals = stt.gain_xi(grid, 1.0)
        assert np.all(np.diff(vals) > 0)

    def test_domain_error(self):
        with pytest.raises(TubeDomainError):
            stt.gain_xi(1.0, 1.0)


class TestControl:
    def test_zero_at_center(self):
        assert stt.stt_control(1.0, 0.0, 2.0, gain=1.0) == 0.0

    def test_quoted_composition(self):
        u = stt.stt_control(1.5, 0.0, 2.0, gain=1.0)
        assert u == pytest.approx(-(8.0 / 3.0) * math.log(3.0), rel=1e-12)

    def test_odd_around_center(self):
        up = stt.stt_control(1.0 + 0.3, 0.0, 2.0, gain=1.0)
        down = stt.stt_control(1.0 - 0.3, 0.0, 2.0, gain=1.0)
        assert up == pytest.approx(-down, abs=1e-15)

    def test_points_toward_center_everywhere(self):
        xs = np.linspace(0.001, 1.999, 999)
        u = stt.stt_control(xs, 0.0, 2.0, gain=0.7)
        assert np.all(u * (xs - 1.0) <= 0.0)

    def test_magnitude_monotone_and_bounded(self):
        grid = np.linspace(0.0, 0.99, 10_000)
        xs = 1.0 + grid  # center 1.0, half-width 1.0
        u = np.abs(stt.stt_control(xs, 0.0, 2.0, gain=1.0))
        assert np.all(np.diff(u[1:]) > 0)
        bound = stt.control_magnitude_bound(1.0, 2.0, 0.99)
        assert np.all(u <= bound + 1e-12)

    def test_closed_loop_invariance_1d(self):
        # forward-Euler on xdot = u(x); stays strictly inside for 1e5 steps
        gain, lo, hi = 0.002, -1.0, 1.0
        dt = 0.01
        x = 0.95
        for _ in range(100_000):
            u = stt.stt_control(x, lo, hi, gain=gain)
            assert abs(u) * dt < min(hi - x, x - lo)
            x += u * dt
            assert lo < x < hi

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(InvalidInputError):
            stt.stt_control(0.5, 0.0, 1.0, gain=0.0)
