import math

import numpy as np
import pytest

from safedmp import safe_exec, stt
from safedmp.errors import InvalidInputError

import stt_oracle as oracle
from stt_oracle import InvalidTubeError, TubeDomainError


class TestNormalizedError:
    def test_center_is_zero(self):
        assert oracle.normalized_error(1.0, 0.0, 2.0) == 0.0

    def test_bounds_map_to_unit(self):
        assert oracle.normalized_error(2.0, 0.0, 2.0) == 1.0
        assert oracle.normalized_error(0.0, 0.0, 2.0) == -1.0

    def test_quoted_value(self):
        assert oracle.normalized_error(1.5, 0.0, 2.0) == pytest.approx(0.5)

    def test_vector_bounds(self):
        e = oracle.normalized_error(
            np.array([0.5, 1.0]), np.array([0.0, 0.0]), np.array([2.0, 4.0])
        )
        np.testing.assert_allclose(e, [-0.5, -0.5])

    def test_degenerate_tube(self):
        with pytest.raises(InvalidTubeError):
            oracle.normalized_error(0.0, 1.0, 1.0)
        with pytest.raises(InvalidTubeError):
            oracle.normalized_error(0.0, 1.0, 0.5)


class TestClipError:
    def test_interior_untouched(self):
        assert oracle.clip_error(0.5, 0.99) == 0.5

    def test_clamps_both_sides(self):
        assert oracle.clip_error(1.7, 0.99) == 0.99
        assert oracle.clip_error(-3.0, 0.99) == -0.99

    def test_rejects_bad_limit(self):
        with pytest.raises(InvalidInputError):
            oracle.clip_error(0.5, 1.5)


class TestLogError:
    def test_zero_at_center(self):
        assert oracle.log_error(0.0) == 0.0

    def test_quoted_values(self):
        assert oracle.log_error(0.5) == pytest.approx(math.log(3.0))
        assert oracle.log_error(0.99) == pytest.approx(math.log(199.0))

    def test_odd(self):
        for e in (0.1, 0.5, 0.9):
            assert oracle.log_error(-e) == pytest.approx(-oracle.log_error(e), abs=1e-15)

    def test_round_trip_with_inverse(self):
        grid = np.linspace(-0.99, 0.99, 1001)
        back = oracle.inverse_log_error(oracle.log_error(grid))
        np.testing.assert_allclose(back, grid, atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(TubeDomainError):
            oracle.log_error(1.0)


class TestGainXi:
    def test_center_minimum(self):
        assert oracle.gain_xi(0.0, 2.0) == pytest.approx(2.0)

    def test_quoted_value(self):
        assert oracle.gain_xi(0.5, 2.0) == pytest.approx(8.0 / 3.0)

    def test_even_symmetry(self):
        assert oracle.gain_xi(0.3, 1.0) == oracle.gain_xi(-0.3, 1.0)

    def test_strictly_increasing_in_abs_e(self):
        grid = np.linspace(0.0, 0.99, 500)
        vals = oracle.gain_xi(grid, 1.0)
        assert np.all(np.diff(vals) > 0)

    def test_domain_error(self):
        with pytest.raises(TubeDomainError):
            oracle.gain_xi(1.0, 1.0)


class TestControl:
    def test_zero_at_center(self):
        assert oracle.stt_control(1.0, 0.0, 2.0, gain=1.0) == 0.0

    def test_quoted_composition(self):
        u = oracle.stt_control(1.5, 0.0, 2.0, gain=1.0)
        assert u == pytest.approx(-(8.0 / 3.0) * math.log(3.0), rel=1e-12)

    def test_odd_around_center(self):
        up = oracle.stt_control(1.0 + 0.3, 0.0, 2.0, gain=1.0)
        down = oracle.stt_control(1.0 - 0.3, 0.0, 2.0, gain=1.0)
        assert up == pytest.approx(-down, abs=1e-15)

    def test_points_toward_center_everywhere(self):
        xs = np.linspace(0.001, 1.999, 999)
        u = oracle.stt_control(xs, 0.0, 2.0, gain=0.7)
        assert np.all(u * (xs - 1.0) <= 0.0)

    def test_magnitude_monotone_and_bounded(self):
        grid = np.linspace(0.0, 0.99, 10_000)
        xs = 1.0 + grid  # center 1.0, half-width 1.0
        u = np.abs(oracle.stt_control(xs, 0.0, 2.0, gain=1.0))
        assert np.all(np.diff(u[1:]) > 0)
        bound = oracle.control_magnitude_bound(1.0, 2.0, 0.99)
        assert np.all(u <= bound + 1e-12)

    def test_closed_loop_invariance_1d(self):
        # forward-Euler on xdot = u(x); stays strictly inside for 1e5 steps
        gain, lo, hi = 0.002, -1.0, 1.0
        dt = 0.01
        x = 0.95
        for _ in range(100_000):
            u = oracle.stt_control(x, lo, hi, gain=gain)
            assert abs(u) * dt < min(hi - x, x - lo)
            x += u * dt
            assert lo < x < hi

    def test_rejects_nonpositive_gain(self):
        with pytest.raises(InvalidInputError):
            oracle.stt_control(0.5, 0.0, 1.0, gain=0.0)


def engine_law(x, rho_l, rho_u, gain, clip_limit=0.99):
    """``safe_exec.tube_correction``'s tube term for one coordinate."""
    params = safe_exec.SafetyParams(rho_u - rho_l, gain, clip_limit)
    return safe_exec.tube_correction([x], [0.5 * (rho_l + rho_u)], [0.0], 0.0, params)[0][0]


def assert_same_bits(actual, expected):
    assert np.asarray(actual).tobytes() == np.asarray(expected, dtype=float).tobytes()


class TestArrayForm:
    """``safedmp.stt.stt_control`` is the engine's law, element by element."""

    def test_scalar(self):
        u = stt.stt_control(0.3, -1.0, 1.0, gain=0.7)
        assert np.ndim(u) == 0
        assert_same_bits(u, engine_law(0.3, -1.0, 1.0, 0.7))

    def test_array_x(self):
        xs = np.linspace(-0.9, 1.1, 7).reshape(7, 1)
        u = stt.stt_control(xs, -1.0, 1.0, gain=0.7, clip_limit=0.9)
        assert u.shape == (7, 1)
        assert_same_bits(u, [[engine_law(x, -1.0, 1.0, 0.7, 0.9)] for x in xs[:, 0]])

    def test_array_bounds_broadcast(self):
        x = np.array([0.1, -0.2, 0.35])
        lo = np.array([[-1.0], [0.0]])
        hi = np.array([[1.0, 0.5, 2.0], [0.4, 0.3, 0.36]])
        u = stt.stt_control(x, lo, hi, gain=2.0)
        expected = [
            [engine_law(x[j], lo[i, 0], hi[i, j], 2.0) for j in range(3)]
            for i in range(2)
        ]
        assert_same_bits(u, expected)

    def test_center_is_negative_zero(self):
        u = stt.stt_control([1.0, -3.0], [0.0, -4.0], [2.0, -2.0], gain=1.0)
        assert_same_bits(u, [-0.0, -0.0])
        assert_same_bits(u, [engine_law(1.0, 0.0, 2.0, 1.0), engine_law(-3.0, -4.0, -2.0, 1.0)])

    def test_clip_saturated(self):
        xs = np.array([-50.0, -1.0, -0.995, 0.995, 1.0, 50.0])
        u = stt.stt_control(xs, -1.0, 1.0, gain=1.0)
        assert_same_bits(u, [engine_law(x, -1.0, 1.0, 1.0) for x in xs])
        bound = oracle.control_magnitude_bound(1.0, 2.0, 0.99)
        np.testing.assert_allclose(np.abs(u), bound, rtol=1e-12)
        assert np.all(np.sign(u) == -np.sign(xs))

    def test_agrees_with_oracle(self):
        rng = np.random.default_rng(3)
        lo = rng.normal(size=200)
        hi = lo + rng.uniform(1e-3, 2.0, size=200)
        xs = lo + rng.uniform(-0.5, 1.5, size=200) * (hi - lo)
        u = stt.stt_control(xs, lo, hi, gain=0.3)
        np.testing.assert_allclose(u, oracle.stt_control(xs, lo, hi, gain=0.3), rtol=1e-12)

    @pytest.mark.parametrize("gain", [0.0, -1.0])
    def test_rejects_nonpositive_gain(self, gain):
        with pytest.raises(InvalidInputError):
            stt.stt_control(0.5, 0.0, 1.0, gain=gain)
