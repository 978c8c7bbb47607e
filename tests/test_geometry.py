import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapbeam.errors import AmbiguousAxisError, DegenerateAttitudeError
from hapbeam.geometry import (
    EulerZYX,
    WorldGeometry,
    ensure_rotation,
    euler_to_rotation,
    los_to_body_angles,
    rotation_exp,
    rotation_log_vee,
    rotation_to_euler,
    wrap_pi,
)


def rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


class TestEulerRotation:
    def test_yaw_quarter_turn_maps_axes(self):
        R = euler_to_rotation(EulerZYX(np.pi / 2, 0.0, 0.0))
        np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-15)
        np.testing.assert_allclose(R @ [0, 1, 0], [-1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(R @ [0, 0, 1], [0, 0, 1], atol=1e-15)

    def test_factor_order_zyx(self):
        att = EulerZYX(0.31, -0.52, 0.87)
        R = euler_to_rotation(att)
        np.testing.assert_allclose(
            R, rot_z(att.yaw) @ rot_y(att.pitch) @ rot_x(att.roll), atol=1e-15
        )

    def test_round_trip_example(self):
        att = EulerZYX(0.1, 0.2, 0.3)
        back = rotation_to_euler(euler_to_rotation(att))
        np.testing.assert_allclose(back.as_array(), att.as_array(), atol=1e-10)

    def test_rotation_is_orthonormal(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            y, r = rng.uniform(-np.pi, np.pi, 2)
            p = rng.uniform(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3)
            R = euler_to_rotation(EulerZYX(y, p, r))
            ensure_rotation(R)

    def test_gimbal_lock_guard(self):
        with pytest.raises(DegenerateAttitudeError):
            rotation_to_euler(euler_to_rotation(EulerZYX(0.3, np.pi / 2, 0.1)))
        # just inside the guard is fine
        rotation_to_euler(euler_to_rotation(EulerZYX(0.3, np.pi / 2 - 1e-3, 0.1)))

    def test_wrap_seam_matches_wrap_pi(self):
        # half turn about y with signed zeros: atan2(-0.0, -1.0) = -pi for
        # both yaw and roll, which (-pi, pi] maps to +pi as wrap_pi does
        R = np.array([[-1.0, 0.0, 0.0], [-0.0, 1.0, 0.0], [0.0, -0.0, -1.0]])
        back = rotation_to_euler(R)
        assert (back.yaw, back.roll) == (float(wrap_pi(-np.pi)),) * 2 == (np.pi,) * 2

    @given(
        st.floats(-np.pi + 1e-6, np.pi - 1e-6),
        st.floats(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3),
        st.floats(-np.pi + 1e-6, np.pi - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, yaw, pitch, roll):
        att = EulerZYX(yaw, pitch, roll)
        back = rotation_to_euler(euler_to_rotation(att))
        np.testing.assert_allclose(back.as_array(), att.as_array(), atol=1e-8)


class TestLogVee:
    def test_pure_yaw_increment(self):
        dω = rotation_log_vee(np.eye(3), rot_z(0.2))
        np.testing.assert_allclose(dω, [0.0, 0.0, 0.2], atol=1e-12)

    def test_relative_roll_increment(self):
        R_hat = rot_z(0.1)
        R = R_hat @ rot_x(0.05)
        np.testing.assert_allclose(
            rotation_log_vee(R_hat, R), [0.05, 0.0, 0.0], atol=1e-12
        )

    def test_identity_gives_zero(self):
        R = euler_to_rotation(EulerZYX(0.4, 0.1, -0.2))
        np.testing.assert_allclose(rotation_log_vee(R, R), np.zeros(3), atol=1e-15)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            R_hat = euler_to_rotation(
                EulerZYX(*rng.uniform(-1.0, 1.0, 3))
            )
            ω = rng.normal(size=3)
            ω *= rng.uniform(1e-7, 3.0) / np.linalg.norm(ω)
            got = rotation_log_vee(R_hat, R_hat @ rotation_exp(ω))
            np.testing.assert_allclose(got, ω, atol=1e-8)

    def test_small_angle_series_branch(self):
        ω = np.array([3e-7, -2e-7, 1e-7])
        got = rotation_log_vee(np.eye(3), rotation_exp(ω))
        np.testing.assert_allclose(got, ω, rtol=0, atol=1e-15)

    def test_near_pi_raises_with_angle(self):
        R = rotation_exp(np.array([0.0, 0.0, np.pi - 1e-12]))
        with pytest.raises(AmbiguousAxisError) as ei:
            rotation_log_vee(np.eye(3), R)
        assert ei.value.angle == pytest.approx(np.pi, abs=1e-6)


class TestWrap:
    def test_wrap_seam(self):
        a = np.deg2rad(179.0)
        b = np.deg2rad(-179.0)
        assert np.rad2deg(wrap_pi(a - b)) == pytest.approx(-2.0, abs=1e-12)
        assert abs(np.rad2deg(wrap_pi(a - b))) == pytest.approx(2.0, abs=1e-12)

    def test_half_open_interval(self):
        assert wrap_pi(np.pi) == pytest.approx(np.pi)
        assert wrap_pi(-np.pi) == pytest.approx(np.pi)
        assert wrap_pi(3 * np.pi) == pytest.approx(np.pi)

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=300, deadline=None)
    def test_wrap_idempotent_and_congruent(self, x):
        w = float(wrap_pi(x))
        assert -np.pi < w <= np.pi + 1e-15
        assert float(wrap_pi(w)) == pytest.approx(w, abs=1e-12)
        # same angle modulo 2 pi
        assert np.cos(w) == pytest.approx(np.cos(x), abs=1e-9)
        assert np.sin(w) == pytest.approx(np.sin(x), abs=1e-9)


class TestBodyAngles:
    def test_nadir_level(self):
        θ, φ = los_to_body_angles([0.0, 0.0, -1.0], np.eye(3))
        assert θ == pytest.approx(np.pi, abs=1e-12)
        assert φ == 0.0

    def test_pitch_offsets_nadir(self):
        R = euler_to_rotation(EulerZYX(0.0, 0.1, 0.0))
        θ, φ = los_to_body_angles([0.0, 0.0, -1.0], R)
        # u = Ry(-0.1) @ (0,0,-1) = (sin 0.1, 0, -cos 0.1)
        assert θ == pytest.approx(np.pi - 0.1, abs=1e-12)
        assert φ == pytest.approx(0.0, abs=1e-12)

    def test_angles_reproduce_direction(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            R = euler_to_rotation(EulerZYX(*rng.uniform(-0.8, 0.8, 3)))
            θ, φ = los_to_body_angles(e, R)
            u = np.array(
                [np.sin(θ) * np.cos(φ), np.sin(θ) * np.sin(φ), np.cos(θ)]
            )
            np.testing.assert_allclose(u, R.T @ e, atol=1e-12)


class TestWorldGeometry:
    def test_build_basic(self):
        g = WorldGeometry.build([0, 0, 20e3], [[0, 0, 0], [3e3, 4e3, 0]])
        assert g.num_users == 2
        np.testing.assert_allclose(g.distance[0], 20e3)
        np.testing.assert_allclose(g.distance[1], np.hypot(5e3, 20e3))
        np.testing.assert_allclose(g.los_unit[0], [0, 0, -1.0], atol=1e-15)
        assert np.all(g.los_unit[:, 2] < 0)
        np.testing.assert_allclose(np.linalg.norm(g.los_unit, axis=1), 1.0)

    def test_user_above_platform_rejected(self):
        with pytest.raises(ValueError):
            WorldGeometry.build([0, 0, 20e3], [[0, 0, 25e3]])

    def test_coincident_user_rejected(self):
        with pytest.raises(ValueError):
            WorldGeometry.build([0, 0, 0.0], [[0, 0, 0.0]])
