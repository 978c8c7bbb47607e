import numpy as np
import pytest

from hapbeam.array_model import (
    AngleBox,
    ArrayConfig,
    analog_beamformer_at,
    certify_users,
    detune_q_matrix,
    detuning,
    exact_gain_loss,
    gain_loss_quadratic,
    jacobian,
    spectral_bound_l2,
    steering_vector,
    taper_constants,
)
from hapbeam.errors import ConfigError, OutOfModelError
from hapbeam.geometry import (
    EulerZYX,
    WorldGeometry,
    euler_to_rotation,
    los_to_body_angles,
    rotation_exp,
)


def cfg12(n_rf=10):
    return ArrayConfig(12, 12, 0.005, 0.005, 0.01, n_rf)


class TestSteering:
    def test_two_by_two_broadside_x(self):
        cfg = ArrayConfig(2, 2, 0.005, 0.005, 0.01, 1)
        v = steering_vector(cfg, np.pi / 2, 0.0)
        # m fastest: (m,n) = (0,0),(1,0),(0,1),(1,1); phase = pi * m
        np.testing.assert_allclose(np.angle(v), [0.0, np.pi, 0.0, np.pi], atol=1e-12)
        np.testing.assert_allclose(np.abs(v), 0.5, atol=1e-15)

    def test_constant_modulus(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mx, my = rng.integers(1, 16, 2)
            cfg = ArrayConfig(int(mx), int(my), 0.005, 0.005, 0.01, 1)
            v = steering_vector(cfg, rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi))
            M = cfg.num_elements
            assert np.max(np.abs(np.abs(v) ** 2 - 1.0 / M)) <= 1e-15

    def test_phase_increments_follow_direction_cosines(self):
        cfg = ArrayConfig(4, 3, 0.004, 0.006, 0.01, 1)
        th, ph = 1.1, 0.7
        v = steering_vector(cfg, th, ph) * np.sqrt(cfg.num_elements)
        sx = np.sin(th) * np.cos(ph)
        sy = np.sin(th) * np.sin(ph)
        k0 = 2 * np.pi / cfg.wavelength
        grid = v.reshape(cfg.m_y, cfg.m_x)
        # ratio along m advances by exp(j k0 d_x sx), along n by exp(j k0 d_y sy)
        np.testing.assert_allclose(
            grid[:, 1:] / grid[:, :-1], np.exp(1j * k0 * cfg.d_x * sx), atol=1e-12
        )
        np.testing.assert_allclose(
            grid[1:, :] / grid[:-1, :], np.exp(1j * k0 * cfg.d_y * sy), atol=1e-12
        )


class TestAnalogSchedule:
    def geom(self, k=3):
        ang = np.linspace(0, 2 * np.pi, k, endpoint=False)
        users = np.stack([8e3 * np.cos(ang), 8e3 * np.sin(ang), np.zeros(k)], axis=1)
        return WorldGeometry.build([0, 0, 20e3], users)

    def test_stacking_shape_and_modulus(self):
        geom = self.geom(3)
        cfg = ArrayConfig(8, 8, 0.005, 0.005, 0.01, 3)
        A = analog_beamformer_at(cfg, geom, EulerZYX(0.05, -0.02, 0.01))
        assert A.shape == (64, 3)
        assert np.max(np.abs(np.abs(A) ** 2 - 1 / 64)) <= 1e-15

    @pytest.mark.parametrize("pitch_deg", [0.0, 90.0, -90.0])
    def test_batched_angles_and_steering_match_per_user_loop(self, pitch_deg):
        # reference: the one-user formulas, one user at a time
        def angles_ref(e, R):
            u = R.T @ e
            theta = float(np.arccos(np.clip(u[2], -1.0, 1.0)))
            phi = float(np.arctan2(u[1], u[0]))
            return theta, (np.pi if phi == -np.pi else phi)

        def steering_ref(cfg, theta, phi):
            sx = np.sin(theta) * np.cos(phi)
            sy = np.sin(theta) * np.sin(phi)
            k0 = 2.0 * np.pi / cfg.wavelength
            px = k0 * cfg.d_x * sx * np.arange(cfg.m_x)
            py = k0 * cfg.d_y * sy * np.arange(cfg.m_y)
            phase = py[:, None] + px[None, :]
            return np.exp(1j * phase).ravel() / np.sqrt(cfg.num_elements)

        rng = np.random.default_rng(53)
        mounting = euler_to_rotation(EulerZYX(0.0, np.deg2rad(pitch_deg), 0.0))
        for _ in range(100):
            K = int(rng.integers(1, 13))
            geom = WorldGeometry.build(
                [0, 0, 20e3],
                np.column_stack([rng.uniform(-20e3, 20e3, (K, 2)), np.zeros(K)]),
            )
            cfg = ArrayConfig(
                int(rng.integers(1, 17)), int(rng.integers(1, 17)),
                0.005 * rng.uniform(0.6, 1.4), 0.005 * rng.uniform(0.6, 1.4), 0.01, K,
            )
            att = EulerZYX(*rng.uniform(-np.pi, np.pi, 3))
            R = euler_to_rotation(att) @ mounting
            theta, phi = los_to_body_angles(geom.los_unit, R)
            ref = [angles_ref(e, R) for e in geom.los_unit]
            assert np.array_equal(theta, [t for t, _ in ref])
            assert np.array_equal(phi, [p for _, p in ref])
            assert [los_to_body_angles(e, R) for e in geom.los_unit] == ref
            want = np.column_stack([steering_ref(cfg, t, p) for t, p in ref])
            assert np.array_equal(steering_vector(cfg, theta, phi), want)
            A = analog_beamformer_at(cfg, geom, R)
            assert np.array_equal(A, want) and A.flags.c_contiguous

    def test_chain_count_mismatch_rejected(self):
        geom = self.geom(3)
        cfg = ArrayConfig(8, 8, 0.005, 0.005, 0.01, 4)
        with pytest.raises(ConfigError):
            analog_beamformer_at(cfg, geom, EulerZYX.level())


class TestDetuning:
    def test_direction_cosine_scaling(self):
        # flat-panel broadside-ish operating point: a yaw tweak moves s_y
        cfg = ArrayConfig(8, 8, 0.005, 0.005, 0.01, 1)
        e = np.array([0.0, 0.0, -1.0])
        a_hat = EulerZYX(0.0, 0.15, 0.0)
        R = euler_to_rotation(a_hat)
        ang = los_to_body_angles(e, R)
        dw = np.array([0.0, 0.04, 0.0])
        xi = detuning(cfg, ang, dw, e, a_hat)
        # independent path: u' = exp(-hat(dw)) @ u
        u = R.T @ e
        u2 = rotation_exp(-dw) @ u
        want = np.array([0.5 * (u2[0] - u[0]), 0.5 * (u2[1] - u[1])])
        np.testing.assert_allclose(xi, want, atol=1e-12)
        # half-wavelength spacing halves the direction-cosine change
        assert xi[0] == pytest.approx(0.5 * (u2[0] - u[0]), abs=1e-12)

    def test_zero_perturbation_zero_detuning(self):
        cfg = cfg12(1)
        e = np.array([0.3, -0.2, -0.9])
        e /= np.linalg.norm(e)
        a_hat = EulerZYX(0.2, 0.1, -0.05)
        ang = los_to_body_angles(e, euler_to_rotation(a_hat))
        xi = detuning(cfg, ang, np.zeros(3), e, a_hat)
        np.testing.assert_allclose(xi, 0.0, atol=1e-14)

    def test_jacobian_matches_closed_form(self):
        # the closed-form Jacobian against central differences of detuning
        cfg = ArrayConfig(8, 8, 0.004, 0.006, 0.01, 1)
        rng = np.random.default_rng(9)
        step = 1e-6
        for _ in range(50):
            e = rng.normal(size=3)
            e /= np.linalg.norm(e)
            a_hat = EulerZYX(*rng.uniform(-0.5, 0.5, 3))
            ang = los_to_body_angles(e, euler_to_rotation(a_hat))
            want = np.column_stack([
                (detuning(cfg, ang, step * ax, e, a_hat)
                 - detuning(cfg, ang, -step * ax, e, a_hat)) / (2 * step)
                for ax in np.eye(3)
            ])
            np.testing.assert_allclose(jacobian(cfg, e, a_hat), want, atol=1e-8)

    def test_jacobian_yaw_insensitive_at_nadir(self):
        cfg = cfg12(1)
        J = jacobian(cfg, [0.0, 0.0, -1.0], EulerZYX.level())
        np.testing.assert_allclose(J[:, 2], 0.0, atol=1e-6)

    def test_first_order_remainder_bound(self):
        cfg = cfg12(1)
        rng = np.random.default_rng(17)
        e = np.array([0.2, 0.1, -0.97])
        e /= np.linalg.norm(e)
        a_hat = EulerZYX(0.1, -0.05, 0.02)
        ang = los_to_body_angles(e, euler_to_rotation(a_hat))
        J = jacobian(cfg, e, a_hat)
        for _ in range(1000):
            dw = rng.normal(size=3)
            dw *= rng.uniform(0, 1e-2) / np.linalg.norm(dw)
            err = np.linalg.norm(detuning(cfg, ang, dw, e, a_hat) - J @ dw)
            assert err <= 10.0 * np.linalg.norm(dw) ** 2


class TestGainLoss:
    def test_quadratic_curvatures(self):
        cfg = cfg12(1)
        cx, cy = taper_constants(cfg)
        assert cx == pytest.approx(np.pi**2 * 143 / 3)
        assert gain_loss_quadratic(cfg, [1e-3, 0.0]) == pytest.approx(4.7045e-4, rel=1e-3)

    def test_exact_half_power_point(self):
        cfg = ArrayConfig(2, 2, 0.005, 0.005, 0.01, 1)
        assert exact_gain_loss(cfg, [0.25, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_exact_zero_at_zero(self):
        cfg = cfg12(1)
        assert exact_gain_loss(cfg, [0.0, 0.0]) == 0.0

    def test_out_of_model_beyond_first_null(self):
        cfg = cfg12(1)
        with pytest.raises(OutOfModelError):
            exact_gain_loss(cfg, [1.0 / 12, 0.0])

    def test_quadratic_tracks_exact_in_main_lobe(self):
        rng = np.random.default_rng(23)
        for cfg in (ArrayConfig(8, 8, 0.005, 0.005, 0.01, 1), cfg12(1)):
            lim = 0.1 / max(cfg.m_x, cfg.m_y)
            for _ in range(300):
                xi = rng.uniform(-lim, lim, 2)
                exact = exact_gain_loss(cfg, xi)
                quad = gain_loss_quadratic(cfg, xi)
                assert abs(quad - exact) <= 0.05 * max(exact, 1e-12)


class TestCertificates:
    def test_q_matrix_psd_and_rayleigh(self):
        cfg = cfg12(1)
        rng = np.random.default_rng(41)
        Q = detune_q_matrix(cfg, np.pi - 0.2, 0.3)
        w = np.linalg.eigvalsh(Q)
        assert w[0] >= -1e-9 * w[-1]
        lam = w[-1]
        for _ in range(200):
            dw = rng.normal(size=3)
            assert dw @ Q @ dw <= lam * (dw @ dw) * (1 + 1e-12)

    def test_one_point_bound_is_q_eigmax(self):
        # square array, and a non-square one with d_x != d_y
        rng = np.random.default_rng(37)
        points = [(0.0, 0.0), (0.0, 1.2)] + [
            (rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)) for _ in range(200)
        ]
        for cfg in (cfg12(1), ArrayConfig(8, 5, 0.004, 0.006, 0.01, 1)):
            for th, ph in points:
                l2 = spectral_bound_l2(cfg, AngleBox.around(th, ph, 0.0))
                want = np.linalg.eigvalsh(detune_q_matrix(cfg, th, ph))[-1]
                assert l2 == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "cfg",
        [
            ArrayConfig(16, 8, 0.005, 0.005, 0.01, 1),
            ArrayConfig(12, 8, 0.005, 0.005, 0.01, 1),
            ArrayConfig(8, 5, 0.004, 0.006, 0.01, 1),
        ],
        ids=["16x8", "12x8", "8x5"],
    )
    def test_closed_form_bound_sound_off_grid(self, cfg):
        # uniform random interior points, not lattice points, of 3 deg boxes
        # straddling theta = 0, phi = +-pi and the extremes of sin^2(theta),
        # sin^2(phi) and |sin(2 phi)|, and of wider random boxes
        rng = np.random.default_rng(47)
        centers = [(0.0, 0.3), (0.01, -2.0), (np.pi / 2, 0.0), (0.4, np.pi),
                   (1.1, -np.pi), (np.pi, 1.0), (np.pi / 2, np.pi / 4),
                   (0.6, np.pi / 2), (0.6, -np.pi / 2), (np.pi / 2, -3 * np.pi / 4)]
        half = [np.deg2rad(3.0)] * len(centers)
        for _ in range(14):
            centers.append((rng.uniform(0, np.pi), rng.uniform(-np.pi, np.pi)))
            half.append(rng.uniform(0.0, 0.5))
        th0, ph0 = np.array(centers).T
        l2 = spectral_bound_l2(cfg, AngleBox.around(th0, ph0, np.array(half)))
        cx, cy = taper_constants(cfg)
        cap = max(cx * (cfg.d_x / cfg.wavelength) ** 2, cy * (cfg.d_y / cfg.wavelength) ** 2)
        assert np.all(l2 <= cap)
        # the bound is not the trivial cap where the curvature is lower
        assert l2[2] < 0.9 * cap
        rtol = 64 * np.finfo(float).eps
        for k, ((t, p), h) in enumerate(zip(centers, half)):
            assert l2[k] == spectral_bound_l2(cfg, AngleBox.around(t, p, h))
            th = rng.uniform(t - h, t + h, 500)
            ph = rng.uniform(p - h, p + h, 500)
            Q = np.stack([detune_q_matrix(cfg, a, b) for a, b in zip(th, ph)])
            assert np.all(np.linalg.eigvalsh(Q)[:, -1] <= l2[k] * (1 + rtol))

    def test_spectral_bound_dominates_interior_points(self):
        cfg = cfg12(1)
        box = AngleBox.around(np.pi - 0.15, 0.4, np.deg2rad(3.0))
        l2 = spectral_bound_l2(cfg, box)
        rng = np.random.default_rng(43)
        grid_t = np.linspace(box.theta_lo, box.theta_hi, 33)
        grid_p = np.linspace(box.phi_lo, box.phi_hi, 33)
        for _ in range(100):
            th = rng.choice(grid_t)
            ph = rng.choice(grid_p)
            lam = np.linalg.eigvalsh(detune_q_matrix(cfg, th, ph))[-1]
            assert lam <= l2 * (1 + 1e-9)

    def test_certify_threshold(self):
        mask = certify_users([1.0, 4.0, 100.0], delta_omega=0.1, epsilon=0.05)
        np.testing.assert_array_equal(mask, [True, True, False])
