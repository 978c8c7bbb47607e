import numpy as np
import pytest

from hapbeam.array_model import ArrayConfig, analog_beamformer_at
from hapbeam.channel import (
    ChannelParams,
    effective_channel,
    fspl_gain,
    sinr_and_rates,
    synthesize_channel,
)
from hapbeam.geometry import EulerZYX, WorldGeometry, euler_to_rotation


def small_scene(k=3, mx=8, my=8):
    ang = np.linspace(0.3, 2 * np.pi, k, endpoint=False)
    r = np.linspace(2e3, 9e3, k)
    users = np.stack([r * np.cos(ang), r * np.sin(ang), np.zeros(k)], axis=1)
    geom = WorldGeometry.build([0, 0, 20e3], users)
    cfg = ArrayConfig(mx, my, 0.005, 0.005, 0.01, k)
    return cfg, geom


class TestSynthesis:
    def test_matched_beam_gain_pure_los(self):
        cfg, geom = small_scene()
        att = EulerZYX(0.1, -0.04, 0.02)
        params = ChannelParams.build(np.inf, 2.5, 1.0, 1.0, geom.num_users)
        H = synthesize_channel(cfg, geom, att, params, np.random.default_rng(0))
        A = analog_beamformer_at(cfg, geom, att)
        M = cfg.num_elements
        for k in range(geom.num_users):
            got = abs(np.vdot(H[:, k], A[:, k]))
            assert got == pytest.approx(np.sqrt(2.5 * M), abs=1e-9)

    def test_pure_los_norm_exact(self):
        cfg, geom = small_scene()
        params = ChannelParams.build(np.inf, 1.7, 1.0, 1.0, geom.num_users)
        H = synthesize_channel(
            cfg, geom, EulerZYX.level(), params, np.random.default_rng(1)
        )
        np.testing.assert_allclose(
            np.linalg.norm(H, axis=0) ** 2, 1.7 * cfg.num_elements, rtol=1e-12
        )

    def test_large_kappa_approaches_pure_los(self):
        cfg, geom = small_scene()
        att = EulerZYX(0.02, 0.01, 0.0)
        p_inf = ChannelParams.build(np.inf, 1.0, 1.0, 1.0, geom.num_users)
        p_big = ChannelParams.build(1e12, 1.0, 1.0, 1.0, geom.num_users)
        H_inf = synthesize_channel(cfg, geom, att, p_inf, np.random.default_rng(7))
        H_big = synthesize_channel(cfg, geom, att, p_big, np.random.default_rng(7))
        rel = np.linalg.norm(H_big - H_inf) / np.linalg.norm(H_inf)
        assert rel <= 1e-5

    def test_rayleigh_energy_calibration(self):
        # kappa = 0: E ||h||^2 = M beta
        cfg, geom = small_scene(k=1, mx=6, my=6)
        params = ChannelParams.build(0.0, 3.0, 1.0, 1.0, 1)
        rng = np.random.default_rng(11)
        acc = 0.0
        n = 4000
        for _ in range(n):
            H = synthesize_channel(cfg, geom, EulerZYX.level(), params, rng)
            acc += np.linalg.norm(H) ** 2
        assert acc / n == pytest.approx(3.0 * cfg.num_elements, rel=0.03)

    def test_rician_energy_calibration(self):
        cfg, geom = small_scene(k=1, mx=6, my=6)
        params = ChannelParams.build(1.0, 2.0, 1.0, 1.0, 1)
        rng = np.random.default_rng(13)
        acc = 0.0
        n = 4000
        for _ in range(n):
            H = synthesize_channel(cfg, geom, EulerZYX.level(), params, rng)
            acc += np.linalg.norm(H) ** 2
        assert acc / n == pytest.approx(2.0 * cfg.num_elements, rel=0.03)

    def test_seed_determinism(self):
        cfg, geom = small_scene()
        params = ChannelParams.build(10.0, 1.0, 1.0, 1.0, geom.num_users)
        H1 = synthesize_channel(
            cfg, geom, EulerZYX.level(), params, np.random.default_rng(42)
        )
        H2 = synthesize_channel(
            cfg, geom, EulerZYX.level(), params, np.random.default_rng(42)
        )
        np.testing.assert_array_equal(H1, H2)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ChannelParams.build(-1.0, 1.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            ChannelParams.build(1.0, 0.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            ChannelParams.build(1.0, 1.0, -1e-9, 1.0, 2)


class TestAttitudeForms:
    def test_euler_and_rotation_give_same_bytes(self):
        cfg, geom = small_scene()
        att = EulerZYX(0.1, -0.04, 0.02)
        R = euler_to_rotation(att)
        params = ChannelParams.build(10.0, 2.5, 1.0, 1.0, geom.num_users)
        H_e = synthesize_channel(cfg, geom, att, params, np.random.default_rng(5))
        H_r = synthesize_channel(cfg, geom, R, params, np.random.default_rng(5))
        assert H_e.tobytes() == H_r.tobytes()
        A_e = analog_beamformer_at(cfg, geom, att)
        A_r = analog_beamformer_at(cfg, geom, R)
        assert A_e.tobytes() == A_r.tobytes()

    def test_matches_per_user_loop(self):
        # reference: the channel built one user at a time from the steering
        # columns, which the batched synthesis must reproduce bit for bit
        rng = np.random.default_rng(29)
        for kappa in (np.inf, 10.0, 0.0, rng.uniform(0.3, 30.0, 6)):
            cfg, geom = small_scene(k=6, mx=9, my=7)
            params = ChannelParams.build(
                kappa, fspl_gain(cfg.wavelength, geom.distance), 1e-13, 1.0, 6
            )
            att = EulerZYX(*rng.uniform(-0.3, 0.3, 3))
            H = synthesize_channel(cfg, geom, att, params, np.random.default_rng(3))
            A = analog_beamformer_at(cfg, geom, att)
            draw = np.random.default_rng(3)
            M, K = A.shape
            noise = draw.standard_normal((M, K)) + 1j * draw.standard_normal((M, K))
            for k in range(K):
                pure = np.isinf(params.kappa[k])
                w_los = 1.0 if pure else np.sqrt(params.kappa[k] / (params.kappa[k] + 1.0))
                w_nlos = 0.0 if pure else np.sqrt(1.0 / (params.kappa[k] + 1.0))
                phase = np.exp(-1j * 2.0 * np.pi * geom.distance[k] / cfg.wavelength)
                h_los = np.sqrt(params.beta[k] * M) * A[:, k] * phase
                h_nlos = np.sqrt(params.beta[k] / 2.0) * noise[:, k]
                assert np.array_equal(H[:, k], w_los * h_los + w_nlos * h_nlos)

    @pytest.mark.parametrize("kappa", [np.inf, 10.0, np.array([0.5, np.inf, 3.0, 30.0])])
    def test_stack_matches_one_at_a_time(self, kappa):
        # one generator per attitude keeps each snapshot's draw order
        cfg, geom = small_scene(k=4, mx=6, my=5)
        params = ChannelParams.build(
            kappa, fspl_gain(cfg.wavelength, geom.distance), 1e-13, 1.0, 4
        )
        R = euler_to_rotation(EulerZYX(*np.random.default_rng(8).uniform(-0.3, 0.3, (7, 3)).T))
        H = synthesize_channel(cfg, geom, R, params,
                               [np.random.default_rng([9, i]) for i in range(7)])
        A = analog_beamformer_at(cfg, geom, R[::-1])
        h_eff = effective_channel(H, A)
        assert H.shape == (7, 30, 4) and h_eff.shape == (7, 4, 4)
        for i in range(7):
            one = synthesize_channel(cfg, geom, R[i], params, np.random.default_rng([9, i]))
            assert np.array_equal(H[i], one)
            assert np.array_equal(h_eff[i], effective_channel(one, A[i]))

    @pytest.mark.parametrize(
        "bad",
        [
            1.01 * np.eye(3),
            np.diag([1.0, 1.0, -1.0]),  # orthogonal but a reflection
            np.eye(3)[:, :2],
        ],
    )
    def test_non_rotation_matrix_rejected(self, bad):
        cfg, geom = small_scene()
        params = ChannelParams.build(10.0, 1.0, 1.0, 1.0, geom.num_users)
        with pytest.raises(ValueError):
            analog_beamformer_at(cfg, geom, bad)
        with pytest.raises(ValueError):
            synthesize_channel(cfg, geom, bad, params, np.random.default_rng(0))


class TestRates:
    def test_two_user_example(self):
        G = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
        sinr, rates = sinr_and_rates(np.eye(2), G, 1.0, 1.0)
        np.testing.assert_allclose(sinr, [2.0, 2.0])
        np.testing.assert_allclose(rates, np.log2(3.0))

    def test_zero_beamformer_zero_rate(self):
        H_eff = np.random.default_rng(0).normal(size=(3, 3)) + 0j
        sinr, rates = sinr_and_rates(H_eff, np.zeros((3, 3)), 1.0, 5.0)
        np.testing.assert_array_equal(sinr, 0.0)
        np.testing.assert_array_equal(rates, 0.0)

    def test_bandwidth_scales_rates_only(self):
        rng = np.random.default_rng(3)
        H_eff = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        D = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        s1, r1 = sinr_and_rates(H_eff, D, 0.5, 1.0)
        s2, r2 = sinr_and_rates(H_eff, D, 0.5, 7.0)
        np.testing.assert_allclose(s1, s2)
        np.testing.assert_allclose(r2, 7.0 * r1)

    def test_effective_channel_conjugation(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
        A = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
        He = effective_channel(H, A)
        assert He.shape == (2, 2)
        assert He[0, 1] == pytest.approx(np.vdot(H[:, 0], A[:, 1]))
        with pytest.raises(ValueError):
            effective_channel(H, A[:8])


class TestPathGain:
    def test_fspl_reference_value(self):
        # 1 cm carrier at 20 km slant range
        assert fspl_gain(0.01, 20e3) == pytest.approx(1.5831e-15, rel=1e-4)

    def test_fspl_inverse_square(self):
        assert fspl_gain(0.01, 40e3) == pytest.approx(fspl_gain(0.01, 20e3) / 4)
