import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hapbeam.calibration import (
    CalibrationReport,
    calibrate,
    conformal_radius,
    coverage_check,
    target_window_max,
    window_residuals,
)
from hapbeam.errors import DataError, ParseError
from hapbeam.io import load_calibration_report, save_calibration_report
from hapbeam.forecast import AttitudeSeries, ForecastOutput
from hapbeam.geometry import (
    EulerZYX,
    euler_to_rotation,
    rotation_exp,
    rotation_log_vee,
    rotation_to_euler,
)


def perturbed_series_and_forecast(omegas, origin=5, d=2):
    """Truth = forecast rotated by a known residual per horizon."""
    h_pred = len(omegas)
    base = EulerZYX(0.2, 0.05, -0.1)
    angles = np.tile(base.as_array(), (h_pred, 1))
    n = origin + h_pred + 2
    samples = np.zeros((n, 3))
    R_hat = euler_to_rotation(base)
    for h in range(1, h_pred + 1):
        R = R_hat @ rotation_exp(omegas[h - 1])
        samples[origin + h] = rotation_to_euler(R).as_array()
    series = AttitudeSeries.build(0.1, samples)
    return series, ForecastOutput(origin, angles, "x"), d


class TestResiduals:
    def test_recovers_injected_perturbations(self):
        rng = np.random.default_rng(3)
        omegas = rng.normal(0, 0.01, size=(6, 3))
        series, out, d = perturbed_series_and_forecast(omegas, d=2)
        res = window_residuals(series, out, d)
        np.testing.assert_allclose(res, omegas[2:], atol=1e-9)

    def test_zero_error_zero_residuals(self):
        series, out, d = perturbed_series_and_forecast(np.zeros((6, 3)))
        res = window_residuals(series, out, d)
        np.testing.assert_allclose(res, 0.0, atol=1e-12)
        assert target_window_max(res) == pytest.approx(0.0, abs=1e-12)

    def test_truth_coverage_required(self):
        series, out, _ = perturbed_series_and_forecast(np.zeros((6, 3)))
        short = AttitudeSeries.build(0.1, series.samples[:8])
        with pytest.raises(DataError):
            window_residuals(short, out, 2)

    def test_score_is_max_norm(self):
        res = np.array([[0.01, 0, 0], [0, 0.03, 0.04], [0, 0, 0.02]])
        assert target_window_max(res) == pytest.approx(0.05)
        # a stack of windows scores each one
        stack = np.stack([res, 2 * res, res[::-1]])
        np.testing.assert_allclose(target_window_max(stack), [0.05, 0.1, 0.05])
        with pytest.raises(DataError):
            target_window_max(np.empty((0, 3)))
        with pytest.raises(DataError):
            target_window_max(np.empty((2, 0, 3)))


class TestConformal:
    def test_order_statistic_example(self):
        z = np.arange(1.0, 11.0)  # 1..10
        # ceil(0.8 * 11) = 9 -> ninth smallest
        assert conformal_radius(z, 0.2) == pytest.approx(9.0)

    def test_clamped_to_max(self):
        z = np.arange(1.0, 11.0)
        assert conformal_radius(z, 0.001) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(DataError):
            conformal_radius([], 0.1)
        with pytest.raises(ValueError):
            conformal_radius([1.0], 0.0)
        with pytest.raises(ValueError):
            conformal_radius([1.0], 1.0)

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=3, max_size=50),
        st.floats(0.01, 0.49),
        st.floats(0.5, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_rho(self, z, rho_small, rho_big):
        assert conformal_radius(z, rho_big) <= conformal_radius(z, rho_small)

    def test_coverage_on_iid_scores(self):
        rng = np.random.default_rng(2025)
        cal = rng.exponential(1.0, 2000)
        test = rng.exponential(1.0, 2000)
        for rho, lo, hi in ((0.1, 0.88, 0.93), (0.2, 0.77, 0.83)):
            cov = coverage_check(test, conformal_radius(cal, rho))
            assert lo <= cov <= hi

    def test_coverage_check_validation(self):
        with pytest.raises(DataError):
            coverage_check([], 1.0)


class TestReport:
    def make_report(self):
        return CalibrationReport(delta_omega=0.0123456789, rho=0.1, n=100, d=6, h_pred=12)

    def test_save_load_round_trip(self, tmp_path):
        rep = self.make_report()
        p = tmp_path / "calibration.txt"
        save_calibration_report(p, rep)
        got = load_calibration_report(p)
        assert got.delta_omega == rep.delta_omega
        assert got.rho == rep.rho
        assert got.n == rep.n
        assert got.d == rep.d
        assert got.h_pred == rep.h_pred

    def test_saved_keys_are_the_radius_and_protocol(self, tmp_path):
        p = tmp_path / "calibration.txt"
        save_calibration_report(p, self.make_report())
        keys = [line.partition("=")[0].strip() for line in p.read_text().splitlines()]
        assert keys == ["delta_omega_rad", "rho", "n", "d", "h_pred"]

    def test_old_moment_key_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        save_calibration_report(p, self.make_report())
        p.write_text(p.read_text() + "mu_omega = 0.0 0.0 0.0\n")
        with pytest.raises(ParseError, match="unknown key 'mu_omega'"):
            load_calibration_report(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        save_calibration_report(p, self.make_report())
        p.write_text(p.read_text() + "bogus = 1\n")
        with pytest.raises(ParseError, match="unknown key"):
            load_calibration_report(p)

    @pytest.mark.parametrize(
        "key, value", [("delta_omega_rad", "nan"), ("rho", "7"), ("n", "-3"), ("d", "20")]
    )
    def test_out_of_range_value_rejected(self, tmp_path, key, value):
        p = tmp_path / "c.txt"
        save_calibration_report(p, self.make_report())  # h_pred = 12
        lines = [
            f"{key} = {value}" if line.startswith(f"{key} =") else line
            for line in p.read_text().splitlines()
        ]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=re.escape(f"{p}: {key} = {value} is out of range")):
            load_calibration_report(p)

    def test_missing_key_rejected(self, tmp_path):
        p = tmp_path / "c.txt"
        save_calibration_report(p, self.make_report())
        lines = [l for l in p.read_text().splitlines() if not l.startswith("rho")]
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="missing"):
            load_calibration_report(p)


class TestEndToEndCalibrate:
    def test_stacked_scores_match_window_by_window(self):
        rng = np.random.default_rng(17)
        n = 300
        samples = np.column_stack([np.cumsum(rng.normal(0, 0.02, n)),
                                   0.02 * np.sin(np.arange(n) / 9.0), rng.normal(0, 0.01, n)])
        series = AttitudeSeries.build(0.1, samples)
        outputs = []
        for t in range(20, 280):
            angles = series.samples[t + 1 : t + 13] + rng.normal(0, 3e-3, (12, 3))
            angles[0] = series.samples[t + 1]  # zero residual: the series branch
            outputs.append(ForecastOutput(t, angles, "x"))
        rep = calibrate(series, outputs, d=0, rho=0.1)
        for out, score in zip(outputs, rep.scores):
            # reference: one rotation pair at a time
            ref = [
                rotation_log_vee(euler_to_rotation(EulerZYX(*out.angles[h - 1])),
                                 euler_to_rotation(EulerZYX(*series.samples[out.origin + h])))
                for h in range(1, 13)
            ]
            res = window_residuals(series, out, 0)
            assert np.array_equal(res, np.array(ref))
            assert score == target_window_max(res)

    def test_radius_covers_injected_noise(self):
        rng = np.random.default_rng(31)
        n = 400
        samples = np.zeros((n, 3))
        samples[:, 1] = 0.01 * np.sin(np.arange(n) / 7.0)
        series = AttitudeSeries.build(0.1, samples)
        outputs = []
        for t in range(50, 250):
            angles = series.samples[t + 1 : t + 13] + rng.normal(0, 2e-3, (12, 3))
            outputs.append(ForecastOutput(t, angles, "x"))
        rep = calibrate(series, outputs, d=6, rho=0.1)
        assert rep.n == 200
        assert rep.scores.shape == (200,)
        assert rep.delta_omega > 0
        held = [target_window_max(window_residuals(series, o, 6)) for o in outputs[150:]]
        # same-distribution holdout: roughly the right coverage
        assert 0.75 <= coverage_check(held, rep.delta_omega) <= 1.0
