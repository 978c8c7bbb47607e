import numpy as np
import pytest

import hapbeam.forecast as fc
from hapbeam.errors import DataError, ParseError
from hapbeam.forecast import (
    AttitudeSeries,
    ForecastOutput,
    ForecastRequest,
    fit_direct,
    forecast_ar,
    forecast_errors,
    forecast_linear_trend,
    forecast_persistence,
)
from hapbeam.io import FORECAST_HEADER, load_forecast_csv, save_forecast_csv


def series_from(cols, dt=0.1):
    return AttitudeSeries.build(dt, np.column_stack(cols))


def req(origin, l_win=64, h_pred=12, d=6):
    return ForecastRequest(origin, l_win, h_pred, d)


class TestRequest:
    def test_validation(self):
        with pytest.raises(ValueError):
            ForecastRequest(10, 1, 12, 6)
        with pytest.raises(ValueError):
            ForecastRequest(10, 64, 0, 0)
        with pytest.raises(ValueError):
            ForecastRequest(10, 64, 12, 12)
        with pytest.raises(ValueError):
            ForecastRequest(10, 64, 12, -1)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan")])
    def test_series_rejects_non_positive_dt(self, dt):
        with pytest.raises(ValueError, match="slot duration"):
            AttitudeSeries.build(dt, np.zeros((4, 3)))

    def test_window_outside_series(self):
        s = series_from([np.zeros(50), np.zeros(50), np.zeros(50)])
        with pytest.raises(DataError):
            forecast_persistence(s, req(40, l_win=64))
        with pytest.raises(DataError):
            forecast_persistence(s, req(60, l_win=10))


class TestPersistence:
    def test_holds_last_sample(self):
        n = np.arange(100, dtype=float)
        s = series_from([0.01 * n, 0.002 * n, -0.001 * n])
        out = forecast_persistence(s, req(80))
        np.testing.assert_array_equal(out.angles, np.tile(s.samples[80], (12, 1)))
        assert out.tag == "persistence"
        assert out.origin == 80


class TestLinearTrend:
    def test_exact_on_affine_series(self):
        n = np.arange(400, dtype=float)
        s = series_from(
            [1e-3 + 2e-4 * n, -5e-4 + 1e-4 * n, 3e-4 - 2e-4 * n]
        )
        out = forecast_linear_trend(s, req(300, l_win=192))
        truth = s.samples[301:313]
        err_deg = np.rad2deg(np.abs(out.angles - truth))
        assert np.max(err_deg) < 1e-9

    def test_yaw_extrapolates_through_seam(self):
        # steady yaw rate crossing +pi: the forecast must continue the ramp
        n = np.arange(200, dtype=float)
        yaw = np.deg2rad(170.0 + 0.5 * n)  # wraps inside the window
        s = series_from([yaw, np.zeros(200), np.zeros(200)])
        out = forecast_linear_trend(s, req(150, l_win=100))
        want = np.deg2rad(170.0 + 0.5 * (151 + np.arange(12)))
        err = np.rad2deg(np.abs(fc.wrap_pi(out.angles[:, 0] - want)))
        assert np.max(err) < 1e-8

    def test_constant_series_flat_forecast(self):
        s = series_from([np.full(100, 0.3), np.full(100, -0.1), np.zeros(100)])
        out = forecast_linear_trend(s, req(90))
        np.testing.assert_allclose(out.angles, np.tile([0.3, -0.1, 0.0], (12, 1)), atol=1e-12)


class TestAutoregressive:
    def test_sinusoid_continuation(self):
        n = np.arange(300, dtype=float)
        amp = 0.02
        pitch = amp * np.sin(2 * np.pi * n / 20.0)
        s = series_from([np.zeros(300), pitch, np.zeros(300)])
        out = forecast_ar(s, req(250, l_win=64), order=4)
        truth = s.samples[251:263, 1]
        assert abs(out.angles[11, 1] - truth[11]) <= 0.1 * amp
        assert out.tag == "ar4"

    def test_constant_series_exact(self):
        s = series_from([np.full(200, 0.2), np.full(200, 0.05), np.full(200, -0.3)])
        out = forecast_ar(s, req(150, l_win=64), order=8)
        np.testing.assert_allclose(out.angles, np.tile([0.2, 0.05, -0.3], (12, 1)), atol=1e-9)

    def test_white_noise_forecasts_near_window_mean(self):
        rng = np.random.default_rng(19)
        sigma = 0.01
        pitch = sigma * rng.standard_normal(400)
        s = series_from([np.zeros(400), pitch, np.zeros(400)])
        r = req(350, l_win=192)
        out = forecast_ar(s, r, order=8)
        mean = pitch[350 - 192 + 1 : 351].mean()
        assert np.max(np.abs(out.angles[:, 1] - mean)) <= 0.8 * sigma

    def test_yaw_fit_circular_at_seam(self):
        # small oscillation around +pi must not fall apart at the wrap seam
        n = np.arange(300, dtype=float)
        yaw = fc.wrap_pi(np.pi + 0.05 * np.sin(2 * np.pi * n / 25.0))
        s = series_from([yaw, np.zeros(300), np.zeros(300)])
        out = forecast_ar(s, req(250, l_win=100), order=4)
        truth = fc.wrap_pi(np.pi + 0.05 * np.sin(2 * np.pi * (251 + np.arange(12)) / 25.0))
        err = np.abs(fc.wrap_pi(out.angles[:, 0] - truth))
        assert np.max(err) <= 0.005

    @pytest.mark.parametrize("order,h_pred", [(24, 12), (8, 5), (3, 1), (1, 3)])
    def test_fit_matches_column_stack_and_list_recursion(self, order, h_pred):
        # reference: the lag matrix built column by column and the forward
        # recursion on a list, which the strided fit must reproduce bit for bit
        def fit_ref(z):
            mean = z.mean()
            zc = z - mean
            L = zc.size
            X = np.column_stack([zc[order - j : L - j] for j in range(1, order + 1)])
            coef, *_ = np.linalg.lstsq(X, zc[order:], rcond=None)
            buf = list(zc[-order:])
            out = np.empty(h_pred)
            for i in range(h_pred):
                out[i] = float(np.dot(coef, buf[::-1]))
                buf.append(out[i])
                buf.pop(0)
            return out + mean

        rng = np.random.default_rng(61)
        for _ in range(20):
            z = np.cumsum(rng.standard_normal(192)) * 1e-3 + rng.uniform(-1, 1)
            assert np.array_equal(fc._fit_ar_forecast(z, order, h_pred), fit_ref(z))

    def test_order_window_validation(self):
        s = series_from([np.zeros(100), np.zeros(100), np.zeros(100)])
        with pytest.raises(ValueError):
            forecast_ar(s, req(90, l_win=16), order=8)
        with pytest.raises(ValueError):
            forecast_ar(s, req(90), order=0)

    def test_degenerate_fit_falls_back_to_linear(self, monkeypatch):
        n = np.arange(200, dtype=float)
        s = series_from([1e-4 * n, 2e-4 * n, np.zeros(200)])
        r = req(150, l_win=64)
        monkeypatch.setattr(fc, "_fit_ar_forecast", lambda *a, **k: None)
        out = forecast_ar(s, r, order=4)
        assert out.tag == "ar4+linear-fallback"
        np.testing.assert_array_equal(out.angles, forecast_linear_trend(s, r).angles)

    def test_vanishing_yaw_pair_keeps_origin_yaw(self, monkeypatch):
        n = np.arange(200, dtype=float)
        s = series_from([0.5 + 1e-3 * n, 2e-4 * n, np.zeros(200)])
        monkeypatch.setattr(fc, "_fit_ar_forecast", lambda z, order, h_pred: np.zeros(h_pred))
        out = forecast_ar(s, req(150, l_win=64), order=4)
        assert out.tag == "ar4"
        np.testing.assert_array_equal(out.angles[:, 0], s.samples[150, 0])
        np.testing.assert_array_equal(out.angles[:, 1:], 0.0)


class TestDirect:
    TRAIN_END = 420

    def noisy_series(self, seed=5, n=600):
        rng = np.random.default_rng(seed)
        walk = np.cumsum(rng.standard_normal((n, 3)), axis=0) * 2e-3
        walk[:, 0] += np.pi  # yaw wanders across the seam
        return AttitudeSeries.build(0.1, walk)

    def test_fit_sees_training_samples_only(self):
        s = self.noisy_series()
        base = fit_direct(s, self.TRAIN_END, 24, 12)
        assert base.rows == self.TRAIN_END - 12 - 24 + 1
        later = s.samples.copy()
        later[self.TRAIN_END :] += 0.3
        moved = fit_direct(AttitudeSeries.build(0.1, later), self.TRAIN_END, 24, 12)
        assert np.array_equal(moved.weights, base.weights)
        # the last training sample is a target of the last fit row
        last = s.samples.copy()
        last[self.TRAIN_END - 1, 1] += 1e-3
        nudged = fit_direct(AttitudeSeries.build(0.1, last), self.TRAIN_END, 24, 12)
        assert not np.array_equal(nudged.weights, base.weights)

    def test_forecast_is_causal(self):
        s = self.noisy_series()
        f = fit_direct(s, self.TRAIN_END, 24, 12)
        for t in (450, 500, 587):
            future = s.samples.copy()
            future[t + 1 :] = -future[t + 1 :]
            got = f(AttitudeSeries.build(0.1, future), req(t, l_win=96))
            assert np.array_equal(got.angles, f(s, req(t, l_win=96)).angles)
            assert got.tag == "direct24"

    @pytest.mark.parametrize("seed,order,h_pred", [(9, 8, 5), (5, 24, 12)])
    def test_fit_matches_lstsq_reference(self, seed, order, h_pred):
        # reference: least squares on the centred design with sqrt(ridge) I
        # rows appended, the means folded back into the intercept
        s = self.noisy_series(seed=seed)
        f = fit_direct(s, self.TRAIN_END, order, h_pred)
        z = np.column_stack([np.sin(s.samples[:, 0]), np.cos(s.samples[:, 0]),
                             s.samples[:, 1], s.samples[:, 2]])
        mean = z[: self.TRAIN_END].mean(axis=0)

        def design(zz, origins):
            return np.array([[*zz[t - order + 1 : t + 1][::-1].ravel(), 1.0] for t in origins])

        fit_origins = range(order - 1, self.TRAIN_END - h_pred)
        Xc = design(z - mean, fit_origins)
        Y = np.array([z[t + 1 : t + h_pred + 1].ravel() for t in fit_origins])
        n_feat = Xc.shape[1]
        ref, *_ = np.linalg.lstsq(
            np.vstack([Xc, np.sqrt(fc.DIRECT_RIDGE) * np.eye(n_feat)]),
            np.vstack([Y, np.zeros((n_feat, Y.shape[1]))]),
            rcond=None,
        )
        ref[-1] -= np.tile(mean, order) @ ref[:-1]
        assert len(fit_origins) == f.rows
        X = design(z, range(order - 1, len(z)))
        np.testing.assert_allclose(X @ f.weights, X @ ref, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("attitude", [(0.0, 0.0, 0.0), (2.0, 0.03, -0.02)])
    def test_constant_series_forecasts_the_constant(self, attitude):
        s = AttitudeSeries.build(0.1, np.tile(attitude, (600, 1)))
        f = fit_direct(s, self.TRAIN_END, 24, 12)
        for t in (450, 587):
            got = f(s, req(t, l_win=96)).angles
            # the ridge shrinks the intercept by about ridge / rows
            np.testing.assert_allclose(got, np.tile(attitude, (12, 1)), rtol=0, atol=1e-9)

    def test_vanishing_yaw_pair_keeps_origin_yaw(self):
        s = self.noisy_series()
        f = fc.DirectForecaster(np.zeros((4 * 24 + 1, 4 * 12)), 24, 12, rows=1)
        for t, out in zip((450, 587), f(s, [req(450, l_win=96), req(587, l_win=96)])):
            np.testing.assert_array_equal(out.angles[:, 0], s.samples[t, 0])
            np.testing.assert_array_equal(out.angles[:, 1:], 0.0)

    def test_exact_on_noiseless_sinusoids(self):
        # yaw rotates steadily through +-pi, so its sine and cosine are
        # sinusoids; pitch and roll are sums of two sinusoids.  Every channel
        # then obeys a linear recurrence the lags span.
        n = np.arange(600, dtype=float)

        def two_sines(a1, p1, a2, p2):
            return a1 * np.sin(2 * np.pi * n / p1) + a2 * np.sin(2 * np.pi * n / p2 + 0.3)

        yaw = fc.wrap_pi(2 * np.pi * n / 37.0 + 0.4)
        s = series_from([yaw, two_sines(0.02, 20, 0.01, 7), two_sines(0.03, 13, 0.015, 31)])
        f = fit_direct(s, self.TRAIN_END, 48, 12)
        worst = 0.0
        for t in range(self.TRAIN_END, 600 - 13):
            diff = f(s, req(t, l_win=192)).angles - s.samples[t + 1 : t + 13]
            diff[:, 0] = fc.wrap_pi(diff[:, 0])
            worst = max(worst, np.max(np.abs(diff)))
        assert worst < 1e-6

    def test_many_origins_match_one_at_a_time(self):
        s = self.noisy_series()
        f = fit_direct(s, self.TRAIN_END, 24, 12)
        reqs = [req(t, l_win=96) for t in range(self.TRAIN_END, 587)]
        outs = f(s, reqs)
        assert len(outs) == len(reqs)
        for r, got in zip(reqs, outs):
            one = f(s, r)
            assert got.origin == one.origin == r.origin and got.tag == one.tag
            assert np.array_equal(got.angles, one.angles)

    def test_request_must_match_the_fit(self):
        s = self.noisy_series()
        f = fit_direct(s, self.TRAIN_END, 24, 12)
        with pytest.raises(ValueError, match="fitted for h_pred=12"):
            f(s, req(500, h_pred=10))
        with pytest.raises(ValueError, match="needs l_win >= 24"):
            f(s, req(500, l_win=16))
        with pytest.raises(DataError):
            f(s, req(600))
        # in a list, every request is checked
        with pytest.raises(ValueError, match="fitted for h_pred=12"):
            f(s, [req(500), req(501, h_pred=10)])
        with pytest.raises(DataError):
            f(s, [req(500), req(600)])

    def test_empty_request_list(self):
        s = self.noisy_series()
        assert fit_direct(s, self.TRAIN_END, 24, 12)(s, []) == []

    def test_training_split_too_short(self):
        s = self.noisy_series()
        with pytest.raises(DataError, match="holds no fit row"):
            fit_direct(s, 30, 24, 12)
        with pytest.raises(ValueError):
            fit_direct(s, self.TRAIN_END, 0, 12)


class TestForecastCsv:
    def make_outputs(self):
        rng = np.random.default_rng(29)
        outs = []
        for t in (100, 101, 102):
            angles = rng.uniform(-0.5, 0.5, size=(12, 3))
            outs.append(ForecastOutput(t, angles, "external"))
        return outs

    def test_round_trip_bit_exact(self, tmp_path):
        p1 = tmp_path / "f1.csv"
        p2 = tmp_path / "f2.csv"
        outs = self.make_outputs()
        save_forecast_csv(p1, outs)
        got1 = load_forecast_csv(p1)
        for out in outs:
            np.testing.assert_array_equal(got1[out.origin].angles, out.angles)
        save_forecast_csv(p2, list(got1.values()))
        got2 = load_forecast_csv(p2)
        for t, out in got1.items():
            np.testing.assert_array_equal(got2[t].angles, out.angles)

    def test_yaw_wrapped_on_load(self, tmp_path):
        p = tmp_path / "f.csv"
        lines = [",".join(FORECAST_HEADER)]
        lines += [f"7,{h},185.0,0.0,0.0" for h in range(1, 4)]
        p.write_text("\n".join(lines) + "\n")
        got = load_forecast_csv(p)
        assert np.rad2deg(got[7].angles[0, 0]) == pytest.approx(-175.0)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("origin,h,yaw,pitch,roll\n1,1,0,0,0\n")
        with pytest.raises(ParseError):
            load_forecast_csv(p)

    def test_missing_horizon_naming(self, tmp_path):
        p = tmp_path / "f.csv"
        head = ",".join(FORECAST_HEADER)
        p.write_text(f"{head}\n3,1,0,0,0\n3,3,0,0,0\n")
        with pytest.raises(ParseError, match="missing horizons"):
            load_forecast_csv(p)

    def test_bad_value_names_row_and_column(self, tmp_path):
        p = tmp_path / "f.csv"
        head = ",".join(FORECAST_HEADER)
        p.write_text(f"{head}\n3,1,0,abc,0\n")
        with pytest.raises(ParseError, match="row 2, column pitch_deg"):
            load_forecast_csv(p)

    def test_inconsistent_horizon_counts(self, tmp_path):
        p = tmp_path / "f.csv"
        head = ",".join(FORECAST_HEADER)
        rows = [f"1,{h},0,0,0" for h in (1, 2)] + ["2,1,0,0,0"]
        p.write_text(head + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="inconsistent"):
            load_forecast_csv(p)

    def test_negative_origin_names_row_and_column(self, tmp_path):
        p = tmp_path / "f.csv"
        head = ",".join(FORECAST_HEADER)
        p.write_text(f"{head}\n3,1,0,0,0\n-1,1,0,0,0\n")
        with pytest.raises(ParseError, match="row 3, column origin_slot: must be >= 0"):
            load_forecast_csv(p)

    def test_duplicate_horizon(self, tmp_path):
        p = tmp_path / "f.csv"
        head = ",".join(FORECAST_HEADER)
        p.write_text(f"{head}\n1,1,0,0,0\n1,1,0,0,0\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_forecast_csv(p)


class TestErrorReport:
    def test_hand_example_mae_rmse(self):
        s = series_from([np.zeros(40), np.zeros(40), np.zeros(40)])
        angles = np.zeros((12, 3))
        angles[6, 1] = np.deg2rad(1.0)   # horizon 7, inside target window
        angles[7, 1] = np.deg2rad(3.0)   # horizon 8
        out = ForecastOutput(10, angles, "x")
        rep = forecast_errors(s, [out], d=10)  # target window = horizons 11, 12
        assert rep.mae_deg[1] == pytest.approx(0.0)
        rep2 = forecast_errors(s, [out], d=6)  # horizons 7..12, errors {1, 3, 0 x4}
        assert rep2.mae_deg[1] == pytest.approx(4.0 / 6.0)
        rep3 = forecast_errors(s, [out], d=5)
        # restrict the hand numbers to exactly the two nonzero horizons
        errs = np.array([1.0, 3.0])
        assert rep2.rmse_deg[1] == pytest.approx(np.sqrt((errs**2).sum() / 6.0))
        assert rep3.n_windows == 1

    def test_two_sample_reference_numbers(self):
        # MAE 2, RMSE sqrt(5) over pitch errors {1 deg, 3 deg}
        s = series_from([np.zeros(40), np.zeros(40), np.zeros(40)])
        angles = np.zeros((2, 3))
        angles[0, 1] = np.deg2rad(1.0)
        angles[1, 1] = np.deg2rad(3.0)
        rep = forecast_errors(s, [ForecastOutput(5, angles, "x")], d=0)
        assert rep.mae_deg[1] == pytest.approx(2.0)
        assert rep.rmse_deg[1] == pytest.approx(np.sqrt(5.0))

    def test_mae_le_rmse(self):
        rng = np.random.default_rng(37)
        s = series_from([rng.normal(0, 0.1, 100), rng.normal(0, 0.1, 100), rng.normal(0, 0.1, 100)])
        outs = []
        for t in range(50, 60):
            outs.append(ForecastOutput(t, rng.normal(0, 0.1, (12, 3)), "x"))
        rep = forecast_errors(s, outs, d=6)
        assert np.all(rep.mae_deg <= rep.rmse_deg + 1e-12)
        assert np.all(rep.mae_deg >= 0)
        assert np.all(rep.p95_deg <= rep.p99_deg + 1e-12)
        assert rep.per_horizon_mae_deg.shape == (12,)

    def test_yaw_error_wraps(self):
        s = series_from([np.full(30, np.deg2rad(-179.0)), np.zeros(30), np.zeros(30)])
        angles = np.zeros((1, 3))
        angles[0, 0] = np.deg2rad(179.0)
        rep = forecast_errors(s, [ForecastOutput(10, angles, "x")], d=0)
        assert rep.mae_deg[0] == pytest.approx(2.0, abs=1e-9)

    def test_leading_horizons_do_not_touch_target_fields(self):
        s = series_from([np.zeros(60), np.zeros(60), np.zeros(60)])
        rng = np.random.default_rng(41)
        base = rng.normal(0, 0.01, (12, 3))
        mod = base.copy()
        mod[:6] += rng.normal(0, 1.0, (6, 3))  # horizons 1..6 only
        rep_a = forecast_errors(s, [ForecastOutput(20, base, "x")], d=6)
        rep_b = forecast_errors(s, [ForecastOutput(20, mod, "x")], d=6)
        np.testing.assert_array_equal(rep_a.mae_deg, rep_b.mae_deg)
        np.testing.assert_array_equal(rep_a.rmse_deg, rep_b.rmse_deg)
        np.testing.assert_array_equal(rep_a.p95_deg, rep_b.p95_deg)
        assert not np.array_equal(rep_a.per_horizon_mae_deg, rep_b.per_horizon_mae_deg)

    def test_truth_coverage_required(self):
        s = series_from([np.zeros(20), np.zeros(20), np.zeros(20)])
        with pytest.raises(DataError):
            forecast_errors(s, [ForecastOutput(10, np.zeros((12, 3)), "x")], d=6)

    def test_negative_origin_rejected(self):
        # its truth rows would be indexed from the end of the series
        s = series_from([np.zeros(20), np.zeros(20), np.zeros(20)])
        outs = [ForecastOutput(t, np.zeros((12, 3)), "x") for t in (0, -1)]
        with pytest.raises(DataError, match="origin -1 lies before the series"):
            fc.paired_windows(s, outs, d=6)
