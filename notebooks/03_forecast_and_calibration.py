"""Attitude forecasting baselines and conformal calibration of the
pointing-error radius.

Synthesizes shaking telemetry, compares four forecasters on windows after
the direct forecaster's 70% training prefix, then calibrates delta_omega
at several miscoverage levels and checks empirical coverage on a disjoint
test block.
"""

import numpy as np

from hapbeam import (
    ForecastRequest,
    calibrate,
    coverage_check,
    fit_direct,
    forecast_ar,
    forecast_errors,
    forecast_linear_trend,
    forecast_persistence,
    generate_attitude_series,
    target_window_max,
    window_residuals,
)

L_WIN, H_PRED, D = 192, 12, 6

att = generate_attitude_series(seed=3, length=2600, dt=0.1)
print(f"telemetry: {len(att)} slots at dt = {att.dt}s, "
      f"yaw span {np.ptp(np.rad2deg(att.samples[:, 0])):.1f} deg")


def ar24(s, r):
    return forecast_ar(s, r, order=24)


# the direct forecaster learns once from the first 70% of the series; every
# forecaster is scored on origins after it
t_train = int(0.7 * len(att))
direct48 = fit_direct(att, t_train, order=48, h_pred=H_PRED)
print(f"direct(48) fitted on {direct48.rows} training origins")

origins = range(t_train, len(att) - H_PRED - 1, 8)
for name, fn in (
    ("persistence", forecast_persistence),
    ("linear", forecast_linear_trend),
    ("ar(24)", ar24),
    ("direct(48)", direct48),
):
    outs = [fn(att, ForecastRequest(o, L_WIN, H_PRED, D)) for o in origins]
    rep = forecast_errors(att, outs, d=D)
    print(f"  {name:12s} mae {rep.mae_deg.mean():.3f} deg, "
          f"p95 {rep.p95_deg.mean():.3f} deg over {rep.n_windows} windows")

# conformal calibration: score each calibration window by the max rotation
# residual over the actionable horizons, take the (1-rho) split quantile
cal_outs = [
    ar24(att, ForecastRequest(o, L_WIN, H_PRED, D))
    for o in range(L_WIN - 1, 1800, 2)
]
test_scores = np.array([
    target_window_max(
        window_residuals(att, ar24(att, ForecastRequest(o, L_WIN, H_PRED, D)), d=D)
    )
    for o in range(1801, len(att) - H_PRED - 1, 2)
])
for rho in (0.2, 0.1, 0.05):
    rep = calibrate(att, cal_outs, d=D, rho=rho)
    cov = coverage_check(test_scores, rep.delta_omega)
    print(f"  rho = {rho:4.2f} -> delta_omega "
          f"{np.rad2deg(rep.delta_omega):.3f} deg "
          f"({rep.n} scores), held-out coverage {cov:.3f} "
          f"(target {1 - rho:.2f})")
