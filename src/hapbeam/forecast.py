"""Attitude forecasting baselines and forecast-error accounting.

A forecaster sees a causal look-back window of yaw/pitch/roll samples ending
at the origin slot t and emits one attitude per horizon h in {1, .., H_pred}.
The persistence, linear-trend and autoregressive forecasters fit nothing
ahead of time; the direct forecaster is fitted once on a training prefix
of the series.  Yaw is treated as a circular quantity everywhere: the
linear-trend fit unwraps it, the autoregressive and direct fits work on its
sine/cosine pair, and all errors are computed through the wrapped
difference.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .geometry import wrap_pi

_EPS_SLOPE = 1e-12  # ridge in the least-squares slope denominator


@dataclass(frozen=True)
class AttitudeSeries:
    """Uniformly sampled attitude telemetry: (N, 3) yaw/pitch/roll radians.

    Sampling is uniform by construction (one slot per row, ``dt`` seconds).
    Yaw is stored wrapped to (-pi, pi].
    """

    dt: float
    samples: np.ndarray

    @classmethod
    def build(cls, dt: float, samples) -> "AttitudeSeries":
        if not dt > 0:
            raise ValueError(f"slot duration must be positive, got {dt}")
        s = np.array(samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 3:
            raise ValueError(f"samples must be (N, 3), got {s.shape}")
        if not np.all(np.isfinite(s)):
            raise DataError("telemetry contains non-finite values")
        s[:, 0] = wrap_pi(s[:, 0])
        return cls(float(dt), s)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class ForecastRequest:
    """One forecasting task: origin slot, look-back length, horizon count,
    and the actuation delay d.  d is only validated; no forecaster reads it.
    It stays because callers (bench/workloads.py) pass it by position."""

    origin: int
    l_win: int
    h_pred: int
    d: int

    def __post_init__(self):
        if self.l_win < 2:
            raise ValueError(f"look-back window needs >= 2 samples, got {self.l_win}")
        if self.h_pred < 1:
            raise ValueError(f"need at least one horizon, got {self.h_pred}")
        if not 0 <= self.d < self.h_pred:
            raise ValueError(
                f"decision delay d={self.d} must satisfy 0 <= d < H_pred={self.h_pred}"
            )


@dataclass(frozen=True)
class ForecastOutput:
    """Forecasts from one origin: row h-1 holds the horizon-h attitude."""

    origin: int
    angles: np.ndarray  # (h_pred, 3) radians, yaw wrapped
    tag: str


def _window(series: AttitudeSeries, req: ForecastRequest) -> np.ndarray:
    lo = req.origin - req.l_win + 1
    if lo < 0 or req.origin >= len(series):
        raise DataError(
            f"look-back window [{lo}, {req.origin}] falls outside the "
            f"series of length {len(series)}"
        )
    return series.samples[lo : req.origin + 1]


def forecast_persistence(series: AttitudeSeries, req: ForecastRequest) -> ForecastOutput:
    """Hold the last observed attitude across all horizons."""
    w = _window(series, req)
    angles = np.tile(w[-1], (req.h_pred, 1))
    return ForecastOutput(req.origin, angles, "persistence")


def _ls_slope(y: np.ndarray) -> float:
    ell = np.arange(y.size, dtype=float)
    dl = ell - ell.mean()
    return float(dl @ (y - y.mean()) / (dl @ dl + _EPS_SLOPE))


def forecast_linear_trend(series: AttitudeSeries, req: ForecastRequest) -> ForecastOutput:
    """Least-squares slope per axis, extrapolated from the last observation.

    Yaw is unwrapped before the fit and the forecast is wrapped back, so a
    steady rotation through the +-pi seam extrapolates cleanly.
    """
    w = _window(series, req)
    yaw_u = np.unwrap(w[:, 0])
    h = np.arange(1, req.h_pred + 1, dtype=float)
    angles = np.empty((req.h_pred, 3))
    angles[:, 0] = wrap_pi(yaw_u[-1] + _ls_slope(yaw_u) * h)
    for c in (1, 2):
        angles[:, c] = w[-1, c] + _ls_slope(w[:, c]) * h
    return ForecastOutput(req.origin, angles, "linear")


def _channels(samples: np.ndarray) -> np.ndarray:
    """(N, 4) sin yaw, cos yaw, pitch, roll: the regression channels, so the
    +-pi yaw seam never enters a fit."""
    yaw = samples[:, 0]
    return np.column_stack([np.sin(yaw), np.cos(yaw), samples[:, 1], samples[:, 2]])


def _angles(y: np.ndarray, last_yaw) -> np.ndarray:
    """(..., 4) channel forecasts back to (..., 3) yaw/pitch/roll: yaw is the
    angle of the (sin, cos) pair, or last_yaw where the pair vanishes."""
    s, c = y[..., 0], y[..., 1]
    yaw = np.where(np.hypot(s, c) > 1e-12, np.arctan2(s, c), last_yaw)
    return np.stack([wrap_pi(yaw), y[..., 2], y[..., 3]], axis=-1)


def _fit_ar_forecast(z: np.ndarray, order: int, h_pred: int) -> np.ndarray | None:
    """Least-squares AR(order) on a demeaned window; None when the fit or
    the forward iteration produces non-finite values."""
    mean = z.mean()
    zc = z - mean
    y = zc[order:]
    # row i holds lags 1..order of y[i], zc[i + order - 1] down to zc[i]: a
    # strided view of zc.  (sliding_window_view gives the same view, but its
    # array-interface path grew peak RSS by 1.5 MiB over 1e5 fits.)
    step = zc.itemsize
    X = np.ndarray((y.size, order), zc.dtype, zc, (order - 1) * step, (step, -step))
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    if not np.all(np.isfinite(coef)):
        return None
    # newest first, so the lags of the forecast written to buf[i] are the
    # contiguous slice after it
    buf = np.empty(h_pred + order)
    buf[h_pred:] = zc[: -order - 1 : -1]
    for i in range(h_pred - 1, -1, -1):
        buf[i] = np.dot(coef, buf[i + 1 : i + 1 + order])
    out = buf[h_pred - 1 :: -1]
    if not np.all(np.isfinite(out)):
        return None
    return out + mean


def forecast_ar(
    series: AttitudeSeries, req: ForecastRequest, order: int = 8
) -> ForecastOutput:
    """Autoregressive least-squares forecaster.

    Pitch and roll are fit directly; yaw is fit as a sine/cosine pair,
    renormalized, and recombined with atan2 so the +-pi seam never enters
    the regression.  A degenerate fit falls back to the linear-trend
    forecaster and tags the output accordingly.
    """
    if order < 1:
        raise ValueError(f"AR order must be >= 1, got {order}")
    if req.l_win < 4 * order:
        raise ValueError(
            f"look-back window {req.l_win} too short for AR order {order}; "
            "need l_win >= 4 * order"
        )
    w = _window(series, req)
    cols = [_fit_ar_forecast(z, order, req.h_pred) for z in _channels(w).T]
    if any(v is None for v in cols):
        fb = forecast_linear_trend(series, req)
        return ForecastOutput(req.origin, fb.angles, f"ar{order}+linear-fallback")
    angles = _angles(np.column_stack(cols), w[-1, 0])
    return ForecastOutput(req.origin, angles, f"ar{order}")


# ---------------------------------------------------------------------------
# Direct multi-horizon forecaster, fitted once
# ---------------------------------------------------------------------------

DIRECT_RIDGE = 1e-6  # ridge on the normal equations of the centred direct design


def _lag_features(z: np.ndarray, origins: np.ndarray, order: int) -> np.ndarray:
    """Feature rows, one per origin t: channels z[t], z[t-1], .., z[t-order+1]
    (newest first), then an intercept."""
    lags = z[origins[:, None] - np.arange(order)].reshape(len(origins), -1)
    return np.column_stack([lags, np.ones(len(origins))])


@dataclass(frozen=True)
class DirectForecaster:
    """Direct multi-horizon linear forecaster (Ben Taieb et al., Expert
    Syst. Appl. 2012): one weight column per horizon and channel, so no
    forecast feeds another.  Called as (series, request) like the per-window
    forecasters, or with a list of requests for the list of their outputs."""

    weights: np.ndarray  # (4 * order + 1, 4 * h_pred)
    order: int  # lags per channel
    h_pred: int
    rows: int  # training origins the fit used

    def __call__(self, series: AttitudeSeries, req) -> ForecastOutput | list:
        single = isinstance(req, ForecastRequest)
        reqs = [req] if single else req
        for r in reqs:
            if r.h_pred != self.h_pred or r.l_win < self.order:
                raise ValueError(
                    f"direct{self.order} was fitted for h_pred={self.h_pred} and "
                    f"needs l_win >= {self.order}; got h_pred={r.h_pred}, l_win={r.l_win}"
                )
            _window(series, r)  # the look-back must lie inside the series
        origins = np.array([r.origin for r in reqs])
        X = _lag_features(_channels(series.samples), origins, self.order)
        # (n, 1, F) @ W is one row product per origin, as the unbatched x @ W
        y = (X[:, None, :] @ self.weights).reshape(len(reqs), self.h_pred, 4)
        angles = _angles(y, series.samples[origins, :1])
        tag = f"direct{self.order}"
        outs = [ForecastOutput(r.origin, a, tag) for r, a in zip(reqs, angles)]
        return outs[0] if single else outs


def fit_direct(
    series: AttitudeSeries, train_end: int, order: int, h_pred: int
) -> DirectForecaster:
    """Fit the direct forecaster on samples [0, train_end) only: every origin
    whose target window closes before train_end is one row.  The lags are
    centred on the training channel means, which keeps cos yaw (near +-1)
    from duplicating the intercept, and the ridge normal equations are
    solved once; the means are then folded into the intercept row.  The
    design holds rows x (4 order + 1) floats, 1.1 MB at the default config."""
    if order < 1:
        raise ValueError(f"direct order must be >= 1, got {order}")
    z = _channels(series.samples[:train_end])
    # fit origins: t >= order - 1 (a full look-back) and t + h_pred < train_end
    origins = np.arange(order - 1, len(z) - h_pred)
    if origins.size < 1:
        raise DataError(
            f"training split of {len(z)} samples holds no fit row for "
            f"{order} lags and {h_pred} horizons"
        )
    mean = z.mean(axis=0)
    X = _lag_features(z - mean, origins, order)
    Y = z[origins[:, None] + np.arange(1, h_pred + 1)].reshape(len(origins), -1)
    weights = np.linalg.solve(X.T @ X + DIRECT_RIDGE * np.eye(X.shape[1]), X.T @ Y)
    weights[-1] -= np.tile(mean, order) @ weights[:-1]
    return DirectForecaster(weights, order, h_pred, len(origins))


# ---------------------------------------------------------------------------
# Error accounting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForecastErrorReport:
    """Per-axis and per-horizon forecast-error summary, in degrees.

    mae/rmse/percentiles are taken over the actionable target window
    h in {d+1, .., H_pred}; per_horizon_mae covers every horizon.
    """

    mae_deg: np.ndarray  # (3,)
    rmse_deg: np.ndarray  # (3,)
    p95_deg: np.ndarray  # (3,)
    p99_deg: np.ndarray  # (3,)
    per_horizon_mae_deg: np.ndarray  # (h_pred,)
    n_windows: int


def paired_windows(
    series: AttitudeSeries, outputs: list[ForecastOutput], d: int
) -> tuple[np.ndarray, np.ndarray]:
    """The outputs' angles and the realized samples they forecast, both
    (n, H_pred, 3); truth must cover every full horizon, and 0 <= d < H_pred."""
    if not outputs:
        raise DataError("no forecast outputs to evaluate")
    h_pred = outputs[0].angles.shape[0]
    if any(o.angles.shape[0] != h_pred for o in outputs):
        raise DataError("outputs disagree on horizon count")
    if not 0 <= d < h_pred:
        raise ValueError(f"decision delay d={d} must satisfy 0 <= d < H_pred={h_pred}")
    origins = np.array([o.origin for o in outputs])
    late = origins + h_pred >= len(series)
    if np.any(late):
        raise DataError(f"origin {origins[late][0]}: truth does not cover horizon {h_pred}")
    truth = series.samples[origins[:, None] + np.arange(1, h_pred + 1)]
    return np.array([o.angles for o in outputs]), truth


def forecast_errors(
    series: AttitudeSeries, outputs: list[ForecastOutput], d: int
) -> ForecastErrorReport:
    """Compare forecasts against the realized series.

    Yaw errors go through the wrapped difference, so a forecast of 179 deg
    against a truth of -179 deg scores 2 deg.  Truth must cover every
    origin's full horizon.
    """
    angles, truth = paired_windows(series, outputs, d)
    errs = angles - truth
    errs[..., 0] = wrap_pi(errs[..., 0])
    abs_deg = np.abs(np.rad2deg(errs))
    target = abs_deg[:, d:, :]  # horizons d+1 .. h_pred
    flat = target.reshape(-1, 3)
    return ForecastErrorReport(
        mae_deg=flat.mean(axis=0),
        rmse_deg=np.sqrt((flat**2).mean(axis=0)),
        p95_deg=np.percentile(flat, 95, axis=0),
        p99_deg=np.percentile(flat, 99, axis=0),
        per_horizon_mae_deg=abs_deg.mean(axis=(0, 2)),
        n_windows=len(outputs),
    )
