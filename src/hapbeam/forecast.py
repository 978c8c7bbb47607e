"""Attitude forecasting baselines and forecast-error accounting.

A forecaster sees a causal look-back window of yaw/pitch/roll samples ending
at the origin slot t and emits one attitude per horizon h in {1, .., H_pred}.
Yaw is treated as a circular quantity everywhere: the linear-trend fit
unwraps it, the autoregressive fit works on its sine/cosine pair, and all
errors are computed through the wrapped difference.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParseError
from .geometry import wrap_pi
from .units import deg_text_to_rad, rad_to_deg_text

_EPS_SLOPE = 1e-12  # ridge in the least-squares slope denominator

FORECAST_HEADER = ["origin_slot", "horizon", "yaw_deg", "pitch_deg", "roll_deg"]


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
    and the actuation delay d used downstream for target-window selection."""

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
    cols = {
        "sin": _fit_ar_forecast(np.sin(w[:, 0]), order, req.h_pred),
        "cos": _fit_ar_forecast(np.cos(w[:, 0]), order, req.h_pred),
        "pitch": _fit_ar_forecast(w[:, 1], order, req.h_pred),
        "roll": _fit_ar_forecast(w[:, 2], order, req.h_pred),
    }
    if any(v is None for v in cols.values()):
        fb = forecast_linear_trend(series, req)
        return ForecastOutput(req.origin, fb.angles, f"ar{order}+linear-fallback")
    s, c = cols["sin"], cols["cos"]
    norm = np.hypot(s, c)
    yaw = np.where(norm > 1e-12, np.arctan2(s, c), w[-1, 0])
    angles = np.column_stack([wrap_pi(yaw), cols["pitch"], cols["roll"]])
    return ForecastOutput(req.origin, angles, f"ar{order}")


# ---------------------------------------------------------------------------
# External forecast replay
# ---------------------------------------------------------------------------


def save_forecast_csv(path, outputs: list[ForecastOutput]) -> None:
    """Write forecasts as origin_slot,horizon,yaw_deg,pitch_deg,roll_deg.

    Degrees are printed with enough precision that loading the file
    reproduces the in-memory radians bit-exactly.
    """
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(FORECAST_HEADER)
        for out in sorted(outputs, key=lambda o: o.origin):
            for h in range(out.angles.shape[0]):
                wr.writerow(
                    [out.origin, h + 1]
                    + [rad_to_deg_text(float(out.angles[h, j])) for j in range(3)]
                )


def load_forecast_csv(path) -> dict[int, ForecastOutput]:
    """Load externally produced forecasts.

    Requires the exact header, contiguous horizons 1..H per origin, one
    consistent horizon count across origins, and finite numbers; parse
    errors name the offending row and column.  Yaw is wrapped on load.
    """
    rows: dict[int, dict[int, np.ndarray]] = {}
    with open(path, newline="") as f:
        rd = csv.reader(f)
        header = next(rd, None)
        if header != FORECAST_HEADER:
            raise ParseError(
                f"bad forecast header {header!r}; expected {FORECAST_HEADER!r}"
            )
        for i, row in enumerate(rd, start=2):
            if len(row) != 5:
                raise ParseError(f"row {i}: expected 5 fields, got {len(row)}")
            try:
                origin = int(row[0])
            except ValueError as e:
                raise ParseError(f"row {i}, column origin_slot: {row[0]!r}") from e
            try:
                horizon = int(row[1])
            except ValueError as e:
                raise ParseError(f"row {i}, column horizon: {row[1]!r}") from e
            vals = np.empty(3)
            for j, name in enumerate(FORECAST_HEADER[2:]):
                try:
                    vals[j] = deg_text_to_rad(row[2 + j])
                except (ValueError, ArithmeticError) as e:
                    raise ParseError(f"row {i}, column {name}: {row[2 + j]!r}") from e
            if not np.all(np.isfinite(vals)):
                raise ParseError(f"row {i}: non-finite angle")
            if horizon < 1:
                raise ParseError(f"row {i}, column horizon: must be >= 1, got {horizon}")
            per = rows.setdefault(origin, {})
            if horizon in per:
                raise ParseError(f"row {i}: duplicate horizon {horizon} for origin {origin}")
            per[horizon] = vals
    if not rows:
        raise ParseError("forecast file contains no rows")
    h_counts = {max(per) for per in rows.values()}
    if len(h_counts) != 1:
        raise ParseError(f"inconsistent horizon counts across origins: {sorted(h_counts)}")
    h_pred = h_counts.pop()
    out = {}
    for origin, per in rows.items():
        missing = set(range(1, h_pred + 1)) - set(per)
        if missing:
            raise ParseError(
                f"origin {origin}: missing horizons {sorted(missing)}"
            )
        rad = np.stack([per[h] for h in range(1, h_pred + 1)])
        rad[:, 0] = wrap_pi(rad[:, 0])
        out[origin] = ForecastOutput(origin, rad, "external")
    return out


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
    d: int
    h_pred: int


def forecast_errors(
    series: AttitudeSeries, outputs: list[ForecastOutput], d: int
) -> ForecastErrorReport:
    """Compare forecasts against the realized series.

    Yaw errors go through the wrapped difference, so a forecast of 179 deg
    against a truth of -179 deg scores 2 deg.  Truth must cover every
    origin's full horizon.
    """
    if not outputs:
        raise DataError("no forecast outputs to evaluate")
    h_pred = outputs[0].angles.shape[0]
    if any(o.angles.shape[0] != h_pred for o in outputs):
        raise DataError("outputs disagree on horizon count")
    if not 0 <= d < h_pred:
        raise ValueError(f"decision delay d={d} must satisfy 0 <= d < H_pred={h_pred}")
    errs = np.empty((len(outputs), h_pred, 3))
    for i, out in enumerate(outputs):
        if out.origin + h_pred >= len(series):
            raise DataError(
                f"origin {out.origin}: truth does not cover horizon {h_pred}"
            )
        truth = series.samples[out.origin + 1 : out.origin + h_pred + 1]
        diff = out.angles - truth
        diff[:, 0] = wrap_pi(diff[:, 0])
        errs[i] = diff
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
        d=d,
        h_pred=h_pred,
    )
