"""Offline conformal calibration of attitude-residual bounds.

The nonconformity score of one forecast origin is the worst residual-norm
over its actionable target window: Z_t = max over h in {d+1, .., H_pred} of
||vee(log(R_hat^T R))||.  The calibrated radius delta_omega is the standard
split-conformal quantile of {Z_t}: with n scores at miscoverage rho, the
ceil((1 - rho)(n + 1))-th smallest score, clamped to the largest.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .forecast import AttitudeSeries, ForecastOutput, paired_windows
from .geometry import EulerZYX, euler_to_rotation, rotation_log_vee


def _residuals(series: AttitudeSeries, outputs: list[ForecastOutput], d: int) -> np.ndarray:
    """Residual vectors of every output's target window as one rotation
    stack, shape (n, H_pred - d, 3)."""
    angles, truth = paired_windows(series, outputs, d)
    rows = np.moveaxis(np.stack([angles, truth])[:, :, d:], -1, 0)  # (3, 2, n, H_pred - d)
    R_hat, R = euler_to_rotation(EulerZYX(*rows))
    return rotation_log_vee(R_hat, R)


def window_residuals(
    series: AttitudeSeries, output: ForecastOutput, d: int
) -> np.ndarray:
    """Attitude residual vectors over the target window, shape (H_pred - d, 3).

    Row j is vee(log(R_hat^T R)) at horizon h = d + 1 + j, comparing the
    forecast attitude against the realized one.  Degenerate rotations raise;
    calibration must not ingest corrupted residuals.
    """
    return _residuals(series, [output], d)[0]


def target_window_max(residuals: np.ndarray) -> float:
    """Nonconformity score: largest residual norm in the window."""
    residuals = np.atleast_2d(np.asarray(residuals, dtype=float))
    if residuals.size == 0:
        raise DataError("empty residual window has no nonconformity score")
    return float(np.max(np.linalg.norm(residuals, axis=1)))


def conformal_radius(scores, rho: float) -> float:
    """Split-conformal quantile of the scores at miscoverage level rho."""
    z = np.sort(np.asarray(scores, dtype=float))
    n = z.size
    if n < 1:
        raise DataError("need at least one calibration score")
    if not 0.0 < rho < 1.0:
        raise ValueError(f"miscoverage rho must lie in (0, 1), got {rho}")
    idx = int(np.ceil((1.0 - rho) * (n + 1)))
    return float(z[min(idx, n) - 1])


def coverage_check(scores, delta_omega: float) -> float:
    """Fraction of held-out scores within the calibrated radius."""
    z = np.asarray(scores, dtype=float)
    if z.size == 0:
        raise DataError("no held-out scores to check coverage on")
    return float(np.mean(z <= delta_omega))


@dataclass(frozen=True)
class CalibrationReport:
    """Calibrated pointing-error radius plus the protocol parameters
    (io.save_calibration_report writes them as calibration.txt)."""

    delta_omega: float  # rad
    rho: float
    n: int  # number of calibration origins
    d: int
    h_pred: int
    scores: np.ndarray = field(default_factory=lambda: np.empty(0))


def calibrate(
    series: AttitudeSeries,
    outputs: list[ForecastOutput],
    d: int,
    rho: float,
) -> CalibrationReport:
    """Full offline calibration from forecasts and realized telemetry.

    Computes per-origin target-window scores and the conformal radius at
    miscoverage rho.
    """
    if not outputs:
        raise DataError("no forecast origins to calibrate on")
    h_pred = outputs[0].angles.shape[0]
    # the norm is target_window_max's, row by row
    scores = np.max(np.linalg.norm(_residuals(series, outputs, d), axis=-1), axis=-1)
    return CalibrationReport(
        delta_omega=conformal_radius(scores, rho),
        rho=rho,
        n=len(outputs),
        d=d,
        h_pred=h_pred,
        scores=scores,
    )
