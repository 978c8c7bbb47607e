"""Offline conformal calibration of attitude-residual bounds.

The nonconformity score of one forecast origin is the worst residual-norm
over its actionable target window: Z_t = max over h in {d+1, .., H_pred} of
||vee(log(R_hat^T R))||.  The calibrated radius delta_omega is the standard
split-conformal quantile of {Z_t}: with n scores at miscoverage rho, the
ceil((1 - rho)(n + 1))-th smallest score, clamped to the largest.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParseError
from .forecast import AttitudeSeries, ForecastOutput
from .geometry import EulerZYX, euler_to_rotation, rotation_log_vee


def _rot(row) -> np.ndarray:
    return euler_to_rotation(EulerZYX.from_array(row))


def window_residuals(
    series: AttitudeSeries, output: ForecastOutput, d: int
) -> np.ndarray:
    """Attitude residual vectors over the target window, shape (H_pred - d, 3).

    Row j is vee(log(R_hat^T R)) at horizon h = d + 1 + j, comparing the
    forecast attitude against the realized one.  Degenerate rotations raise;
    calibration must not ingest corrupted residuals.
    """
    h_pred = output.angles.shape[0]
    if not 0 <= d < h_pred:
        raise ValueError(f"decision delay d={d} must satisfy 0 <= d < H_pred={h_pred}")
    if output.origin + h_pred >= len(series):
        raise DataError(
            f"origin {output.origin}: truth does not cover horizon {h_pred}"
        )
    res = np.empty((h_pred - d, 3))
    for j, h in enumerate(range(d + 1, h_pred + 1)):
        R_hat = _rot(output.angles[h - 1])
        R = _rot(series.samples[output.origin + h])
        res[j] = rotation_log_vee(R_hat, R)
    return res


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


REPORT_KEYS = ("delta_omega_rad", "rho", "n", "d", "h_pred")


@dataclass(frozen=True)
class CalibrationReport:
    """Calibrated pointing-error radius plus the protocol parameters."""

    delta_omega: float  # rad
    rho: float
    n: int  # number of calibration origins
    d: int
    h_pred: int
    scores: np.ndarray = field(default_factory=lambda: np.empty(0))

    def save(self, path) -> None:
        lines = [
            f"delta_omega_rad = {self.delta_omega!r}",
            f"rho = {self.rho!r}",
            f"n = {self.n}",
            f"d = {self.d}",
            f"h_pred = {self.h_pred}",
        ]
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path) -> "CalibrationReport":
        kv = {}
        with open(path) as f:
            for i, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(f"line {i}: expected 'key = value', got {line!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in REPORT_KEYS:
                    raise ParseError(f"line {i}: unknown key {key!r}")
                if key in kv:
                    raise ParseError(f"line {i}: duplicate key {key!r}")
                kv[key] = value.strip()
        missing = set(REPORT_KEYS) - set(kv)
        if missing:
            raise ParseError(f"missing keys: {sorted(missing)}")
        try:
            return cls(
                delta_omega=float(kv["delta_omega_rad"]),
                rho=float(kv["rho"]),
                n=int(kv["n"]),
                d=int(kv["d"]),
                h_pred=int(kv["h_pred"]),
            )
        except (ValueError, TypeError) as e:
            raise ParseError(f"malformed calibration report: {e}") from e


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
    scores = np.empty(len(outputs))
    for i, out in enumerate(outputs):
        scores[i] = target_window_max(window_residuals(series, out, d))
    return CalibrationReport(
        delta_omega=conformal_radius(scores, rho),
        rho=rho,
        n=len(outputs),
        d=d,
        h_pred=h_pred,
        scores=scores,
    )
