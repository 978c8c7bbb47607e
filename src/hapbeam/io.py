"""File formats: telemetry CSV, per-snapshot results, summary JSON.

Angles cross the disk boundary as decimal-degree text produced by the
high-precision converters in units.py, so a save/load cycle returns the
exact in-memory radians.  Result floats are written with repr, which the
reader inverts exactly; two identical runs therefore produce byte-identical
snapshot tables.
"""

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .forecast import AttitudeSeries
from .units import deg_text_to_rad, rad_to_deg_text

TELEMETRY_HEADER = "t,yaw_deg,pitch_deg,roll_deg"
SNAPSHOT_COLUMNS = (
    "snapshot",
    "mode",
    "K",
    "QAR",
    "sum_rate",
    "ee",
    "power",
    "feasible",
    "max_pointing_err_deg",
)


def save_telemetry_csv(path, series: AttitudeSeries) -> None:
    lines = [TELEMETRY_HEADER]
    for n, row in enumerate(series.samples):
        t = repr(float(n * series.dt))
        lines.append(
            f"{t},{rad_to_deg_text(row[0])},{rad_to_deg_text(row[1])},"
            f"{rad_to_deg_text(row[2])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def load_telemetry_csv(path) -> AttitudeSeries:
    """Strict reader: exact header, four fields per row, finite values,
    uniformly spaced timestamps."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"telemetry file not found: {path}")
    lines = path.read_text().splitlines()
    if not lines or lines[0].strip() != TELEMETRY_HEADER:
        raise ParseError(f"{path}: expected header {TELEMETRY_HEADER!r}")
    names = TELEMETRY_HEADER.split(",")
    times, samples = [], []
    for r, line in enumerate(lines[1:], start=1):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(f"{path}: row {r} has {len(fields)} fields, expected 4")
        try:
            times.append(float(fields[0]))
        except ValueError:
            raise ParseError(f"{path}: row {r}, column t: {fields[0]!r}") from None
        row = []
        for name, text in zip(names[1:], fields[1:]):
            try:
                row.append(deg_text_to_rad(text))
            except (ValueError, ArithmeticError):
                raise ParseError(
                    f"{path}: row {r}, column {name}: {text!r}"
                ) from None
        samples.append(row)
    if len(samples) < 2:
        raise ParseError(f"{path}: need at least 2 telemetry rows")
    times = np.asarray(times)
    samples = np.asarray(samples)
    if not np.all(np.isfinite(times)) or not np.all(np.isfinite(samples)):
        raise ParseError(f"{path}: non-finite telemetry values")
    steps = np.diff(times)
    dt = steps[0]
    if dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * max(abs(dt), 1.0)):
        raise ParseError(f"{path}: timestamps must be uniformly increasing")
    return AttitudeSeries.build(float(dt), samples)


def _format_cell(name: str, value) -> str:
    if name == "mode":
        return str(value)
    if name in ("snapshot", "K"):
        return str(int(value))
    return repr(float(value))


def write_snapshots_csv(path, columns: dict) -> None:
    missing = [c for c in SNAPSHOT_COLUMNS if c not in columns]
    if missing:
        raise ConfigError(f"snapshot table lacks column(s): {', '.join(missing)}")
    n = len(columns["snapshot"])
    lines = [",".join(SNAPSHOT_COLUMNS)]
    for i in range(n):
        lines.append(
            ",".join(_format_cell(c, columns[c][i]) for c in SNAPSHOT_COLUMNS)
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_snapshots_csv(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise DataError(f"snapshot table not found: {path}")
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines or lines[0] != ",".join(SNAPSHOT_COLUMNS):
        raise ParseError(f"{path}: unexpected snapshot table header")
    columns = {c: [] for c in SNAPSHOT_COLUMNS}
    for r, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != len(SNAPSHOT_COLUMNS):
            raise ParseError(f"{path}: row {r} has {len(fields)} fields")
        for name, text in zip(SNAPSHOT_COLUMNS, fields):
            try:
                if name == "mode":
                    columns[name].append(text)
                elif name in ("snapshot", "K"):
                    columns[name].append(int(text))
                else:
                    columns[name].append(float(text))
            except ValueError:
                raise ParseError(f"{path}: row {r}, column {name}: {text!r}") from None
    return {
        name: (vals if name == "mode" else np.asarray(vals))
        for name, vals in columns.items()
    }


def _result_payload(result, include_snapshots: bool) -> dict:
    payload = {
        "aggregates": {k: float(v) for k, v in sorted(result.aggregates.items())},
        "calibration": {
            "delta_omega_rad": float(result.calibration.delta_omega),
            "rho": float(result.calibration.rho),
            "n": int(result.calibration.n),
        },
        "forecast": {
            "n_windows": int(result.forecast_report.n_windows),
            "rmse_deg": [float(v) for v in result.forecast_report.rmse_deg],
            "p95_deg": [float(v) for v in result.forecast_report.p95_deg],
        },
        "mode": result.config.compensation,
        "num_users": int(result.config.users.count),
        "snapshots": int(result.aggregates["n_snapshots"]),
    }
    if include_snapshots:
        payload["per_snapshot"] = {
            name: (
                list(result.snapshots[name])
                if name == "mode"
                else [
                    int(v) if name in ("snapshot", "K") else float(v)
                    for v in result.snapshots[name]
                ]
            )
            for name in SNAPSHOT_COLUMNS
        }
    return payload


def write_summary_json(path, result, include_snapshots: bool = False) -> None:
    payload = _result_payload(result, include_snapshots)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def emit_results(result, out_dir, fmt: str = "csv") -> dict:
    """Write the result bundle into out_dir; returns {name: path}.

    csv: per-snapshot table as snapshots.csv plus summary.json aggregates.
    json: everything in summary.json, per-snapshot rows embedded.
    calibration.txt is written either way.
    """
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from None
    paths = {}
    if fmt == "csv":
        paths["snapshots"] = out / "snapshots.csv"
        write_snapshots_csv(paths["snapshots"], result.snapshots)
        paths["summary"] = out / "summary.json"
        write_summary_json(paths["summary"], result, include_snapshots=False)
    else:
        paths["summary"] = out / "summary.json"
        write_summary_json(paths["summary"], result, include_snapshots=True)
    paths["calibration"] = out / "calibration.txt"
    result.calibration.save(paths["calibration"])
    return paths
