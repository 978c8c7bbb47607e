"""File formats: telemetry CSV, forecast-replay CSV, per-snapshot results,
summary JSON and the calibration report, and the reader of the scenario
and sweep config JSON.  No other module opens, reads, writes or creates a
file or directory.

Angles cross the disk boundary as decimal-degree text produced by the
high-precision converters in units.py, so a save/load cycle returns the
exact in-memory radians.  Result floats are written with repr, which float
inverts exactly; two identical runs therefore produce byte-identical
snapshot tables.

The three CSV formats share one writer (LF line ends).  snapshots.csv,
summary.json and calibration.txt are written, never read back.  The two
input tables, telemetry and forecast replay, share one strict reader: the
header must match after stripping; blank lines are skipped; every row has
one field per column; and a cell that does not parse raises a ParseError
naming the path, the file line (the header is line 1) and the column.
Every reader reports a path it cannot read (missing, a directory, no
permission) as a DataError "cannot read <path>: <reason>".
"""

import json
import math
from pathlib import Path

import numpy as np

from .calibration import CalibrationReport
from .errors import ConfigError, DataError, ParseError
from .forecast import AttitudeSeries, ForecastOutput
from .geometry import wrap_pi
from .units import deg_text_to_rad, rad_to_deg_text


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _finite_deg(text: str) -> float:
    return _finite(deg_text_to_rad(text))


# The CSV tables: column name -> parser of its cells, in file order.
TELEMETRY_HEADER = {
    "t": _finite, "yaw_deg": _finite_deg, "pitch_deg": _finite_deg, "roll_deg": _finite_deg,
}
FORECAST_HEADER = {
    "origin_slot": int, "horizon": int,
    "yaw_deg": _finite_deg, "pitch_deg": _finite_deg, "roll_deg": _finite_deg,
}
# snapshots.csv: column name -> type that formats its cells (str), in file
# order; write_snapshots_csv rejects a result that lacks one of them.
SNAPSHOT_COLUMNS = {
    "snapshot": int,
    "mode": str,
    "K": int,
    "QAR": float,
    "sum_rate": float,
    "ee": float,
    "power": float,
    "feasible": float,
    "max_pointing_err_deg": float,
}
# calibration.txt: key -> type of its value, in file order
REPORT_KEYS = {"delta_omega_rad": float, "rho": float, "n": int, "d": int, "h_pred": int}


def _read_text(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file ({exc.reason})") from None


def _read_table(path, columns: dict) -> list[tuple[int, list]]:
    """(file line, parsed cells) of every row of a CSV table whose header
    lists the keys of `columns`; each value parses one column's cells."""
    path = Path(path)
    lines = _read_text(path).splitlines()
    header = ",".join(columns)
    if not lines or lines[0].strip() != header:
        raise ParseError(f"{path}: expected header {header!r}")
    rows = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != len(columns):
            raise ParseError(
                f"{path}: row {n} has {len(fields)} fields, expected {len(columns)}"
            )
        cells = []
        for (name, parse), text in zip(columns.items(), fields):
            try:
                cells.append(parse(text))
            except (ValueError, ArithmeticError):
                raise ParseError(f"{path}: row {n}, column {name}: {text!r}") from None
        rows.append((n, cells))
    return rows


def load_config_json(path):
    """The parsed content of a scenario or sweep config file.  Its fields
    are checked where the config is built; invalid JSON is a ConfigError."""
    path = Path(path)
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _write_table(path, columns, rows) -> None:
    _write_lines(path, [",".join(columns), *(",".join(row) for row in rows)])


def save_telemetry_csv(path, series: AttitudeSeries) -> None:
    _write_table(path, TELEMETRY_HEADER, (
        [repr(float(n * series.dt)), *map(rad_to_deg_text, row)]
        for n, row in enumerate(series.samples)
    ))


def load_telemetry_csv(path) -> AttitudeSeries:
    """Strict reader: finite values, at least two rows, uniformly spaced
    timestamps."""
    rows = [cells for _, cells in _read_table(path, TELEMETRY_HEADER)]
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least 2 telemetry rows")
    table = np.asarray(rows)
    steps = np.diff(table[:, 0])
    dt = steps[0]
    if dt <= 0 or np.any(np.abs(steps - dt) > 1e-9 * max(abs(dt), 1.0)):
        raise ParseError(f"{path}: timestamps must be uniformly increasing")
    return AttitudeSeries.build(float(dt), table[:, 1:])


def save_forecast_csv(path, outputs: list[ForecastOutput]) -> None:
    """Write forecasts as origin_slot,horizon,yaw_deg,pitch_deg,roll_deg.

    Degrees are printed with enough precision that loading the file
    reproduces the in-memory radians bit-exactly.
    """
    _write_table(path, FORECAST_HEADER, (
        [str(out.origin), str(h + 1), *(rad_to_deg_text(float(v)) for v in row)]
        for out in sorted(outputs, key=lambda o: o.origin)
        for h, row in enumerate(out.angles)
    ))


def load_forecast_csv(path) -> dict[int, ForecastOutput]:
    """Load externally produced forecasts.

    Requires contiguous horizons 1..H per origin and one consistent
    horizon count across origins.  Yaw is wrapped on load.
    """
    rows: dict[int, dict[int, list]] = {}
    for n, (origin, horizon, *angles) in _read_table(path, FORECAST_HEADER):
        if horizon < 1:
            raise ParseError(
                f"{path}: row {n}, column horizon: must be >= 1, got {horizon}"
            )
        per = rows.setdefault(origin, {})
        if horizon in per:
            raise ParseError(
                f"{path}: row {n}: duplicate horizon {horizon} for origin {origin}"
            )
        per[horizon] = angles
    if not rows:
        raise ParseError(f"{path}: forecast file contains no rows")
    h_counts = {max(per) for per in rows.values()}
    if len(h_counts) != 1:
        raise ParseError(
            f"{path}: inconsistent horizon counts across origins: {sorted(h_counts)}"
        )
    h_pred = h_counts.pop()
    out = {}
    for origin, per in rows.items():
        missing = set(range(1, h_pred + 1)) - set(per)
        if missing:
            raise ParseError(f"{path}: origin {origin}: missing horizons {sorted(missing)}")
        rad = np.array([per[h] for h in range(1, h_pred + 1)])
        rad[:, 0] = wrap_pi(rad[:, 0])
        out[origin] = ForecastOutput(origin, rad, "external")
    return out


def write_snapshots_csv(path, columns: dict) -> None:
    missing = [c for c in SNAPSHOT_COLUMNS if c not in columns]
    if missing:
        raise ConfigError(f"snapshot table lacks column(s): {', '.join(missing)}")
    cells = [[str(kind(v)) for v in columns[name]] for name, kind in SNAPSHOT_COLUMNS.items()]
    _write_table(path, SNAPSHOT_COLUMNS, zip(*cells, strict=True))


def save_calibration_report(path, report: CalibrationReport) -> None:
    values = (report.delta_omega, report.rho, report.n, report.d, report.h_pred)
    _write_lines(
        path, [f"{key} = {kind(v)}" for (key, kind), v in zip(REPORT_KEYS.items(), values)]
    )


def _result_payload(result) -> dict:
    return {
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


def write_json(path, payload) -> None:
    _write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def emit_results(result, out_dir) -> dict:
    """Write the per-snapshot table as snapshots.csv, the aggregates as
    summary.json and the calibration report as calibration.txt into
    out_dir; returns {name: path}."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from None
    paths = {
        "snapshots": out / "snapshots.csv",
        "summary": out / "summary.json",
        "calibration": out / "calibration.txt",
    }
    write_snapshots_csv(paths["snapshots"], result.snapshots)
    write_json(paths["summary"], _result_payload(result))
    save_calibration_report(paths["calibration"], result.calibration)
    return paths
