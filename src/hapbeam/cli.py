"""Command-line front end.

Subcommands: gen-telemetry, forecast-eval, calibrate, run, sweep.  Exit
codes: 0 success, 2 configuration error, 3 data or file I/O error, 4
internal invariant violation.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .calibration import calibrate, coverage_check
from .errors import ConfigError, DataError, HapbeamError, exit_code_for
from .forecast import ForecastRequest, forecast_errors, save_forecast_csv
from .harness import (
    LOCAL_FORECASTERS,
    CalibrationSpec,
    ForecastSpec,
    HorizonSpec,
    ScenarioConfig,
    forecaster,
    generate_attitude_series,
    run_experiment,
    sweep,
)
from .io import emit_results, load_telemetry_csv, save_telemetry_csv

def _load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None


def _issue_all(args):
    """Load the telemetry and issue a local forecast at every stride-th
    origin.  The window arguments are checked as the scenario config checks
    them, so a bad value exits 2 before any forecasting."""
    try:
        ScenarioConfig(
            horizon=HorizonSpec(l_win=args.l_win, h_pred=args.h_pred, delay=args.delay),
            forecaster=ForecastSpec(kind=args.forecaster, order=args.order),
        )
    except ConfigError as exc:
        raise ConfigError(
            f"--forecaster {args.forecaster} --order {args.order} --l-win {args.l_win} "
            f"--h-pred {args.h_pred} --delay {args.delay}: {exc}"
        ) from None
    if args.stride < 1:
        raise ConfigError(f"--stride must be >= 1, got {args.stride}")
    series = load_telemetry_csv(args.telemetry)
    fn = forecaster(args.forecaster, args.order)
    first = args.l_win - 1
    last = len(series.samples) - 1 - args.h_pred
    if last < first:
        raise DataError(
            f"telemetry too short: need at least {args.l_win + args.h_pred + 1} samples"
        )
    return series, [
        fn(series, ForecastRequest(t, args.l_win, args.h_pred, args.delay))
        for t in range(first, last + 1, args.stride)
    ]


def cmd_gen_telemetry(args) -> int:
    try:
        HorizonSpec(dt_s=args.dt)
    except ConfigError as exc:
        raise ConfigError(f"--dt {args.dt}: {exc}") from None
    series = generate_attitude_series(
        args.seed, args.length, args.dt,
        amplitude_scale=args.amplitude_scale, noise_scale=args.noise_scale,
    )
    save_telemetry_csv(args.out, series)
    print(f"wrote {args.length} samples at dt={args.dt}s to {args.out}")
    return 0


def cmd_forecast_eval(args) -> int:
    series, outputs = _issue_all(args)
    report = forecast_errors(series, outputs, args.delay)
    payload = {
        "forecaster": args.forecaster,
        "n_windows": report.n_windows,
        "mae_deg": list(map(float, report.mae_deg)),
        "rmse_deg": list(map(float, report.rmse_deg)),
        "p95_deg": list(map(float, report.p95_deg)),
        "p99_deg": list(map(float, report.p99_deg)),
        "per_horizon_mae_deg": list(map(float, report.per_horizon_mae_deg)),
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote forecast error report to {args.out}")
    else:
        print(text)
    return 0


def cmd_calibrate(args) -> int:
    try:
        CalibrationSpec(rho=args.rho)
    except ConfigError as exc:
        raise ConfigError(f"--rho {args.rho}: {exc}") from None
    series, outputs = _issue_all(args)
    report = calibrate(series, outputs, args.delay, args.rho)
    report.save(args.out)
    cover = coverage_check(report.scores, report.delta_omega)
    print(
        f"calibrated on {report.n} windows: delta_omega = "
        f"{np.degrees(report.delta_omega):.4f} deg at rho = {args.rho} "
        f"(in-sample coverage {cover:.3f}); wrote {args.out}"
    )
    if args.forecasts:
        save_forecast_csv(args.forecasts, outputs)
        print(f"wrote {len(outputs)} forecast windows to {args.forecasts}")
    return 0


def cmd_run(args) -> int:
    config = ScenarioConfig.from_dict(_load_config(args.config))
    result = run_experiment(config)
    paths = emit_results(result, args.out, args.format)
    agg = result.aggregates
    print(
        f"{config.compensation}: {int(agg['n_snapshots'])} snapshots, "
        f"QAR {agg['mean_QAR']:.4f}, sum-rate {agg['mean_sum_rate']:.4f}, "
        f"EE {agg['mean_ee']:.4f}, feasible {agg['mean_feasible']:.3f}"
    )
    for name, path in sorted(paths.items()):
        print(f"  {name}: {path}")
    return 0


def cmd_sweep(args) -> int:
    raw = _load_config(args.config)
    if not isinstance(raw, dict) or "axes" not in raw:
        raise ConfigError("sweep config must contain an 'axes' mapping")
    unknown = sorted(set(raw) - {"base", "axes"})
    if unknown:
        raise ConfigError(f"unknown key(s) in sweep config: {', '.join(unknown)}")
    base = raw.get("base", {})
    cells = sweep(base, raw["axes"])
    out = Path(args.out)
    index = []
    for i, (overrides, result) in enumerate(cells):
        cell_dir = out / f"cell_{i:03d}"
        emit_results(result, cell_dir, args.format)
        agg = result.aggregates
        index.append(
            {
                "cell": i,
                "overrides": overrides,
                "mean_QAR": agg["mean_QAR"],
                "mean_sum_rate": agg["mean_sum_rate"],
                "mean_feasible": agg["mean_feasible"],
            }
        )
        keys = ", ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        print(
            f"cell {i:03d} [{keys}]: QAR {agg['mean_QAR']:.4f}, "
            f"sum-rate {agg['mean_sum_rate']:.4f}"
        )
    out.mkdir(parents=True, exist_ok=True)
    (out / "index.json").write_text(json.dumps(index, indent=2) + "\n")
    print(f"wrote {len(cells)} cells under {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hapbeam",
        description="Robust downlink beamforming under platform shaking: "
        "forecasting, calibration, and per-slot solves at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-telemetry", help="write a synthetic attitude series")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--length", type=int, default=2600)
    p.add_argument("--dt", type=float, default=0.1)
    p.add_argument("--amplitude-scale", type=float, default=1.0)
    p.add_argument("--noise-scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_telemetry)

    horizon, fc = HorizonSpec(), ForecastSpec()
    for name, fn in (("forecast-eval", cmd_forecast_eval), ("calibrate", cmd_calibrate)):
        p = sub.add_parser(
            name,
            help=(
                "score forecasts on telemetry"
                if name == "forecast-eval"
                else "fit the pointing-residual bound"
            ),
        )
        p.add_argument("--telemetry", required=True)
        p.add_argument("--forecaster", choices=LOCAL_FORECASTERS, default=fc.kind)
        p.add_argument("--order", type=int, default=fc.order)
        p.add_argument("--l-win", type=int, default=horizon.l_win)
        p.add_argument("--h-pred", type=int, default=horizon.h_pred)
        p.add_argument("--delay", type=int, default=horizon.delay)
        p.add_argument("--stride", type=int, default=1)
        if name == "calibrate":
            p.add_argument("--rho", type=float, default=CalibrationSpec().rho)
            p.add_argument("--out", required=True)
            p.add_argument(
                "--forecasts", default="", help="also save the issued forecasts as CSV"
            )
        else:
            p.add_argument("--out", default="")
        p.set_defaults(fn=fn)

    p = sub.add_parser("run", help="run one scenario end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="cross-product of scenario overrides")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except HapbeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
