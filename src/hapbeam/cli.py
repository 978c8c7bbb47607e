"""Command-line front end.

Subcommands: gen-telemetry, forecast-eval, calibrate, run, sweep.  Exit
codes: 0 success, 2 configuration error, 3 data or file I/O error, 4
internal invariant violation.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .calibration import calibrate, coverage_check
from .errors import ConfigError, DataError, HapbeamError, exit_code_for
from .forecast import ForecastRequest, forecast_errors
from .harness import (
    LOCAL_FORECASTERS,
    CalibrationSpec,
    ForecastSpec,
    HorizonSpec,
    ScenarioConfig,
    SeedSpec,
    forecaster,
    generate_attitude_series,
    run_experiment,
    sweep,
)
from .io import (
    emit_results,
    load_config_json,
    load_telemetry_csv,
    save_calibration_report,
    save_forecast_csv,
    save_telemetry_csv,
    write_json,
)


def _check_flags(flags: str, build_spec) -> None:
    """Check flag values by building the config spec that holds them; a bad
    value exits 2 with a message naming the flags as typed."""
    try:
        build_spec()
    except ConfigError as exc:
        raise ConfigError(f"{flags}: {exc}") from None


def _issue_all(args):
    """Load the telemetry and issue a local forecast at every stride-th
    origin.  The window arguments are checked as a forecast-mode scenario
    config checks them, so a bad value exits 2 before any forecasting."""
    _check_flags(
        f"--forecaster {args.forecaster} --order {args.order} --l-win {args.l_win} "
        f"--h-pred {args.h_pred} --delay {args.delay}",
        lambda: ScenarioConfig(
            horizon=HorizonSpec(l_win=args.l_win, h_pred=args.h_pred, delay=args.delay),
            forecaster=ForecastSpec(kind=args.forecaster, order=args.order),
            compensation="forecast",
        ),
    )
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
    _check_flags(f"--dt {args.dt}", lambda: HorizonSpec(dt_s=args.dt))
    _check_flags(f"--seed {args.seed}", lambda: SeedSpec(attitude=args.seed))
    series = generate_attitude_series(args.seed, args.length, args.dt)
    save_telemetry_csv(args.out, series)
    print(f"wrote {args.length} samples at dt={args.dt}s to {args.out}")
    return 0


def cmd_forecast_eval(args) -> int:
    series, outputs = _issue_all(args)
    report = forecast_errors(series, outputs, args.delay)
    payload = {"forecaster": args.forecaster, **{
        f.name: np.asarray(getattr(report, f.name)).tolist() for f in fields(report)
    }}
    if args.out:
        write_json(args.out, payload)
        print(f"wrote forecast error report to {args.out}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_calibrate(args) -> int:
    _check_flags(f"--rho {args.rho}", lambda: CalibrationSpec(rho=args.rho))
    series, outputs = _issue_all(args)
    report = calibrate(series, outputs, args.delay, args.rho)
    save_calibration_report(args.out, report)
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
    config = ScenarioConfig.from_dict(load_config_json(args.config))
    result = run_experiment(config)
    paths = emit_results(result, args.out)
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
    """Build and check every cell, then run them one at a time; each cell's
    directory and the index of the cells so far are written as it finishes,
    so a failing cell keeps the finished ones."""
    raw = load_config_json(args.config)
    if not isinstance(raw, dict) or "axes" not in raw:
        raise ConfigError("sweep config must contain an 'axes' mapping")
    unknown = sorted(set(raw) - {"base", "axes"})
    if unknown:
        raise ConfigError(f"unknown key(s) in sweep config: {', '.join(unknown)}")
    cells = sweep(raw.get("base", {}), raw["axes"])
    out = Path(args.out)
    index = []
    for i, (overrides, config) in enumerate(cells):
        result = run_experiment(config)
        emit_results(result, out / f"cell_{i:03d}")
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
        write_json(out / "index.json", index)
        keys = ", ".join(f"{k}={v}" for k, v in sorted(overrides.items()))
        print(
            f"cell {i:03d} [{keys}]: QAR {agg['mean_QAR']:.4f}, "
            f"sum-rate {agg['mean_sum_rate']:.4f}"
        )
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
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_telemetry)

    # a telemetry file has no training split to fit the direct kind on, so
    # these subcommands keep the per-window AR baseline
    horizon, fc = HorizonSpec(), ForecastSpec(kind="ar", order=24)
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
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="cross-product of scenario overrides")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
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
