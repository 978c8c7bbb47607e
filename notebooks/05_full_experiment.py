"""Monte Carlo comparison of attitude-compensation modes.

Runs the full pipeline (telemetry, calibration, certification, per-slot
solves) once per compensation mode on matched channel seeds, prints each
mode's calibrated radius delta_omega with the share of snapshots whose
pointing error it covers, the paired comparison, and emits the result
bundle for one run.
"""

import tempfile
from pathlib import Path

import numpy as np

from hapbeam import ScenarioConfig, emit_results, run_experiment

BASE = {"snapshots": 150}

results = {}
for mode in ("none", "reactive", "forecast", "ideal"):
    cfg = ScenarioConfig.from_dict({**BASE, "compensation": mode})
    results[mode] = run_experiment(cfg)

# each mode calibrates delta_omega on the attitude estimate that steers its
# beam; a user is certified only while L^2 delta_omega^2 <= epsilon
print(f"{'mode':10s} {'QAR':>7s} {'sum rate':>9s} {'EE':>8s} {'p95 err':>8s} "
      f"{'d_omega':>8s} {'covered':>8s}")
for mode, res in results.items():
    a = res.aggregates
    d_omega = np.rad2deg(res.calibration.delta_omega)
    covered = np.mean(res.snapshots["max_pointing_err_deg"] <= d_omega)
    print(f"{mode:10s} {a['mean_QAR']:7.3f} {a['mean_sum_rate']:9.3f} "
          f"{a['mean_ee']:8.4f} {a['p95_max_pointing_err_deg']:8.3f} "
          f"{d_omega:8.3f} {covered:8.3f}")

# channel seeds are matched across modes, so the comparison is paired
base = np.asarray(results["none"].snapshots["sum_rate"])
ideal = np.asarray(results["ideal"].snapshots["sum_rate"])
diff = ideal - base
t_stat = diff.mean() / (diff.std(ddof=1) / np.sqrt(len(diff)))
print(f"\npaired t (ideal vs none): {t_stat:.1f} over {len(diff)} snapshots")

rep = results["forecast"].calibration
print(f"forecast-mode calibration: delta_omega "
      f"{np.rad2deg(rep.delta_omega):.3f} deg from {rep.n} origins")

out = Path(tempfile.mkdtemp()) / "forecast_run"
paths = emit_results(results["forecast"], out, fmt="csv")
print("emitted:", ", ".join(str(p) for p in paths.values()))
