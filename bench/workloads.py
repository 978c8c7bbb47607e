"""The benchmark's three workloads.

Each workload is a closed loop: one process, one operation at a time.  Its
inputs come only from the workload seed.  `setup()` builds the inputs and
returns a digest of them; `run_pass()` runs every input once and returns a
`PassResult`.  A pass repeats the same inputs, so passes can be compared
item by item: the timing of an item is its fastest pass, and every pass
must reproduce the outputs of the first bit for bit.

Outputs are checked from outside the library: each solution's power is
recomputed with `transmit_power` and its rates with `sinr_and_rates`, and
the calibrated radius must cover at least 1 - rho of its own windows.
"""

import hashlib
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import hapbeam as hb
from hapbeam import harness


@dataclass
class PassResult:
    item_s: list  # timed seconds per input item, same items every pass
    latency_s: list  # per-operation latency samples, same order every pass
    ops: int  # operations attempted
    work: int  # operations the throughput counts
    failed: int  # operations that raised or failed a check
    digest: str  # hash of every output, for the determinism check
    quality: dict = field(default_factory=dict)


def _report_exception(what: str) -> None:
    print(f"benchmark: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def solution_ok(problem, sol) -> bool:
    """Recompute power and rates of one solution; every admitted user
    must be certified and clear its rate floor, and power must fit."""
    D = sol.d_matrix
    power = hb.transmit_power(problem, D)
    _, rates = hb.sinr_and_rates(problem.h_eff, D, problem.noise_power, problem.bandwidth)
    adm = np.asarray(sol.admitted, dtype=bool)
    return bool(
        power <= problem.p_max
        and np.all(rates[adm] >= problem.r_min[adm])
        and not np.any(adm & ~problem.certified)
        and sol.qar == adm.sum() / problem.num_users
    )


def _hash_floats(h, *values) -> None:
    for v in values:
        h.update(np.ascontiguousarray(v, dtype=float).tobytes())


class ScenarioDefault:
    """`run_experiment` on the default ScenarioConfig, then `emit_results`
    into a temporary directory, as `hapbeam run` does.  An operation is
    one snapshot.

    The attitude, channel and admission seeds come from the workload seed.
    The user placement stays the default one: solver work depends mostly
    on where the users stand (79 to 114 KKT solves per snapshot over six
    drawn placements, 69 to 70 with the default placement and the other
    seeds drawn), so a drawn placement would swamp any code change.
    """

    name = "scenario-default"

    def __init__(self, seed: int, smoke: bool, work_dir):
        self.seed = seed
        self.snapshots = 10 if smoke else hb.ScenarioConfig().snapshots
        self.work_dir = work_dir

    def setup(self) -> str:
        attitude, channel, admission = (
            int(s) for s in np.random.SeedSequence([self.seed, 1]).generate_state(3)
        )
        self.config = replace(
            hb.ScenarioConfig(),
            seeds=harness.SeedSpec(
                attitude=attitude, placement=harness.SeedSpec().placement,
                channel=channel, admission=admission,
            ),
            snapshots=self.snapshots,
        )
        return repr(self.config)

    def run_pass(self, tracer=None) -> PassResult:
        captured, stamps = [], []
        solve = harness.solve_snapshot
        clock = time.perf_counter

        def capture(problem, *args, **kwargs):
            sol = solve(problem, *args, **kwargs)
            stamps.append(clock())
            captured.append((problem, sol))
            return sol

        out_dir = tempfile.mkdtemp(dir=self.work_dir)
        harness.solve_snapshot = capture
        try:
            if tracer is not None:
                tracer.op = 0
            t0 = clock()
            try:
                result = hb.run_experiment(self.config)
                paths = hb.emit_results(result, out_dir)
            except Exception:
                _report_exception("run_experiment")
                return PassResult([clock() - t0], [], self.snapshots,
                                  self.snapshots, self.snapshots, "failed")
            t1 = clock()
            table = paths["snapshots"].read_bytes()
        finally:
            harness.solve_snapshot = solve
            shutil.rmtree(out_dir)
        # Items: start to the first solve's return (forecasting and
        # calibration included), one per later snapshot, then the tail
        # through emit_results.  They add up to the pass's wall time.
        item_s = np.diff([t0, *stamps, t1]).tolist()
        return self._check(result, table, captured, item_s)

    def _check(self, result, table: bytes, captured, item_s: list) -> PassResult:
        snap = result.snapshots
        failed = 0
        if len(captured) != self.snapshots or len(snap["snapshot"]) != self.snapshots:
            failed = self.snapshots
        else:
            for i, (problem, sol) in enumerate(captured):
                row_ok = (
                    snap["QAR"][i] == sol.qar
                    and snap["sum_rate"][i] == sol.sum_rate
                    and snap["power"][i] == sol.power
                    and snap["feasible"][i] == 1.0
                )
                failed += not (row_ok and solution_ok(problem, sol))
        agg = result.aggregates
        quality = {
            "mean_qar": agg["mean_QAR"],
            "mean_sum_rate": agg["mean_sum_rate"],
            "delta_omega_deg": float(np.degrees(result.calibration.delta_omega)),
            "forecast_rmse_deg": float(np.max(result.forecast_report.rmse_deg)),
        }
        h = hashlib.sha256(table)
        _hash_floats(h, list(quality.values()))
        return PassResult(
            item_s=item_s,
            latency_s=list(snap["solve_time_s"]),
            ops=self.snapshots,
            work=self.snapshots,
            failed=failed,
            digest=h.hexdigest(),
            quality=quality,
        )


def fuzz_problem(rng: np.random.Generator, K: int, pure_los: bool):
    """One criterion-6-style snapshot: 6x6 array with K users, random
    placement, Rician factor, budget, floors, noise and certified mask."""
    cfg = hb.ArrayConfig(6, 6, 0.005, 0.005, 0.01, K)
    users = hb.place_users("uniform", K, 20e3, int(rng.integers(1 << 31)))
    geom = hb.WorldGeometry.build([0.0, 0.0, 20e3], users)
    kappa = np.inf if pure_los else float(rng.uniform(0.3, 30.0))
    params = hb.ChannelParams.build(
        kappa=kappa,
        beta=hb.fspl_gain(cfg.wavelength, geom.distance),
        noise_power=float(rng.uniform(0.3, 3.0)) * 1e-13,
        bandwidth=1.0,
        num_users=K,
    )
    att_true = hb.EulerZYX(*rng.uniform(-0.1, 0.1, 3))
    att_beam = hb.EulerZYX(*(att_true.as_array() + rng.uniform(-0.02, 0.02, 3)))
    H = hb.synthesize_channel(cfg, geom, att_true, params, rng)
    A = hb.analog_beamformer_at(cfg, geom, att_beam)
    return hb.SnapshotProblem.build(
        hb.effective_channel(H, A),
        r_min=rng.uniform(0.3, 2.5, K),
        p_max=float(rng.uniform(1.0, 20.0)),
        noise_power=params.noise_power,
        bandwidth=1.0,
        certified=rng.random(K) < 0.85,
        analog_gram=A.conj().T @ A,
    )


class SolverFuzz:
    """Criterion-6-style problems generated at set-up, fed one at a time to
    `solve_snapshot(k_min=8)`.  An operation is one solve.

    Solve cost grows steeply with K, so K (2 to 12) and the pure
    line-of-sight quarter are stratified over the problem index instead of
    drawn: every seed gets the same mix, and the seed moves everything else.
    """

    name = "solver-fuzz"

    def __init__(self, seed: int, smoke: bool, work_dir):
        self.seed = seed
        self.count = 11 if smoke else 110

    def setup(self) -> str:
        self.problems = [
            fuzz_problem(np.random.default_rng([self.seed, 2, i]),
                         K=2 + i % 11, pure_los=i % 4 == 0)
            for i in range(self.count)
        ]
        h = hashlib.sha256()
        for p in self.problems:
            h.update(p.h_eff.tobytes())
            _hash_floats(h, p.r_min, [p.p_max, p.noise_power], p.certified)
        return h.hexdigest()

    def run_pass(self, tracer=None) -> PassResult:
        clock = time.perf_counter
        times, failed, qar, sum_rate = [], 0, [], []
        h = hashlib.sha256()
        for i, problem in enumerate(self.problems):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                sol = hb.solve_snapshot(problem, k_min=8)
            except Exception:
                times.append(clock() - t0)
                _report_exception(f"solve_snapshot on problem {i}")
                failed += 1
                continue
            times.append(clock() - t0)
            failed += not solution_ok(problem, sol)
            qar.append(sol.qar)
            sum_rate.append(sol.sum_rate)
            h.update(np.asarray(sol.admitted, dtype=bool).tobytes())
            _hash_floats(h, [sol.sum_rate, sol.power])
        return PassResult(
            item_s=times,
            latency_s=times,
            ops=self.count,
            work=self.count,
            failed=failed,
            digest=h.hexdigest(),
            quality={
                "mean_qar": float(np.mean(qar)) if qar else 0.0,
                "mean_sum_rate": float(np.mean(sum_rate)) if sum_rate else 0.0,
            },
        )


class TelemetryCalibrate:
    """The `hapbeam calibrate` path: AR(24) forecasts at every origin with
    stride 1, then `calibrate` and `forecast_errors`.  An operation is one
    forecast window; calibration counts as one more."""

    name = "telemetry-calibrate"
    L_WIN, H_PRED, DELAY, ORDER, RHO = 192, 12, 6, 24, 0.1

    def __init__(self, seed: int, smoke: bool, work_dir):
        self.seed = seed
        self.length = self.L_WIN + self.H_PRED + 24 if smoke else 2600

    def setup(self) -> str:
        seed = int(np.random.SeedSequence([self.seed, 3]).generate_state(1)[0])
        self.series = hb.generate_attitude_series(seed, self.length)
        first = self.L_WIN - 1
        last = len(self.series) - 1 - self.H_PRED
        self.requests = [
            hb.ForecastRequest(t, self.L_WIN, self.H_PRED, self.DELAY)
            for t in range(first, last + 1)
        ]
        return hashlib.sha256(self.series.samples.tobytes()).hexdigest()

    def run_pass(self, tracer=None) -> PassResult:
        clock = time.perf_counter
        series = self.series
        times, outputs, failed = [], [], 0
        for i, req in enumerate(self.requests):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                out = hb.forecast_ar(series, req, order=self.ORDER)
            except Exception:
                times.append(clock() - t0)
                _report_exception(f"forecast_ar at origin {req.origin}")
                failed += 1
                continue
            times.append(clock() - t0)
            if (
                out.origin != req.origin
                or out.angles.shape != (self.H_PRED, 3)
                or not np.all(np.isfinite(out.angles))
            ):
                failed += 1
                continue
            outputs.append(out)
        ops = len(self.requests) + 1
        if tracer is not None:
            tracer.op = len(self.requests)
        t0 = clock()
        try:
            report = hb.calibrate(series, outputs, self.DELAY, self.RHO)
            errors = hb.forecast_errors(series, outputs, self.DELAY)
        except Exception:
            _report_exception("calibrate")
            return PassResult(times + [clock() - t0], times, ops, len(self.requests),
                              failed + 1, "failed")
        calib_s = clock() - t0
        covered = hb.coverage_check(report.scores, report.delta_omega)
        failed += covered < 1.0 - self.RHO or report.n != len(self.requests)
        h = hashlib.sha256()
        for out in outputs:
            h.update(out.angles.tobytes())
        quality = {
            "delta_omega_deg": float(np.degrees(report.delta_omega)),
            "forecast_rmse_deg": float(np.max(errors.rmse_deg)),
            "coverage": covered,
            "fallback_frac": sum(
                o.tag.endswith("+linear-fallback") for o in outputs
            ) / max(len(outputs), 1),
        }
        _hash_floats(h, list(quality.values()))
        return PassResult(
            item_s=times + [calib_s],
            latency_s=times,
            ops=ops,
            work=len(self.requests),
            failed=failed,
            digest=h.hexdigest(),
            quality=quality,
        )


WORKLOADS = {w.name: w for w in (ScenarioDefault, SolverFuzz, TelemetryCalibrate)}
