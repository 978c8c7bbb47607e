"""In-memory call spans around the library's layer boundaries.

The tracer replaces module attributes (the names `hapbeam.harness`,
`hapbeam.solver` and the package namespace look up at call time) with thin
wrappers that record one span per call: name, start, end, parent span and
operation id.  Nothing in the library changes; uninstalling restores every
original attribute.  Per-layer metrics are derived from the spans when the
traced pass ends.
"""

import contextlib
import csv
import importlib
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute, span name).  The span name's prefix is the layer: the
# module under src/hapbeam/ the function lives in.
TARGETS = (
    # calls the benchmark itself makes through the package namespace
    ("hapbeam", "run_experiment", "harness.run_experiment"),
    ("hapbeam", "emit_results", "io.emit_results"),
    ("hapbeam", "solve_snapshot", "solver.solve_snapshot"),
    ("hapbeam", "forecast_ar", "forecast.forecast_ar"),
    ("hapbeam", "calibrate", "calibration.calibrate"),
    ("hapbeam", "forecast_errors", "forecast.forecast_errors"),
    # calls run_experiment makes
    ("hapbeam.harness", "forecast_ar", "forecast.forecast_ar"),
    ("hapbeam.harness", "forecast_errors", "forecast.forecast_errors"),
    ("hapbeam.harness", "calibrate", "calibration.calibrate"),
    ("hapbeam.harness", "analog_beamformer_at", "array_model.analog_beamformer_at"),
    ("hapbeam.harness", "spectral_bound_l2", "array_model.spectral_bound_l2"),
    ("hapbeam.harness", "jacobian", "array_model.jacobian"),
    ("hapbeam.harness", "sigma_xi_sq", "array_model.sigma_xi_sq"),
    ("hapbeam.harness", "certify_users", "array_model.certify_users"),
    ("hapbeam.harness", "synthesize_channel", "channel.synthesize_channel"),
    ("hapbeam.harness", "effective_channel", "channel.effective_channel"),
    ("hapbeam.harness", "euler_to_rotation", "geometry.euler_to_rotation"),
    ("hapbeam.harness", "rotation_to_euler", "geometry.rotation_to_euler"),
    ("hapbeam.harness", "los_to_body_angles", "geometry.los_to_body_angles"),
    ("hapbeam.harness", "rotation_log_vee", "geometry.rotation_log_vee"),
    ("hapbeam.harness", "solve_snapshot", "solver.solve_snapshot"),
    # solver phases, as solve_snapshot and its helpers call them
    ("hapbeam.solver", "predict_admission_and_scalars", "solver.predict"),
    ("hapbeam.solver", "strict_repair", "solver.repair"),
    ("hapbeam.solver", "refine_qos_safe", "solver.refine"),
    ("hapbeam.solver", "power_dual_bisection", "solver.dual"),
    ("hapbeam.solver", "kkt_reconstruct", "solver.kkt"),
    ("hapbeam.solver", "sinr_and_rates", "solver.rates"),
)

FALLBACK_SUFFIX = "+linear-fallback"


def _observe_solve(counts, args, kwargs, sol):
    stats = sol.stats
    counts["solver.drops"] += stats.get("drops", 0)
    counts["solver.addbacks"] += stats.get("addbacks", 0)
    counts["solver.refine_accepted"] += stats.get("refine_accepted", 0)
    counts["solver.refine_tried"] += stats.get("refine_tried", 0)


def _observe_certify(counts, args, kwargs, mask):
    counts["array_model.certified"] += int(mask.sum())
    counts["array_model.users"] += int(mask.size)


def _observe_forecast(counts, args, kwargs, out):
    counts["forecast.fallbacks"] += out.tag.endswith(FALLBACK_SUFFIX)


def _observe_calibrate(counts, args, kwargs, report):
    counts["calibration.windows"] += report.n


def _observe_emit(counts, args, kwargs, paths):
    counts["io.bytes"] += sum(Path(p).stat().st_size for p in paths.values())


OBSERVERS = {
    "solver.solve_snapshot": _observe_solve,
    "array_model.certify_users": _observe_certify,
    "forecast.forecast_ar": _observe_forecast,
    "calibration.calibrate": _observe_calibrate,
    "io.emit_results": _observe_emit,
}


class Tracer:
    """Span recorder.  `op` is the benchmark operation the next spans
    belong to, set by the workload: the run for scenario-default, the
    problem for solver-fuzz, the window for telemetry-calibrate (whose
    calibration step takes the next index)."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op)
        self.counts = Counter()
        self.missing = []  # targets the library no longer defines
        self.op = -1
        self._stack = []

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = importlib.import_module(mod_name)
                if not hasattr(mod, attr):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["id", "name", "start_s", "end_s", "parent", "op"])
            t0 = self.spans[0][1] if self.spans else 0.0
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                wr.writerow([i, name, repr(start - t0), repr(end - t0), parent, op])


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, overhead_frac: float) -> dict:
    """Per-layer time shares and work counts from the spans of one pass.

    Times are reported as fractions of the pass's wall time `wall_s`, which
    is reported too: shares stay comparable when the machine's speed drifts,
    and a layer the workload never calls reads 0 without posing as a time.
    Self time is a span's duration minus the durations of its direct
    children; the program is single-threaded, so children never overlap.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        busy[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
    seconds = {
        "solver.busy": busy["solver.solve_snapshot"],
        "solver.predict": own["solver.predict"],
        "solver.repair": own["solver.repair"],
        "solver.refine": own["solver.refine"],
        "solver.dual_self": own["solver.dual"],
        "solver.kkt": own["solver.kkt"],
        "solver.rates": own["solver.rates"],
        "array_model.bound": busy["array_model.spectral_bound_l2"],
        "array_model.jacobian": busy["array_model.jacobian"]
        + busy["array_model.sigma_xi_sq"],
        "array_model.analog": busy["array_model.analog_beamformer_at"],
        "forecast.busy": busy["forecast.forecast_ar"] + busy["forecast.forecast_errors"],
        "calibration.busy": busy["calibration.calibrate"],
        "channel.busy": busy["channel.synthesize_channel"]
        + busy["channel.effective_channel"],
        "geometry.busy": sum(t for name, t in busy.items() if name.startswith("geometry.")),
        "io.busy": busy["io.emit_results"],
        "harness.self": own["harness.run_experiment"],
    }
    c = tracer.counts
    solves = calls["solver.solve_snapshot"]
    metrics = {f"{name}_frac": _ratio(t, wall_s) for name, t in seconds.items()}
    metrics.update({
        "solver.kkt_per_solve": _ratio(calls["solver.kkt"], solves),
        "solver.dual_per_solve": _ratio(calls["solver.dual"], solves),
        "solver.drops_per_solve": _ratio(c["solver.drops"], solves),
        "solver.addbacks_per_solve": _ratio(c["solver.addbacks"], solves),
        "solver.refine_accept_ratio": _ratio(
            c["solver.refine_accepted"], c["solver.refine_tried"]
        ),
        "array_model.bound_calls": float(calls["array_model.spectral_bound_l2"]),
        "array_model.certified_frac": _ratio(
            c["array_model.certified"], c["array_model.users"]
        ),
        "forecast.calls": float(calls["forecast.forecast_ar"]),
        "forecast.fallback_frac": _ratio(
            c["forecast.fallbacks"], calls["forecast.forecast_ar"]
        ),
        "calibration.windows": float(c["calibration.windows"]),
        "channel.calls": float(calls["channel.synthesize_channel"]),
        "io.bytes": float(c["io.bytes"]),
        "trace.wall_s": wall_s,
        "trace.overhead_frac": overhead_frac,
    })
    return metrics
