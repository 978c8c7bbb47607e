"""hapbeam benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload scenario-default --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory.  Workloads (see workloads.py): scenario-default and
solver-fuzz are the ones BENCHMARK.json schedules; telemetry-calibrate runs
the same way on request.

The run sets up its inputs from the seed several times (set-up time is the
median), then repeats passes over the same inputs until `--seconds` have
passed and at least two passes are done.  With `--trace 0` it reports the
end-to-end metrics of BENCHMARK.json from those untraced passes.  With
`--trace 1` it then makes three more passes with spans recorded around
the library's layer boundaries (spans.py) and reports the per-layer
metrics of the first, with the tracing overhead taken over all three.

Every line but the last is for people.  The last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Results and spans are also written under bench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_PROCESS = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOAD_NAMES = ("scenario-default", "solver-fuzz", "telemetry-calibrate")
SETUP_REPEATS = 3
MIN_PASSES = 2
TRACED_PASSES = 3
# Small dense matrices only: BLAS threads would add scheduling noise, not speed.
BLAS_THREADS = "1"

# The end-to-end metrics under the name each workload's operation gives them.
ALIASES = {
    "scenario-default": ("snapshots_per_s", "solve_p50_ms", "solve_p90_ms"),
    "solver-fuzz": ("solves_per_s", "solve_p50_ms", "solve_p90_ms"),
    "telemetry-calibrate": ("windows_per_s", "window_p50_ms", "window_p90_ms"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size", choices=("full", "smoke"), default="full",
        help="smoke: tiny inputs for the benchmark's own self-test",
    )
    return p.parse_args(argv)


def child_import_s() -> float:
    """Wall time for a fresh interpreter to import the library."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import hapbeam"
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, str(SRC)], check=True, timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def blas_info(np) -> dict:
    import ctypes
    import glob

    import scipy

    info = {}
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info["blas"] = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    threads = {}
    for mod in (np, scipy):
        libdir = Path(mod.__file__).parent.parent / f"{mod.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[mod.__name__] = fn()
                    break
    info["blas_threads"] = threads or {"env": os.environ.get("OPENBLAS_NUM_THREADS")}
    return info


def machine_info(np, args, passes_done: int, measured_s: float) -> dict:
    import platform

    import scipy

    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "passes": passes_done,
        "size": args.size,
    }
    info.update(blas_info(np))
    return info


def best_of_passes(series) -> list:
    """Fastest time of each item over the passes (items line up across
    passes).  On a shared 2-vCPU virtual machine the CPU speed was seen to
    drift by up to 40% in phases lasting seconds to minutes; a median over
    passes follows that drift, the fastest repeat of identical work follows
    the code."""
    return [min(col) for col in zip(*series)]


def end_to_end(np, passes, setup_s: float) -> tuple:
    latency = best_of_passes(p.latency_s for p in passes)
    return {
        "setup_s": setup_s,
        "ops_per_s": passes[0].work / sum(best_of_passes(p.item_s for p in passes)),
        "op_p50_ms": float(np.percentile(latency, 50)) * 1e3,
        "op_p90_ms": float(np.percentile(latency, 90)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, len(latency)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hapbeam" / "__init__.py").is_file():
        print(f"benchmark: no library sources at {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import numpy as np

    import hapbeam

    if Path(hapbeam.__file__).resolve().parent != (SRC / "hapbeam").resolve():
        print(f"benchmark: imported hapbeam from {hapbeam.__file__}", file=sys.stderr)
        return 2
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.size == "smoke", OUT_DIR)

    setup_times, input_digests = [], set()
    for _ in range(SETUP_REPEATS):
        t_import = child_import_s()
        t0 = time.perf_counter()
        input_digests.add(workload.setup())
        setup_times.append(t_import + time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)
    to_first_op = time.perf_counter() - T_PROCESS

    passes = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        passes.append(workload.run_pass())
    measured_s = time.perf_counter() - t_start

    e2e, n_latency = end_to_end(np, passes, setup_s)
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    deterministic = len(digests) == 1 and len(input_digests) == 1

    layers = None
    if args.trace:
        # Spans come from the first traced pass; the overhead compares the
        # fastest repeats of traced and untraced passes item by item.
        tracers, traced = [], []
        for _ in range(TRACED_PASSES):
            tracers.append(Tracer())
            with tracers[-1].installed():
                traced.append(workload.run_pass(tracers[-1]))
        attempted += sum(p.ops for p in traced)
        failed += sum(p.failed for p in traced)
        deterministic &= {p.digest for p in traced} == digests
        tracer = tracers[0]
        traced_s = sum(best_of_passes(p.item_s for p in traced))
        untraced_s = sum(best_of_passes(p.item_s for p in passes))
        layers = layer_metrics(tracer, sum(traced[0].item_s), traced_s / untraced_s - 1.0)
        tracer.write_csv(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")

    correct = failed == 0 and deterministic and "failed" not in digests
    info = machine_info(np, args, len(passes), measured_s)
    quality = passes[0].quality

    aliases = dict(zip(("ops_per_s", "op_p50_ms", "op_p90_ms"), ALIASES[args.workload]))
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"measured {measured_s:.2f} s  latency samples {n_latency}")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, value in e2e.items():
        shown = aliases.get(name, name)
        print(f"  {shown:<20} {value:12.4f} {units[name]}")
    print(f"  {'fail_frac':<20} {failed / attempted:12.4f} ratio  "
          f"({failed} of {attempted} operations)")
    for name, value in quality.items():
        print(f"  {name:<20} {value:12.6f}")
    print(f"  {'to_first_op_s':<20} {to_first_op:12.4f} s  (this process, "
          f"{SETUP_REPEATS} set-ups)")
    print(f"  deterministic        {deterministic}  output digest {sorted(digests)[0][:16]}")
    if layers is not None:
        for name, value in layers.items():
            print(f"  {name:<28} {value:14.6f} {units[name]}")
        if tracer.missing:
            print(f"  trace targets missing from the library: {tracer.missing}")

    record = {
        "workload": args.workload,
        "machine": info,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "deterministic": deterministic,
        "digest": sorted(digests),
        "end_to_end": e2e,
        "quality": quality,
        "setup_times_s": setup_times,
        "pass_s": [sum(p.item_s) for p in passes],
        "per_layer": layers,
    }
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    reported = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(reported[m["name"]]), "unit": m["unit"]}
            for m in spec["per_layer" if args.trace else "end_to_end"]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
