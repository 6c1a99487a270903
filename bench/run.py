#!/usr/bin/env python3
"""Benchmark of kerrmzi: closed-form maps and truncated-Fock cross-checks.

Usage, from the root of the repository:

    python3 bench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Workloads: closed-form, oracle-pure, oracle-lossy (see README.md).  One
single-threaded process generates the seeded inputs, runs the operations
through the public kerrmzi API from ``src/`` and checks every output.  The
number of operations is ``seconds`` times a fixed nominal rate, so both sides
of a comparison do the same work.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload with spans around each layer and
prints the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Full records go to
bench/out/.
"""

import os

# One BLAS thread, set before numpy loads: OpenBLAS otherwise starts one
# thread per core, and the generator is meant to be single-threaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# metric names and units, and the workloads, as BENCHMARK.json declares them
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Nominal operations per second on the reference machine (2-core x86
# virtual machine, Python 3.11, numpy 2.4, scipy 1.17).  A run does
# round(seconds * rate) operations after one warm-up operation, whatever
# the speed of the code under test.
RATES = {"closed-form": 1.0, "oracle-pure": 0.45, "oracle-lossy": 0.7}
SETUP_LAUNCHES = 7

# input streams of numpy.random.default_rng([seed, stream])
WARMUP, TIMED, PROBE, OVERHEAD = 0, 1, 2, 3


def import_kerrmzi() -> float:
    """Import kerrmzi from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import kerrmzi

    elapsed = time.perf_counter() - start
    if Path(kerrmzi.__file__).resolve().parent != SRC / "kerrmzi":
        sys.exit(f"error: imported kerrmzi from {kerrmzi.__file__}, not from {SRC}")
    return elapsed


def rng_for(seed: int, stream: int):
    import numpy as np

    return np.random.default_rng([seed, stream])


def operation_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds * RATES[workload]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- set-up ------------------------------------------------------------------


def setup_probe(args) -> None:
    """One fresh launch: import kerrmzi and build the workload's inputs,
    with the machine speed sampled before and after."""
    from calibration import Clock

    start = time.perf_counter()
    clock = Clock("python")
    calibration_s = time.perf_counter() - start
    import_s = import_kerrmzi()
    import workloads

    n_ops = operation_count(args.workload, args.seconds)
    workloads.make_inputs(args.workload, rng_for(args.seed, TIMED), n_ops)
    start = time.perf_counter()
    speed = 0.5 * (clock.last_speed + clock.speed())
    calibration_s += time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "speed": speed, "calibration_s": calibration_s}))


def measure_setup(args) -> dict:
    """Median over fresh interpreter launches of the time to kerrmzi
    imported and inputs built, scaled by the speed each launch measured;
    one launch alone is not steady."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    walls, raw_walls, imports = [], [], []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"error: set-up launch failed ({proc.returncode}):\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        raw = wall - probe["calibration_s"]
        raw_walls.append(raw)
        walls.append(raw * probe["speed"])
        imports.append(probe["import_s"] * probe["speed"])
    return {
        "setup_s": statistics.median(walls),
        "import_s": statistics.median(imports),
        "setup_samples_s": walls,
        "raw_setup_samples_s": raw_walls,
    }


# --- passes ------------------------------------------------------------------


def run_pass(workload: str, inputs, workdir: Path, tracer=None, start: int = 0) -> dict:
    """Run and check each operation; only the operation itself is timed.
    ``start`` numbers the operations in the spans."""
    import workloads
    from calibration import Clock

    operation, check = workloads.OPERATIONS[workload], workloads.CHECKS[workload]
    clock = Clock(workloads.CLOCKS[workload])
    times, raw_times, measured, errors = [], [], [], []
    failed, correct = 0, True
    rss_before = peak_rss_mb()
    for i, inp in enumerate(inputs, start):
        (workdir / "config.ini").write_text(inp.ini)
        try:
            if tracer is None:
                out, raw, scaled = clock.time(operation, inp, workdir)
            else:
                tracer.op = f"{workload}:{i}"
                out, raw, scaled = clock.time(tracer.call, "op", operation, inp, workdir)
            times.append(scaled)
            raw_times.append(raw)
        except Exception:  # a failed operation is counted, and the run goes on
            failed += 1
            errors.append(traceback.format_exc())
            continue
        try:
            if tracer is None:
                measured.append(check(inp, out))
            else:
                with tracer.suspended():
                    measured.append(check(inp, out))
        except workloads.CheckFailed as exc:
            correct = False
            errors.append(f"check failed: {exc}")
    return {
        "ops": len(inputs),
        "failed": failed,
        "correct": correct,
        "errors": errors,
        "times_s": times,
        "raw_times_s": raw_times,
        "measured": measured,
        "rss_growth_mb": peak_rss_mb() - rss_before,
    }


def end_to_end(setup: dict, timed: dict) -> dict:
    times = timed["times_s"]
    return {
        "setup_s": setup["setup_s"],
        "work_per_s": len(times) / sum(times) if times else 0.0,
        "op_latency_p50_s": statistics.median(times) if times else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(tracer, passes) -> dict:
    """Per-layer metrics from one tracer's record; None where the traced
    operations never reached the layer."""

    def mean(name, factor=1.0):
        seconds = tracer.mean_s(name)
        return None if seconds is None else seconds * factor

    def per(numerator, denominator):
        return numerator / denominator if denominator else None

    def worst(key):
        values = [m[key] for p in passes for m in p["measured"] if key in m]
        return max(values) if values else None

    ops = sum(p["ops"] for p in passes)
    calls = tracer.calls
    oracle_ran = calls["oracle.simulate"] > 0
    metrics = {
        "config.parse_us": mean("config.parse", 1e6),
        "analytic.sensitivity_us": mean("analytic.sensitivity", 1e6),
        "analytic.calls": per(tracer.leaf_calls("analytic.sensitivity"), ops),
        "sweep.run_sweep_us_per_point": per(tracer.total_s["sweep.run_sweep"] * 1e6, tracer.sweep_points),
        "sweep.write_csv_s": mean("sweep.write_csv"),
        "sweep.csv_bytes": per(sum(tracer.csv_bytes), len(tracer.csv_bytes)),
        "sweep.threshold_ms": mean("sweep.threshold", 1e3),
        "sweep.threshold_evals": per(
            tracer.leaf_calls("analytic.sensitivity", "sweep.threshold"), calls["sweep.threshold"]
        ),
        "verify.analytic_suite_s": mean("verify.analytic_suite"),
        "cli.report_s": mean("cli.report"),
        "cli.sweep_s": mean("cli.sweep"),
        "oracle.state_bytes": tracer.state_bytes or None,
        "oracle.rss_growth_mb_per_op": per(sum(p["rss_growth_mb"] for p in passes), ops) if oracle_ran else None,
        "oracle.slope_rel_err": worst("slope_rel_err"),
        "oracle.variance_rel_err": worst("variance_rel_err"),
        "oracle.qfi_rel_err": worst("qfi_rel_err"),
    }
    for stage in (
        "squeezer_cold", "squeezer_warm", "beam_splitter_cold", "beam_splitter_warm",
        "kerr", "loss", "to_density", "readout", "simulate", "numeric_slope", "qfi",
    ):
        metrics[f"oracle.{stage}_s"] = mean(f"oracle.{stage}")
    return metrics


def merge(passes) -> dict:
    """One pass record from consecutive ones."""
    return {
        "ops": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "correct": all(p["correct"] for p in passes),
        **{key: [x for p in passes for x in p[key]] for key in ("errors", "times_s", "raw_times_s", "measured")},
        "rss_growth_mb": sum(p["rss_growth_mb"] for p in passes),
    }


def traced_run(args, setup: dict, workdir: Path, n_ops: int):
    """The first half of the timed pass's operations, traced, alternating
    with as many untraced ones for the tracing overhead (so drift over the
    run cancels), then one traced operation of every other workload for the
    layers this one never reaches."""
    from tracing import Tracer

    import workloads

    def inputs(workload, stream, count):
        return workloads.make_inputs(workload, rng_for(args.seed, stream), count)

    tracer = Tracer()
    tracer.install()
    warm = run_pass(args.workload, inputs(args.workload, WARMUP, 1), workdir, tracer)
    tracer.uninstall()
    tracer.reset()
    traced, untraced = [], []
    half = (n_ops + 1) // 2  # keeps a traced run about as long as an untraced one
    plain_inputs = inputs(args.workload, OVERHEAD, half)
    for i, inp in enumerate(inputs(args.workload, TIMED, n_ops)[:half]):
        tracer.install()
        traced.append(run_pass(args.workload, [inp], workdir, tracer, start=i))
        tracer.uninstall()
        untraced.append(run_pass(args.workload, plain_inputs[i : i + 1], workdir))
    traced, untraced = merge(traced), merge(untraced)
    metrics = layer_metrics(tracer, [traced])
    table = tracer.self_time_table()
    spans = list(tracer.spans)

    tracer.reset()
    tracer.install()
    probes = [run_pass(w, inputs(w, PROBE, 1), workdir, tracer) for w in WORKLOADS if w != args.workload]
    tracer.uninstall()
    spans += tracer.spans
    for name, value in layer_metrics(tracer, probes).items():
        if metrics[name] is None:
            metrics[name] = value
    metrics["import_s"] = setup["import_s"]
    metrics["trace_overhead"] = (
        end_to_end(setup, traced)["work_per_s"] / end_to_end(setup, untraced)["work_per_s"]
    )
    return metrics, [warm, traced, untraced] + probes, table, spans


# --- main --------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "kerrmzi" / "__init__.py").is_file():
        print(f"error: no kerrmzi package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    setup = measure_setup(args)
    import_kerrmzi()
    import workloads

    n_ops = operation_count(args.workload, args.seconds)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        if args.trace:
            metrics, passes, table, spans = traced_run(args, setup, workdir, n_ops)
            units = PER_LAYER_UNITS
            with open(OUT_DIR / f"trace-{label}.jsonl", "w") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
        else:
            warm_inputs = workloads.make_inputs(args.workload, rng_for(args.seed, WARMUP), 1)
            timed_inputs = workloads.make_inputs(args.workload, rng_for(args.seed, TIMED), n_ops)
            warm = run_pass(args.workload, warm_inputs, workdir)
            timed = run_pass(args.workload, timed_inputs, workdir)
            metrics, passes, table = end_to_end(setup, timed), [warm, timed], []
            units = END_TO_END_UNITS

    missing = [name for name in units if metrics.get(name) is None]
    errors = [e for p in passes for e in p["errors"]]
    result = {
        "correct": all(p["correct"] for p in passes) and not missing,
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name not in missing},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": n_ops,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "setup": setup,
        "passes": [{k: v for k, v in p.items() if k != "measured"} for p in passes],
        "self_time": table,
        "wall_s": time.perf_counter() - started,
        **result,
    }
    (OUT_DIR / f"result-{label}.json").write_text(json.dumps(record, indent=2) + "\n")

    for error in errors:
        print(error, file=sys.stderr)
    for name in missing:
        print(f"error: metric {name} was not measured", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  operations {n_ops} (+1 warm-up)  "
          f"BLAS threads {BLAS_THREADS}")
    if table:
        total = sum(row[1] for row in table)
        print("self time by layer:")
        for name, self_s, calls in table:
            print(f"  {name:32s} {self_s:10.4f} s  {100 * self_s / total:5.1f} %  {calls} calls")
    for name, entry in result["metrics"].items():
        print(f"{name:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
