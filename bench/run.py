"""Benchmark entry point for the outtree package.

    python3 bench/run.py --workload fit --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

Run from the root of a checkout; the package is imported from ``src/``.
One run is one process with OpenBLAS pinned to one thread. Times are the
process's CPU seconds (``time.process_time``): the work is single-threaded,
and on a shared machine CPU time varies about half as much as wall time,
which also counts the time the process waits to be scheduled. They are
rescaled by the run's median of a calibration kernel timed before every
operation (see ``calibrate``). It sets up the
workload's inputs from the seed, then runs whole rounds of the workload's
operations (closed loop, one after another) until ``--seconds`` have
passed, checking every output. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--workload all`` runs every workload in its own process
and prints each metric by name and unit.
"""

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# before numpy or scipy load their OpenBLAS copies
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import calibrate  # noqa: E402  (loads numpy)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["fit", "kernel_fit", "score", "semisup", "vb"]
SETUP_SAMPLES = 3
KERNELS_PER_OP = 3
KERNELS_AFTER_SETUP = 5


def blas_info():
    """Thread count and version of each OpenBLAS loaded in this process."""
    import numpy
    import scipy

    versions = {
        "numpy": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
    }
    info = {}
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and line.rstrip().endswith(".so")})
    except OSError:
        paths = []
    for path in paths:
        owner = "numpy" if "numpy" in path else "scipy"
        lib = ctypes.CDLL(path)
        threads = None
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
        info[owner] = {"version": versions[owner], "threads": threads}
    for owner, version in versions.items():
        info.setdefault(owner, {"version": version, "threads": None, "loaded": False})
    return info


def run_round(ops, log, kernels, tracer=None, bucket=None):
    """One pass over the ops, appending calibration samples to ``kernels``.
    Returns the seconds spent in ops, the timed ops' durations, groups and
    units, and (attempted, failed, wrong)."""
    total, durations, groups, units = 0.0, [], [], 0.0
    attempted = failed = wrong = 0
    for op in ops:
        kernels += [calibrate.kernel_seconds() for _ in range(KERNELS_PER_OP)]
        if tracer is not None:
            tracer.start(bucket, op.min_dim)
        started = time.process_time()
        try:
            output, problems = op.run(), []
        except Exception as exc:  # the program's failure is a measured outcome
            output, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        elapsed = time.process_time() - started
        if tracer is not None:
            tracer.stop()
        total += elapsed
        if not problems:
            try:
                problems = op.check(output)
                if op.timed:
                    durations.append(elapsed)
                    groups.append(op.group)
                    units += op.units(output)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        attempted += 1
        if problems:
            failed += 1
            wrong += op.known_fault is None
            key = (op.name, problems[0])
            if key not in log:
                log.add(key)
                label = op.known_fault or "UNEXPECTED"
                print(f"[{label}] {op.name}: {'; '.join(problems)}", file=sys.stderr)
    return total, (durations, groups, units), (attempted, failed, wrong)


def setup_probe(args):
    """Time import, input generation and seed models in a fresh process."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


def run_workload(args):
    if not (ROOT / "src" / "outtree").is_dir():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        import workloads

        tracer = setup_bucket = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            setup_bucket = tracing.Bucket()
            tracer.start(setup_bucket, 0)
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # CPU time since the process started: interpreter, imports, inputs
        setup_cpu_s = time.process_time()
        if tracer is not None:
            tracer.stop()
        setup_s = setup_cpu_s * calibrate.NOMINAL_S / statistics.median(
            calibrate.kernel_seconds() for _ in range(KERNELS_AFTER_SETUP))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_cpu_s": setup_cpu_s}))
            return 0
        setup_samples = [setup_s]
        if not args.trace:
            setup_samples += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]

        log = set()
        attempted = failed = wrong = 0
        per_op, per_unit, plain_s, traced_s, buckets, kernels = [], [], [], [], [], []
        per_group = {}
        deadline = time.perf_counter() + args.seconds
        rounds = 0
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            bucket = None
            if args.trace:
                if traced:
                    tracer.install()
                    bucket = tracing.Bucket()
                    buckets.append(bucket)
                else:
                    tracer.uninstall()
            total, timed, tally = run_round(ops, log, kernels,
                                            tracer if traced else None, bucket)
            (traced_s if traced else plain_s).append(total)
            if timed[0] and not traced:
                per_op += timed[0]
                per_unit.append(sum(timed[0]) / timed[2])
                for seconds, group in zip(timed[0], timed[1]):
                    if group is not None:
                        per_group.setdefault(group, []).append(seconds)
            attempted += tally[0]
            failed += tally[1]
            wrong += tally[2]
            rounds += 1
            if time.perf_counter() >= deadline and (not args.trace or rounds >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        blas = blas_info()
        scale = calibrate.NOMINAL_S / statistics.median(kernels)
        if args.trace:
            tracer.uninstall()
            threads = max((v["threads"] or 0) for v in blas.values())
            overhead = statistics.median(traced_s) - statistics.median(plain_s)
            values = tracing.per_layer_metrics(setup_bucket, buckets, overhead * scale,
                                               threads, scale)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in tracing.per_layer_spec()}
        else:
            metrics = {
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "op_s": {"value": statistics.median(per_op) * scale, "unit": "s"},
                "unit_s": {"value": statistics.median(per_unit) * scale, "unit": "s"},
            }
        print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                          "scale": scale, "op_cpu_s": per_op, "unit_cpu_s": per_unit,
                          "group_op_s": {group: statistics.median(seconds) * scale
                                         for group, seconds in per_group.items()},
                          "setup_s_samples": setup_samples, "blas": blas}))
        print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Every workload in its own process; a table of every metric."""
    sys.path.insert(0, str(ROOT / "src"))
    headline = {}
    results, details = {}, {}
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            print(f"{name}: exit code {completed.returncode}", file=sys.stderr)
            return completed.returncode
        lines = completed.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        details[name] = json.loads(lines[-2])
    if not args.trace:
        import workloads

        for name, result in results.items():
            metrics = result["metrics"]
            for label, unit, source in workloads.HEADLINE[name]:
                if source == "rate":
                    value = 1.0 / metrics["unit_s"]["value"]
                elif source.startswith("op_s:"):
                    value = details[name]["group_op_s"][source[len("op_s:"):]]
                else:
                    value = metrics[source]["value"]
                headline[label] = {"value": value, "unit": unit}
    for name, result in results.items():
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    for label, entry in headline.items():
        print(f"{label} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": headline or {f"{w}.{m}": e for w, r in results.items()
                                for m, e in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
