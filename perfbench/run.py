"""safedmp benchmark: four closed-loop workloads, one process, no threads.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 55 --trace 0

Workloads (see ``workloads.py``): ``suite``, ``sweep``, ``gauntlet`` and
``cli_run``.  Each builds its inputs (set-up), then runs whole cycles of ops
back to back until ``--seconds`` have passed and at least ``min_ops`` ops
were timed.  Only the ``sweep`` geometry depends on ``--seed``.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: time from the start of this script (imports included) to the
  first timed op; the median of this process and two fresh child processes
  that repeat the set-up alone.  The ``env`` line lists all three samples,
  this process's first.
- ``throughput_ops_s``: the median over cycles of ops per second of wall
  time, per-op checks included.
- ``latency_p50_ms``, ``latency_p90_ms``: per-op latency percentiles over
  every timed op, taken as the next-higher sample (numpy
  ``method="higher"``).  Runs that time at least 1000 ops (``gauntlet``)
  also print ``latency_p99_ms`` in the table and the ``env`` line; it is
  not a gated metric, because ``suite`` and ``cli_run`` time too few ops
  for a p99.
- ``peak_rss_mb``: peak resident memory of this process.

Throughput and latencies are scaled to a fixed host speed: a calibration
kernel that does not call safedmp runs between cycles, and each cycle's
times are scaled by how fast it ran (``calibration.py``).  ``setup_s`` is
not scaled, because no kernel runs during set-up.  The ``env`` line gives
the unscaled throughput and latencies and the run's median host speed.

With ``--trace 1`` the run alternates traced and untraced cycles and reports
per-layer metrics from the traced ones (see ``layer_metrics``).  Times and
counts named ``.calls``, ``.steps``, ``.ms`` and ``.self_ms`` are totals per
cycle; ``_us`` percentiles and ``us_per_step`` are per call or per step.
Per-layer times are not scaled; ``trace.overhead_frac`` compares scaled
cycles.

Earlier output lines give the environment and a readable table, including
``failed_frac`` and the sample count; the last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse
from array import array
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_CHILDREN = 2
#: ``gauntlet`` and ``sweep`` run on request but are not among the gated
#: workloads in ``BENCHMARK.json``; see README.md.
WORKLOAD_NAMES = ("suite", "sweep", "gauntlet", "cli_run")

# Keep the workload process single-threaded: BLAS worker threads would
# compete with it for the cores.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def import_program():
    """Import safedmp from this checkout's ``src`` and the benchmark modules."""
    package = ROOT / "src" / "safedmp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import safedmp

    if Path(safedmp.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported safedmp from {safedmp.__file__}")
    import tracing
    import workloads

    return tracing, workloads


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def percentile_ms(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q, method="higher")) * 1e3


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run whole cycles; with a tracer, alternate traced and untraced ones.

    The calibration kernel runs before the first cycle and after each one;
    each cycle's latencies are scaled by the speed factor of the mean of the
    two kernel times around it (see ``calibration.py``).  ``raw`` keeps the
    unscaled latencies; ``cycles`` holds (wall time, ops, traced, factor).
    """
    import calibration

    perf = time.perf_counter
    latencies, raw = array("d"), array("d")  # 8 bytes per op keeps peak RSS flat
    cycles, kernel = [], [calibration.kernel_seconds()]
    failed = 0
    start = perf()
    traced = tracer is not None
    kinds = set()
    while True:
        if traced:
            tracer.install()
        cycle_start = perf()
        try:
            lats, cycle_failed = workload.cycle()
        finally:
            wall = perf() - cycle_start
            if traced:
                tracer.uninstall()
        kernel.append(calibration.kernel_seconds())
        factor = calibration.speed((kernel[-2] + kernel[-1]) / 2)
        raw.extend(lats)
        latencies.extend(lat * factor for lat in lats)
        failed += cycle_failed
        cycles.append((wall, len(lats), traced, factor))
        kinds.add(traced)
        if (perf() - start >= seconds and len(latencies) >= workload.min_ops
                and (tracer is None or len(kinds) == 2)):
            break
        if tracer is not None:
            traced = not traced
    if workload.final_failures():
        failed = len(latencies)
    return {"latencies": latencies, "raw": raw, "failed": failed,
            "cycles": cycles, "kernel": kernel}


def setup_seconds(args) -> list:
    """Set-up time of fresh child processes that stop after set-up."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(child.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end_metrics(result: dict, setup: list) -> dict:
    lat = result["latencies"]
    throughput = statistics.median(
        n / (wall * factor) for wall, n, _, factor in result["cycles"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (throughput, "ops/s"),
        "latency_p50_ms": (percentile_ms(lat, 50), "ms"),
        "latency_p90_ms": (percentile_ms(lat, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(tracer, setup_tracer, result: dict) -> dict:
    """Per-layer metrics of the traced cycles, normalized per cycle."""
    import numpy

    traced = [(wall * factor, n) for wall, n, was_traced, factor
              in result["cycles"] if was_traced]
    plain = [(wall * factor, n) for wall, n, was_traced, factor
             in result["cycles"] if not was_traced]
    n_cycles = len(traced)
    s = tracer.stat

    def per_cycle(value):
        return value / n_cycles

    def pct_us(values, q):
        return float(numpy.percentile(values, q)) * 1e6 if len(values) else 0.0

    def per_step_us(seconds, steps):
        return seconds / steps * 1e6 if steps else 0.0

    control = s("safe_exec.control")
    durations = numpy.frombuffer(control.durations, dtype=float)
    engaged = numpy.frombuffer(bytes(control.engaged), dtype=bool)
    rate = statistics.median(n / wall for wall, n in traced)
    plain_rate = statistics.median(n / wall for wall, n in plain)
    m = {
        "trajectory.preprocess.calls": (per_cycle(s("trajectory.preprocess").calls), "count"),
        "trajectory.preprocess.self_ms": (per_cycle(s("trajectory.preprocess").self) * 1e3, "ms"),
        "trajectory.load_demo.self_ms": (per_cycle(s("trajectory.load_demo").self) * 1e3, "ms"),
        "dmp.rollout.calls": (per_cycle(s("dmp.rollout").calls), "count"),
        "dmp.rollout.steps": (per_cycle(s("dmp.rollout").steps), "count"),
        "dmp.rollout.self_ms": (per_cycle(s("dmp.rollout").self) * 1e3, "ms"),
        "dmp.rollout.us_per_step": (per_step_us(s("dmp.rollout").self, s("dmp.rollout").steps), "us"),
        "dmp.learn_from_trajectory.self_ms": (per_cycle(s("dmp.learn_from_trajectory").self) * 1e3, "ms"),
        "dmp.save_model.ms": (per_cycle(s("dmp.save_model").span) * 1e3, "ms"),
        "dmp.load_model.ms": (per_cycle(s("dmp.load_model").span) * 1e3, "ms"),
        "stt.stt_control.calls": (per_cycle(s("stt.stt_control").calls), "count"),
        "safe_exec.control.calls": (per_cycle(control.calls), "count"),
        "safe_exec.control.self_us_p50": (pct_us(durations, 50), "us"),
        "safe_exec.control.self_us_p99": (pct_us(durations, 99), "us"),
        "safe_exec.control.engaged": (per_cycle(int(engaged.sum())), "count"),
        "safe_exec.control.engaged_frac": (float(engaged.mean()) if len(engaged) else 0.0, "frac"),
        "safe_exec.control.engaged_p50_us": (pct_us(durations[engaged], 50), "us"),
        "safe_exec.control.engaged_p99_us": (pct_us(durations[engaged], 99), "us"),
        "safe_exec.control.free_p50_us": (pct_us(durations[~engaged], 50), "us"),
        "safe_exec.control.free_p99_us": (pct_us(durations[~engaged], 99), "us"),
        "safe_exec.log.us_per_step": (per_step_us(s("safe_exec.step").self, s("safe_exec.step").calls), "us"),
        "safe_exec.run.calls": (per_cycle(s("safe_exec.run").calls), "count"),
        "safe_exec.run.self_ms": (per_cycle(s("safe_exec.run").self) * 1e3, "ms"),
        "safe_exec.run.infeasible": (per_cycle(s("safe_exec.run").infeasible), "count"),
        "baselines.control.calls": (per_cycle(s("baselines.control").calls), "count"),
        "baselines.control.self_us_p50": (pct_us(s("baselines.control").durations, 50), "us"),
        "baselines.log.us_per_step": (per_step_us(s("baselines.step").self, s("baselines.step").calls), "us"),
        "bench.prepare.calls": (per_cycle(s("bench.prepare").calls), "count"),
        "bench.prepare.self_ms": (per_cycle(s("bench.prepare").self) * 1e3, "ms"),
        "bench.run_scenario.calls": (per_cycle(s("bench.run_scenario").calls), "count"),
        "bench.run_scenario.steps": (per_cycle(s("bench.run_scenario").steps), "count"),
        "bench.evaluate.self_ms": (per_cycle(s("bench.evaluate").self) * 1e3, "ms"),
        "bench.mae.ms": (per_cycle(s("bench.mae").span) * 1e3, "ms"),
        "bench.convergence_time_perturb.ms": (per_cycle(s("bench.convergence_time_perturb").span) * 1e3, "ms"),
        "bench.oscillation_flag.ms": (per_cycle(s("bench.oscillation_flag").span) * 1e3, "ms"),
        "bench.compare.self_ms": (per_cycle(s("bench.compare").self) * 1e3, "ms"),
        "cli.write_log_csv.ms": (per_cycle(s("cli.write_log_csv").span) * 1e3, "ms"),
        "cli.write_log_csv.bytes": (per_cycle(s("cli.write_log_csv").bytes), "B"),
        "cli.cmd_run.self_ms": (per_cycle(s("cli.cmd_run").self) * 1e3, "ms"),
        "runtime.gc.collections": (per_cycle(tracer.gc_collections), "count"),
        "runtime.gc.pause_ms": (per_cycle(tracer.gc_pause) * 1e3, "ms"),
        "trace.overhead_frac": (1.0 - rate / plain_rate, "frac"),
    }
    for label in ("trajectory.load_demo", "trajectory.preprocess",
                  "dmp.learn_from_trajectory", "dmp.rollout", "dmp.save_model"):
        m[f"setup.{label}.ms"] = (setup_tracer.stat(label).span * 1e3, "ms")
    return m


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", dest="setup_only",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    tracing, workloads = import_program()
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setup_tracer = tracing.Tracer() if args.trace else None
        if setup_tracer:
            setup_tracer.install()
        try:
            workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir)
        finally:
            if setup_tracer:
                setup_tracer.uninstall()
        setup = time.perf_counter() - _START
        if args.setup_only:
            print(repr(setup))
            return 0
        tracer = tracing.Tracer() if args.trace else None
        result = measure(workload, args.seconds, tracer)
        setup_samples = [setup]
        if args.trace:
            metrics = layer_metrics(tracer, setup_tracer, result)
        else:
            setup_samples += setup_seconds(args)
            metrics = end_to_end_metrics(result, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import calibration

    attempted = len(result["latencies"])
    failed = result["failed"]
    info = environment(args.seed)
    info.update(workload=args.workload, trace=args.trace,
                cycles=len(result["cycles"]), ops=attempted,
                failed_frac=failed / attempted, setup_samples_s=setup_samples,
                host_speed=statistics.median(
                    calibration.speed(k) for k in result["kernel"]),
                unscaled_throughput_ops_s=statistics.median(
                    n / wall for wall, n, _, _ in result["cycles"]),
                unscaled_latency_p50_ms=percentile_ms(result["raw"], 50),
                unscaled_latency_p90_ms=percentile_ms(result["raw"], 90))
    if not args.trace and attempted >= 1000:
        info["latency_p99_ms"] = percentile_ms(result["latencies"], 99)
    print("env " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    if "latency_p99_ms" in info:
        print(f"{'latency_p99_ms':40s} {info['latency_p99_ms']:16.6f} ms")
    print(f"{'failed_frac':40s} {failed / attempted:16.6f} frac "
          f"({failed} of {attempted} ops)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
