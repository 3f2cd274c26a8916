"""Repeat the benchmark over ten seeds and summarise its spread.

Writes one perf-trajectory entry.  For each workload in ``BENCHMARK.json``
it runs ``run.py`` untraced on seeds 1 to 10, then once traced on seed 1,
and records per end-to-end metric the median, the quartiles and the spread
(interquartile distance over median, as ``statistics.quantiles(values,
n=4)`` gives them), every run's value, and the traced run's per-layer
metrics.  Each spread is printed next to a third of its bound.  For
``setup_s`` it also prints the spread of this process's own set-up sample
alone, without the two child processes, and for the throughput and latencies
the spread before host-speed scaling (from the ``env`` line).

The workloads ``run.py`` knows but ``BENCHMARK.json`` does not gate
(``sweep``, ``gauntlet``) run once untraced and once traced on seed 1; their
results go under ``ungated``.  The entry records the git commit of the
checkout when there is one.

Run from the repository root:

    python3 perfbench/collect.py --label seed-commit --out perfbench/BENCH_0.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
UNSCALED = ("host_speed", "unscaled_throughput_ops_s",
            "unscaled_latency_p50_ms", "unscaled_latency_p90_ms")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = out.stdout.strip().splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    return env, json.loads(lines[-1])


def spread(values: list) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def commit() -> str | None:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    gated = [w["name"] for w in spec["workloads"]]
    entry = {"label": args.label, "commit": commit(), "run_seconds": seconds,
             "runs": RUNS, "workloads": {}, "ungated": {}}
    for workload in gated:
        values, attempted, failed, own_setup, unscaled = {}, [], 0, [], {}
        for seed in range(1, RUNS + 1):
            env, result = run(workload, seed, seconds, 0)
            attempted.append(result["attempted"])
            failed += result["failed"]
            own_setup.append(env["setup_samples_s"][0])
            for name in UNSCALED:
                unscaled.setdefault(name, []).append(env[name])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {}
        for name, vals in values.items():
            median, q1, q3, s = spread(vals)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": s, "values": vals}
            flag = "" if s < bounds[name] / 3 else "  above bound/3"
            print(f"{workload:9s} {name:18s} median {median:12.5g} "
                  f"spread {s:.3f} (bound/3 {bounds[name] / 3:.3f}){flag}",
                  flush=True)
        own = spread(own_setup)[3]
        print(f"{workload:9s} setup_s of this process alone: spread {own:.3f}",
              flush=True)
        for name, vals in unscaled.items():
            print(f"{workload:9s} {name}: median {spread(vals)[0]:.5g} "
                  f"spread {spread(vals)[3]:.3f}", flush=True)
        _, traced = run(workload, 1, seconds, 1)
        entry["env"] = {k: env[k] for k in ("python", "numpy", "scipy", "nproc", "cpu")}
        entry["workloads"][workload] = {
            "ops_per_run": attempted, "failed": failed, "end_to_end": summary,
            "setup_s_own_process": {"spread": own, "values": own_setup},
            "unscaled": {name: {"spread": spread(vals)[3], "values": vals}
                         for name, vals in unscaled.items()},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    for workload in WORKLOAD_NAMES:
        if workload in gated:
            continue
        env, result = run(workload, 1, seconds, 0)
        _, traced = run(workload, 1, seconds, 1)
        entry["ungated"][workload] = {
            "seed": 1, "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": {k: v["value"] for k, v in result["metrics"].items()},
            "latency_p99_ms": env.get("latency_p99_ms"),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{workload:9s} one run: {result['attempted']} ops, "
              f"{result['failed']} failed", flush=True)
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
