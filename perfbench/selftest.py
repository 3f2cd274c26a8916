"""Self-test of the benchmark's output contract and traced counts.

For every workload, the ungated ones included, this makes one short untraced run
and two short traced runs, then checks that

- each run prints exactly the metrics ``BENCHMARK.json`` declares, with
  their units, and reports no failed op;
- every count metric of the traced run (calls, steps, engaged steps,
  infeasible runs, bytes written) repeats exactly between the two traced
  runs.

Run from the repository root: ``python3 perfbench/selftest.py``.  Exits 1
and names each difference when a check fails.
"""

import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

ROOT = Path(__file__).resolve().parent.parent
COUNT_SUFFIXES = (".calls", ".steps", ".engaged", ".engaged_frac",
                  ".infeasible", ".bytes")


def run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOAD_NAMES:
        results = {0: run(workload, 0), 1: run(workload, 1)}
        again = run(workload, 1)
        for trace, result in results.items():
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed ops")
        counts = [name for name in expected[1] if name.endswith(COUNT_SUFFIXES)]
        for name in counts:
            first = results[1]["metrics"][name]["value"]
            second = again["metrics"][name]["value"]
            if first != second:
                problems.append(f"{workload}: {name} {first!r} != {second!r}")
        print(f"{workload}: {len(counts)} counts compared", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
