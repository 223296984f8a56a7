"""Quick check of the benchmark itself: every workload at toy size.

    python3 perfbench/smoke.py

Runs ``run.py`` once per workload with and without tracing, at toy sizes,
and fails unless each run exits 0, emits exactly the metrics that
``BENCHMARK.json`` names (end-to-end untraced, per-layer traced) with their
units, and passes its output checks.  Route-batch is allowed its known
combined-routing failures; they must be counted, not hidden.  Takes a few
seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", "3", "--seconds", "1", "--trace", str(trace),
                    "--scale", "toy"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=170)
            label = f"{workload} trace={trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{label}: metrics missing {missing}, "
                                f"unexpected {extra}, wrong unit {wrong}")
            if not result["correct"]:
                problems.append(f"{label}: output checks failed")
            if result["failed"] and workload != "route-batch":
                problems.append(f"{label}: {result['failed']} failed operations")
            print(f"{label}: ok={len(problems) == before} attempted={result['attempted']} "
                  f"failed={result['failed']}")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
