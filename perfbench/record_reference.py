"""Record the output digests that the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Runs one pass of every digest-checked workload, at both scales, for each
of the seeded instances, and rewrites ``perfbench/reference.json``.  Run
it only when outputs are meant to change, and say which and why.
"""

from __future__ import annotations

import json
import re
import sys

import run


def main() -> int:
    run.import_program()
    import workloads

    recorded: dict = {}
    for workload in ("experiment-sweep", "route-batch"):
        for scale in ("toy", "full"):
            for instance in range(workloads.INSTANCES):
                result = run.execute(workload, scale, instance, 0, False,
                                     reference=False, setup_repeats=1)
                recorded.setdefault(workload, {}).setdefault(scale, {})[
                    str(instance)] = result["digests"]
                print(f"{workload} {scale} {instance}: "
                      f"{result['failed']} of {result['attempted']} failed",
                      file=sys.stderr)
    data = {"instances": workloads.INSTANCES, "workloads": recorded}
    text = json.dumps(data, indent=1)
    # one line per list of raised route indices
    text = re.sub(r"\[[\d,\s]*\]", lambda m: re.sub(r"\s+", "", m.group()), text)
    (run.HERE / "reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
