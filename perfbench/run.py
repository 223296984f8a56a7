"""Run one navgraph benchmark workload and print its metrics.

    python3 perfbench/run.py --workload route-batch --seed 3 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` and nowhere else, so the benchmark refuses to run without it.

A run imports navgraph and sets up its inputs several times (``setup_s``
is the sum of the two medians), warms up, then repeats the workload's
fixed unit of work (a *pass*) until ``--seconds`` have passed, checking
every pass's outputs and importing navgraph afresh once more after each.  End-to-end timings take each timed call at its
fastest repeat over the passes (see ``probes.FastestRepeat``).
``--trace 1`` measures untraced passes the same way, then traces one
set-up and one pass and prints the per-layer metrics instead, with the
tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run record (versions, seed, pins, warm-up, metrics) and, when traced,
the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# pinned before numpy loads, so no kernel fans out over the cores
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3

_perf = time.perf_counter


def import_program(repeats: int = SETUP_REPEATS) -> list[float]:
    """Import navgraph from this checkout's ``src/`` afresh ``repeats``
    times; returns the seconds each import took.  numpy is imported once
    beforehand and not timed: its import is not the program's."""
    src = ROOT / "src"
    if not (src / "navgraph" / "__init__.py").is_file():
        raise ImportError(f"no navgraph package under {src}")
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    times = []
    for _ in range(repeats):
        for name in [m for m in sys.modules if m.split(".")[0] == "navgraph"]:
            del sys.modules[name]
        t0 = _perf()
        import navgraph
        from navgraph import cli, construction, harness, oracle, routing, spaces  # noqa: F401
        times.append(_perf() - t0)
    if Path(navgraph.__file__).resolve().parent != (src / "navgraph").resolve():
        raise ImportError(f"navgraph resolved to {navgraph.__file__}, not {src}")
    return times


def time_reimport() -> float:
    """Import navgraph afresh once more; returns the seconds it took.  The
    modules loaded before are put back afterwards, so the workload and its
    probes keep using the objects they hold."""
    loaded = {m: sys.modules.pop(m) for m in list(sys.modules)
              if m.split(".")[0] == "navgraph"}
    t0 = _perf()
    import navgraph
    from navgraph import cli, construction, harness, oracle, routing, spaces  # noqa: F401
    took = _perf() - t0
    for name in [m for m in sys.modules if m.split(".")[0] == "navgraph"]:
        del sys.modules[name]
    sys.modules.update(loaded)
    return took


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_reference(scale: str, workload: str, instance: int):
    data = json.loads((HERE / "reference.json").read_text())
    if workload not in data["workloads"]:
        return None
    return data["workloads"][workload][scale][str(instance)]


def execute(workload: str, scale: str, seed: int, seconds: float, trace: bool,
            *, import_times: list[float] | None = None, reference: bool = True,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the metrics, check counts and digests.

    With ``import_times`` (the imports before the run), navgraph is
    imported afresh once more after each pass, appending to that list, and
    its median is added to the median set-up.  Import times swing with the
    host's load from second to second; samples spread over the whole run
    keep ``setup_s`` from following the load of its first second.
    ``reference=False`` skips the digest comparison (used to record the
    reference itself).
    """
    import probes
    import workloads

    instance = seed % workloads.INSTANCES
    ref = load_reference(scale, workload, instance) if reference else None
    workdir = OUT / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[workload](scale, instance, workdir)
    setup_checks, checks = workloads.Checks(), workloads.Checks()
    tracer = probes.Tracer() if trace else None
    digests: dict = {}
    setup_times = []
    passes = []
    best = probes.FastestRepeat()
    try:
        for rep in range(setup_repeats):
            traced = tracer is not None and rep == setup_repeats - 1
            with tracer if traced else contextlib.nullcontext():
                t0 = _perf()
                wl.setup()
                setup_times.append(_perf() - t0)
            setup_checks.repeat()
            digests.update(wl.checked_setup(setup_checks, ref))
        t0 = _perf()
        wl.warm_up()
        warm_up_s = _perf() - t0

        timer = probes.CallTimer()
        with timer:
            start = _perf()
            while not passes or _perf() - start < seconds:
                wall, output = wl.run_pass()
                checks.repeat()
                found = wl.check(output, checks, ref)
                if not passes:
                    digests.update(found)
                calls = timer.take()
                best.add(wall, *calls)
                passes.append(probes.pass_figures(wall, *calls))
                del output, calls
                if import_times is not None:
                    import_times.append(time_reimport())
                # a raised route's traceback keeps its pass's outputs in a
                # reference cycle, as the fresh modules keep theirs: free
                # them now, not inside a later pass
                gc.collect()
            if tracer is not None:
                with tracer:
                    traced_wall, output = wl.run_pass()
                timer.take()
                checks.repeat()
                wl.check(output, checks, ref)
    finally:
        workloads.remove_workdir(workdir)

    walls = [p["wall_s"] for p in passes]
    attempted = setup_checks.attempted + checks.attempted
    failed = setup_checks.failed + checks.failed
    result = {
        "workload": workload, "scale": scale, "seed": seed, "instance": instance,
        "seconds": seconds, "trace": int(trace), "passes": len(passes),
        "setup_runs_s": setup_times, "warm_up_s": warm_up_s,
        "pass_figures": passes,
        "correct": setup_checks.correct and checks.correct,
        "attempted": attempted, "failed": failed,
        "problems": setup_checks.problems + checks.problems,
        "digests": digests,
    }
    if tracer is None:
        import_s = statistics.median(import_times) if import_times else 0.0
        result["metrics"] = end_to_end(best, import_s + statistics.median(setup_times),
                                       failed / attempted)
    else:
        metrics = tracer.metrics()
        untraced = statistics.median(walls)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
        metrics["trace.spans"] = (tracer.span_count(), "count")
        result["metrics"] = metrics
        result["tracer"] = tracer
    return result


def end_to_end(best, setup_s: float, error_rate: float) -> dict:
    f = best.figures()
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (f["wall_s"], "s"),
        "routes_per_s": (f["routes_per_s"], "1/s"),
        "route_ms_p50": (f["route_ms_p50"], "ms"),
        "route_ms_p99": (f["route_ms_p99"], "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
        "ok_rate": (1.0 - error_rate, "ratio"),
    }


def run_record(result: dict, import_times: list[float]) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
        "navgraph_import_s": import_times,
        **{k: v for k, v in result.items() if k not in ("metrics", "tracer")},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiment-sweep", "route-batch", "oracle-exhaustive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy sizes finish in seconds (smoke check)")
    args = parser.parse_args(argv)

    try:
        import_times = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    result = execute(args.workload, args.scale, args.seed, args.seconds,
                     bool(args.trace), import_times=import_times)
    record = run_record(result, import_times)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        result["tracer"].write(OUT / f"spans-{stem}.npz")

    print(f"# workload {args.workload} ({args.scale}), seed {args.seed} "
          f"(instance {result['instance']}), {result['passes']} passes, "
          f"git {record['git_sha'][:12]}, nproc {record['nproc']}, "
          f"python {record['python']}, numpy {record['numpy']}")
    print(f"# latency samples: {result['pass_figures'][0]['completed_routes']} "
          f"completed routes, each at its fastest of {result['passes']} passes; "
          f"warm-up {result['warm_up_s']:.3f} s")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    walls = [p["wall_s"] for p in result["pass_figures"]]
    print(f"# pass wall times as measured: median {statistics.median(walls):.6g} s, "
          f"min {min(walls):.6g} s, max {max(walls):.6g} s")
    if not args.trace:
        print(f"error_rate = {result['failed'] / result['attempted']:.6g} ratio "
              f"({result['failed']} of {result['attempted']} operations)")
    for problem in result["problems"]:
        print(f"# check: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
