"""Command-line front end: generate graphs, route, run oracles and experiments.

Exit codes: 0 success, 1 usage error, 2 oracle/assertion failure, 3 I/O
error, so the oracles double as CI gates.  The master seed comes from
--seed, falling back to the NAVGRAPH_SEED environment variable, then 0.
Every run echoes an invocation line it can be reproduced from, once its
inputs are accepted: a command checks its flags, model, input files and
config, and an oracle returns, before the first line of output, so a
refused input prints nothing on stdout.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import harness, oracle
from .construction import (Seed, load_permutation, read_edge_list,
                           thin_edges, write_edge_list)
from .routing import MODE_LABELS, RoutingMode, route

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSERTION = 2
EXIT_IO = 3


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("NAVGRAPH_SEED")
    return int(env) if env else 0


def _echo(argv: list[str], args) -> None:
    line = "navgraph " + " ".join(argv)
    # a command that takes a seed names it: one no --seed flag gave comes
    # from NAVGRAPH_SEED or the default
    if "seed" in args and args.seed is None:
        line += f" --seed {_resolve_seed(None)}"
    print(f"# {line}")


def _model_params(args) -> dict:
    space: dict = {}  # the flags that describe a space
    # a falsy value such as 0 or "" is for the typed checks to refuse
    if args.grid_dims is not None:
        try:
            space["grid_dims"] = [int(d) for d in args.grid_dims.split(",")]
        except ValueError:
            raise _UsageError("--grid-dims must be comma-separated integers, "
                              f"got {args.grid_dims!r}") from None
    if args.toric:
        space["toric"] = True
    if args.branching is not None:
        space["branching"] = args.branching
    if args.space_kind:
        # baseline models take their base space as a descriptor, which
        # names the grid's side lengths dims
        if "grid_dims" in space:
            space["dims"] = space.pop("grid_dims")
        params = {"space": {"kind": args.space_kind, **space}}
    else:
        params = space  # grid-tree reads them as params
    if args.alpha is not None:
        params["alpha"] = args.alpha
    if args.links is not None:
        params["links"] = args.links
    return params


def _checked_model(args, modes=(), thinning: bool = False):
    """The model's params and explicit permutation (None where the seed
    draws one), once the model check has passed and --pi-file is read."""
    params = _model_params(args)
    harness.check_model(args.model, params, (args.n,), modes,
                        thinning=thinning,
                        explicit_pi=args.identity_pi or args.pi_file is not None)
    if args.identity_pi:
        return params, np.arange(args.n)
    if args.pi_file is None:
        return params, None
    pi = load_permutation(args.pi_file)
    if len(pi) != args.n:
        raise _UsageError(f"--pi-file lists {len(pi)} entries, but --n is "
                          f"{args.n}")
    return params, pi


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args, argv) -> int:
    # every input is checked before the build, which can take seconds
    params, pi = _checked_model(args, thinning=args.thin)
    seed = _resolve_seed(args.seed)
    _echo(argv, args)
    assignment, graph = harness.build_model(args.model, params, args.n,
                                            Seed(seed), pi=pi)
    if args.thin:
        graph = thin_edges(graph, assignment.space1, Seed(seed))
    write_edge_list(graph, args.out)
    print(f"model: {args.model}")
    print(f"vertices: {graph.n}")
    print(f"edges: {graph.edge_count()}")
    print(f"mean out-degree: {graph.mean_out_degree():.4f}")
    print(f"wrote: {args.out}")
    return EXIT_OK


def _cmd_route(args, argv) -> int:
    # the mode, the model, the endpoints and the input files are checked
    # before the build, which can take seconds
    mode = RoutingMode(
        args.mode, max_steps=args.max_steps,
        plateau=None if args.plateau == "auto" else args.plateau == "on")
    params, pi = _checked_model(args, (mode,))
    for v in (args.source, args.target):
        if not 0 <= v < args.n:
            raise _UsageError(f"vertex {v} out of range [0, {args.n})")
    seed = _resolve_seed(args.seed)
    # an edge list replaces the model's graph, which is then never built;
    # it is read over the assignment's space 1, before the invocation line
    if args.edges is None:
        _echo(argv, args)
        assignment, graph = harness.build_model(args.model, params, args.n,
                                                Seed(seed), pi=pi)
    else:
        assignment = harness.build_assignment(args.model, params, args.n,
                                              Seed(seed), pi=pi)
        graph = read_edge_list(args.edges, assignment.space1)
        _echo(argv, args)
    outcome = route(graph, assignment, mode, args.source, args.target)
    print(f"mode: {mode.label}")
    print("path: " + " -> ".join(str(v) for v in outcome.path))
    print(f"steps: {outcome.steps}")
    print(f"success: {'yes' if outcome.success else 'no'}"
          + ("" if outcome.success else f" ({outcome.failure.value})"))
    if outcome.phase_steps:
        phases = " ".join(f"{i}:{c}" for i, c in sorted(outcome.phase_steps.items()))
        print(f"phase steps: {phases}")
    return EXIT_OK


def _fail(message: str) -> int:
    print(f"FAILED: {message}", file=sys.stderr)
    return EXIT_ASSERTION


def _report(args, argv, text: str | None, write_csv,
            failure: str | None) -> int:
    """Echo the invocation line of an oracle that has returned, print its
    report (if any), write its CSV where --csv asks, and turn a failure
    message into exit 2."""
    _echo(argv, args)
    if text is not None:
        print(text)
        if args.csv:
            write_csv(args.csv)
    return _fail(failure) if failure else EXIT_OK


def _cmd_oracle(args, argv) -> int:
    if args.oracle_cmd == "marginal":
        report = oracle.marginal_edge_law(args.n)
        if report.all_exact:
            return _report(args, argv, report.table(),
                           report.write_csv, None)
        bad = [r for r in report.rows if not r.exact][0]
        return _report(args, argv, report.table(), report.write_csv,
                       f"edge frequency to y={bad.head} is {bad.probability}, "
                       f"expected {bad.expected}")
    if args.oracle_cmd == "monotonicity":
        report = oracle.monotonicity_check(args.n)
        if not report.violations:
            return _report(args, argv, report.table() + "\n0 violations",
                           report.write_csv, None)
        ex = report.examples[0]
        return _report(args, argv, report.table(), report.write_csv,
                       f"{report.violations} monotonicity violations, e.g. "
                       f"pi={ex.pi} {ex.source}->{ex.target}")
    if args.oracle_cmd == "divergence":
        witness = oracle.find_divergent_permutation(args.n_max)
        if witness is None:
            return _report(args, argv, None, None,
                           f"no divergent permutation up to n={args.n_max}")
        return _report(args, argv, witness.table(), witness.write_csv,
                       None)
    if args.oracle_cmd == "tau":
        if args.set_size < 1:
            raise _UsageError(f"--set-size must be >= 1, got {args.set_size}")
        if args.samples < 1:
            raise _UsageError(f"--samples must be >= 1, got {args.samples}")
        seed = _resolve_seed(args.seed)
        set_a, set_b = oracle.random_disjoint_sets(args.n, args.set_size,
                                                   args.set_size, Seed(seed))
        report = oracle.tau_tail(args.n, set_a, set_b, args.samples, Seed(seed))
        return _report(args, argv, report.table(), report.write_csv,
                       None if report.passed else
                       f"tau tail checks failed: P(tau=1)={report.tau1_probability:.4f} "
                       f"needs >= {report.p_lower:.4f}, "
                       f"nonincreasing={report.tail_nonincreasing}")
    if args.oracle_cmd == "degree":
        if args.n < 2:
            raise _UsageError(f"--n must be >= 2, got {args.n}")
        if args.seeds < 1:
            raise _UsageError(f"--seeds must be >= 1, got {args.seeds}")
        if not args.tolerance >= 0:  # NaN too: it would pass any deviation
            raise _UsageError(f"--tolerance must be >= 0, got {args.tolerance}")
        seed = _resolve_seed(args.seed)
        expected = sum(1.0 / k for k in range(1, args.n))  # harmonic oracle first
        means = []
        for i in range(args.seeds):
            _, graph = harness.build_model(
                "independent-interest", {"space": {"kind": "directed-cycle"}},
                args.n, Seed(seed + i))
            means.append(graph.mean_out_degree())
        observed = sum(means) / len(means)
        rel = abs(observed - expected) / expected
        return _report(
            args, argv,
            f"independent interest on a directed cycle, n={args.n}, "
            f"{args.seeds} seeds\n"
            f"mean out-degree: {observed:.4f} (harmonic oracle {expected:.4f}, "
            f"relative error {rel:.3%})",
            lambda path: oracle._write_csv(
                path, ["seed", "mean_outdeg"],
                [[seed + i, repr(m)] for i, m in enumerate(means)]),
            f"mean degree {observed:.4f} deviates {rel:.3%} from harmonic "
            f"value {expected:.4f} (> {args.tolerance:.0%})"
            if rel > args.tolerance else None)
    raise _UsageError("choose an oracle: marginal | monotonicity | divergence "
                      "| tau | degree")


def _cmd_experiment(args, argv) -> int:
    if args.workers < 0:
        raise _UsageError(f"--workers must be >= 0, got {args.workers}")
    spec = harness.load_experiment_config(args.config)
    _echo(argv, args)
    workers = args.workers if args.workers else (os.cpu_count() or 1)
    result = harness.run_experiment(spec, workers=workers,
                                    dump_edges_dir=args.dump_edges)
    harness.export_csv(result, args.out, raw_path=args.raw_out)
    print(f"model: {spec.model}  sizes: {list(spec.sizes)}  "
          f"seeds: {list(spec.seeds)}")
    print(f"rows: {len(result.rows)}  routes: {len(result.raw)}")
    print(f"wrote: {args.out}")
    if args.raw_out:
        print(f"wrote: {args.raw_out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_model_args(p: _Parser) -> None:
    p.add_argument("--model", required=True, choices=harness.MODELS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (default: $NAVGRAPH_SEED or 0)")
    p.add_argument("--identity-pi", action="store_true",
                   help="use the identity permutation")
    p.add_argument("--pi-file", help="whitespace-separated permutation file")
    p.add_argument("--branching", type=int, default=None)
    p.add_argument("--grid-dims", help="comma-separated grid side lengths")
    p.add_argument("--toric", action="store_true")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--links", type=int, default=None)
    p.add_argument("--space-kind", choices=("directed-cycle", "undirected-cycle",
                                            "grid", "tree"),
                   help="base space for the baseline models")


@functools.cache
def build_parser() -> _Parser:
    """The whole argparse tree, built once per process: parsing keeps no
    state on it, so every :func:`main` call reuses it."""
    parser = _Parser(prog="navgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_gen = sub.add_parser("generate", help="build a graph and write its edge list")
    _add_model_args(p_gen)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--thin", action="store_true",
                       help="keep non-base edges with probability 1/ln(n)")

    p_route = sub.add_parser("route", help="route one query and print the outcome")
    _add_model_args(p_route)
    p_route.add_argument("--edges", help="edge-list file overriding the built graph")
    p_route.add_argument("--source", type=int, required=True)
    p_route.add_argument("--target", type=int, required=True)
    p_route.add_argument("--mode", default="greedy-1", choices=MODE_LABELS)
    p_route.add_argument("--plateau", choices=("auto", "on", "off"), default="auto")
    p_route.add_argument("--max-steps", type=int, default=None)

    p_oracle = sub.add_parser("oracle", help="run an exact or Monte Carlo verifier")
    osub = p_oracle.add_subparsers(dest="oracle_cmd", parser_class=_Parser)
    o_marg = osub.add_parser("marginal")
    o_marg.add_argument("--n", type=int, default=6)
    o_marg.add_argument("--csv")
    o_mono = osub.add_parser("monotonicity")
    o_mono.add_argument("--n", type=int, default=7)
    o_mono.add_argument("--csv")
    o_div = osub.add_parser("divergence")
    o_div.add_argument("--n-max", type=int, default=8)
    o_div.add_argument("--csv")
    o_tau = osub.add_parser("tau")
    o_tau.add_argument("--n", type=int, default=1000)
    o_tau.add_argument("--set-size", type=int, default=100)
    o_tau.add_argument("--samples", type=int, default=10000)
    o_tau.add_argument("--seed", type=int, default=None)
    o_tau.add_argument("--csv")
    o_deg = osub.add_parser("degree")
    o_deg.add_argument("--n", type=int, default=1024)
    o_deg.add_argument("--seeds", type=int, default=20)
    o_deg.add_argument("--tolerance", type=float, default=0.05)
    o_deg.add_argument("--seed", type=int, default=None)
    o_deg.add_argument("--csv")

    p_exp = sub.add_parser("experiment", help="run a config-driven study to CSV")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--out", required=True)
    p_exp.add_argument("--raw-out")
    p_exp.add_argument("--workers", type=int, default=0,
                       help="parallel trials (0, the default: all cores)")
    p_exp.add_argument("--dump-edges", help="directory for per-trial edge lists")
    return parser


_COMMANDS = {
    "generate": _cmd_generate,
    "route": _cmd_route,
    "oracle": _cmd_oracle,
    "experiment": _cmd_experiment,
}


# every flag that names a file or a directory, in every command that takes
# it: an empty value names none, and is refused before the command runs
_FILE_FLAGS = ("--out", "--raw-out", "--csv", "--config", "--dump-edges",
               "--pi-file", "--edges")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        for flag in _FILE_FLAGS:
            if getattr(args, flag[2:].replace("-", "_"), None) == "":
                raise _UsageError(f"{flag} must name a file, got an empty value")
        return _COMMANDS[args.command](args, argv)
    except ValueError as exc:  # _UsageError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
