import dataclasses
import io
import json
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navgraph import cli, harness, oracle
from navgraph.oracle import find_divergent_permutation
from navgraph.routing import MODE_LABELS, RoutingMode

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_edge_list(tmp_path, capsys):
    out = tmp_path / "g.edges"
    code = run_cli("generate", "--model", "two-directed-cycles", "--n", "128",
                   "--seed", "7", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) >= 128  # base successor edges at minimum
    printed = capsys.readouterr().out
    assert "--seed 7" in printed or "'--seed', '7'" in printed or "seed" in printed
    assert "vertices: 128" in printed


def test_generate_identity_pi_double_cycle(tmp_path):
    out = tmp_path / "g.edges"
    code = run_cli("generate", "--model", "two-directed-cycles", "--n", "16",
                   "--seed", "1", "--identity-pi", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 16


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    args = ("generate", "--model", "two-undirected-cycles", "--n", "64",
            "--seed", "13")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_env_seed_fallback(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NAVGRAPH_SEED", "21")
    implicit = tmp_path / "env.edges"
    explicit = tmp_path / "flag.edges"
    assert run_cli("generate", "--model", "two-directed-cycles", "--n", "32",
                   "--out", str(implicit)) == 0
    assert "--seed 21" in capsys.readouterr().out
    assert run_cli("generate", "--model", "two-directed-cycles", "--n", "32",
                   "--seed", "21", "--out", str(explicit)) == 0
    assert implicit.read_bytes() == explicit.read_bytes()


def test_generate_kleinberg_with_params(tmp_path):
    out = tmp_path / "k.edges"
    code = run_cli("generate", "--model", "kleinberg", "--n", "64", "--seed", "3",
                   "--alpha", "2", "--links", "1", "--grid-dims", "8,8",
                   "--space-kind", "grid", "--out", str(out))
    assert code == 0
    assert out.exists()


def test_generate_usage_error(capsys):
    assert run_cli("generate", "--model", "nonsense", "--n", "8",
                   "--out", "x") == 1


# inputs that generate and route refuse before the invocation line, at
# --n 4096 unless the flags repeat it; TMP is the test's temporary directory
_REFUSED_MODEL_INPUTS = [
    (("--model", "continuum", "--n", "0"), "n must be >= 1, got 0"),
    (("--model", "grid-tree", "--n", "-4"), "n must be >= 1, got -4"),
    (("--model", "independent-interest", "--space-kind", "tree", "--n", "0"),
     "n must be >= 1, got 0"),
    (("--model", "two-directed-cycles", "--pi-file", "TMP/repeat.pi"),
     "input is not a permutation of 0..n-1"),
    (("--model", "two-directed-cycles", "--pi-file", "TMP/short.pi"),
     "--pi-file lists 3 entries, but --n is 4096"),
    (("--model", "continuum", "--identity-pi"),
     "model 'continuum' takes no explicit permutation"),
    (("--model", "kleinberg", "--identity-pi"),
     "model 'kleinberg' takes no explicit permutation"),
    # an empty value is refused by name, before the model check, which
    # would otherwise refuse a permutation that continuum does not take
    (("--model", "continuum", "--pi-file", ""),
     "--pi-file must name a file, got an empty value"),
    (("--model", "two-directed-cycles", "--pi-file", ""),
     "--pi-file must name a file, got an empty value"),
    (("--model", "two-directed-cycles", "--pi-file", "TMP/token.pi"),
     "/token.pi: expected whitespace-separated integers, got 'x'"),
    # the size ceiling comes before an O(n^2) build, and before the spaces'
    # own checks: 65537 is no power of the tree's branching
    (("--model", "kleinberg", "--n", "65537"),
     "sizes [65537] exceed the n <= 65536 ceiling"),
    (("--model", "grid-tree", "--n", "65537"),
     "sizes [65537] exceed the n <= 65536 ceiling"),
]
_REFUSED_MODEL_IDS = ["continuum-n-0", "grid-tree-n-negative",
                      "interest-tree-n-0", "pi-file-repeat",
                      "pi-file-wrong-length", "identity-pi-continuum",
                      "identity-pi-kleinberg", "pi-file-empty-continuum",
                      "pi-file-empty", "pi-file-token",
                      "kleinberg-n-above-ceiling", "grid-tree-n-above-ceiling"]


def _write_refused_inputs(directory: Path) -> None:
    (directory / "repeat.pi").write_text("0 1 1 2\n")
    (directory / "short.pi").write_text("2 0 1\n")
    (directory / "token.pi").write_text("0 x 1\n")
    (directory / "out-of-range.edges").write_text("0\t1\n0\t4096\n")


# ---------------------------------------------------------------------------
# route


@pytest.mark.parametrize("flags,message", [
    (("--model", "grid-tree", "--branching", "0"),
     "tree 'branching' must be an integer >= 2, got 0"),
    (("--model", "grid-tree", "--grid-dims", ""),
     "--grid-dims must be comma-separated integers, got ''"),
    (("--model", "kleinberg", "--space-kind", "tree", "--branching", "0"),
     "tree 'branching' must be an integer >= 2, got 0"),
    (("--model", "kleinberg", "--space-kind", "grid", "--grid-dims", ""),
     "--grid-dims must be comma-separated integers, got ''"),
], ids=["branching-0", "grid-dims-empty", "space-branching-0",
        "space-grid-dims-empty"])
def test_generate_refuses_falsy_model_flags(tmp_path, capsys, flags, message):
    # a falsy flag value is refused, never dropped for the default
    out = tmp_path / "g.edges"
    code = run_cli("generate", "--n", "16", "--out", str(out), *flags)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("flags,message", [
    (("--model", "kleinberg", "--grid-dims", "4,16"),
     "model 'kleinberg': params key 'grid_dims' is not read; "
     "it reads 'space', 'alpha', 'links'"),
    (("--model", "two-undirected-cycles", "--alpha", "2", "--branching", "3"),
     "model 'two-undirected-cycles': params key 'branching' is not read; "
     "it reads no keys"),
    (("--model", "kleinberg", "--space-kind", "grid", "--branching", "3"),
     "space kind 'grid': descriptor key 'branching' is not read; "
     "it reads 'kind', 'dims', 'toric'"),
    (("--model", "independent-interest", "--space-kind", "tree", "--toric"),
     "space kind 'tree': descriptor key 'toric' is not read; "
     "it reads 'kind', 'branching'"),
    (("--model", "grid-tree", "--space-kind", "grid"),
     "model 'grid-tree': params key 'space' is not read; "
     "it reads 'grid_dims', 'toric', 'branching'"),
], ids=["kleinberg-grid-dims", "cycles-alpha-branching", "grid-branching",
        "tree-toric", "grid-tree-space-kind"])
def test_generate_refuses_flags_the_model_does_not_read(tmp_path, capsys,
                                                        flags, message):
    # a space flag reaches the model's params, or with --space-kind its
    # space descriptor; one that nothing reads is refused, never dropped
    out = tmp_path / "g.edges"
    code = run_cli("generate", "--n", "16", "--seed", "1", "--out", str(out),
                   *flags)
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_generate_space_flags_reach_the_space_descriptor(tmp_path):
    def edges(*flags):
        out = tmp_path / "g.edges"
        assert run_cli("generate", "--model", "kleinberg", "--n", "64",
                       "--seed", "1", "--space-kind", "grid", "--out",
                       str(out), *flags) == 0
        return out.read_bytes()
    default = edges()
    assert edges("--grid-dims", "8,8") == default
    assert edges("--grid-dims", "4,16") != default
    assert edges("--toric") != default


def test_route_source_equals_target(capsys):
    code = run_cli("route", "--model", "two-directed-cycles", "--n", "16",
                   "--seed", "2", "--source", "3", "--target", "3")
    assert code == 0
    out = capsys.readouterr().out
    assert "steps: 0" in out
    assert "success: yes" in out


@pytest.mark.parametrize("label", MODE_LABELS)
def test_route_accepts_every_mode_label(capsys, label):
    code = run_cli("route", "--model", "two-undirected-cycles", "--n", "16",
                   "--seed", "4", "--source", "0", "--target", "8",
                   "--mode", label)
    assert code == 0
    assert f"mode: {label}\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv,lines", [
    ("--model two-undirected-cycles --n 64 --seed 1 --source 0 --target 50 "
     "--mode combined",
     ["mode: combined", "path: 0 -> 48 -> 49 -> 50", "steps: 3",
      "success: yes", "phase steps: 0:1 1:1 4:1"]),
    # three steps leave cloud distances in (1/4, 1/2], one in (1/16, 1/8]
    ("--model continuum --n 64 --seed 1 --source 0 --target 63 "
     "--mode combined",
     ["mode: combined", "path: 0 -> 62 -> 36 -> 59 -> 63", "steps: 4",
      "success: yes", "phase steps: -3:1 -1:3"]),
    ("--model two-undirected-cycles --n 2 --seed 1 --source 0 --target 1 "
     "--mode half-greedy-2",
     ["mode: half-greedy-2", "path: 0 -> 1", "steps: 1", "success: yes",
      "phase steps: 0:1"]),
])
def test_route_output_is_pinned(capsys, argv, lines):
    assert run_cli("route", *argv.split()) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"# navgraph route {argv}", *lines]


@pytest.mark.parametrize("flags,result", [
    ((), "success: yes"),
    (("--plateau", "on"), "success: yes"),
    (("--plateau", "off"), "success: no (stuck)"),
    (("--max-steps", "1"), "success: no (step-limit)"),
    (("--plateau", "on", "--max-steps", "1"), "success: no (step-limit)"),
])
def test_route_plateau_and_max_steps_flags(capsys, flags, result):
    # greedy over the tree space: 0 -> 1 -> 2 needs one equal-distance move
    code = run_cli("route", "--model", "grid-tree", "--n", "16", "--seed", "0",
                   "--branching", "2", "--source", "0", "--target", "2",
                   "--mode", "greedy-2", *flags)
    assert code == 0
    assert result in capsys.readouterr().out


def test_route_half_greedy_on_continuum_refused(capsys):
    code = run_cli("route", "--model", "continuum", "--n", "32", "--seed", "2",
                   "--source", "0", "--target", "5", "--mode", "half-greedy-1")
    assert code == 1
    assert "graph-kind" in capsys.readouterr().err


def test_route_unknown_vertex(capsys):
    code = run_cli("route", "--model", "two-directed-cycles", "--n", "8",
                   "--seed", "0", "--source", "0", "--target", "99")
    assert code == 1
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (("--model", "kleinberg", "--max-steps", "0"), "max_steps must be >= 1"),
    (("--model", "kleinberg", "--source", "4096"), "vertex 4096 out of range"),
    (("--model", "kleinberg", "--target", "-1"), "vertex -1 out of range"),
    (("--model", "continuum", "--mode", "half-greedy-1"), "graph-kind space 1"),
    (("--model", "two-undirected-cycles", "--mode", "half-greedy-1",
      "--plateau", "on"), "plateau applies to greedy and combined routing only"),
    (("--model", "two-undirected-cycles", "--mode", "half-greedy-2",
      "--plateau", "off"), "plateau applies to greedy and combined routing only"),
    (("--model", "two-undirected-cycles", "--branching", "3"),
     "model 'two-undirected-cycles': params key 'branching' is not read"),
    *_REFUSED_MODEL_INPUTS,
    (("--model", "two-directed-cycles", "--edges", "TMP/out-of-range.edges"),
     "edge (0, 4096) out of range for n=4096"),
    (("--model", "two-directed-cycles", "--edges", ""),
     "--edges must name a file, got an empty value"),
], ids=["max-steps-0", "source-out-of-range", "target-out-of-range",
        "half-greedy-on-continuum", "plateau-on-half-greedy",
        "plateau-off-half-greedy", "unread-branching",
        *_REFUSED_MODEL_IDS, "edge-out-of-range", "edges-empty"])
def test_route_refuses_bad_arguments_before_building(monkeypatch, tmp_path,
                                                      capsys, flags, message):
    def build_model(*args, **kwargs):
        raise AssertionError("the graph was built")
    monkeypatch.setattr(cli.harness, "build_model", build_model)
    _write_refused_inputs(tmp_path)
    # a repeated option takes its last value
    code = run_cli("route", "--n", "4096", "--seed", "0", "--source", "0",
                   "--target", "1",
                   *(f.replace("TMP", str(tmp_path)) for f in flags))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("flags,message", [
    *_REFUSED_MODEL_INPUTS,
    (("--model", "two-undirected-cycles", "--n", "2", "--thin"),
     "sizes must be >= 3 with thinning"),
], ids=[*_REFUSED_MODEL_IDS, "thin-n-2"])
def test_generate_refuses_bad_arguments_before_building(
        monkeypatch, tmp_path, capsys, flags, message):
    # every refusal comes before the invocation line: nothing on stdout, no
    # edge file, and no build
    def build_model(*args, **kwargs):
        raise AssertionError("the graph was built")
    monkeypatch.setattr(cli.harness, "build_model", build_model)
    _write_refused_inputs(tmp_path)
    out = tmp_path / "g.edges"
    code = run_cli("generate", "--n", "4096", "--seed", "0", "--out", str(out),
                   *(f.replace("TMP", str(tmp_path)) for f in flags))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_route_divergence_witness_replay(tmp_path, capsys):
    witness = find_divergent_permutation(8)
    pi_file = tmp_path / "pi.txt"
    pi_file.write_text(" ".join(str(v) for v in witness.pi))
    paths = []
    for mode in ("greedy-1", "greedy-2"):
        code = run_cli("route", "--model", "two-directed-cycles",
                       "--n", str(witness.n), "--pi-file", str(pi_file),
                       "--source", str(witness.source),
                       "--target", str(witness.target), "--mode", mode)
        assert code == 0
        out = capsys.readouterr().out
        paths.append([l for l in out.splitlines() if l.startswith("path:")][0])
    assert paths[0] != paths[1]


def test_route_from_edge_list_file(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    run_cli("generate", "--model", "two-directed-cycles", "--n", "16",
            "--seed", "5", "--out", str(edges))
    capsys.readouterr()
    code = run_cli("route", "--model", "two-directed-cycles", "--n", "16",
                   "--seed", "5", "--edges", str(edges),
                   "--source", "0", "--target", "9")
    assert code == 0
    assert "success: yes" in capsys.readouterr().out


@pytest.mark.parametrize("model_args", [
    ("--model", "two-directed-cycles"),
    ("--model", "grid-tree", "--branching", "2"),
    ("--model", "continuum"),
    ("--model", "kleinberg"),
    ("--model", "independent-interest", "--space-kind", "tree"),
], ids=["double-cycles", "grid-tree", "continuum", "kleinberg", "interest"])
def test_route_from_an_edge_list_builds_no_graph(monkeypatch, tmp_path,
                                                 capsys, model_args):
    # the edge list replaces the model's graph: no builder runs, and the
    # route is the one taken on the built graph, with the same spaces
    edges = tmp_path / "g.edges"
    argv = [*model_args, "--n", "64", "--seed", "3", "--source", "5",
            "--target", "60", "--mode", "greedy-1"]
    assert run_cli("generate", *model_args, "--n", "64", "--seed", "3",
                   "--out", str(edges)) == 0
    capsys.readouterr()
    assert run_cli("route", *argv) == 0
    built = capsys.readouterr().out.splitlines()

    def builder(*args, **kwargs):
        raise AssertionError("a graph was built")
    for name in ("build_double_clustering", "build_kleinberg",
                 "build_independent_interest"):
        monkeypatch.setattr(harness, name, builder)
    assert run_cli("route", *argv, "--edges", str(edges)) == 0
    read = capsys.readouterr().out.splitlines()
    assert read[0] == built[0] + f" --edges {edges}"
    assert read[1:] == built[1:]


@pytest.mark.parametrize("bad", ["3\t4\t5", "3", "3\tx"],
                         ids=["three-fields", "one-field", "not-an-integer"])
def test_route_refuses_a_bad_edge_list_line(tmp_path, capsys, bad):
    # the path and line number, blank lines counted, and the expected form
    edges = tmp_path / "g.edges"
    edges.write_text(f"0\t1\n\n{bad}\n1\t0\n")
    code = run_cli("route", "--model", "two-directed-cycles", "--n", "16",
                   "--seed", "5", "--edges", str(edges),
                   "--source", "0", "--target", "1")
    assert code == 1
    err = capsys.readouterr().err
    assert f"{edges}:3:" in err
    assert "tail<TAB>head" in err
    assert repr(bad) in err


def test_route_refuses_kleinberg_on_tree_leaves_before_building(monkeypatch,
                                                               capsys):
    def build_model(*args, **kwargs):
        raise AssertionError("built before the space was checked")
    monkeypatch.setattr(cli.harness, "build_model", build_model)
    code = run_cli("route", "--model", "kleinberg", "--n", "16", "--seed", "0",
                   "--space-kind", "tree", "--source", "0", "--target", "5")
    assert code == 1
    err = capsys.readouterr().err
    assert "'kleinberg'" in err and "'space'" in err


def test_generate_refuses_kleinberg_on_tree_leaves_before_building(
        monkeypatch, tmp_path, capsys):
    # generate refuses through the model check that route runs, before its
    # invocation line
    def build_model(*args, **kwargs):
        raise AssertionError("built before the space was checked")
    monkeypatch.setattr(cli.harness, "build_model", build_model)
    out = tmp_path / "g.edges"
    code = run_cli("generate", "--model", "kleinberg", "--n", "16", "--seed",
                   "0", "--space-kind", "tree", "--out", str(out))
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: model 'kleinberg' needs a graph-kind "
                            "space; its params 'space' is 'tree-leaves', "
                            "which has no base graph\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# oracle


def test_oracle_marginal_exits_zero(tmp_path, capsys):
    csv_path = tmp_path / "m.csv"
    code = run_cli("oracle", "marginal", "--n", "5", "--csv", str(csv_path))
    assert code == 0
    assert "1/4" in capsys.readouterr().out
    assert csv_path.exists()


def test_oracle_monotonicity_exits_zero(capsys):
    code = run_cli("oracle", "monotonicity", "--n", "4")
    assert code == 0
    assert "0 violations" in capsys.readouterr().out


def test_oracle_divergence_prints_witness(capsys):
    code = run_cli("oracle", "divergence", "--n-max", "8")
    assert code == 0
    out = capsys.readouterr().out
    assert "greedy-1 path" in out


def test_oracle_tau(capsys):
    code = run_cli("oracle", "tau", "--n", "200", "--set-size", "20",
                   "--samples", "1000", "--seed", "4")
    assert code == 0
    assert "P(tau=1)" in capsys.readouterr().out


def test_oracle_degree(capsys):
    code = run_cli("oracle", "degree", "--n", "256", "--seeds", "5",
                   "--seed", "1")
    assert code == 0
    assert "harmonic" in capsys.readouterr().out


def test_oracle_degree_output_is_pinned(tmp_path, capsys):
    # stdout, stderr and CSV bytes as recorded before the mean degree was
    # read from NavGraph.mean_out_degree
    path = tmp_path / "degree.csv"
    code = run_cli("oracle", "degree", "--n", "64", "--seeds", "3",
                   "--seed", "1", "--csv", str(path))
    assert code == 2
    out, err = capsys.readouterr()
    assert out == (
        f"# navgraph oracle degree --n 64 --seeds 3 --seed 1 --csv {path}\n"
        "independent interest on a directed cycle, n=64, 3 seeds\n"
        "mean out-degree: 4.4688 (harmonic oracle 4.7283, "
        "relative error 5.489%)\n")
    assert err == ("FAILED: mean degree 4.4688 deviates 5.489% from "
                   "harmonic value 4.7283 (> 5%)\n")
    assert path.read_bytes() == (b"seed,mean_outdeg\r\n1,4.640625\r\n"
                                 b"2,4.34375\r\n3,4.421875\r\n")


_TAU_TAIL = ("1.00000", "0.45900", "0.21100", "0.09400", "0.04600",
             "0.02300", "0.01100", "0.00700", "0.00400", "0.00200",
             "0.00100", "0.00000")


@pytest.mark.parametrize("argv,code,lines,err,csv_bytes", [
    ("marginal --n 5", 0,
     ["double cycle n=5: edge frequency of 0 ~> y over 24 permutation classes",
      "  y   d    count    empirical   expected ok",
      "  1   1       24            1          1 yes",
      "  2   2       12          1/2        1/2 yes",
      "  3   3        8          1/3        1/3 yes",
      "  4   4        6          1/4        1/4 yes"], "",
     b"head,distance,count,total,probability,expected,exact\r\n"
     b"1,1,24,24,1,1,1\r\n2,2,12,24,1/2,1/2,1\r\n3,3,8,24,1/3,1/3,1\r\n"
     b"4,4,6,24,1/4,1/4,1\r\n"),
    ("monotonicity --n 4", 0,
     ["double cycle n=4: 576 greedy paths over 24 permutations -> "
      "0 monotonicity violations", "0 violations"], "",
     b"n,permutations,paths_checked,violations\r\n4,24,576,0\r\n"),
    ("divergence --n-max 8", 0,
     ["n=4 pi=[0, 1, 3, 2] route 1->0", "  greedy-1 path: [1, 3, 0]",
      "  greedy-2 path: [1, 2, 0]"], "",
     b"n,pi,source,target,path_d,path_dpi\r\n4,0 1 3 2,1,0,1 3 0,1 2 0\r\n"),
    # no witness: exit 2, and no table or CSV
    ("divergence --n-max 3", 2, [],
     "FAILED: no divergent permutation up to n=3\n", None),
    ("tau --n 200 --set-size 20 --samples 1000 --seed 4", 0,
     ["tau tail: n=200 |A|=20 q=1 samples=1000",
      "P(tau=1) = 0.5410 (needs >= 0.4526): ok", "tail nonincreasing: ok",
      "t  P(tau >= t)", *(f"{t:<2} {p}" for t, p in enumerate(_TAU_TAIL, 1))],
     "",
     b"t,tail_probability\r\n1,1.0\r\n2,0.459\r\n3,0.211\r\n4,0.094\r\n"
     b"5,0.046\r\n6,0.023\r\n7,0.011\r\n8,0.007\r\n9,0.004\r\n10,0.002\r\n"
     b"11,0.001\r\n" + b"".join(b"%d,0.0\r\n" % t for t in range(12, 21))),
], ids=["marginal", "monotonicity", "divergence", "divergence-none", "tau"])
def test_oracle_report_output_is_pinned(tmp_path, capsys, argv, code, lines,
                                        err, csv_bytes):
    # stdout, stderr, exit code and CSV bytes as recorded before the oracle
    # reports shared one report path in the CLI
    path = tmp_path / "report.csv"
    assert run_cli("oracle", *argv.split(), "--csv", str(path)) == code
    assert capsys.readouterr() == (
        "\n".join([f"# navgraph oracle {argv} --csv {path}", *lines]) + "\n",
        err)
    if csv_bytes is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == csv_bytes


# oracle reports whose check fails, made from the real ones where they can be
def _failing_marginal(n, real=oracle.marginal_edge_law):
    report = real(n)
    report.rows[1] = dataclasses.replace(report.rows[1], probability=Fraction(1, 3))
    return report


def _failing_monotonicity(n):
    return oracle.MonotonicityReport(
        n, 6, 12, 2, [oracle.MonotonicityViolation((0, 2, 1), 1, 0, 2, (1, 2, 0))])


def _failing_tau(*args, real=oracle.tau_tail):
    return dataclasses.replace(real(*args), tau1_probability=0.25)


@pytest.mark.parametrize("argv,name,fake,failure", [
    ("marginal --n 3", "marginal_edge_law", _failing_marginal,
     "edge frequency to y=2 is 1/3, expected 1/2"),
    ("monotonicity --n 3", "monotonicity_check", _failing_monotonicity,
     "2 monotonicity violations, e.g. pi=(0, 2, 1) 1->0"),
    ("tau --n 40 --set-size 4 --samples 50 --seed 1", "tau_tail", _failing_tau,
     "tau tail checks failed: P(tau=1)=0.2500 needs >= "),
], ids=["marginal", "monotonicity", "tau"])
def test_failed_oracle_report_prints_writes_and_exits_two(
        tmp_path, capsys, monkeypatch, argv, name, fake, failure):
    # a failed check still prints its table and writes its CSV; the
    # message goes to stderr, and the exit code is 2
    monkeypatch.setattr(oracle, name, fake)
    path = tmp_path / "report.csv"
    assert run_cli("oracle", *argv.split(), "--csv", str(path)) == 2
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == f"# navgraph oracle {argv} --csv {path}"
    assert len(lines) > 1 and "0 violations" not in lines
    assert err.startswith(f"FAILED: {failure}") and err.count("\n") == 1
    assert path.read_bytes().count(b"\r\n") > 1


@pytest.mark.parametrize("argv,message", [
    ("marginal --n 20", "exhaustive enumeration supports 2 <= n <= 8, got 20"),
    ("monotonicity --n 1", "exhaustive enumeration supports 2 <= n <= 7, got 1"),
    ("divergence --n-max 10", "exhaustive search supports n_max <= 9"),
    ("divergence --n-max 1", "exhaustive search needs n_max >= 2, got 1"),
    ("divergence --n-max -3", "exhaustive search needs n_max >= 2, got -3"),
    ("tau --n 10 --set-size 6", "set sizes exceed the universe"),
    ("tau --n 100 --set-size 5 --samples 0", "--samples must be >= 1, got 0"),
    ("tau --n 100 --set-size 5 --samples -2", "--samples must be >= 1, got -2"),
    ("tau --n 200 --set-size -1 --seed 1", "--set-size must be >= 1, got -1"),
    ("tau --n 200 --set-size 0", "--set-size must be >= 1, got 0"),
], ids=["marginal", "monotonicity", "divergence", "divergence-1",
        "divergence-negative", "tau-sets", "tau-samples", "tau-samples-negative",
        "tau-set-size-negative", "tau-set-size-0"])
def test_oracle_refuses_out_of_range_sizes_before_output(tmp_path, capsys,
                                                         argv, message):
    # each oracle refuses what it cannot take before the invocation line
    path = tmp_path / "report.csv"
    assert run_cli("oracle", *argv.split(), "--csv", str(path)) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not path.exists()


def test_oracle_degree_fails_with_impossible_tolerance(capsys):
    code = run_cli("oracle", "degree", "--n", "256", "--seeds", "2",
                   "--seed", "1", "--tolerance", "0.000001")
    assert code == 2
    assert "FAILED" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (("--n", "1"), "--n must be >= 2"),
    (("--seeds", "0"), "--seeds must be >= 1"),
    (("--seeds", "-3"), "--seeds must be >= 1"),
], ids=["n-1", "seeds-0", "seeds-negative"])
def test_oracle_degree_refuses_empty_studies(capsys, flags, message):
    # no harmonic value at n = 1 and no mean over zero seeds: usage errors
    code = run_cli("oracle", "degree", *flags)
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {message}, got {flags[1]}"]


def test_oracle_degree_refuses_sizes_above_the_ceiling_before_building(
        monkeypatch, tmp_path, capsys):
    # the model check holds the ceiling for every command that builds
    def no_build(*args, **kwargs):
        raise AssertionError("the graph was built")
    monkeypatch.setattr(harness, "build_independent_interest", no_build)
    path = tmp_path / "degree.csv"
    code = run_cli("oracle", "degree", "--n", "65537", "--seeds", "1",
                   "--csv", str(path))
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: sizes [65537] exceed the n <= 65536 ceiling\n")
    assert not path.exists()


@pytest.mark.parametrize("tolerance", ["-1", "-0.01", "nan"])
def test_oracle_degree_refuses_negative_or_nan_tolerance(capsys, tolerance):
    # a negative tolerance fails every study and NaN passes every one:
    # both are usage errors, reported before any graph is built
    code = run_cli("oracle", "degree", "--n", "8", "--seeds", "1",
                   "--tolerance", tolerance)
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: --tolerance must be >= 0, got {float(tolerance)}"]


def test_oracle_degree_accepts_zero_tolerance(capsys):
    # zero demands the exact harmonic mean: a legal check that fails
    code = run_cli("oracle", "degree", "--n", "8", "--seeds", "1",
                   "--seed", "1", "--tolerance", "0")
    assert code == 2
    assert "FAILED" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment


def test_experiment_runs_config(tmp_path, capsys):
    config = {
        "model": "two-undirected-cycles",
        "sizes": [32, 64],
        "seeds": [1, 2],
        "routes_per_size": 25,
        "routing_modes": ["greedy-1", "combined"],
    }
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "agg.csv"
    raw = tmp_path / "raw.csv"
    code = run_cli("experiment", "--config", str(cfg), "--out", str(out),
                   "--raw-out", str(raw), "--workers", "1",
                   "--dump-edges", str(tmp_path / "edges"))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("model,n,seed,mode")
    assert len(lines) == 1 + 2 * 2 * 2
    assert len(raw.read_text().splitlines()) == 1 + 2 * 2 * 2 * 25
    assert len(list((tmp_path / "edges").glob("*.edges"))) == 4


@pytest.mark.parametrize("sizes,thinning", [([1, 8], False), ([2, 8], True),
                                            ([1], False)])
def test_experiment_rejects_too_small_sizes(tmp_path, capsys, sizes, thinning):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(json.dumps({"model": "two-directed-cycles", "sizes": sizes,
                               "seeds": [1], "thinning": thinning}))
    code = run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv"))
    assert code == 1
    # the config is refused before the invocation line
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sizes must be >=" in captured.err
    assert not (tmp_path / "o.csv").exists()


def test_experiment_rejects_sizes_the_spaces_cannot_take(tmp_path, capsys):
    cfg = tmp_path / "grid-tree.cfg"
    cfg.write_text(json.dumps({"model": "grid-tree", "sizes": [4, 6],
                               "seeds": [1]}))
    code = run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv"),
                   "--dump-edges", str(tmp_path / "edges"))
    assert code == 1
    assert "n=6 is not a power of branching=2" in capsys.readouterr().err
    # refused before any work: not even the n = 4 trial ran
    assert not (tmp_path / "o.csv").exists()
    assert not (tmp_path / "edges").exists()


@pytest.mark.parametrize("model,params,modes", [
    ("continuum", {}, ["greedy-1", "half-greedy-1"]),
    ("grid-tree", {}, ["greedy-1", "half-greedy-2"]),
    ("independent-interest", {"space": {"kind": "tree"}}, ["half-greedy-1"]),
])
def test_experiment_rejects_half_greedy_without_a_base_graph(
        tmp_path, capsys, model, params, modes):
    cfg = tmp_path / "half-greedy.cfg"
    cfg.write_text(json.dumps({"model": model, "sizes": [64, 128],
                               "seeds": [1], "routing_modes": modes,
                               "params": params}))
    code = run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv"),
                   "--dump-edges", str(tmp_path / "edges"))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: half-greedy-")
    # refused before the first trial builds or dumps anything
    assert not (tmp_path / "o.csv").exists()
    assert not (tmp_path / "edges").exists()


@pytest.mark.parametrize("descriptor", ["grid", ["grid"], 3])
def test_experiment_rejects_non_object_space_descriptor(tmp_path, capsys,
                                                        descriptor):
    cfg = tmp_path / "kleinberg.cfg"
    cfg.write_text(json.dumps({"model": "kleinberg", "sizes": [16],
                               "seeds": [1], "params": {"space": descriptor}}))
    code = run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: space descriptor must be an object")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("override", [
    {"sizes": "48"}, {"seeds": "12"}, {"thinning": "false"}, {"seeds": [1.7]},
    {"routes_per_size": 2.5}, {"model": "continuum", "params": {"box1": "ab"}},
    {"model": "continuum", "params": {"box2": []}},
    {"model": "kleinberg", "sizes": [16], "params": {"links": 1.5}},
    {"model": "kleinberg", "sizes": [16], "params": {"alpha": "2"}},
    {"model": "grid-tree", "sizes": [16], "params": {"branching": 2.0}},
    {"model": "grid-tree", "sizes": [16], "params": {"toric": 0}},
    {"model": "grid-tree", "sizes": [16], "params": {"grid_dims": [4, 4.0]}},
])
def test_experiment_rejects_config_values_of_the_wrong_type(tmp_path, capsys,
                                                            override):
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(json.dumps({"model": "two-directed-cycles", "sizes": [8],
                               "seeds": [1], **override}))
    code = run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("params,message", [
    ({"alpah": 2.0, "space": {"kind": "grid", "dims": [2, 8]}},
     "model 'kleinberg': params key 'alpah' is not read"),
    ({"alpha": 2.0, "space": {"kind": "grid", "dim": [2, 8]}},
     "space kind 'grid': descriptor key 'dim' is not read"),
], ids=["misspelt-alpha", "misspelt-dims"])
def test_experiment_rejects_keys_the_model_does_not_read(tmp_path, capsys,
                                                         params, message):
    cfg = tmp_path / "kleinberg.cfg"
    cfg.write_text(json.dumps({"model": "kleinberg", "sizes": [16],
                               "seeds": [1], "params": params}))
    code = run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv"))
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}; it reads ")
    assert not (tmp_path / "o.csv").exists()


def test_experiment_rejects_non_finite_continuum_box(tmp_path, capsys):
    # NaN and Infinity are JSON extensions that json.loads reads as floats
    cfg = tmp_path / "nan.cfg"
    cfg.write_text('{"model": "continuum", "sizes": [8], "seeds": [1], '
                   '"params": {"box1": [NaN, 1], "box2": [Infinity, 1]}}')
    code = run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: box1 must be")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("workers", ["-1", "-3"])
def test_experiment_rejects_negative_workers(tmp_path, capsys, monkeypatch,
                                             workers):
    def no_build(*args, **kwargs):
        raise AssertionError("built a graph")
    monkeypatch.setattr(cli.harness, "build_model", no_build)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(json.dumps({"model": "two-directed-cycles", "sizes": [8],
                               "seeds": [1]}))
    code = run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv"), "--workers", workers)
    assert code == 1
    assert capsys.readouterr().err == f"error: --workers must be >= 0, got {workers}\n"
    assert not (tmp_path / "o.csv").exists()


def test_experiment_missing_config_is_io_error(tmp_path, capsys):
    code = run_cli("experiment", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o.csv"))
    assert code == 3


def test_experiment_rejects_oversized_config(tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built a graph")
    monkeypatch.setattr(cli.harness, "build_model", no_build)
    cfg = tmp_path / "big.cfg"
    cfg.write_text(json.dumps({"model": "two-directed-cycles",
                               "sizes": [8, 2**16 + 1], "seeds": [1],
                               "routes_per_size": 1}))
    code = run_cli("experiment", "--config", str(cfg),
                   "--out", str(tmp_path / "o.csv"))
    assert code == 1
    assert capsys.readouterr().err == \
        "error: sizes [65537] exceed the n <= 65536 ceiling\n"
    assert not (tmp_path / "o.csv").exists()


# ---------------------------------------------------------------------------
# the command input space

# values of each model flag and of each params key, well-typed and not
_FLAG_VALUES = {
    "--branching": ["0", "1", "2", "3"],
    "--grid-dims": ["", "x", "0,4", "-2,-2", "2,2", "4,4", "16"],
    "--alpha": ["-1", "0", "2", "nan", "inf"],
    "--links": ["0", "1", "2"],
    "--space-kind": ["directed-cycle", "undirected-cycle", "grid", "tree"],
}
_PARAM_VALUES = {
    "grid_dims": [None, [2, 2], [4, 4], [0, 4], [-2, -2], [4, 4.0], "4"],
    "toric": [True, False, 0],
    "branching": [1, 2, 3, 2.0],
    "box1": [[1.33, 1.0], [2.0], [], [float("nan"), 1.0], "ab"],
    "box2": [[1.0, 1.0, 1.0], [1.0], [0.0, 1.0]],
    "space": [{"kind": "grid"}, {"kind": "grid", "dims": [2, 8], "toric": True},
              {"kind": "tree", "branching": 3}, {"kind": "directed-cycle"},
              {"kind": "undirected-cycle"}, {"kind": "sphere"}, "grid",
              {"kind": "tree", "toric": True}],
    "alpha": [0, 2, 2.5, -1, "2", float("inf")],
    "links": [1, 2, 0, 1.5],
}


@st.composite
def command_inputs(draw):
    """One input to generate, route and the experiment spec: a model, its
    flags (for the commands) and params (for the spec), a size, modes,
    thinning, and an explicit permutation given by flag or by a file that
    holds a drawn list of integers."""
    n = draw(st.integers(-2, 300))
    # at most two flags and keys, so that many inputs reach a build
    flags = {k: draw(st.sampled_from(_FLAG_VALUES.get(k, [None])))
             for k in draw(st.lists(st.sampled_from(
                 [*_FLAG_VALUES, "--toric"]), max_size=2, unique=True))}
    params = {k: draw(st.sampled_from(_PARAM_VALUES[k]))
              for k in draw(st.lists(st.sampled_from(list(_PARAM_VALUES)),
                                     max_size=2, unique=True))}
    return dict(
        model=draw(st.sampled_from(harness.MODELS)), n=n,
        seed=draw(st.integers(0, 3)),
        flags=[k if v is None else f"{k}={v}" for k, v in flags.items()],
        params=params,
        modes=draw(st.lists(st.sampled_from(MODE_LABELS), min_size=1,
                            max_size=3)),
        plateau=draw(st.sampled_from([None, True, False])),
        max_steps=draw(st.sampled_from([None, 0, 1, 50])),
        thin=draw(st.booleans()), identity_pi=draw(st.booleans()),
        pi=draw(st.one_of(st.none(), st.permutations(range(max(n, 0))),
                          st.lists(st.integers(), max_size=4))),
        source=draw(st.integers(-1, 300)), target=draw(st.integers(-1, 300)),
        edges=draw(st.booleans()))


def _run_command(*argv) -> int:
    """Run one command: it exits 0, or exits 1 with nothing on stdout and
    one error line on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    if code == 1:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert code == 0, err.getvalue()
    return code


_INPUT = dict(model="two-directed-cycles", n=8, seed=0, flags=[], params={},
              modes=["greedy-1"], plateau=None, max_steps=None, thin=False,
              identity_pi=False, pi=None, source=0, target=1, edges=False)


@settings(max_examples=300, deadline=None)
@given(command_inputs())
@example(dict(_INPUT, model="continuum", n=0))
@example(dict(_INPUT, model="grid-tree", n=-4))
@example(dict(_INPUT, model="independent-interest", n=0,
              flags=["--space-kind=tree"], params={"space": {"kind": "tree"}}))
@example(dict(_INPUT, n=2, thin=True))
@example(dict(_INPUT, pi=[0, 1, 1, 2, 3, 4, 5, 6]))
@example(dict(_INPUT, pi=[0, 2, 1]))
@example(dict(_INPUT, pi=[0, 2**70, 1, 3, 4, 5, 6, 7]))
@example(dict(_INPUT, model="kleinberg", identity_pi=True))
@example(dict(_INPUT, model="grid-tree", n=16, thin=True, edges=True,
              modes=["combined", "greedy-2"], pi=list(range(16))))
def test_every_command_input_runs_or_is_refused_before_output(inputs):
    # generate and route exit 0, or exit 1 before any output with one error
    # line and no file; the spec is refused with ValueError, or runs
    i = SimpleNamespace(**inputs)
    with tempfile.TemporaryDirectory() as tmp:
        common = ["--model", i.model, f"--n={i.n}", f"--seed={i.seed}",
                  *i.flags, *(["--identity-pi"] if i.identity_pi else [])]
        if i.pi is not None:
            pi_file = Path(tmp) / "pi.txt"
            pi_file.write_text(" ".join(map(str, i.pi)))
            common += ["--pi-file", str(pi_file)]
        out = Path(tmp) / "g.edges"
        code = _run_command("generate", *common, "--out", str(out),
                            *(["--thin"] if i.thin else []))
        assert out.exists() == (code == 0)
        plateau = {None: "auto", True: "on", False: "off"}[i.plateau]
        _run_command("route", *common, f"--source={i.source}",
                     f"--target={i.target}", f"--mode={i.modes[0]}",
                     f"--plateau={plateau}",
                     *([] if i.max_steps is None
                       else [f"--max-steps={i.max_steps}"]),
                     *(["--edges", str(out)] if i.edges and code == 0 else []))
    try:
        spec = harness.ExperimentSpec(
            i.model, (i.n,), (i.seed,), routes_per_size=5,
            routing_modes=tuple(RoutingMode(m, plateau=i.plateau,
                                            max_steps=i.max_steps)
                                for m in i.modes),
            thinning=i.thin, params=i.params)
    except ValueError:
        return
    result = harness.run_experiment(spec, workers=1)
    assert len(result.rows) == len(i.modes)


# edge-list tokens for --n 16: ids in and out of range, and stray forms,
# some of which int() reads though the format does not define them (an
# underscore, a '+', other scripts' digits, a byte that is not UTF-8,
# written from U+DCFF)
_EDGE_IDS = ["0", "1", "5", "15", "007", "-0", "16", "-1", str(2**70)]
_STRAY_TOKENS = ["1_0", "+1", "\u0661", "\u00b2", "\udcff", "x", "1.0", "-"]
# the lines of an edge list as the format defines them: ASCII line ends,
# \r\n one of them, and two ASCII integers apart by spaces or tabs
_LINE_END = re.compile(r"\r\n|[\n\r\v\f]")
_EDGE_LINE = re.compile(r"[ \t]*(?:(-?[0-9]+)[ \t]+(-?[0-9]+)[ \t]*)?")


@st.composite
def edge_list_texts(draw):
    """An edge list's text: lines of two drawn ids, or of zero to three
    drawn tokens, apart by tabs, spaces or a no-break space, each ended by
    \\n, \\r\\n, \\r, \\v or \\f; blank lines, self-loops and repeats
    among them."""
    text = ""
    for tokens in draw(st.lists(st.one_of(
            st.lists(st.sampled_from(_EDGE_IDS), min_size=2, max_size=2),
            st.lists(st.sampled_from(_EDGE_IDS + _STRAY_TOKENS), max_size=3)),
            max_size=6)):
        sep = draw(st.sampled_from(["\t", " ", "\t ", "\u00a0"]))
        text += sep.join(tokens) + draw(st.sampled_from(
            ["\n", "\r\n", "\r", "\v", "\f"]))
    return text


@settings(max_examples=200, deadline=None)
@given(edge_list_texts())
@example("0\t1_0\n")
@example("0\t\u0661\n")
@example("0\t1\n\udcff\n")
@example("0\t1\r\n1\t2\v2\t3\f\n3\t4\r")
@example("0\t0\n0\t1\n0\t1\n\n")
@example("-1\t2\n")
@example("0\u00a01\n")
def test_every_edge_list_routes_or_is_refused_with_its_file(text):
    # route --edges exits 0 on a file of the format's lines whose ids lie in
    # range; otherwise it exits 1 with no stdout and one error line, which
    # names the file and the first line not of the format, or else the
    # first edge out of range
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["route", "--model", "two-directed-cycles",
                             "--n", "16", "--seed", "1", "--source", "0",
                             "--target", "5", "--edges", str(path)])
    matches = [_EDGE_LINE.fullmatch(line) for line in _LINE_END.split(text)]
    bad = [k for k, m in enumerate(matches, 1) if m is None]
    outside = [(int(m[1]), int(m[2])) for m in matches if m and m[1]
               and not (0 <= int(m[1]) < 16 and 0 <= int(m[2]) < 16)]
    if not (bad or outside):
        assert code == 0, err.getvalue()
        return
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().count("\n") == 1
    if bad:
        assert err.getvalue().startswith(
            f"error: {path}:{bad[0]}: expected 'tail<TAB>head' integers")
    else:
        assert err.getvalue() == (
            f"error: edge {outside[0]} out of range for n=16\n")


# ---------------------------------------------------------------------------
# entry points


def test_no_command_prints_help(capsys):
    assert run_cli() == 1


def test_oracle_without_a_subcommand_is_refused(capsys):
    assert run_cli("oracle") == 1
    assert capsys.readouterr() == (
        "", "error: choose an oracle: marginal | monotonicity | divergence "
        "| tau | degree\n")


# every command with a flag that names a file or a directory, that flag
# given an empty value; generate's and route's --pi-file and route's
# --edges are refused with the model inputs above
_EMPTY_FILE_FLAGS = [
    (("generate", "--model", "two-undirected-cycles", "--n", "16"), "--out"),
    (("oracle", "marginal", "--n", "4"), "--csv"),
    (("oracle", "monotonicity", "--n", "4"), "--csv"),
    (("oracle", "divergence", "--n-max", "4"), "--csv"),
    (("oracle", "tau", "--n", "50", "--set-size", "5", "--samples", "100"),
     "--csv"),
    (("oracle", "degree", "--n", "16", "--seeds", "1"), "--csv"),
    (("experiment", "--out", "a.csv"), "--config"),
    (("experiment", "--config", "c.json"), "--out"),
    (("experiment", "--config", "c.json", "--out", "a.csv"), "--raw-out"),
    (("experiment", "--config", "c.json", "--out", "a.csv"), "--dump-edges"),
]


@pytest.mark.parametrize("argv,flag", _EMPTY_FILE_FLAGS,
                         ids=[f"{a[1] if a[0] == 'oracle' else a[0]}{f[1:]}"
                              for a, f in _EMPTY_FILE_FLAGS])
def test_an_empty_file_flag_is_refused_before_any_output(
        monkeypatch, tmp_path, capsys, argv, flag):
    # an empty value names no file: it is refused, never read as absent
    # nor as the working directory, and nothing runs or is written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text(json.dumps(
        {"model": "two-undirected-cycles", "sizes": [16], "seeds": [1],
         "routes_per_size": 2}))
    assert run_cli(*argv, flag, "") == 1
    assert capsys.readouterr() == (
        "", f"error: {flag} must name a file, got an empty value\n")
    assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.mark.parametrize("argv", [
    ("route", "--model", "two-undirected-cycles", "--n", "16", "--source",
     "0", "--target", "5"),
    ("oracle", "tau", "--n", "50", "--set-size", "5", "--samples", "100")],
    ids=["route", "oracle-tau"])
@pytest.mark.parametrize("seed", [("--seed=7",), ("--see", "7")],
                         ids=["equals", "abbreviated"])
def test_the_invocation_line_names_a_given_seed_once(capsys, argv, seed):
    # the seed a flag gave, in any spelling argparse accepts, is echoed as
    # given and not appended again; the run is the one --seed 7 makes
    assert run_cli(*argv, *seed) == 0
    echo, *rest = capsys.readouterr().out.splitlines()
    assert echo == "# navgraph " + " ".join([*argv, *seed])
    assert run_cli(*argv, "--seed", "7") == 0
    assert capsys.readouterr().out.splitlines()[1:] == rest


def test_module_entry_point(tmp_path):
    out = tmp_path / "m.edges"
    proc = subprocess.run(
        [sys.executable, "-m", "navgraph", "generate", "--model",
         "two-directed-cycles", "--n", "8", "--seed", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# benchmark contract


def test_benchmark_smoke_run_passes():
    # the benchmark drives navgraph through its public names; a rename or
    # removal it depends on fails this run
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
