import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import statistics
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from navgraph import harness
from navgraph.construction import (Seed, _graphs, build_kleinberg,
                                   read_edge_list, thin_edges, write_edge_list)
from navgraph.harness import (AggregateRow, ExperimentResult, ExperimentSpec,
                              aggregate_csv_text, build_model, build_space,
                              experiment_spec_from_dict, export_csv,
                              fit_scaling, load_experiment_config,
                              raw_csv_text, run_experiment)
from navgraph.routing import MODE_LABELS, RoutingMode, route
from navgraph.spaces import DirectedCycle, Grid, TreeLeaves, UndirectedCycle

# the aggregate CSV's timing columns, its only nondeterministic ones
TIMING_COLUMNS = ("thin_ms", "build_ms", "wall_ms")


def csv_without_timing(text: str) -> str:
    """Drop the timing columns by header name."""
    rows = [line.split(",") for line in text.splitlines()]
    keep = [k for k, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    return "".join(",".join(row[k] for k in keep) + "\n" for row in rows)


def make_spec(**overrides):
    base = dict(model="two-directed-cycles", sizes=(32, 64), seeds=(1, 2),
                routes_per_size=40,
                routing_modes=(RoutingMode.parse("greedy-1"),))
    base.update(overrides)
    return ExperimentSpec(**base)


def synthetic_result(values_by_n, mode="greedy-1"):
    spec = make_spec(sizes=tuple(sorted(values_by_n)),
                     routing_modes=(RoutingMode.parse(mode),))
    rows = [AggregateRow("two-directed-cycles", n, 1, mode, 10, 10, 1.0,
                         mean, mean, 2.0, None, 5.0, 1.0)
            for n, mean in sorted(values_by_n.items())]
    return ExperimentResult(spec, rows, [])


# ---------------------------------------------------------------------------
# spec and config


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(sizes=())
    with pytest.raises(ValueError):
        make_spec(sizes=(64, 32))
    with pytest.raises(ValueError):
        make_spec(sizes=(32, 32))
    with pytest.raises(ValueError):
        make_spec(routes_per_size=0)
    with pytest.raises(ValueError):
        make_spec(model="heptagon")
    with pytest.raises(ValueError):
        make_spec(seeds=())


@pytest.mark.parametrize("model", ["two-directed-cycles", "continuum",
                                   "independent-interest", "kleinberg"])
def test_spec_rejects_sizes_without_route_pairs(model):
    # n = 1 has no (source, target) pair to route
    with pytest.raises(ValueError, match=">= 2"):
        make_spec(model=model, sizes=(1, 8))
    result = run_experiment(make_spec(model=model, sizes=(2,), seeds=(1,)))
    assert [row.routes for row in result.rows] == [2]


def test_spec_rejects_sizes_too_small_to_thin():
    # thinning keeps edges with probability 1/ln(n), defined for n >= 3
    with pytest.raises(ValueError, match=">= 3 with thinning"):
        make_spec(sizes=(2, 8), thinning=True)
    result = run_experiment(make_spec(sizes=(3,), seeds=(1,), thinning=True))
    assert [row.routes for row in result.rows] == [6]


@pytest.mark.parametrize("model,params,sizes,message", [
    ("grid-tree", {}, (4, 6), "n=6 is not a power of branching=2"),
    ("grid-tree", {"branching": 3}, (9, 27, 32), "n=32 is not a power of branching=3"),
    ("grid-tree", {"grid_dims": [4, 4]}, (16, 64),
     r"grid dims \(4, 4\) do not multiply to n=64"),
    ("kleinberg", {"space": {"kind": "tree", "branching": 2}}, (8, 12),
     "n=12 is not a power of branching=2"),
    ("independent-interest", {"space": {"kind": "grid", "dims": [2, 4]}}, (8, 16),
     "do not multiply to n=16"),
    ("kleinberg", {"space": {"kind": "sphere"}}, (8,), "unknown space kind"),
])
def test_spec_rejects_sizes_the_spaces_cannot_take(model, params, sizes, message):
    # checked for every size before any trial builds a graph
    with pytest.raises(ValueError, match=message):
        make_spec(model=model, params=params, sizes=sizes)
    assert make_spec(model="grid-tree", sizes=(4, 16)).sizes == (4, 16)
    assert make_spec(model="grid-tree", params={"branching": 3},
                     sizes=(9, 27)).sizes == (9, 27)


@pytest.mark.parametrize("model,params,label", [
    ("continuum", {}, "half-greedy-1"),
    ("continuum", {}, "half-greedy-2"),
    ("grid-tree", {}, "half-greedy-2"),
    ("independent-interest", {"space": {"kind": "tree"}}, "half-greedy-1"),
    ("independent-interest", {"space": {"kind": "tree"}}, "half-greedy-2"),
])
def test_spec_rejects_half_greedy_without_a_base_graph(model, params, label):
    # half-greedy takes base-graph steps, which point clouds and tree
    # leaves lack: refused before any build, not at the first route
    with pytest.raises(ValueError, match=f"{label} needs a graph-kind space"):
        make_spec(model=model, params=params, sizes=(64, 128),
                  routing_modes=(RoutingMode.parse("greedy-1"),
                                 RoutingMode.parse(label)))
    # the space routed in decides, not the model
    if model == "grid-tree":
        make_spec(model=model, routing_modes=(RoutingMode.parse("half-greedy-1"),))
    if model == "independent-interest":
        make_spec(model=model, routing_modes=(RoutingMode.parse(label),))


def test_config_round_trip(tmp_path):
    spec = make_spec(model="grid-tree",
                     routing_modes=(RoutingMode.parse("greedy-1"),
                                    RoutingMode.parse("combined")),
                     params={"branching": 2})
    path = tmp_path / "sweep.cfg"
    path.write_text(json.dumps({
        "model": "grid-tree", "sizes": [32, 64], "seeds": [1, 2],
        "routes_per_size": 40, "routing_modes": ["greedy-1", "combined"],
        "thinning": False, "params": {"branching": 2}}))
    loaded = load_experiment_config(path)
    assert loaded == spec


@pytest.mark.parametrize("data,message", [
    (b'{"model": }', "Expecting value: line 1 column 11 (char 10)"),
    (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
], ids=["not-json", "not-utf-8"])
def test_config_that_cannot_be_read_is_refused_with_its_path(tmp_path, data,
                                                             message):
    path = tmp_path / "c.json"
    path.write_bytes(data)
    with pytest.raises(ValueError) as refused:
        load_experiment_config(path)
    assert str(refused.value).startswith(f"{path}: {message}")


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        experiment_spec_from_dict({"model": "two-directed-cycles",
                                   "sizes": [8], "seeds": [1], "routez": 5})


CONFIG = {"model": "two-directed-cycles", "sizes": [4, 8], "seeds": [1, 2]}


@pytest.mark.parametrize("override,message", [
    ({"sizes": "48"}, "'sizes' must be a list of integers"),
    ({"seeds": "12"}, "'seeds' must be a list of integers"),
    ({"sizes": [4, 8.0]}, "'sizes' must be a list of integers"),
    ({"seeds": [1.7]}, "'seeds' must be a list of integers"),
    ({"seeds": [True]}, "'seeds' must be a list of integers"),
    ({"thinning": "false"}, "'thinning' must be true or false"),
    ({"thinning": 0}, "'thinning' must be true or false"),
    ({"routes_per_size": 2.5}, "'routes_per_size' must be an integer"),
    ({"routes_per_size": "10"}, "'routes_per_size' must be an integer"),
    ({"routing_modes": "greedy-1"}, "'routing_modes' must be a list"),
    ({"routing_modes": [1]}, "'routing_modes' must be a list"),
    ({"model": ["grid-tree"]}, "'model' must be a string"),
    ({"params": [1]}, "'params' must be an object"),
])
def test_config_refuses_values_of_the_wrong_type(override, message):
    # never coerced: "48" is not sizes (4, 8), "false" is not True
    with pytest.raises(ValueError, match=message):
        experiment_spec_from_dict({**CONFIG, **override})


def test_config_requires_model_sizes_and_seeds():
    for key in ("model", "sizes", "seeds"):
        data = {k: v for k, v in CONFIG.items() if k != key}
        with pytest.raises(ValueError, match=f"missing config keys: \\['{key}'\\]"):
            experiment_spec_from_dict(data)
    with pytest.raises(ValueError, match="JSON object"):
        experiment_spec_from_dict([CONFIG])
    spec = experiment_spec_from_dict({**CONFIG, "thinning": True,
                                      "routes_per_size": 7})
    assert (spec.sizes, spec.seeds, spec.thinning, spec.routes_per_size) == \
        ((4, 8), (1, 2), True, 7)


@pytest.mark.parametrize("override,message", [
    ({"routes_per_size": 2.5}, "'routes_per_size' must be an integer, got 2.5"),
    ({"routes_per_size": True}, "'routes_per_size' must be an integer, got True"),
    ({"thinning": "no"}, "'thinning' must be true or false, got 'no'"),
    ({"sizes": (64.7,)}, "'sizes' must be a list of integers, got (64.7,)"),
    ({"seeds": ("3",)}, "'seeds' must be a list of integers, got ('3',)"),
], ids=["routes-float", "routes-bool", "thinning-string", "sizes-float",
        "seeds-string"])
def test_spec_refuses_field_types_as_its_config_does(override, message):
    # the spec states each field's type once, in the config's words: no
    # value is coerced, whether it comes from a config or a direct call
    with pytest.raises(ValueError, match="^" + re.escape(f"config key {message}") + "$"):
        make_spec(**override)
    # a list or a tuple, each kept as a tuple
    spec = make_spec(sizes=[32, 64], seeds=(1,),
                     routing_modes=[RoutingMode("greedy-2")])
    assert (spec.sizes, spec.seeds, spec.routing_modes) == \
        ((32, 64), (1,), (RoutingMode("greedy-2"),))


# values of each config key: well-typed, then ill-typed; every well-typed
# size is small, or above the ceiling and so refused before any build
_CONFIG_VALUES = {
    "model": (harness.MODELS, [["grid-tree"], 3, None]),
    "sizes": ([[2], [8], [16], [4, 16], [9, 27], [1, 8], [16, 8], [],
               [2**16 + 1]],
              [[4, 8.0], [64.7], [True], ["3"], "48", 16]),
    "seeds": ([[1], [1, 2], []], [[1.7], [True], ["3"], "12", 1]),
    "routes_per_size": ([1, 5, 0, -1], [2.5, True, "10", None]),
    "routing_modes": ([["greedy-1"], ["combined", "greedy-2"],
                       ["half-greedy-1"], [], ["greedy-3"]],
                      ["greedy-1", [1], [None]]),
    "thinning": ([False, True], ["no", "false", 0, 1, None]),
    "params": ([{}, {"branching": 3}, {"space": {"kind": "tree"}},
                {"alpha": 2}, {"grid_dims": [2, 8]}], [[1], "x", None]),
}


@st.composite
def experiment_configs(draw):
    """A JSON config: model, sizes and seeds, and any of the other keys,
    each value ill-typed one time in five."""
    optional = draw(st.lists(st.sampled_from(list(_CONFIG_VALUES)[3:]),
                             unique=True))
    config = {}
    for key in ["model", "sizes", "seeds", *optional]:
        well, ill = _CONFIG_VALUES[key]
        config[key] = draw(st.sampled_from(
            ill if draw(st.sampled_from([False] * 4 + [True])) else well))
    return config


def _spec_directly(config: dict) -> ExperimentSpec:
    """The spec made straight from the config's values, the mode labels
    parsed."""
    fields = dict(config)
    modes = fields.get("routing_modes")
    if isinstance(modes, list) and all(isinstance(m, str) for m in modes):
        fields["routing_modes"] = [RoutingMode.parse(m) for m in modes]
    return ExperimentSpec(**fields)


@settings(max_examples=200, deadline=None)
@given(experiment_configs())
@example(dict(CONFIG, routes_per_size=2.5))
@example(dict(CONFIG, routes_per_size=True))
@example(dict(CONFIG, thinning="no"))
@example(dict(CONFIG, sizes=[64.7]))
@example(dict(CONFIG, seeds=["3"]))
@example(dict(CONFIG, sizes=[1, 2**16 + 1]))
def test_every_config_runs_or_is_refused_on_both_paths(config):
    # a config and a direct call refuse the same inputs with ValueError;
    # an accepted one runs
    try:
        spec = experiment_spec_from_dict(config)
    except ValueError:
        with pytest.raises(ValueError):
            _spec_directly(config)
        return
    assert _spec_directly(config) == spec
    small = dataclasses.replace(spec, routes_per_size=5)
    result = run_experiment(small, workers=1)
    assert len(result.rows) == \
        len(spec.sizes) * len(spec.seeds) * len(spec.routing_modes)


@pytest.mark.parametrize("model,params,message", [
    ("kleinberg", {"links": 1.5}, "'links' must be an integer >= 1"),
    ("kleinberg", {"links": "1"}, "'links' must be an integer >= 1"),
    ("kleinberg", {"links": True}, "'links' must be an integer >= 1"),
    ("kleinberg", {"links": 0}, "'links' must be an integer >= 1"),
    ("kleinberg", {"alpha": "2"}, "'alpha' must be a finite number >= 0"),
    ("kleinberg", {"alpha": True}, "'alpha' must be a finite number >= 0"),
    ("kleinberg", {"alpha": math.nan}, "'alpha' must be a finite number >= 0"),
    ("kleinberg", {"alpha": math.inf}, "'alpha' must be a finite number >= 0"),
    ("kleinberg", {"alpha": -1}, "'alpha' must be a finite number >= 0"),
    ("grid-tree", {"branching": 2.0}, "'branching' must be an integer"),
    ("grid-tree", {"branching": "2"}, "'branching' must be an integer"),
    ("grid-tree", {"branching": 1}, "'branching' must be an integer >= 2"),
    ("grid-tree", {"branching": 0}, "'branching' must be an integer >= 2"),
    ("grid-tree", {"toric": 0}, "'toric' must be true or false"),
    ("grid-tree", {"toric": "true"}, "'toric' must be true or false"),
    ("grid-tree", {"grid_dims": [4.0, 4]}, "'dims' must be a list of integers or null"),
    ("grid-tree", {"grid_dims": "4,4"}, "'dims' must be a list of integers or null"),
    ("kleinberg", {"space": {"kind": "grid", "dims": [4, True]}},
     "'dims' must be a list of integers or null"),
    ("kleinberg", {"space": {"kind": "grid", "toric": 1}},
     "'toric' must be true or false"),
    ("independent-interest", {"space": {"kind": "tree", "branching": 2.0}},
     "'branching' must be an integer"),
])
def test_model_params_of_the_wrong_type_are_refused(model, params, message):
    # refused before any trial, never coerced: links 1.5 is not 1, "2" is
    # not alpha 2.0, toric 0 is not false
    with pytest.raises(ValueError, match=message):
        make_spec(model=model, params=params, sizes=(16,))
    with pytest.raises(ValueError, match=message):
        build_model(model, params, 16, Seed(1))


@pytest.mark.parametrize("model,params,message", [
    ("kleinberg", {"alpah": 2.0, "space": {"kind": "grid", "dim": [2, 8]}},
     "model 'kleinberg': params key 'alpah' is not read; "
     "it reads 'space', 'alpha', 'links'"),
    ("kleinberg", {"space": {"kind": "grid", "dim": [2, 8]}},
     "space kind 'grid': descriptor key 'dim' is not read; "
     "it reads 'kind', 'dims', 'toric'"),
    ("kleinberg", {"grid_dims": [4, 4]},
     "model 'kleinberg': params key 'grid_dims' is not read"),
    ("kleinberg", {"space": {"kind": "grid", "branching": 2}},
     "space kind 'grid': descriptor key 'branching' is not read"),
    ("two-undirected-cycles", {"alpha": 2, "branching": 3},
     "model 'two-undirected-cycles': params key 'alpha' is not read; "
     "it reads no keys"),
    ("two-directed-cycles", {"branching": 2},
     "model 'two-directed-cycles': params key 'branching' is not read"),
    ("grid-tree", {"space": {"kind": "grid"}},
     "model 'grid-tree': params key 'space' is not read; "
     "it reads 'grid_dims', 'toric', 'branching'"),
    ("continuum", {"box1": [1, 1], "dims": [2]},
     "model 'continuum': params key 'dims' is not read"),
    ("independent-interest", {"space": {"kind": "tree", "height": 4}},
     "space kind 'tree': descriptor key 'height' is not read; "
     "it reads 'kind', 'branching'"),
    ("independent-interest", {"space": {"kind": "directed-cycle",
                                        "toric": True}},
     "space kind 'directed-cycle': descriptor key 'toric' is not read; "
     "it reads 'kind'"),
], ids=["misspelt-alpha", "misspelt-dims", "kleinberg-grid-dims",
        "grid-branching", "cycles-alpha", "cycles-branching",
        "grid-tree-space", "continuum-dims", "tree-height", "cycle-toric"])
def test_keys_the_model_does_not_read_are_refused(model, params, message):
    # refused by name, never ignored: an ignored misspelt key would run the
    # default (alpha 0 on a near-square grid for the first case)
    with pytest.raises(ValueError, match=f"^{message}"):
        make_spec(model=model, params=params, sizes=(16,))
    with pytest.raises(ValueError, match=f"^{message}"):
        build_model(model, params, 16, Seed(1))
    if message.startswith("space kind"):
        with pytest.raises(ValueError, match=f"^{message}"):
            build_space(params["space"], 16)


def test_model_params_of_the_right_type_are_accepted():
    spec = make_spec(model="kleinberg", sizes=(16,),
                     params={"alpha": 2, "links": 2,
                             "space": {"kind": "grid", "dims": [2, 8],
                                       "toric": True}})
    _, graph = build_model(spec.model, spec.params, 16, Seed(1))
    # alpha, links and the grid reach the builder
    assert graph.out_edges == build_kleinberg(
        Grid((2, 8), toric=True), 2.0, 2, Seed(1)).out_edges
    spec = make_spec(model="grid-tree", sizes=(16,),
                     params={"grid_dims": None, "toric": False, "branching": 4})
    assert build_model(spec.model, spec.params, 16, Seed(1))[0].space2.n == 16


@pytest.mark.parametrize("box", ["ab", [], [math.nan, 1], [math.inf, 1],
                                 [1, 0], [1, -2], [True, 1], [[1], 1], 2.0])
@pytest.mark.parametrize("key", ["box1", "box2"])
def test_spec_rejects_bad_continuum_boxes(key, box):
    # refused before any trial, not at the first build or as a 0% success
    with pytest.raises(ValueError, match=f"{key} must be a nonempty list of "
                                         "finite, positive numbers"):
        make_spec(model="continuum", params={key: box})
    assert make_spec(model="continuum", params={key: [2, 0.5]}).params[key] == [2, 0.5]


# ---------------------------------------------------------------------------
# spaces from descriptors / model instantiation


def test_build_space_descriptors():
    assert isinstance(build_space({"kind": "directed-cycle"}, 8), DirectedCycle)
    assert isinstance(build_space({"kind": "undirected-cycle"}, 8), UndirectedCycle)
    grid = build_space({"kind": "grid"}, 64)
    assert isinstance(grid, Grid) and grid.dims == (8, 8)
    rect = build_space({"kind": "grid"}, 32)
    assert rect.dims == (8, 4)
    tree = build_space({"kind": "tree", "branching": 2}, 16)
    assert isinstance(tree, TreeLeaves) and tree.height == 4
    with pytest.raises(ValueError):
        build_space({"kind": "tree", "branching": 2}, 100)
    with pytest.raises(ValueError):
        build_space({"kind": "grid", "dims": [3, 4]}, 16)
    with pytest.raises(ValueError):
        build_space({"kind": "dodecahedron"}, 8)


def test_build_model_continuum_uses_boxes():
    assignment, graph = build_model("continuum", {}, 50, Seed(3))
    assert assignment.space1.points.shape == (50, 2)
    assert assignment.space2.points.shape == (50, 3)
    assert assignment.space1.points[:, 0].max() <= 1.33
    assert assignment.space1.points[:, 1].max() <= 1.0
    assert graph.n == 50
    # equal boxes still draw two clouds, from ("points", 1) and ("points", 2)
    same, _ = build_model("continuum", {"box1": [1, 1], "box2": [1, 1]}, 50,
                          Seed(3))
    assert not np.array_equal(same.space1.points, same.space2.points)


def test_build_model_rejects_pi_for_baselines():
    with pytest.raises(ValueError):
        build_model("independent-interest", {}, 8, Seed(0), pi=np.arange(8))


# SHA-256 of each model's edge list at n = 64, so that a change to any
# model, param or random stream shows; "x5" is the permutation v -> 5v mod 64
@pytest.mark.parametrize("model,params,master,pi,digest", [
    ("two-directed-cycles", {}, 0, None,
     "783bb24923849d7654bb5c37a83e484b0a817e2960223fc5b336b9944e007f46"),
    ("two-directed-cycles", {}, 7, None,
     "544838b63c7af74ede7badfb531879547df542e958f4b323c780f337c85b02aa"),
    ("two-undirected-cycles", {}, 0, None,
     "7460d0c980a7799b7b6a91576b6120f989d815490c0d092f3c34d411a0697265"),
    ("two-undirected-cycles", {}, 7, None,
     "225b2f700899ed3a89a00e4e1aad870e5e72e5f036671a4a922d05f99aeb86c9"),
    ("grid-tree", {}, 0, None,
     "9532f7b921c25308a898ffcbaf6eb1ee131343cc4fb4e8e4d9f0ba6ca5f82879"),
    ("grid-tree", {}, 7, None,
     "b6c8f4ce538c03c07e7c41ec55cc561d5f1dbd2447424c9041e37515de7436ef"),
    ("continuum", {}, 0, None,
     "87304599f4ec1c382f79e484392859d0be5263a6cec62e54f25f4889f5da545f"),
    ("continuum", {}, 7, None,
     "808603c266659d27444feeacc6a35ed316343a32bf4628e500586f1002c22165"),
    ("independent-interest", {}, 0, None,
     "a02c9c27b41d56dacf12a1d71950f6c97306e4f19152e644aad38ab08171df67"),
    ("independent-interest", {}, 7, None,
     "60692913a14a0bec783baa4114e54e70585cbaa6b8fba8dfea1127a9bca7abc4"),
    ("kleinberg", {}, 0, None,
     "8e6fa1d34383ed291f3b0dd9065ee41c4b22e111d9d8137448c97db54afc3335"),
    ("kleinberg", {}, 7, None,
     "97845c3a4996a4c9d2b9c0c69c2b354e5919af25f18efc6fdc2f693c19a766e6"),
    ("grid-tree", {"toric": True, "branching": 4}, 3, None,
     "7e73f2439546d8b589528edc8db9879ede66cdbf5e6a38352f1b32ca93cc57c2"),
    ("continuum", {"box1": [2.0, 0.5], "box2": [1.0]}, 3, None,
     "b363d122b22ebbd468baae2348bfce5d8bb9788d250c2ff8068ab44404d54546"),
    ("kleinberg", {"alpha": 2.0, "links": 2,
                   "space": {"kind": "grid", "toric": True}}, 3, None,
     "cc9ec8c361e9a5a009aa658eb06ec03b6281bfed553cbcfe95118d0919d3ab53"),
    ("independent-interest", {"space": {"kind": "tree"}}, 3, None,
     "f105e702e23e90687a9890b438f9ff2a31512cbdb96e8d7122bef7258143cf10"),
    ("two-directed-cycles", {}, 3, "x5",
     "529ac06a9e79332292b930e5773bd9abc05ef303eb84dfcf318d96e9698c7387"),
    ("two-undirected-cycles", {}, 3, "x5",
     "3d5ac31cb84c0561017dc6365ace1d142d082fea5620dd53651fa0f9446f1c45"),
])
def test_build_model_edges_are_pinned(tmp_path, model, params, master, pi,
                                      digest):
    pi = None if pi is None else np.arange(64) * 5 % 64
    _, graph = build_model(model, params, 64, Seed(master), pi=pi)
    path = tmp_path / "g.edges"
    write_edge_list(graph, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# a small study per model, thinned where the model is double clustering,
# and the SHA-256 of its aggregate CSV (timing columns excluded) and of its
# raw CSV
@pytest.mark.parametrize("model, params, thinning, modes, agg, raw", [
    ("two-undirected-cycles", {}, True,
     ("greedy-1", "greedy-2", "half-greedy-1", "combined"),
     "2a6b8b5e7832cd43b43e408421c2e71c5e9e0dbec132b4a37a5eeb3ed623437d",
     "86769661537f8eef24e27c4bceddf28392dda48d995c94b80251e7de0f724f50"),
    ("grid-tree", {"branching": 2}, True,
     ("greedy-1", "greedy-2", "combined", "combined-literal-m"),
     "03c289512533aa634fb7ea951cd5257819c5ee6738c28f206e04b8583cabc1a2",
     "023e7986a558a6d293ce716068da68554fb2deef71c78812aa03c9ce3a702a1b"),
    ("continuum", {}, False, ("greedy-1", "greedy-2", "combined"),
     "958fdf0235e104ca14cbf72f5434ee64a465182315fe712024f5feab9a382cef",
     "89ed72de3ac4c7782782dc3d2a2eea3e2072bfd0396a6323e11c8c670a420136"),
    ("kleinberg", {"alpha": 2.0, "links": 2}, False,
     ("greedy-1", "half-greedy-1"),
     "9fc6f9baaa44dec2729bdc004484081f07f3dfdae72c4eb5aa7aceeb16973ab3",
     "cfa3eebf1e91d739e1849079a9a3c27a88121659e9805e3a3ed5539ec7c1a316"),
    ("independent-interest", {"space": {"kind": "undirected-cycle"}}, False,
     ("greedy-1",),
     "baee7af8975f123e3e3c6ebc0866f206e72624dfcbc038abb23a257ad52768b1",
     "159e9920c4a730d9a8f284038dd89ce74cefc0375770a2800eeb82381aa569d9"),
])
def test_study_csvs_are_pinned(model, params, thinning, modes, agg, raw):
    spec = ExperimentSpec(model, (64, 256), (1, 2), routes_per_size=30,
                          thinning=thinning, params=params,
                          routing_modes=tuple(map(RoutingMode.parse, modes)))
    result = run_experiment(spec)
    assert hashlib.sha256(csv_without_timing(
        aggregate_csv_text(result)).encode()).hexdigest() == agg
    assert hashlib.sha256(raw_csv_text(result).encode()).hexdigest() == raw


def assert_table_entries(ids, lists):
    """Every id in ``lists`` is the entry of the id table ``ids`` at it."""
    bad = [v for row in lists for v in row if v is not ids[v]]
    assert not bad, f"{len(bad)} ids are not their table's, e.g. {bad[:3]}"


@pytest.mark.parametrize("model", harness.MODELS)
def test_every_id_list_shares_its_space_id_table(tmp_path, model):
    # at n = 1024 most ids lie past CPython's cached small ints (-5..256),
    # so an id is its table's object only if it was read from the table
    n = 1024
    a, graph = build_model(model, {}, n, Seed(2))
    # equal descriptors build one space, so both cycles share one table;
    # clouds draw their own points, and a baseline pairs its one space
    assert (a.space1 is a.space2) == (model not in ("grid-tree", "continuum"))
    ids1, ids2 = a.space1.ids, a.space2.ids
    assert len(ids1) == len(ids2) == n
    assert not ids1.flags.writeable and not ids2.flags.writeable
    assert_table_entries(ids1, graph.out_edges)
    assert_table_entries(ids1, [a.positions[0]])
    assert all(p is ids2[v] for p, v in zip(a.positions[1], a.pi.tolist()))
    for space in a.spaces:
        assert_table_entries(space.ids, map(space.base_neighbors, range(n)))
    thinned = thin_edges(graph, a.space1, Seed(2))
    assert_table_entries(ids1, thinned.out_edges)
    path = tmp_path / "g.edges"
    write_edge_list(graph, path)
    read = read_edge_list(path, a.space1)
    assert read.out_edges == graph.out_edges
    assert_table_entries(ids1, read.out_edges)
    if model.startswith("two-"):
        perms = [Seed(k).permutation(n) for k in (3, 4)]
        for built in _graphs(a.space1, a.space2, perms):
            assert_table_entries(ids1, built.out_edges)
    # endpoints drawn as fresh ints: a path holds the table's objects
    pairs = np.random.default_rng(5).integers(300, n, size=(10, 2)).tolist()
    for mode in map(RoutingMode, MODE_LABELS):
        if mode.kind == "half-greedy" and not a.spaces[mode.space - 1].is_graph_kind:
            continue
        outcomes = [route(graph, a, mode, s, t) for s, t in pairs]
        assert_table_entries(ids1, [out.path for out in outcomes])


# ---------------------------------------------------------------------------
# running experiments


def test_two_directed_cycles_all_routes_succeed():
    spec = make_spec(sizes=(128,), seeds=(1,), routes_per_size=100)
    result = run_experiment(spec)
    row = result.rows[0]
    assert row.routes == 100
    assert row.success_rate == 1.0
    assert row.mean_len is not None and row.mean_len > 0


def test_row_structure_and_raw_records():
    spec = make_spec(routing_modes=(RoutingMode.parse("greedy-1"),
                                    RoutingMode.parse("greedy-2")))
    result = run_experiment(spec)
    # 2 sizes x 2 seeds x 2 modes
    assert len(result.rows) == 8
    assert len(result.raw) == 2 * 2 * 2 * 40
    keys = [(r.n, r.seed, r.mode) for r in result.rows]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2] != "greedy-1"))


def test_route_endpoints_unique_and_valid():
    spec = make_spec(sizes=(16,), seeds=(3,), routes_per_size=1000)
    result = run_experiment(spec)
    records = [(r.source, r.target) for r in result.raw]
    assert len(records) == 16 * 15  # capped at the number of ordered pairs
    assert len(set(records)) == len(records)
    assert all(s != t for s, t in records)


def scalar_route_pairs(n, count, rng):
    """Route pairs drawn the way the sampler once drew them: two scalar
    draws per pair, self-pairs and repeats skipped."""
    count = min(count, n * (n - 1))
    seen, pairs = set(), []
    while len(pairs) < count:
        s, t = int(rng.integers(n)), int(rng.integers(n))
        if s != t and (s, t) not in seen:
            seen.add((s, t))
            pairs.append((s, t))
    return pairs


@pytest.mark.parametrize("n,counts", [
    (2, [1, 2, 5]),
    (3, [1, 4, 6, 9]),
    (7, [1, 10, 41, 42, 100]),
    (1024, [1, 1000, 5000]),
])
def test_route_pairs_match_scalar_draws(n, counts):
    # one vector draw per round gives the pairs, in order, that two scalar
    # draws per pair gave, also where rejection saturates at n(n-1)
    for master in (0, 5, 2**40):
        for count in counts:
            got = harness._sample_route_pairs(n, count, Seed(master).rng("routes"))
            assert got == scalar_route_pairs(n, count, Seed(master).rng("routes"))
            assert all(isinstance(v, int) for pair in got for v in pair)


@pytest.mark.parametrize("workers", [0, -1, -3])
def test_run_experiment_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        run_experiment(make_spec(), workers=workers)


def recorded_pool_sizes(monkeypatch):
    """The ``max_workers`` of every pool run_experiment opens."""
    sizes = []

    class RecordingPool(harness.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_worker_pool_is_capped_at_the_trial_count(monkeypatch):
    sizes = recorded_pool_sizes(monkeypatch)
    two = make_spec(sizes=(16,), seeds=(1, 2), routes_per_size=5)
    parallel = run_experiment(two, workers=6)
    assert sizes == [2]
    assert raw_csv_text(parallel) == raw_csv_text(run_experiment(two))
    # one trial runs in-process, with the rows of a serial run
    one = make_spec(sizes=(16,), seeds=(1,), routes_per_size=5)
    alone = run_experiment(one, workers=6)
    assert sizes == [2]
    serial = run_experiment(one, workers=1)
    assert csv_without_timing(aggregate_csv_text(alone)) == \
        csv_without_timing(aggregate_csv_text(serial))
    assert raw_csv_text(alone) == raw_csv_text(serial)


@pytest.mark.parametrize("space", [{"kind": "tree"},
                                   {"kind": "tree", "branching": 4}])
def test_spec_rejects_kleinberg_without_a_base_graph(space):
    # lattice augmentation keeps a base graph, which tree leaves lack:
    # refused with the spec, not inside the first trial
    with pytest.raises(ValueError, match="'kleinberg' needs a graph-kind "
                                         "space; its params 'space'"):
        ExperimentSpec("kleinberg", (16,), (1,), params={"space": space})
    assert ExperimentSpec("kleinberg", (16,), (1,),
                          params={"space": {"kind": "undirected-cycle"}})


def test_build_model_refuses_kleinberg_on_tree_leaves_before_building(
        monkeypatch):
    # the one model check runs first: the message the spec and the route
    # command give, not the builder's own
    def no_build(*args, **kwargs):
        raise AssertionError("built before the space was checked")
    monkeypatch.setattr(harness, "build_kleinberg", no_build)
    with pytest.raises(ValueError, match="^model 'kleinberg' needs a graph-kind "
                                         "space; its params 'space' is "
                                         "'tree-leaves', which has no base graph$"):
        build_model("kleinberg", {"space": {"kind": "tree"}}, 16, Seed(0))


def test_check_model_returns_the_preset_and_refuses_in_order():
    assert harness.check_model("kleinberg", {"alpha": 2}, (16, 64)) == \
        ("kleinberg", [{"kind": "grid"}], (2.0, 1))
    # params first, then every size's spaces, then the spaces' kinds
    for params, sizes, message in (
            ({"space": {"kind": "tree"}, "alpha": -1}, (12,), "'alpha' must be"),
            ({"space": {"kind": "tree"}}, (16, 12), "n=12 is not a power"),
            ({"space": {"kind": "tree"}}, (16,), "needs a graph-kind space;")):
        with pytest.raises(ValueError, match=message):
            harness.check_model("kleinberg", params, sizes,
                                (RoutingMode("half-greedy-1"),))


def test_check_model_refuses_sizes_thinning_and_explicit_pi_in_order():
    # params, then the size floor, the ceiling and the thinning floor, then
    # the spaces, their kinds and modes, then the explicit permutation
    half = (RoutingMode("half-greedy-2"),)
    for model, params, sizes, modes, kwargs, message in (
            ("continuum", {"box1": []}, (0,), (), {}, "box1 must be"),
            ("continuum", {}, (0, 8), (), {"thinning": True},
             "^n must be >= 1, got 0$"),
            ("grid-tree", {}, (-4,), (), {}, "^n must be >= 1, got -4$"),
            ("grid-tree", {}, (0, 2**16 + 1), (), {}, "^n must be >= 1, got 0$"),
            ("grid-tree", {}, (2, 2**16 + 1), (), {"thinning": True},
             r"^sizes \[65537\] exceed the n <= 65536 ceiling$"),
            ("grid-tree", {}, (2, 6), (), {"thinning": True},
             "^sizes must be >= 3 with thinning$"),
            ("grid-tree", {}, (6,), (), {"thinning": True}, "n=6 is not a power"),
            ("independent-interest", {"space": {"kind": "tree"}}, (16,), half,
             {"explicit_pi": True}, "half-greedy-2 needs a graph-kind space"),
            ("continuum", {}, (8,), (), {"explicit_pi": True},
             "^model 'continuum' takes no explicit permutation$"),
            ("kleinberg", {}, (16,), (), {"explicit_pi": True},
             "^model 'kleinberg' takes no explicit permutation$")):
        with pytest.raises(ValueError, match=message):
            harness.check_model(model, params, sizes, modes, **kwargs)
    assert harness.check_model("two-directed-cycles", {}, (3,), half,
                               thinning=True, explicit_pi=True)[0] == \
        "double-clustering"


def test_build_model_refuses_explicit_pi_before_building(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("built before the model was checked")
    monkeypatch.setattr(harness, "_spaces", no_build)
    for model in ("continuum", "kleinberg", "independent-interest"):
        with pytest.raises(ValueError, match=f"^model {model!r} takes no "
                                             "explicit permutation$"):
            build_model(model, {}, 16, Seed(0), pi=np.arange(16))


def test_budget_refusal(monkeypatch):
    # one ceiling for every model, checked when the spec is made
    def no_build(*args, **kwargs):
        raise AssertionError("built a graph")
    monkeypatch.setattr(harness, "build_model", no_build)
    assert harness.MAX_SIZE == 2**16
    for model in harness.MODELS:
        assert make_spec(model=model, sizes=(2**16,)).sizes == (2**16,)
        with pytest.raises(ValueError, match=r"sizes \[65537\] exceed the "
                                             r"n <= 65536 ceiling"):
            make_spec(model=model, sizes=(2**16, 2**16 + 1))
    # the spec's own floor comes before the model check's ceiling
    with pytest.raises(ValueError, match="^sizes must be >= 2$"):
        make_spec(sizes=(1, 2**16 + 1))


def test_determinism_and_worker_independence():
    spec = make_spec(sizes=(48,), seeds=(5, 6), routes_per_size=60,
                     routing_modes=(RoutingMode.parse("greedy-1"),
                                    RoutingMode.parse("combined")))
    r1 = run_experiment(spec)
    r2 = run_experiment(spec)
    r_par = run_experiment(spec, workers=2)
    assert csv_without_timing(aggregate_csv_text(r1)) == \
        csv_without_timing(aggregate_csv_text(r2))
    assert raw_csv_text(r1) == raw_csv_text(r2) == raw_csv_text(r_par)
    assert csv_without_timing(aggregate_csv_text(r1)) == \
        csv_without_timing(aggregate_csv_text(r_par))


def test_thinning_flag_reduces_edges():
    dense = run_experiment(make_spec(sizes=(256,), seeds=(1,), routes_per_size=5))
    thinned = run_experiment(make_spec(sizes=(256,), seeds=(1,), routes_per_size=5,
                                       thinning=True))
    assert thinned.rows[0].mean_outdeg < dense.rows[0].mean_outdeg


def test_edge_dump(tmp_path):
    spec = make_spec(sizes=(32,), seeds=(1,), routes_per_size=5)
    run_experiment(spec, dump_edges_dir=str(tmp_path / "edges"))
    dumped = list((tmp_path / "edges").glob("*.edges"))
    assert len(dumped) == 1
    assert "two-directed-cycles-n32-seed1" in dumped[0].name


def test_edge_dump_refuses_an_empty_directory(monkeypatch, tmp_path):
    # an empty value names no directory: it is refused before the first
    # trial, never read as the working directory
    monkeypatch.chdir(tmp_path)

    def no_trial(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(harness, "_run_trial", no_trial)
    spec = make_spec(sizes=(32,), seeds=(1,), routes_per_size=5)
    with pytest.raises(ValueError, match="^dump_edges_dir must name a path, "
                                         "got an empty value$"):
        run_experiment(spec, dump_edges_dir="")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# scaling fits


def test_fit_scaling_recovers_linear_law():
    values = {n: 2.0 * math.log2(n) + 1.0 for n in (64, 128, 256, 512)}
    fits = fit_scaling(synthetic_result(values))
    fit = fits["greedy-1"]
    assert fit.slope == pytest.approx(2.0)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r_squared == pytest.approx(1.0)


def test_fit_scaling_constant_input():
    fits = fit_scaling(synthetic_result({64: 5.0, 128: 5.0, 256: 5.0}))
    assert fits["greedy-1"].slope == pytest.approx(0.0)


def test_fit_scaling_needs_three_sizes():
    with pytest.raises(ValueError):
        fit_scaling(synthetic_result({64: 1.0, 128: 2.0}))
    # three sizes, but the mode succeeded at only two of them
    with pytest.raises(ValueError, match="greedy-1 needs >= 3 sizes with successes"):
        fit_scaling(synthetic_result({64: 1.0, 128: None, 256: 3.0}))


def test_clustering_slope_close_to_interest_slope():
    # double clustering pays only a constant over independent interest, so
    # the fitted slopes agree to within the stated 0.9 factor
    sizes = (64, 128, 256, 512, 1024, 2048)
    seeds = (1, 2)
    dc = run_experiment(ExperimentSpec(
        model="two-undirected-cycles", sizes=sizes, seeds=seeds,
        routes_per_size=400, routing_modes=(RoutingMode.parse("greedy-1"),)))
    ii = run_experiment(ExperimentSpec(
        model="independent-interest", sizes=sizes, seeds=seeds,
        routes_per_size=400, routing_modes=(RoutingMode.parse("greedy-1"),),
        params={"space": {"kind": "undirected-cycle"}}))
    dc_slope = fit_scaling(dc)["greedy-1"].slope
    ii_slope = fit_scaling(ii)["greedy-1"].slope
    assert dc_slope > 0.9 * ii_slope
    assert dc_slope > 0


# ---------------------------------------------------------------------------
# CSV round trips


def test_export_csv_header_only_when_empty(tmp_path):
    spec = make_spec()
    empty = ExperimentResult(spec, [], [])
    path = tmp_path / "out.csv"
    export_csv(empty, path)
    assert path.read_text() == harness.AGGREGATE_HEADER + "\n"


def test_export_csv_row_count_and_round_trip(tmp_path):
    for thinning in (False, True):
        spec = make_spec(routing_modes=(RoutingMode.parse("greedy-1"),
                                        RoutingMode.parse("greedy-2")),
                         seeds=(1,), thinning=thinning)
        result = run_experiment(spec)
        path = tmp_path / "out.csv"
        raw_path = tmp_path / "raw.csv"
        export_csv(result, path, raw_path=raw_path)
        text = path.read_text()
        assert len(text.splitlines()) == 1 + 4  # header + 2 sizes x 1 seed x 2 modes
        assert raw_path.read_text().splitlines()[0] == harness.RAW_HEADER
        # thin_ms is empty unless the spec thins
        assert all((r.thin_ms is not None) == thinning for r in result.rows)
        assert [line.split(",") for line in text.splitlines()[1:]] == [
            [r.model, str(r.n), str(r.seed), r.mode, str(r.routes), str(r.successes),
             repr(r.success_rate), repr(r.mean_len), repr(r.median_len),
             repr(r.mean_outdeg), "" if r.thin_ms is None else repr(r.thin_ms),
             repr(r.build_ms), repr(r.wall_ms)]
            for r in result.rows]


@pytest.mark.parametrize("path,raw_path,name", [
    ("", None, "path"), ("", "raw.csv", "path"), ("agg.csv", "", "raw_path")])
def test_export_csv_refuses_an_empty_path_before_writing(
        monkeypatch, tmp_path, path, raw_path, name):
    # an empty path names no file: refused before either file is written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=f"^{name} must name a path, got an "
                                         "empty value$"):
        export_csv(ExperimentResult(make_spec(), [], []), path, raw_path=raw_path)
    assert list(tmp_path.iterdir()) == []


# one study per model, with modes that fail on some pairs where the model
# has any
@pytest.mark.parametrize("model,params,modes", [
    ("two-directed-cycles", {}, ("greedy-1", "greedy-2", "combined")),
    ("two-undirected-cycles", {}, ("greedy-2", "half-greedy-1")),
    ("grid-tree", {"branching": 2}, ("greedy-2", "combined-literal-m")),
    ("continuum", {}, ("greedy-1", "greedy-2", "combined")),
    ("kleinberg", {"alpha": 2.0}, ("greedy-1", "half-greedy-1")),
    ("independent-interest", {"space": {"kind": "tree"}}, ("greedy-1",)),
])
def test_aggregate_csv_is_a_function_of_the_raw_csv(model, params, modes):
    # every aggregate row's counts and lengths, recomputed from the raw CSV
    # text alone, equal the aggregate CSV's own fields
    spec = ExperimentSpec(model, (64, 128), (1, 2), routes_per_size=30,
                          params=params,
                          routing_modes=tuple(map(RoutingMode.parse, modes)))
    result = run_experiment(spec)
    raw = list(csv.DictReader(io.StringIO(raw_csv_text(result))))
    rows = list(csv.DictReader(io.StringIO(aggregate_csv_text(result))))
    assert len(rows) == 2 * 2 * len(modes)
    for row in rows:
        records = [r for r in raw
                   if (r["n"], r["seed"], r["mode"]) == (row["n"], row["seed"],
                                                         row["mode"])]
        steps = [int(r["steps"]) for r in records if r["success"] == "1"]
        assert row["routes"] == str(len(records))
        assert row["successes"] == str(len(steps))
        assert row["success_rate"] == repr(len(steps) / len(records))
        assert row["mean_len"] == (repr(sum(steps) / len(steps)) if steps else "")
        assert row["median_len"] == (repr(float(statistics.median(steps)))
                                     if steps else "")


def test_round_trip_preserves_missing_means(tmp_path):
    spec = make_spec()
    row = AggregateRow("two-directed-cycles", 32, 1, "greedy-1", 5, 0, 0.0,
                       None, None, 1.5, None, 7.0, 2.25)
    path = tmp_path / "out.csv"
    export_csv(ExperimentResult(spec, [row], []), path)
    assert path.read_text() == (harness.AGGREGATE_HEADER + "\n"
                                "two-directed-cycles,32,1,greedy-1,5,0,0.0,,,1.5,,7.0,2.25\n")


def test_build_time_is_reported_apart_from_each_mode(monkeypatch):
    # a fake clock: every build takes 2 s, every thinning 0.5 s and every
    # route 1 ms; build_ms counts the thinning, thin_ms only the thinning
    clock = [0.0]
    monkeypatch.setattr(harness, "time",
                        SimpleNamespace(perf_counter=lambda: clock[0]))

    def advancing(fn, seconds):
        def call(*args):
            clock[0] += seconds
            return fn(*args)
        return call
    monkeypatch.setattr(harness, "build_model", advancing(harness.build_model, 2.0))
    monkeypatch.setattr(harness, "thin_edges", advancing(harness.thin_edges, 0.5))
    monkeypatch.setattr(harness, "route", advancing(harness.route, 0.001))
    for thinning in (False, True):
        spec = make_spec(seeds=(1,), routes_per_size=10, thinning=thinning,
                         routing_modes=(RoutingMode.parse("greedy-1"),
                                        RoutingMode.parse("combined")))
        rows = run_experiment(spec).rows
        assert len(rows) == 4
        for row in rows:
            assert row.thin_ms == (pytest.approx(500.0) if thinning else None)
            assert row.build_ms == pytest.approx(2500.0 if thinning else 2000.0)
            assert row.wall_ms == pytest.approx(10.0)


def test_csv_without_timing_strips_timing_columns():
    text = "a,thin_ms,build_ms,b,wall_ms\n1,,40.5,2,3.5\n"
    assert csv_without_timing(text) == "a,b\n1,2\n"
    assert harness.AGGREGATE_HEADER.endswith(",mean_outdeg,thin_ms,build_ms,wall_ms")
