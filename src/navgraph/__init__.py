"""Navigable graphs from double clustering of paired metric spaces.

Builders link each vertex to everything at least as close in a second
space as all vertices strictly closer in the first; the resulting graphs
support greedy, half-greedy, and combined decentralized routing.  Exact
small-instance oracles and a seeded experiment harness verify the model's
laws before scaling up.
"""

from .construction import (Assignment, NavGraph, Seed, build_double_clustering,
                           build_independent_interest, build_kleinberg,
                           edge_keep_probability, load_permutation,
                           read_edge_list, thin_edges, write_edge_list)
from .harness import (ExperimentResult, ExperimentSpec, ScalingFit, build_model,
                      build_space, export_csv, fit_scaling,
                      load_experiment_config, run_experiment)
from .oracle import (DivergenceWitness, find_divergent_permutation,
                     marginal_edge_law, monotonicity_check,
                     random_disjoint_sets, tau_tail)
from .routing import Failure, RouteOutcome, RoutingMode, route
from .spaces import (DirectedCycle, Euclidean, Grid, Space, TreeLeaves,
                     UndirectedCycle)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "DirectedCycle", "DivergenceWitness", "Euclidean",
    "ExperimentResult", "ExperimentSpec", "Failure", "Grid", "NavGraph",
    "RouteOutcome", "RoutingMode", "ScalingFit", "Seed", "Space",
    "TreeLeaves", "UndirectedCycle", "build_double_clustering",
    "build_independent_interest", "build_kleinberg", "build_model",
    "build_space", "edge_keep_probability", "export_csv",
    "find_divergent_permutation", "fit_scaling", "load_experiment_config",
    "load_permutation", "marginal_edge_law", "monotonicity_check",
    "random_disjoint_sets", "read_edge_list", "route", "run_experiment",
    "tau_tail", "thin_edges", "write_edge_list",
]
