"""Balanced 2-median and 2-maxian location solvers on weighted trees."""

from .errors import ConfigError, PreconditionError, TreeParseError
from .experiments import (ExperimentRecord, GenSpec, SplitMix64,
                          allocation_report, emit_csv, gen_random_tree,
                          lambda_sweep, pareto_front)
from .maxian import (path_fpmax_sweep, solve_balanced_2maxian_cubic,
                     solve_balanced_2maxian_linear)
from .median import one_median, solve_balanced_2median
from .objectives import (Assignment, Solution, SolverConfig, eval_f3, eval_f5,
                         eval_fpmax, eval_fpmed, eval_transport,
                         maxian_assignment, median_assignment)
from .oracle import (all_pairs_dist, brute_2maxian, brute_2median,
                     brute_path_fpmax)
from .tree import (CompressedPath, EdgeBipartition, PathDescriptor,
                   WeightedTree, build_tree, compress_onto_path, diameter,
                   dist, parse_tree, path_between, render_tree, split_by_edge)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "CompressedPath", "ConfigError", "EdgeBipartition",
    "ExperimentRecord", "GenSpec", "PathDescriptor", "PreconditionError",
    "Solution", "SolverConfig", "SplitMix64", "TreeParseError",
    "WeightedTree", "all_pairs_dist", "allocation_report", "brute_2maxian",
    "brute_2median", "brute_path_fpmax", "build_tree", "compress_onto_path",
    "diameter", "dist", "emit_csv", "eval_f3", "eval_f5", "eval_fpmax",
    "eval_fpmed", "eval_transport", "gen_random_tree", "lambda_sweep",
    "maxian_assignment", "median_assignment", "one_median", "pareto_front",
    "parse_tree", "path_between", "path_fpmax_sweep", "render_tree",
    "solve_balanced_2maxian_cubic", "solve_balanced_2maxian_linear",
    "solve_balanced_2median", "split_by_edge",
]
