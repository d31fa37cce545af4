"""Measure the 2-maxian heuristic's gap on the reference family under both
maxian models.

    PYTHONPATH=src python scripts/maxian_gap.py

The family is the one the acceptance gates use: 200 random recursive trees
of 3 to 12 vertices with integer lengths, weights and service times in
1..5 (seed 20240817), each solved at lambda = 0, 0.1, ..., 1.

* Any-side model: x1 and x2 may lie anywhere, x1 != x2, as in
  cubic_cut_table and brute_2maxian.
* Opposite-side model: each facility lies opposite the side it serves, as
  Assignment in maxian mode (eval_fpmax) requires.

Objectives are compared exactly, as the gates compare them; the data are
integers.  A linear miss is "off the path" when no cut of the diameter
path reaches the any-side optimum.
"""

import random

import numpy as np

from treeloc import (SolverConfig, all_pairs_dist, build_tree, diameter,
                     solve_balanced_2maxian_linear, split_by_edge)
from treeloc.maxian import cubic_cut_table
from treeloc.objectives import cut_imbalance, objective

LAMBDAS = [k / 10 for k in range(11)]


def family(seed: int = 20240817, count: int = 200):
    """tests/test_acceptance.py's family, drawn the same way."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 12)
        edges = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
        lengths = [rng.randint(1, 5) for _ in range(n - 1)]
        w = [rng.randint(1, 5) for _ in range(n)]
        t = [rng.randint(1, 5) for _ in range(n)]
        yield build_tree(n, edges, lengths, w, t)


def opposite_side_terms(tree):
    """Per edge, the largest transport with x1 on side a serving side b
    and x2 on side b serving side a, by exhaustive enumeration."""
    D = all_pairs_dist(tree)
    best = np.empty(tree.n - 1)
    for e in range(tree.n - 1):
        in_a = np.zeros(tree.n, dtype=bool)
        in_a[split_by_edge(tree, e).side_a - 1] = True
        to_b = (tree.w * ~in_a) @ D         # side b's transport to each vertex
        to_a = (tree.w * in_a) @ D
        best[e] = to_b[in_a].max() + to_a[~in_a].max()
    return best


def main():
    cases = any_miss = any_miss_at_1 = opp_miss = opp_miss_at_1 = 0
    models_differ = off_path = 0
    for tree in family():
        cubic = cubic_cut_table(tree)
        opposite = opposite_side_terms(tree)
        f5 = cut_imbalance(tree)
        on_path = np.isin(cubic.edges, diameter(tree).edges)
        for lam in LAMBDAS:
            cases += 1
            lin = solve_balanced_2maxian_linear(SolverConfig(lam), tree).objective
            any_obj = objective(lam, cubic.transport, cubic.f5, "maxian")
            any_best = float(any_obj.max())
            opp_best = float(objective(lam, opposite, f5, "maxian").max())
            if lin != any_best:
                any_miss += 1
                any_miss_at_1 += lam == 1.0
                off_path += float(any_obj[on_path].max()) < any_best
            if lin != opp_best:
                opp_miss += 1
                opp_miss_at_1 += lam == 1.0
            models_differ += any_best != opp_best
    print(f"cases: {cases}")
    print(f"linear misses the any-side optimum: {any_miss} ({any_miss_at_1} at lambda = 1), "
          f"{off_path} of them with every optimal cut off the diameter path")
    print(f"linear misses the opposite-side optimum: {opp_miss} ({opp_miss_at_1} at lambda = 1)")
    print(f"the two models' optima differ: {models_differ}")


if __name__ == "__main__":
    main()
