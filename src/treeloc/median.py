"""Balanced 2-median solver: enumerate edge deletions, find a 1-median on
each side, and pick the cut that scalarizes best with the balance term."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import PreconditionError
from .objectives import CutTable, Solution, SolverConfig, cut_imbalance
from .tree import WeightedTree, cut_blocks, dist_sums, root_path_sums


def _one_median_swept(tree: WeightedTree, side: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Smallest-id 1-median (0-based) of each row's side.

    Rows are preorder positions: the side's mask and its weights' subtree
    sums.  Exact tests, no float cost comparison, pick the argmin set: no
    positive-length side edge leads away from x to more than half the
    side's weight (the weight-majority set, closed under zero-length
    edges), so x lies below every side edge whose lower part is such a
    majority and below none whose upper part is."""
    W = sub[:, :1]
    twice = 2.0 * sub
    inner = side & side.take(tree.up, axis=1) & (tree.plen > 0.0)
    heavy = inner & (twice > W)
    light = inner & (twice < W)
    # heavy edges above x, sunk below zero by any light one; the side's top
    # scores 0, so the row maximum is reached exactly on the majority set
    score = np.where(side, root_path_sums(tree, np.where(light, -(tree.n + 1.0), heavy)), -1.0)
    return np.where(score == score.max(axis=1, keepdims=True), tree.preorder, tree.n).min(axis=1)


def one_median(tree: WeightedTree, side: Iterable[int] | None = None) -> tuple[int, float]:
    """Vertex of the side minimizing sum of w_i * d(v_i, .) over the side,
    smallest id among ties, together with that minimal cost.

    side is a set of 1-based vertex ids inducing a connected subtree
    (default: all vertices).
    """
    if side is None:
        ids = np.arange(tree.n, dtype=np.int64)
    else:
        ids = np.unique(np.fromiter((int(v) - 1 for v in side), dtype=np.int64))
        if ids.size == 0:
            raise PreconditionError("side is empty")
        if ids[0] < 0 or ids[-1] >= tree.n:
            raise PreconditionError("side contains an out-of-range vertex id")
    mask = np.zeros(tree.n, dtype=bool)
    mask[ids] = True
    # connected iff it spans one edge fewer than it has vertices
    if np.count_nonzero(mask[tree.eu] & mask[tree.ev]) != ids.size - 1:
        raise PreconditionError("side does not induce a connected subtree")
    in_side = mask[tree.preorder][None]
    S, sub = dist_sums(tree, np.where(in_side, tree.w[tree.preorder], 0.0))
    m = int(_one_median_swept(tree, in_side, sub)[0])
    return m + 1, float(S[0, tree.tin[m]])


def median_cut_table(tree: WeightedTree) -> CutTable:
    """Every edge deletion with a 1-median on each side: f1 is the sum of
    the two sides' 1-median costs.  O(n) numpy work per edge, O(n^2) in
    total, done a block of edges per call."""
    if tree.n < 2:
        raise PreconditionError("balanced 2-median needs at least 2 vertices")
    S_all, sub_all = dist_sums(tree, tree.w[tree.preorder][None])
    f1 = np.empty(tree.n - 1)
    medians = np.empty((tree.n - 1, 2), dtype=np.int64)
    for edges, in_a, sub, S in cut_blocks(tree):
        m1 = _one_median_swept(tree, in_a, sub)
        m2 = _one_median_swept(tree, ~in_a, sub_all - sub)
        rows, x1, x2 = np.arange(edges.size), tree.tin[m1], tree.tin[m2]
        f1[edges] = S[rows, x1] + (S_all[0, x2] - S[rows, x2])
        medians[edges, 0], medians[edges, 1] = m1, m2
    medians += 1
    return CutTable("median", "edge-deletion", np.arange(tree.n - 1), f1,
                    cut_imbalance(tree), medians)


def solve_balanced_2median(cfg: SolverConfig, tree: WeightedTree) -> Solution:
    """Try every edge deletion; on each side solve a fresh 1-median; return
    the bipartition minimizing lam*f1 + (1-lam)*f5.  Ties go to the
    smallest edge index (per-side medians are already deterministic)."""
    return median_cut_table(tree).pick(cfg.lam, tree)
