"""Balanced 2-maxian solvers.

Two cut tables: a cubic-semantics reference that scores every edge
deletion against every ordered facility pair under masked weights, and a
linear method that fixes facilities at the diameter endpoints and scores
the deletions along the diameter path from prefix sums.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import PreconditionError
from .objectives import CutTable, Solution, SolverConfig, cut_imbalance, objective
from .tree import (CompressedPath, WeightedTree, _double_sweep, _fold_onto_path,
                   cut_blocks, dist_sums, distances)


def _best_pairs(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per row, the lexicographically smallest pair x1 != x2 maximizing
    A[x1] + B[x2].  np.argmax takes the first maximum, the smallest id; only
    a shared argmax q needs (q, B's runner-up) and (A's runner-up, q)."""
    rows = np.arange(A.shape[0])
    a1, b1 = A.argmax(axis=1), B.argmax(axis=1)
    va, vb = A[rows, a1], B[rows, b1]
    A2, B2 = A.copy(), B.copy()
    A2[rows, a1] = -np.inf
    B2[rows, b1] = -np.inf
    a2, b2 = A2.argmax(axis=1), B2.argmax(axis=1)
    v1, v2 = va + B2[rows, b2], A2[rows, a2] + vb
    first = (v1 > v2) | ((v1 == v2) & (a1 < a2))
    same = a1 == b1
    x1 = np.where(same & ~first, a2, a1)
    x2 = np.where(same & first, b2, b1)
    return x1, x2, np.where(same, np.where(first, v1, v2), va + vb)


def _needs_two_vertices(tree: WeightedTree):
    if tree.n < 2:
        raise PreconditionError("balanced 2-maxian needs at least 2 vertices")


def cubic_cut_table(tree: WeightedTree) -> CutTable:
    """Reference method: for every edge deletion, score every ordered
    facility pair (x1 anywhere, serving the larger-endpoint side through
    masked weights; x2 serving the other side) and keep the best pair, the
    smallest one among ties.  O(n) numpy work per edge, a block of edges
    per call."""
    _needs_two_vertices(tree)
    S_all = dist_sums(tree, tree.w[tree.preorder][None])[0][0].take(tree.tin)
    f2 = np.empty(tree.n - 1)
    pairs = np.empty((tree.n - 1, 2), dtype=np.int64)
    for edges, _, w_a in cut_blocks(tree):
        # distance sums to side a, which x2 serves
        B = dist_sums(tree, w_a)[0].take(tree.tin, axis=1)
        pairs[edges, 0], pairs[edges, 1], f2[edges] = _best_pairs(S_all - B, B)
    pairs += 1
    return CutTable("maxian", "cubic", np.arange(tree.n - 1), f2, cut_imbalance(tree), pairs)


def _path_terms(cp: CompressedPath) -> tuple[np.ndarray, np.ndarray]:
    """Transport and f5 of every path-edge deletion, in path order, with
    facilities fixed at the path endpoints (each endpoint serves the far
    side).  Cutting after position j0 serves the prefix from the far end,
    sum_{i<=j0} w_hat_i*(L - p_i), and the suffix from the near end,
    sum_{i>j0} w_hat_i*p_i; both come from prefix sums.  Transport adds
    the hanging offset, the demand's distance to the path."""
    if cp.base.m < 2:
        raise PreconditionError("path has no edges to delete")
    p = cp.base.prefix
    L = float(p[-1])
    SW = cp.w_hat.cumsum()[:-1]
    SWP = (cp.w_hat * p).cumsum()
    SZ = cp.z_hat.cumsum()[:-1]
    Z = float(cp.z_hat.sum())
    tc = L * SW + float(SWP[-1]) - 2.0 * SWP[:-1]
    return tc + cp.hang_offset, np.abs(SZ - (Z - SZ))


def path_fpmax_sweep(cfg: SolverConfig, cp: CompressedPath) -> list[tuple[int, float]]:
    """Objective of every path-edge deletion with facilities fixed at the
    path endpoints (each endpoint serves the far side).

    Values are true objectives: compressed-weight transport plus the
    hanging offset, scalarized with the balance term.
    Returns [(tree edge index, objective), ...] in path order.
    """
    transport, f5 = _path_terms(cp)
    vals = objective(cfg.lam, transport, f5, "maxian")
    return [(int(e), float(v)) for e, v in zip(cp.base.edges, vals)]


def linear_cut_table(tree: WeightedTree) -> CutTable:
    """Place facilities at the diameter endpoints, compress all demand onto
    the diameter path, and score the path edges.  Two one-row distance
    sweeps do it: from the deepest vertex a, which finds the far endpoint
    b, and from b.  Compression reads the hanging distances off a's row.
    The table keeps the rows of a and b for its picks to recompute from.
    Requires strictly positive edge lengths for the endpoint-optimality
    guarantee; with any zero-length edge it warns and builds the cubic
    table instead."""
    _needs_two_vertices(tree)
    if np.count_nonzero(tree.length == 0.0):
        warnings.warn(
            "zero-length edge: diameter-endpoint optimality is not "
            "guaranteed, falling back to the cubic method",
            RuntimeWarning, stacklevel=2)
        return cubic_cut_table(tree)
    a, b, da, path = _double_sweep(tree)
    db = distances(tree, b)[0]
    transport, f5 = _path_terms(_fold_onto_path(tree, path, da))
    ends = path.vertices[[0, -1]]
    # rows in edge order, as CutTable's tie rule takes the first extremal row
    order = path.edges.argsort()
    # x1 serves the larger-endpoint side; the endpoint on the prefix side of
    # the deleted path edge serves the suffix side and vice versa
    prefix_holds_smaller = (tree.eu[path.edges] + 1 == path.vertices[:-1])[order]
    pairs = np.where(prefix_holds_smaller[:, None], ends, ends[::-1])
    return CutTable("maxian", "linear", path.edges[order], transport[order], f5[order],
                    pairs, reach={a + 1: da, b + 1: db})


def solve_balanced_2maxian_cubic(cfg: SolverConfig, tree: WeightedTree) -> Solution:
    """Exact reference: the best cut of the cubic table.  Ties go to the
    smallest edge index, then the smallest facility pair."""
    return cubic_cut_table(tree).pick(cfg.lam, tree)


def solve_balanced_2maxian_linear(cfg: SolverConfig, tree: WeightedTree) -> Solution:
    """Diameter-endpoint heuristic: the best cut of the linear table (the
    cubic table, with a warning, when an edge has zero length)."""
    return linear_cut_table(tree).pick(cfg.lam, tree)
