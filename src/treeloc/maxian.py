"""Balanced 2-maxian solvers.

Two cut tables: a cubic-semantics reference that scores every edge
deletion against every ordered facility pair under masked weights, and a
linear method that fixes facilities at the diameter endpoints and scores
the cuts between them, each read as a subtree interval of preorder
positions from prefix sums.  path_fpmax_sweep is the paper's own route,
over the demand compressed onto the diameter path; the tests hold the
linear table to it.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import PreconditionError
from .objectives import CutTable, Solution, SolverConfig, cut_imbalance, objective
from .tree import (CompressedPath, WeightedTree, _double_sweep, cut_blocks,
                   dist_sums, distances)


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


def path_fpmax_sweep(cfg: SolverConfig, cp: CompressedPath) -> list[tuple[int, float]]:
    """Objective of every path-edge deletion with facilities fixed at the
    path endpoints (each endpoint serves the far side): the paper's
    construction on a compressed path.

    Cutting after position j0 serves the prefix from the far end,
    sum_{i<=j0} w_hat_i*(L - p_i), and the suffix from the near end,
    sum_{i>j0} w_hat_i*p_i; both come from prefix sums, and transport adds
    the hanging offset, the demand's distance to the path.  Values are
    true objectives, scalarized with the balance term.
    Returns [(tree edge index, objective), ...] in path order.
    """
    if cp.base.m < 2:
        raise PreconditionError("path has no edges to delete")
    p = cp.base.prefix
    SWP = (cp.w_hat * p).cumsum()
    SZ = cp.z_hat.cumsum()[:-1]
    transport = float(p[-1]) * cp.w_hat.cumsum()[:-1] + float(SWP[-1]) - 2.0 * SWP[:-1]
    f5 = np.abs(SZ - (float(cp.z_hat.sum()) - SZ))
    vals = objective(cfg.lam, transport + cp.hang_offset, f5, "maxian")
    return [(int(e), float(v)) for e, v in zip(cp.base.edges, vals)]


def linear_cut_table(tree: WeightedTree) -> CutTable:
    """Place facilities at the diameter endpoints, each serving the far
    side, and score the cuts between them.  Two one-row distance sweeps
    find the endpoints and their distance rows: from the deepest vertex a,
    whose farthest vertex is b, and from b.  The cuts are the edges whose
    subtree, the preorder positions start <= i < stop, holds exactly one
    of a and b; nonzero lists them in edge order.  The side holding a is
    served from b and the other side from a, so a cut's transport is
    sum_v w[v]*d(v, a) plus the sum of w*(d(., b) - d(., a)) over the side
    holding a, the subtree or the rest: prefix sums by preorder position
    give either.  f5 comes from cut_imbalance, as in the other tables,
    with the subtrees' z sums read off the same prefix buffer.  The table
    keeps the rows of a and b for its picks to recompute from.  Requires
    strictly positive edge lengths for the endpoint-optimality guarantee;
    with any zero-length edge it warns and builds the cubic table
    instead."""
    _needs_two_vertices(tree)
    if np.count_nonzero(tree.length == 0.0):
        warnings.warn(
            "zero-length edge: diameter-endpoint optimality is not "
            "guaranteed, falling back to the cubic method",
            RuntimeWarning, stacklevel=2)
        return cubic_cut_table(tree)
    a, b, da = _double_sweep(tree)
    db = distances(tree, b)[0]
    start = tree.below
    stop = tree.end.take(start)
    ia, ib = tree.tin[a], tree.tin[b]
    holds_a = (start <= ia) & (ia < stop)
    edges = np.flatnonzero(holds_a != ((start <= ib) & (ib < stop)))
    start, stop, holds_a = start.take(edges), stop.take(edges), holds_a.take(edges)
    # one prefix buffer by preorder position, of w*(db - da) and then of z
    pfx = np.zeros(tree.n + 1)
    ((db - da) * tree.w).take(tree.preorder).cumsum(out=pfx[1:])
    # the side holding a is the subtree or the rest, each summed between its
    # own prefix ends, so that two cuts with only zero weight between them
    # tie exactly
    before, after = pfx.take(start), pfx.take(stop)
    transport = np.where(holds_a, after - before, before + (pfx[-1] - after))
    transport += float(np.dot(tree.w, da))
    tree.z.take(tree.preorder).cumsum(out=pfx[1:])
    f5 = cut_imbalance(tree, pfx.take(stop) - pfx.take(start), edges)
    # x1, the end on side a (the side holding eu), serves side b
    x1 = np.where(holds_a == tree.a_below.take(edges), a, b)
    return CutTable("maxian", "linear", edges, transport, f5,
                    np.stack((x1, a + b - x1), axis=1) + 1, reach={a + 1: da, b + 1: db})


def solve_balanced_2maxian_cubic(cfg: SolverConfig, tree: WeightedTree) -> Solution:
    """Exact reference: the best cut of the cubic table.  Ties go to the
    smallest edge index, then the smallest facility pair."""
    return cubic_cut_table(tree).pick(cfg.lam, tree)


def solve_balanced_2maxian_linear(cfg: SolverConfig, tree: WeightedTree) -> Solution:
    """Diameter-endpoint heuristic: the best cut of the linear table (the
    cubic table, with a warning, when an edge has zero length)."""
    return linear_cut_table(tree).pick(cfg.lam, tree)
