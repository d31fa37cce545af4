"""Balanced 2-median solver: enumerate edge deletions, solve a 1-median on
each side from scratch, and pick the cut that scalarizes best with the
balance term."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import PreconditionError
from .objectives import CutTable, SolverConfig
from .tree import Sweep, WeightedTree, _sweep


@dataclass(frozen=True, eq=False)
class MedianSolution:
    """deleted_edge is the 0-based input edge index, edge_uv its 1-based
    endpoints.  medians = (m1, m2): m1 serves the side containing the
    smaller endpoint and is a 1-median of it.  objective = lam*f1 +
    (1-lam)*f5."""

    deleted_edge: int
    edge_uv: tuple[int, int]
    medians: tuple[int, int]
    f1: float
    f5: float
    objective: float


def _subtree_sums(values: np.ndarray, s: Sweep) -> np.ndarray:
    """Accumulate values over the traversal subtree below each visited
    vertex, level by level from the deepest up (parents sit exactly one
    level above their children)."""
    sub = np.asarray(values, dtype=np.float64).copy()
    bounds = np.cumsum(s.levels)
    for k in range(s.levels.size - 1, 0, -1):
        chunk = s.order[bounds[k - 1]:bounds[k]]
        np.add.at(sub, s.parent[chunk], sub[chunk])
    return sub


def _one_median_swept(tree: WeightedTree, s: Sweep) -> tuple[int, float]:
    """1-median of the vertex set visited by sweep s (0-based result).

    Weight-majority walk: descend from the root into a child whose subtree
    carries a strict majority of the side's weight; the stopping vertex
    minimizes the weighted distance sum.  The cost is maintained
    incrementally (moving across an edge of length L toward mass B changes
    it by (W - 2B)*L).  Ties, including those created by zero-length edges
    or an exact half split, are collected by flooding over zero-delta edges
    and resolved to the smallest id.
    """
    order = s.order
    root = int(order[0])
    subw = _subtree_sums(tree.w, s)
    Ws = float(subw[root])
    cost = float(np.dot(tree.w[order], s.dist[order]))
    ptr, nbr, eidx, length = tree._ptr, tree._nbr, tree._eidx, tree.length
    v = root
    while True:
        sl = slice(ptr[v], ptr[v + 1])
        cand = nbr[sl]
        kid_mask = s.parent[cand] == v
        kids = cand[kid_mask]
        if kids.size == 0:
            break
        i = int(np.argmax(subw[kids]))
        c = int(kids[i])
        if 2.0 * subw[c] > Ws:
            ke = eidx[sl][kid_mask][i]
            cost += (Ws - 2.0 * subw[c]) * float(length[ke])
            v = c
        else:
            break
    # flood across edges whose crossing delta is zero; the argmin set of a
    # convex tree function is connected, so this finds every tied vertex
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for sl_i in range(int(ptr[x]), int(ptr[x + 1])):
            nb = int(nbr[sl_i])
            if nb in seen or not np.isfinite(s.dist[nb]):
                continue
            if s.parent[nb] == x:
                mass = subw[nb]
            else:
                mass = Ws - subw[x]
            if (Ws - 2.0 * mass) * float(length[eidx[sl_i]]) == 0.0:
                seen.add(nb)
                stack.append(nb)
    return min(seen), cost


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
    s = _sweep(tree, ids[:1], allow=mask)
    if s.order.size != ids.size:
        raise PreconditionError("side does not induce a connected subtree")
    v, cost = _one_median_swept(tree, s)
    return v + 1, cost


def median_cut_table(tree: WeightedTree) -> CutTable:
    """Every edge deletion with a fresh 1-median on each side: f1 is the sum
    of the two sides' 1-median costs.  O(n) work per edge, O(n^2) total."""
    if tree.n < 2:
        raise PreconditionError("balanced 2-median needs at least 2 vertices")
    Z = float(tree.z.sum())
    rows = []
    for e in range(tree.n - 1):
        sa = _sweep(tree, tree.eu[e:e + 1], block_edge=e)
        sb = _sweep(tree, tree.ev[e:e + 1], block_edge=e)
        m1, c1 = _one_median_swept(tree, sa)
        m2, c2 = _one_median_swept(tree, sb)
        za = float(tree.z[sa.order].sum())
        rows.append((c1 + c2, abs(za - (Z - za)), m1 + 1, m2 + 1))
    return CutTable.per_edge(rows, "edge-deletion")


def median_solution(table: CutTable, lam: float, tree: WeightedTree) -> MedianSolution:
    """The best cut of a median table at lam."""
    e, medians, f1, f5, obj = table.best(lam, "median")
    return MedianSolution(e, tree.edge_tuple(e), medians, f1, f5, obj)


def solve_balanced_2median(cfg: SolverConfig, tree: WeightedTree) -> MedianSolution:
    """Try every edge deletion; on each side solve a fresh 1-median; return
    the bipartition minimizing lam*f1 + (1-lam)*f5.  Ties go to the
    smallest edge index (per-side medians are already deterministic)."""
    return median_solution(median_cut_table(tree), cfg.lam, tree)
