"""Brute-force ground-truth solvers.

Everything here favors literal enumeration over cleverness: plain adjacency
lists, an explicit all-pairs distance table, and exhaustive facility loops.
Instance sizes are capped so accidental use on large trees fails fast.
The one exception is blocked_median_table, the uncapped O(n^2) per-edge
median table that the O(n log n) median_cut_table is tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .median import _one_median_swept
from .objectives import CutTable, Solution, SolverConfig, cut_imbalance
from .tree import CompressedPath, WeightedTree, cut_blocks, dist_sums

DEFAULT_CAP = 16


def _adjacency(tree: WeightedTree) -> list[list[tuple[int, float, int]]]:
    adj: list[list[tuple[int, float, int]]] = [[] for _ in range(tree.n)]
    for e in range(tree.n - 1):
        u, v, ln = int(tree.eu[e]), int(tree.ev[e]), float(tree.length[e])
        adj[u].append((v, ln, e))
        adj[v].append((u, ln, e))
    return adj


def all_pairs_dist(tree: WeightedTree) -> np.ndarray:
    """Dense n x n distance table via one traversal per source vertex."""
    adj = _adjacency(tree)
    D = np.zeros((tree.n, tree.n))
    for s in range(tree.n):
        row = D[s]
        stack = [(s, -1)]
        while stack:
            x, par = stack.pop()
            for nb, ln, _ in adj[x]:
                if nb != par:
                    row[nb] = row[x] + ln
                    stack.append((nb, x))
    return D


def _component(adj, start: int, banned_edge: int) -> list[int]:
    """Vertices reachable from start without crossing banned_edge, sorted."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for nb, _, e in adj[x]:
            if e != banned_edge and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return sorted(seen)


def _check_cap(tree: WeightedTree, cap: int):
    if tree.n > cap:
        raise PreconditionError(
            f"instance with {tree.n} vertices exceeds the oracle cap {cap}")
    if tree.n < 2:
        raise PreconditionError("need at least 2 vertices")


def brute_2median(cfg: SolverConfig, tree: WeightedTree,
                  cap: int = DEFAULT_CAP) -> Solution:
    """Exact optimum of the balanced 2-median objective by enumerating every
    edge and every facility vertex inside each side."""
    _check_cap(tree, cap)
    lam = cfg.lam
    adj = _adjacency(tree)
    D = all_pairs_dist(tree)
    w = tree.w
    z = tree.z
    Z = float(z.sum())
    best = None
    for e in range(tree.n - 1):
        side_a = _component(adj, int(tree.eu[e]), e)
        in_a = set(side_a)
        side_b = [v for v in range(tree.n) if v not in in_a]
        za = float(sum(z[v] for v in side_a))
        f5 = abs(za - (Z - za))

        def side_median(side):
            bv, bc = None, None
            for fac in side:
                c = float(sum(w[v] * D[v, fac] for v in side))
                if bc is None or c < bc:
                    bv, bc = fac, c
            return bv, bc

        m1, c1 = side_median(side_a)
        m2, c2 = side_median(side_b)
        f1 = c1 + c2
        obj = lam * f1 + (1.0 - lam) * f5
        if best is None or obj < best[0]:
            best = (obj, e, m1 + 1, m2 + 1, f1, f5)
    obj, e, m1, m2, f1, f5 = best
    return Solution("median", "brute", e, tree.edge_tuple(e), (m1, m2), f1, f5, obj)


def blocked_median_table(tree: WeightedTree) -> CutTable:
    """The O(n^2) test oracle of median_cut_table: every edge deletion with
    each side's 1-median from _one_median_swept over the side's mask, and
    f1 from the side's distance sums at it, O(n) numpy work per edge, a
    block of edges per call.  Uncapped, unlike the brute-force solvers."""
    if tree.n < 2:
        raise PreconditionError("balanced 2-median needs at least 2 vertices")
    S_all, sub_all = dist_sums(tree, tree.w[tree.preorder][None])
    f1 = np.empty(tree.n - 1)
    medians = np.empty((tree.n - 1, 2), dtype=np.int64)
    for edges, in_a, w_a in cut_blocks(tree):
        S, sub = dist_sums(tree, w_a)
        m1 = _one_median_swept(tree, in_a, sub)
        m2 = _one_median_swept(tree, ~in_a, sub_all - sub)
        rows, x1, x2 = np.arange(edges.size), tree.tin[m1], tree.tin[m2]
        f1[edges] = S[rows, x1] + (S_all[0, x2] - S[rows, x2])
        medians[edges, 0], medians[edges, 1] = m1, m2
    medians += 1
    return CutTable("median", "edge-deletion", np.arange(tree.n - 1), f1,
                    cut_imbalance(tree), medians)


def brute_2maxian(cfg: SolverConfig, tree: WeightedTree,
                  cap: int = DEFAULT_CAP) -> Solution:
    """Exact optimum of the balanced 2-maxian objective by enumerating every
    edge and every ordered facility pair under masked weights (x1 scores the
    larger-endpoint side, x2 the other; x1 != x2).  The flat argmax over the
    pair matrix takes the first maximum, i.e. the lexicographically smallest
    maximizing pair."""
    _check_cap(tree, cap)
    lam = cfg.lam
    n = tree.n
    adj = _adjacency(tree)
    D = all_pairs_dist(tree)
    w = tree.w
    z = tree.z
    Z = float(z.sum())
    best = None
    for e in range(n - 1):
        side_a = _component(adj, int(tree.eu[e]), e)
        in_a = set(side_a)
        side_b = [v for v in range(n) if v not in in_a]
        za = float(sum(z[v] for v in side_a))
        f5 = abs(za - (Z - za))
        A = np.array([float(sum(w[v] * D[v, x] for v in side_b)) for x in range(n)])
        B = np.array([float(sum(w[v] * D[v, x] for v in side_a)) for x in range(n)])
        P = A[:, None] + B[None, :]
        np.fill_diagonal(P, -np.inf)
        flat = int(np.argmax(P))
        x1, x2 = divmod(flat, n)
        f2 = float(P[x1, x2])
        obj = lam * f2 - (1.0 - lam) * f5
        if best is None or obj > best[0]:
            best = (obj, e, x1 + 1, x2 + 1, f2, f5)
    obj, e, x1, x2, f2, f5 = best
    return Solution("maxian", "brute", e, tree.edge_tuple(e), (x1, x2), f2, f5, obj)


def brute_path_fpmax(cfg: SolverConfig, cp: CompressedPath) -> list[tuple[int, float]]:
    """Objective of every path-edge deletion with endpoint facilities,
    evaluated edge by edge with explicit sums (no recurrence)."""
    m = cp.base.m
    if m < 2:
        raise PreconditionError("path has no edges to delete")
    lam = cfg.lam
    p = [float(x) for x in cp.base.prefix]
    L = p[-1]
    wh = [float(x) for x in cp.w_hat]
    zh = [float(x) for x in cp.z_hat]
    C = cp.hang_offset
    Z = float(sum(zh))
    out = []
    for j0 in range(m - 1):
        tc = sum(wh[i] * (L - p[i]) for i in range(j0 + 1)) \
            + sum(wh[i] * p[i] for i in range(j0 + 1, m))
        sz = float(sum(zh[i] for i in range(j0 + 1)))
        f5 = abs(sz - (Z - sz))
        out.append((int(cp.base.edges[j0]), lam * (tc + C) - (1.0 - lam) * f5))
    return out
