"""Brute-force ground-truth solvers.

Everything here favors literal enumeration over cleverness: plain adjacency
lists, one walk for the all-pairs distance table and for each cut's sides,
and exhaustive facility loops.  brute_2median and brute_2maxian read one
enumeration of cuts, _cuts, and add only their own selection rule; they
share no code with the solvers they check.  Instance sizes are capped so
accidental use on large trees fails fast.
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


def _walk(adj, start: int, banned: int = -1):
    """Each step (vertex, the vertex it was reached from, the edge's length)
    of a walk from start that never crosses edge banned."""
    stack = [(start, -1)]
    while stack:
        x, par = stack.pop()
        for nb, ln, e in adj[x]:
            if nb != par and e != banned:
                yield nb, x, ln
                stack.append((nb, x))


def all_pairs_dist(tree: WeightedTree) -> np.ndarray:
    """Dense n x n distance table via one walk per source vertex."""
    adj = _adjacency(tree)
    D = np.zeros((tree.n, tree.n))
    for s in range(tree.n):
        row = D[s]
        for x, par, ln in _walk(adj, s):
            row[x] = row[par] + ln
    return D


def _cuts(tree: WeightedTree, cap: int):
    """Every edge deletion, in edge order, as (e, side_a, side_b, f5,
    cost_a, cost_b): side_a is the side holding eu[e] and side_b the other,
    both as sorted vertex lists, and cost_s[x] is side s's weighted distance
    sum to vertex x, for every vertex x.  The cap is checked before any
    other work."""
    if tree.n > cap:
        raise PreconditionError(
            f"instance with {tree.n} vertices exceeds the oracle cap {cap}")
    if tree.n < 2:
        raise PreconditionError("need at least 2 vertices")
    adj = _adjacency(tree)
    D = all_pairs_dist(tree)
    w = tree.w
    z = tree.z
    Z = float(z.sum())
    for e in range(tree.n - 1):
        u = int(tree.eu[e])
        side_a = sorted([u] + [x for x, _, _ in _walk(adj, u, e)])
        in_a = set(side_a)
        side_b = [v for v in range(tree.n) if v not in in_a]
        za = float(sum(z[v] for v in side_a))
        # side b first, so numpy's overflow warnings follow brute_2maxian's
        # pair matrix: its rows, then its columns
        cost_b, cost_a = ([float(sum(w[v] * D[v, x] for v in side)) for x in range(tree.n)]
                          for side in (side_b, side_a))
        yield e, side_a, side_b, abs(za - (Z - za)), cost_a, cost_b


def brute_2median(cfg: SolverConfig, tree: WeightedTree,
                  cap: int = DEFAULT_CAP) -> Solution:
    """Exact optimum of the balanced 2-median objective by enumerating every
    edge and every facility vertex inside each side; the smallest id wins
    among a side's ties, the smallest edge index among the cuts'."""
    best = None
    for e, side_a, side_b, f5, cost_a, cost_b in _cuts(tree, cap):
        m1 = min(side_a, key=cost_a.__getitem__)
        m2 = min(side_b, key=cost_b.__getitem__)
        f1 = cost_a[m1] + cost_b[m2]
        obj = cfg.lam * f1 + (1.0 - cfg.lam) * f5
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
    best = None
    for e, _, _, f5, cost_a, cost_b in _cuts(tree, cap):
        P = np.array(cost_b)[:, None] + np.array(cost_a)[None, :]
        np.fill_diagonal(P, -np.inf)
        x1, x2 = divmod(int(np.argmax(P)), tree.n)
        f2 = float(P[x1, x2])
        obj = cfg.lam * f2 - (1.0 - cfg.lam) * f5
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
