"""Balanced 2-median solver: enumerate edge deletions, find a 1-median on
each side, and pick the cut that scalarizes best with the balance term."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import PreconditionError
from .objectives import CutTable, Solution, SolverConfig, cut_imbalance
from .tree import WeightedTree, cut_blocks, dist_sums, root_path_sums, subtree_sums


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
    the two sides' 1-median costs.  O(n log n) work, bound by its sorts, in
    a fixed number of numpy passes; only cuts that fall back (see Ties)
    cost O(n) numpy work each.

    Below, positions are preorder positions, W is subtree weight and v the
    position below the deleted edge, so the sides are v's subtree T_v and
    the rest.  A side's deepest vertex holding more than half of the side's
    weight below it is a 1-median (Goldman 1971), and the walk down to it
    follows heavy children, those of largest W, so it ends on one heavy
    chain (Sleator & Tarjan 1983).  For T_v the walk starts at v.  For the
    rest it runs down v's ancestors to a, the deepest one whose part of the
    rest still holds its majority, all of them on the root's chain; it then
    turns at most once, into a's heaviest child c not toward v, and follows
    c's chain.  The chains are laid out contiguously, each from top to
    bottom, under a key that does not decrease along the layout and ranks
    W exactly, so one searchsorted ends every walk.

    Costs come from prefix sums at the walk's ends x and y: with SubDep the
    subtree sums of w * depth and R the root-path sums of W * parent edge
    length, T_v's cost at x is SubDep(v) + W(v)*dep(x) - 2*(W(v)*dep(v) +
    R(x) - R(v)), and the rest's at y, with lca(v, y) = a, is the whole
    tree's distance sum at y minus (SubDep(v) + W(v)*(dep(y) - 2*dep(a))).

    Ties: a side's argmin set is the walk's end together with every vertex
    it reaches by flat edges, those of zero length or with exactly half of
    the side's weight on each part.  With positive weights and lengths that
    is the end and at most one neighbour across a half split, and the
    median is the smaller id of the two.  A cut whose walk ends or their
    neighbours have zero weight or touch a zero-length edge takes its
    medians from _one_median_swept instead, on those cuts only."""
    n = tree.n
    if n < 2:
        raise PreconditionError("balanced 2-median needs at least 2 vertices")
    up, end, pdep, order = tree.up, tree.end, tree.pdep, tree.preorder
    wp = tree.w.take(order)
    sums = np.empty((3, n))
    np.multiply(wp, pdep, out=sums[0])
    sums[1] = wp
    tree.z.take(order, out=sums[2])
    SubDep, W, z_sub = subtree_sums(tree, sums)
    del sums
    total = W[0]
    # twice W, with -2 at n, the index of a child that does not exist: no
    # test of half or more of a side's weight holds there
    W2 = np.empty(n + 1)
    np.multiply(W, 2.0, out=W2[:n])
    W2[n] = -2.0
    # 2*W(j) > T, that is W(j) > T / 2, holds exactly when #{W <= W(j)} >
    # #{W <= T / 2}.  Counts for W(j), W(j) / 2 and (total - W(j)) / 2, for
    # every j; ascending queries keep the reads of searchsorted local
    by_W = W.argsort()
    sorted_W = W.take(by_W)
    queries = np.empty((3, n))
    queries[0] = sorted_W
    np.multiply(sorted_W, 0.5, out=queries[1])
    np.subtract(total, sorted_W[::-1], out=queries[2])
    queries[2] *= 0.5
    found = sorted_W.searchsorted(queries, "right")
    del queries
    counts = np.empty((3, n), dtype=np.int64)
    counts[:2, by_W] = found[:2]
    counts[2, by_W[::-1]] = found[2]
    del by_W, sorted_W, found
    rank = counts[0]

    # heavy and second-heaviest children, n where there is none
    kids = (up[1:] * (n + 1) - rank[1:]).argsort(kind="stable") + 1
    par = up.take(kids)
    first = np.empty(n - 1, dtype=bool)
    first[0] = True
    np.not_equal(par[1:], par[:-1], out=first[1:])
    after = np.zeros(n - 1, dtype=bool)
    np.greater(first[:-1], first[1:], out=after[1:])
    heavy, second = children = np.empty((2, n + 1), dtype=np.int64)
    children.fill(n)
    top = kids[first]
    heavy[par[first]] = top
    second[par[after]] = kids[after]
    del kids, par, first, after

    # the majority positions: the root and every position holding more than
    # half of all weight, which form the top of the root's chain
    in_majority = W2[:n] > total
    in_majority[0] = True
    majority = in_majority.nonzero()[0]
    # root-path sums of W * plen (R), of chain heads, and of majority
    # positions below the root
    paths = np.empty((3, n))
    np.multiply(W, tree.plen, out=paths[0])
    head = np.empty(n, dtype=bool)
    head.fill(True)
    head[top] = False
    paths[1] = head
    paths[2] = in_majority
    paths[2, 0] = 0.0
    R, heads, above = root_path_sums(tree, paths)
    del paths

    # the chains laid out contiguously, each from top to bottom, under a key
    # chain * (n + 1) - #{W <= W(j)} that does not decrease along the layout
    layout = heads.argsort(kind="stable")
    place = np.empty(n, dtype=np.int64)
    place[layout] = np.arange(n)
    chain = head.take(layout).cumsum()
    chain *= n + 1
    key = chain - rank.take(layout)
    del heads, rank

    v = np.arange(1, n)
    Wv = W[1:]
    side = np.empty((2, n - 1))
    side[0] = Wv
    np.subtract(total, Wv, out=side[1])
    rest = side[1]
    over = total + Wv
    # rows of walk ends and their flat neighbours: px, py, x, y, a
    ends = np.empty((5, n - 1), dtype=np.int64)
    # a: the deepest proper ancestor of v whose part of the rest holds its
    # majority, 2*W(a) > total + W(v), on the majority positions (the root
    # when none below it does)
    k = (-W2.take(majority[1:])).searchsorted(-over)
    np.minimum(k, above.astype(np.int64).take(up[1:]), out=k)
    a = majority.take(k, out=ends[4])
    # the walk turns into c, a's heaviest child not toward v, if c holds the
    # majority of the rest
    ha = heavy.take(a)
    toward = ha <= v
    toward &= v < end.take(ha)
    c = np.where(toward, second.take(a), ha)
    c_twice = W2.take(c)
    turn = c_twice > rest
    stay = ~turn
    # each walk's end: the deepest position of its chain with 2*W > T, at or
    # below its start, v for T_v and c for the rest
    start = np.empty((2, n - 1), dtype=np.int64)
    start[0] = place[1:]
    place.take(np.where(turn, c, 0), out=start[1])
    query = chain.take(start)
    query -= counts[1:, 1:]
    del counts
    at = key.searchsorted(query)
    at -= 1
    np.maximum(at, start, out=at)
    layout.take(at, out=ends[2:4])
    np.copyto(ends[3], a, where=stay)
    del layout, place, chain, key, start, query, at

    # the flat neighbour is a half-weight heavy child of the end; where the
    # walk stays at a, it is c, or the child toward v, if half of the rest
    # lies beyond it
    h = heavy.take(ends[2:4])
    np.copyto(ends[:2], ends[2:4])
    np.copyto(ends[:2], h, where=W2.take(h) == side)
    at_a = np.where(c_twice == rest, c, a)
    toward &= W2.take(ha) == over
    np.copyto(at_a, ha, where=toward)
    np.copyto(ends[1], at_a, where=stay)
    del h, at_a, c, c_twice, ha, toward, k
    ids = order.take(ends[:4])
    med = np.minimum(ids[:2], ids[2:])
    del ids

    # T_v's cost at x plus the rest's at y, in which SubDep(v) cancels
    pd_x, pd_y, pd_a = pdep.take(ends[2:])
    R_x, R_y = R.take(ends[2:4])
    f1 = pd_a - pdep[1:]
    f1 *= 2.0
    f1 += pd_x - pd_y
    f1 *= Wv
    f1 += SubDep[0] + total * pd_y - 2.0 * (R_x + R_y - R[1:])
    del pd_x, pd_y, pd_a, R_x, R_y
    row = tree.tin.take(tree.low) - 1
    f1 = f1.take(row)
    picked = med.take(row, axis=1)
    medians = np.where(tree.low != tree.eu, picked[::-1], picked).T

    # cuts whose walk ends or flat neighbours have zero weight or touch a
    # zero-length edge
    zero_len = tree.plen == 0.0
    zero_len[0] = False
    unsafe = wp == 0.0
    unsafe |= zero_len
    unsafe[up[zero_len]] = True
    if unsafe.any():
        redo = unsafe.take(ends[:4]).any(axis=0).take(row).nonzero()[0]
        for edges, in_a, w_a in cut_blocks(tree, redo):
            sub = subtree_sums(tree, w_a)
            medians[edges, 0] = _one_median_swept(tree, in_a, sub)
            medians[edges, 1] = _one_median_swept(tree, ~in_a, W - sub)
    medians += 1
    return CutTable("median", "edge-deletion", np.arange(n - 1), f1,
                    cut_imbalance(tree, z_sub), medians)


def solve_balanced_2median(cfg: SolverConfig, tree: WeightedTree) -> Solution:
    """Try every edge deletion; on each side solve a fresh 1-median; return
    the bipartition minimizing lam*f1 + (1-lam)*f5.  Ties go to the
    smallest edge index (per-side medians are already deterministic)."""
    return median_cut_table(tree).pick(cfg.lam, tree)
