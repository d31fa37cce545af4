"""Weighted tree structure, parsing, and path/partition utilities.

Conventions used across the package:

* Vertex ids are 1-based in files, public tuples, and reported solutions.
* Everything stored in numpy arrays is 0-indexed.
* Edge indices refer to input order and are 0-based; stored endpoints are
  normalized so eu[e] < ev[e].

WeightedTree caches one traversal rooted at vertex 0, built in numpy
passes of O(n) work whatever the depth: an Euler tour whose arcs a 16-bit
radix sort groups by tail, ranked through a ruling set (plain pointer
jumping below 2^14 arcs), which also decides connectivity.  Three
primitives over preorder positions then replace every walk: subtree sums
(prefix-sum differences), root-path sums, and dist_sums, sum_v w[v] *
d(v, x) for every x and every row of a block of weight rows.  Construction
is O(n) work (O(n log n) at worst, see _list_positions); a cut, a distance
array or a distance sum is then O(n) numpy work at any depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .errors import PreconditionError, TreeParseError

# elements per (rows, n) block of the cut tables: rows = _BLOCK // n edges
_BLOCK = 1 << 14
# lines per block of the text reader and writer
_IO_ROWS = 4096


@dataclass(frozen=True, eq=False)
class WeightedTree:
    """Tree with per-edge lengths and per-vertex demand weight w and service
    time t.  The balance quantity z = w*t is derived on construction, along
    with the traversal rooted at vertex 0.  By preorder position i: the
    vertex preorder[i], its subtree's positions i <= j < end[i], its depth
    pdep[i], its parent edge's length plen[i] and its parent's position
    up[i] (n, 0, 0 and 0 at the root).  By vertex v: tin[v], v's position.
    By edge e: low[e], the endpoint below e, whose parent edge it is.  All
    arrays are frozen read-only.
    """

    n: int
    eu: np.ndarray
    ev: np.ndarray
    length: np.ndarray
    w: np.ndarray
    t: np.ndarray
    z: np.ndarray = field(init=False, repr=False)
    preorder: np.ndarray = field(init=False, repr=False)
    end: np.ndarray = field(init=False, repr=False)
    pdep: np.ndarray = field(init=False, repr=False)
    plen: np.ndarray = field(init=False, repr=False)
    up: np.ndarray = field(init=False, repr=False)
    low: np.ndarray = field(init=False, repr=False)
    tin: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise PreconditionError(f"tree needs at least 1 vertex, got {n}")
        eu, ev = _endpoints(self.eu), _endpoints(self.ev)
        length = np.asarray(self.length, dtype=np.float64)
        w = np.asarray(self.w, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64)
        if eu.shape != (n - 1,) or ev.shape != (n - 1,):
            raise PreconditionError(
                f"expected {n - 1} edges for {n} vertices, got {eu.size}")
        if length.shape != (n - 1,):
            raise PreconditionError("length array must have one entry per edge")
        if w.shape != (n,) or t.shape != (n,):
            raise PreconditionError("w and t arrays must have one entry per vertex")
        lo = np.minimum(eu, ev)
        hi = np.maximum(eu, ev)
        if lo.size and (lo.min() < 0 or hi.max() >= n):
            raise TreeParseError("edge endpoint out of range")
        if np.count_nonzero(lo == hi):
            raise TreeParseError("self-loop edge")
        # one pass over every value, with no sum that could overflow (a NaN
        # fails the first test), freed before the traversal; only a fault
        # runs the loop that names it
        vals = np.concatenate((length, w, t))
        fault = None
        if not (vals.min() >= 0.0 and vals.max() < np.inf):
            for name, arr in (("length", length), ("w", w), ("t", t)):
                if not np.isfinite(arr).all():
                    fault = f"non-finite {name} value"
                elif arr.size and arr.min() < 0:
                    fault = f"negative {name} value"
                if fault:
                    break
        del vals
        traversal = None if fault else _rooted_traversal(n, lo, hi, length)
        if traversal is None:
            # n - 1 edges with a duplicate cannot connect n vertices, so the
            # duplicate test runs only here, and is named before any other fault
            key = lo * n + hi
            if np.unique(key).size != key.size:
                raise TreeParseError("duplicate edge")
            raise TreeParseError(fault or "edge list does not connect all vertices")
        arrays = dict(eu=lo, ev=hi, length=length, w=w, t=t, z=w * t, **traversal)
        for name, arr in arrays.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def Z(self) -> float:
        return float(self.z.sum())

    @property
    def deg(self) -> np.ndarray:
        return np.bincount(np.concatenate([self.eu, self.ev]), minlength=self.n)

    def edge_tuple(self, e: int) -> tuple[int, int]:
        """1-based (u, v) endpoints of edge index e, u < v."""
        return int(self.eu[e]) + 1, int(self.ev[e]) + 1


def _endpoints(col) -> np.ndarray:
    """col as int64 edge endpoints.  An integer array passes as it is; a
    float, complex or object one must hold integers only, checked before
    the cast that would truncate 0.7 to 0.  A bool, non-finite or
    fractional value raises TreeParseError, and so does one too large for
    int64."""
    arr = np.asarray(col)
    if arr.dtype.kind == "O":       # Python numbers: typed by their values
        arr = np.asarray(arr.tolist())
    kind = arr.dtype.kind
    if kind == "b":
        raise TreeParseError("boolean edge endpoint")
    if kind in "fc":
        if not np.isfinite(arr).all():
            raise TreeParseError("non-finite edge endpoint")
        if kind == "c" and arr.imag.any():
            raise TreeParseError("non-integer edge endpoint")
        arr = arr.real
        if (np.trunc(arr) != arr).any():
            raise TreeParseError("non-integer edge endpoint")
        if arr.size and np.abs(arr).max() >= 2.0 ** 63:
            raise TreeParseError("edge endpoint out of range")
    return arr if arr.dtype == np.int64 else arr.astype(np.int64)


def _rooted_traversal(n: int, lo: np.ndarray, hi: np.ndarray,
                      length: np.ndarray) -> dict | None:
    """The traversal arrays rooted at vertex 0, or None when the edges do not
    connect all vertices.  Arc k < n-1 runs lo[k] -> hi[k], arc k + n-1
    back; slots group arcs by tail, in edge order, and the tour leaves a
    vertex by the slot after the reverse of the arc it came in by.  Cut
    before vertex 0's first slot, a tree's tour is one list through all
    arcs, which _list_positions ranks; any other edge set leaves an arc off
    it or a vertex without arcs.  The tour's down steps, in order, are
    preorder positions 1..n-1.  Every pass is O(n) work."""
    if n == 1:
        return dict(preorder=np.zeros(1, dtype=np.int64), tin=np.zeros(1, dtype=np.int64),
                    end=np.ones(1, dtype=np.int64), pdep=np.zeros(1), plen=np.zeros(1),
                    up=np.zeros(1, dtype=np.int64), low=np.zeros(0, dtype=np.int64))
    i32 = np.int32
    e = n - 1
    m = 2 * e
    ends = np.concatenate((lo, hi, lo), dtype=i32)          # arc k: ends[k] -> ends[k + e]
    deg = np.bincount(ends[:m], minlength=n)
    if np.count_nonzero(deg) < n:
        return None
    arc = _group_by_tail(ends[:m], n)                       # slot -> arc
    seq = np.arange(m, dtype=i32)
    slot = np.empty(m, dtype=i32)                           # arc -> slot
    slot[arc] = seq
    rev = np.concatenate((slot[e:], slot[:e])).take(arc)    # slot of the reverse arc
    del slot
    cnt = deg.cumsum()
    succ = seq + 1                                          # the next slot around its tail
    succ[cnt - 1] = cnt - deg
    pos = _list_positions(succ.take(rev))                   # slot -> tour position
    if pos is None:
        return None
    del succ, deg, cnt
    tour = np.empty(m, dtype=i32)                           # tour position -> slot
    tour[pos] = seq
    back = pos.take(rev)                                    # each slot's reverse, by position
    del rev, pos
    # one index of the down steps: their tour positions, in order
    dn = (back.take(tour) > seq).nonzero()[0]
    ds = tour.take(dn)
    rise = back.take(ds)                                    # and each one's step back up
    del tour, back
    a = arc.take(ds)
    del arc, ds
    preorder = np.zeros(n, dtype=np.int64)
    preorder[1:] = ends[e:].take(a)
    up = np.zeros(n, dtype=np.int64)
    up[1:] = ends.take(a)                                   # parents, made positions below
    edge = np.subtract(a, e, out=a, where=a >= e)
    plen = np.zeros(n)
    plen[1:] = length.take(edge)
    # depths sum the tour's steps, negated on the way up, in tour order
    step = np.empty(m)
    step[dn] = plen[1:]
    step[rise] = -plen[1:]
    pdep = np.zeros(n)
    pdep[1:] = step.cumsum(out=step).take(dn)
    del step
    low = np.empty(e, dtype=np.int64)
    low[edge] = preorder[1:]
    tin = np.empty(n, dtype=np.int64)
    at = seq[:n]
    tin[preorder] = at
    up = tin.take(up)
    # a subtree's steps lie between its step down and its step back up
    end = np.empty(n, dtype=np.int64)
    end[0] = n
    np.add(at[1:], (rise - dn + 1) >> 1, out=end[1:])
    return dict(preorder=preorder, tin=tin, end=end, pdep=pdep, plen=plen, up=up, low=low)


def _group_by_tail(tail: np.ndarray, n: int) -> np.ndarray:
    """The stable order of tail (values below n), as int32: numpy's stable
    sort of 16-bit keys is a radix sort, one pass when n <= 2^16, else two,
    low half first."""
    order = tail.astype(np.uint16).argsort(kind="stable")
    if n > 1 << 16:
        order = order.take((tail >> 16).astype(np.uint16).take(order).argsort(kind="stable"))
    return order.astype(np.int32)


# a list of m >= _RULE_MIN elements is ranked through a ruling set of about
# one element in m.bit_length() - 12 (3 at the crossover, 9 at m = 2e6); a
# shorter list takes every element as a splitter, as there the walk's fixed
# cost per step would outweigh the passes it saves
_RULE_MIN = 1 << 14


def _list_positions(succ: np.ndarray, k: int | None = None) -> np.ndarray | None:
    """Each element's position on the list that starts at element 0 and
    follows the permutation succ, cut where it returns to 0; None when the
    list leaves an element off.  A ruling set: about one element in k is a
    splitter, picked by a fixed hash of its index (0 always is).  All
    splitters walk in step to the next one, and each element they pass
    notes the splitter that reached it and after how many steps; a splitter
    notes the same of the walk that ends on it.  Pointer jumping over those
    links places the splitters, in ceil(log2(splitters)) passes, and each
    element lands its steps after its own splitter: O(m) work for k about
    log2 m.  With k = 1 there is no walk, which is plain pointer jumping.
    A walk that exceeds its cap of k * bit_length(m) steps, which takes a
    list built against the hash, starts the ranking over with k = 1, so no
    list costs more than O(m log m)."""
    i32 = np.int32
    m = succ.size
    if k is None:
        k = m.bit_length() - 12 if m >= _RULE_MIN else 1
    own = np.empty(m, dtype=i32)                            # the splitter that reached it
    off = np.ones(m, dtype=i32)                             # and after how many steps
    if k == 1:
        own[succ] = np.arange(m, dtype=i32)
    else:
        spl = np.arange(m, dtype=np.uint32)
        spl *= np.uint32(0x9E3779B1)                        # Fibonacci hashing, mod 2^32
        spl = np.flatnonzero(spl < (1 << 32) // k).astype(i32)     # 0 hashes to 0
        free = np.ones(m, dtype=bool)
        free[spl] = False
        who = np.arange(spl.size, dtype=i32)
        cur = succ.take(spl)
        own[cur] = who
        reached = cur.size
        cap = k * m.bit_length()
        for step in range(2, cap + 2):
            go = np.flatnonzero(free.take(cur))
            if not go.size:
                break
            if step > cap:
                return _list_positions(succ, 1)
            cur = succ.take(cur.take(go))
            who = who.take(go)
            own[cur] = who
            off[cur] = step
            reached += cur.size
        if reached < m:             # a cycle without a splitter
            return None
        del free, cur, who
    own[0] = off[0] = 0         # the head has no predecessor: every chain ends there
    up, place = (own, off) if k == 1 else (own.take(spl), off.take(spl))
    for _ in range((up.size - 1).bit_length()):     # take gathers an int32 index faster than []
        place += place.take(up)
        up = up.take(up)
    if np.count_nonzero(up):
        return None
    return place if k == 1 else place.take(own) + off


def subtree_sums(tree: WeightedTree, vals: np.ndarray) -> np.ndarray:
    """Sum of vals over each position's subtree; vals holds preorder
    positions on its last axis."""
    pfx = np.zeros(vals.shape[:-1] + (tree.n + 1,))
    vals.cumsum(axis=-1, out=pfx[..., 1:])
    sub = pfx.take(tree.end, axis=-1)         # faster than [..., end] for few rows
    return np.subtract(sub, pfx[..., :-1], out=sub)


def root_path_sums(tree: WeightedTree, vals: np.ndarray) -> np.ndarray:
    """Sum of vals over each position and its ancestors: a prefix sum in
    which each subtree's values leave again at its end position."""
    n = tree.n
    rows = vals.reshape(-1, n)
    size = rows.size + rows.shape[0]
    ends = np.add.outer(np.arange(0, size, n + 1), tree.end).ravel()
    left = np.bincount(ends, rows.ravel(), size).reshape(-1, n + 1)[:, :n]
    np.subtract(rows, left, out=left)
    return left.cumsum(axis=-1, out=left).reshape(vals.shape)


def dist_sums(tree: WeightedTree, wm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S[j, x] = sum_v wm[j, v] * d(v, x) for (k, n) weight rows in preorder
    positions, and the rows' subtree sums: with d = pdep[v] + pdep[x] -
    2*pdep[lca], sum_v wm[v]*pdep[lca] is a root-path sum of sub * plen."""
    sub = subtree_sums(tree, wm)
    S = root_path_sums(tree, sub * tree.plen)
    S *= -2.0
    S += sub[:, :1] * tree.pdep
    S += (wm @ tree.pdep)[:, None]
    return S, sub


def distances(tree: WeightedTree, sources) -> np.ndarray:
    """(k, n) distances from each 0-based source to every vertex, by vertex
    id: dist_sums of one-hot rows."""
    hot = tree.tin[sources].reshape(-1, 1) == np.arange(tree.n)
    S, _ = dist_sums(tree, hot.astype(np.float64))
    return S.take(tree.tin, axis=-1)


def cut_blocks(tree: WeightedTree, edges: np.ndarray | None = None
               ) -> Iterator[tuple[np.ndarray, ...]]:
    """The deletions of edges (default: every edge) in blocks of about
    _BLOCK elements: (edges, in_a, w_a), where row j masks edges[j]'s side
    holding eu in preorder positions and w_a holds that side's weights
    there, 0 elsewhere (the other side's are the whole tree's minus these)."""
    n = tree.n
    edges = np.arange(n - 1) if edges is None else edges
    start = tree.tin[tree.low[edges]]
    stop = tree.end[start]
    flip = (tree.low[edges] != tree.eu[edges])[:, None]
    w = tree.w[tree.preorder]
    pos = np.arange(n)
    k = max(1, _BLOCK // n)
    for s in range(0, edges.size, k):
        rows = slice(s, s + k)
        in_a = ((pos >= start[rows, None]) & (pos < stop[rows, None])) ^ flip[rows]
        yield edges[rows], in_a, np.where(in_a, w, 0.0)


def dist(tree: WeightedTree, a: int, b: int) -> float:
    """Unique-path distance between 1-based vertices a and b."""
    if not (1 <= a <= tree.n and 1 <= b <= tree.n):
        raise PreconditionError("vertex id out of range")
    return float(distances(tree, a - 1)[0, b - 1])


@dataclass(frozen=True, eq=False)
class EdgeBipartition:
    """Vertex split induced by deleting one edge, with cached mass sums.

    side_a is the component containing the smaller endpoint id; side_a and
    side_b are sorted 1-based id arrays, _in_a the equivalent 0-based mask.
    """

    edge: int
    side_a: np.ndarray
    side_b: np.ndarray
    w_a: float
    w_b: float
    z_a: float
    z_b: float
    _in_a: np.ndarray = field(repr=False)


def _side_a(tree: WeightedTree, e: int) -> np.ndarray:
    """By vertex id, the side of edge e's deletion that holds its smaller
    endpoint: the subtree below e, or everything else."""
    low = tree.low[e]
    start = tree.tin[low]
    return ((tree.tin >= start) & (tree.tin < tree.end[start])) ^ (low != tree.eu[e])


def split_by_edge(tree: WeightedTree, e: int) -> EdgeBipartition:
    if not (0 <= e < tree.n - 1):
        raise PreconditionError(f"edge index {e} out of range")
    in_a = _side_a(tree, e)
    side_a = in_a.nonzero()[0] + 1
    side_b = (~in_a).nonzero()[0] + 1
    w_a = float(tree.w[in_a].sum())
    z_a = float(tree.z[in_a].sum())
    return EdgeBipartition(e, side_a, side_b,
                           w_a, float(tree.w.sum()) - w_a,
                           z_a, float(tree.z.sum()) - z_a, in_a)


@dataclass(frozen=True, eq=False)
class PathDescriptor:
    """A simple path: 1-based vertex ids, edge indices between consecutive
    vertices, prefix distances from vertices[0], and the total length."""

    vertices: np.ndarray
    edges: np.ndarray
    prefix: np.ndarray

    @property
    def total_length(self) -> float:
        return float(self.prefix[-1])

    @property
    def m(self) -> int:
        return int(self.vertices.size)


def _as_path(tree: WeightedTree, verts: np.ndarray, edges: np.ndarray) -> PathDescriptor:
    prefix = np.zeros(edges.size + 1)
    tree.length[edges].cumsum(out=prefix[1:])
    return PathDescriptor(verts + 1, edges, prefix)


def path_between(tree: WeightedTree, a: int, b: int) -> PathDescriptor:
    """Path from 1-based vertex a to b, in that orientation: up from a to
    the lowest common ancestor, then down to b."""
    if not (1 <= a <= tree.n and 1 <= b <= tree.n):
        raise PreconditionError("vertex id out of range")
    # a position's ancestors are the positions at or before it whose
    # interval holds it, so flatnonzero lists them from the root down
    pos, i, j = np.arange(tree.n), tree.tin[a - 1], tree.tin[b - 1]
    over_a = (pos <= i) & (i < tree.end)
    over_b = (pos <= j) & (j < tree.end)
    top = (over_a & over_b).nonzero()[0][-1:]
    spots = np.concatenate(((over_a > over_b).nonzero()[0][::-1], top,
                            (over_b > over_a).nonzero()[0]))
    # each position but the top meets its neighbour toward the top by its parent edge
    pedge = np.empty(tree.n, dtype=np.int64)
    pedge[tree.tin[tree.low]] = pos[:-1]
    return _as_path(tree, tree.preorder[spots], pedge[spots[spots != top]])


def diameter(tree: WeightedTree) -> PathDescriptor:
    """A longest path in the tree by weighted distance.

    Double sweep from vertex 0 (whose distances are the depths); np.argmax takes
    the first maximum, which resolves every tie to the lexicographically
    smallest endpoint id pair (the farthest set from any start vertex
    consists of longest-path endpoints only).  The result is oriented to
    start at its smaller endpoint id.
    """
    a, b, _ = _double_sweep(tree)
    return path_between(tree, min(a, b) + 1, max(a, b) + 1)


def _double_sweep(tree: WeightedTree) -> tuple[int, int, np.ndarray]:
    """diameter's endpoints, 0-based: a, the deepest vertex, and b, the
    farthest from a; with a's distances by vertex id."""
    a = int(tree.pdep[tree.tin].argmax())
    da = distances(tree, a)[0]
    return a, int(da.argmax()), da


@dataclass(frozen=True, eq=False)
class CompressedPath:
    """Tree demand folded onto one path.

    Each vertex's anchor is the path vertex through which it reaches the
    path; w_hat/z_hat hold the anchored weight and z totals per path
    position.  hang_offset is sum_v w[v]*d(v, anchor(v)), the transport
    spent off the path, constant once facilities sit at the path endpoints.
    """

    base: PathDescriptor
    w_hat: np.ndarray
    z_hat: np.ndarray
    hang_offset: float

    @property
    def W(self) -> float:
        return float(self.w_hat.sum())

    @property
    def Z(self) -> float:
        return float(self.z_hat.sum())


def compress_onto_path(tree: WeightedTree, p: PathDescriptor) -> CompressedPath:
    """Anchor every vertex on path p: the deepest path vertex on its root
    path, or else the path's top (its highest vertex).  The anchor's
    position is a root-path sum of steps that telescope down the path."""
    verts0 = p.vertices - 1
    if verts0.min() < 0 or verts0.max() >= tree.n:
        raise PreconditionError("path vertex out of range")
    spot = tree.tin[verts0]
    a, b = spot[:-1], spot[1:]
    if np.unique(verts0).size != p.m or ((tree.up[a] != b) & (tree.up[b] != a)).any():
        raise PreconditionError("path does not belong to the tree")
    top = int(spot.min())
    return _fold_onto_path(tree, p, top, distances(tree, tree.preorder[top])[0])


def _fold_onto_path(tree: WeightedTree, p: PathDescriptor, top: int,
                    d_top: np.ndarray) -> CompressedPath:
    """compress_onto_path of a path of the tree, given its top position and
    the distances from the top's vertex by vertex id."""
    m, n = p.m, tree.n
    verts0 = p.vertices - 1
    spot = tree.tin[verts0]
    step = np.zeros(n)
    step[spot] = spot - tree.up[spot]
    step[top] = 0.0
    step[0] += top              # every root path starts at the top
    anchor = tree.preorder[root_path_sums(tree, step).astype(np.int64)][tree.tin]
    label = np.empty(n, dtype=np.int64)
    label[verts0] = np.arange(m)
    at = label[anchor]
    w_hat = np.bincount(at, weights=tree.w, minlength=m)
    z_hat = np.bincount(at, weights=tree.z, minlength=m)
    hang_offset = float(np.dot(tree.w, d_top - d_top[anchor]))
    return CompressedPath(p, w_hat, z_hat, hang_offset)


def parse_tree(text: str) -> WeightedTree:
    """Parse the plain-text tree format.

    Line 1: vertex count n.  Next n-1 lines: "u v length".  Then either
    exactly n lines "id weight service" (each id once, any order) or none
    at all, in which case every vertex gets weight 1 and service time 1.
    Blank lines and lines starting with '#' are skipped; error messages
    use original line numbers.

    The lines are converted a block of _IO_ROWS at a time into columns and
    checked as arrays, mostly by WeightedTree.  Only when that rejects the
    text does _raise_line_fault read it line by line to name the first
    faulty line; a text with no faulty line re-raises the construction's
    error.
    """
    try:
        return WeightedTree(*_columns(text))
    except (TreeParseError, ValueError, OverflowError) as exc:
        fault = exc
    _raise_line_fault(text)
    raise fault


def _columns(text: str) -> tuple:
    """(n, eu, ev, length, w, t) of the text, 0-based endpoints.  Raises
    ValueError or OverflowError on a bad count, token or id.  The lines are
    freed on return, before the tree is built."""
    rows = [s for s in map(str.strip, text.splitlines()) if s and s[0] != "#"]
    n = int(rows[0]) if rows else 0
    if n < 1 or len(rows) not in (n, 2 * n):
        raise ValueError("line counts")
    eu, ev, length = _block_columns(rows[1:n], (int, int, float))
    if len(rows) == n:
        return n, eu - 1, ev - 1, length, np.ones(n), np.ones(n)
    vid, wv, tv = _block_columns(rows[n:], (int, float, float))
    # the ids must be a permutation of 1..n before they place any value
    if vid.min() < 1 or vid.max() > n or np.bincount(vid - 1, minlength=n).max() > 1:
        raise ValueError("vertex ids")
    w, t = np.empty(n), np.empty(n)
    w[vid - 1], t[vid - 1] = wv, tv
    return n, eu - 1, ev - 1, length, w, t


def _block_columns(rows: list[str], kinds: tuple) -> list[np.ndarray]:
    """Three columns of the rows, each converted by int or float.  A block's
    tokens are made only once each line is known to hold three, and only
    one block of them is alive at a time: one list per line, all alive,
    would take several times the memory of the text and make the cyclic
    garbage collector rescan every line."""
    cols = [np.empty(len(rows), dtype=np.int64 if k is int else np.float64)
            for k in kinds]
    for s in range(0, len(rows), _IO_ROWS):
        block = rows[s:s + _IO_ROWS]
        if set(map(len, map(str.split, block))) != {3}:
            raise ValueError("token count")
        tokens = " ".join(block).split()
        for j, (col, kind) in enumerate(zip(cols, kinds)):
            col[s:s + len(block)] = np.fromiter(map(kind, tokens[j::3]), col.dtype, len(block))
    return cols


def _raise_line_fault(text: str) -> None:
    """Read the text line by line and raise the error of its first faulty
    line, in file order: the count line, the edge lines, the number of
    vertex lines (count errors carry no line number), then the vertex
    lines.  Returns when no line is faulty."""
    rows = [(ln, s) for ln, s in enumerate(map(str.strip, text.splitlines()), start=1)
            if s and s[0] != "#"]
    if not rows:
        raise TreeParseError("empty tree description")

    def bad(ln, msg):
        return TreeParseError(f"line {ln}: {msg}")

    ln0, head = rows[0]
    try:
        n = int(head)
    except ValueError:
        raise bad(ln0, f"expected vertex count, got {head!r}") from None
    if n < 1:
        raise bad(ln0, f"vertex count must be at least 1, got {n}")
    if len(rows) - 1 < n - 1:
        raise TreeParseError(f"expected {n - 1} edge lines, found {len(rows) - 1}")

    seen_edges = set()
    for ln, row in rows[1:n]:
        parts = row.split()
        if len(parts) != 3:
            raise bad(ln, f"expected 'u v length', got {row!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
            ell = float(parts[2])
        except ValueError:
            raise bad(ln, f"expected 'u v length', got {row!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise bad(ln, f"vertex id out of range 1..{n}")
        if u == v:
            raise bad(ln, "self-loop edge")
        if not (np.isfinite(ell) and ell >= 0):
            raise bad(ln, "edge length must be finite and non-negative")
        pair = (min(u, v), max(u, v))
        if pair in seen_edges:
            raise bad(ln, f"duplicate edge ({pair[0]},{pair[1]})")
        seen_edges.add(pair)

    tail = rows[n:]
    if tail and len(tail) != n:
        raise TreeParseError(f"expected {n} vertex lines or none, found {len(tail)}")
    seen = set()
    for ln, row in tail:
        parts = row.split()
        if len(parts) != 3:
            raise bad(ln, f"expected 'id weight service', got {row!r}")
        try:
            vid = int(parts[0])
            wv, tv = float(parts[1]), float(parts[2])
        except ValueError:
            raise bad(ln, f"expected 'id weight service', got {row!r}") from None
        if not (1 <= vid <= n):
            raise bad(ln, f"vertex id out of range 1..{n}")
        if vid in seen:
            raise bad(ln, f"vertex {vid} listed twice")
        if not (np.isfinite(wv) and wv >= 0 and np.isfinite(tv) and tv >= 0):
            raise bad(ln, "weight and service must be finite and non-negative")
        seen.add(vid)


def _fmt_column(col: np.ndarray) -> list[str]:
    """Each value as a decimal: integers, and integral floats below 1e16,
    bare; any other float as the shortest decimal that round-trips (its
    repr).  The one number format of tree files and CLI output."""
    if col.dtype.kind == "i":
        return _strs(col)
    bare = (np.trunc(col) == col) & (np.abs(col) < 1e16)
    if bare.all():
        return _strs(col.astype(np.int64))
    out = _strs(col)
    if bare.any():
        at = np.flatnonzero(bare)
        for k, s in zip(at.tolist(), _strs(col[at].astype(np.int64))):
            out[k] = s
    return out


def _strs(col: np.ndarray) -> list[str]:
    """repr of each element, from one repr of the whole list."""
    return repr(col.tolist())[1:-1].split(", ") if col.size else []


def _fmt(x: float) -> str:
    """x as _fmt_column prints it."""
    return _fmt_column(np.array([x], dtype=np.float64))[0]


def render_tree(tree: WeightedTree) -> str:
    """The tree in the format parse_tree reads, with every vertex line."""
    return _render_columns(tree.n, tree.eu, tree.ev, tree.length, tree.w, tree.t)


def _render_columns(n: int, eu: np.ndarray, ev: np.ndarray, length: np.ndarray,
                    w: np.ndarray, t: np.ndarray) -> str:
    """The text of the columns _columns reads back, 0-based endpoints,
    formatted a block of _IO_ROWS rows at a time."""
    ids = np.arange(1, n + 1)
    out = [f"{n}\n"]
    for cols, size in (((eu + 1, ev + 1, length), n - 1), ((ids, w, t), n)):
        for s in range(0, size, _IO_ROWS):
            rows = zip(*(_fmt_column(col[s:s + _IO_ROWS]) for col in cols))
            out.append("\n".join(map(" ".join, rows)) + "\n")
    return "".join(out)


def build_tree(n: int, edges: Sequence[tuple[int, int]],
               lengths: Sequence[float] | None = None,
               w: Sequence[float] | None = None,
               t: Sequence[float] | None = None) -> WeightedTree:
    """Construct a tree from 1-based edge pairs; omitted data defaults to 1."""
    edges = list(edges)
    eu = _endpoints([u for u, _ in edges]) - 1
    ev = _endpoints([v for _, v in edges]) - 1
    length = np.ones(len(edges)) if lengths is None else np.asarray(lengths, dtype=np.float64)
    wv = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    tv = np.ones(n) if t is None else np.asarray(t, dtype=np.float64)
    return WeightedTree(n, eu, ev, length, wv, tv)
