"""Weighted tree structure, parsing, and path/partition utilities.

Conventions used across the package:

* Vertex ids are 1-based in files, public tuples, and reported solutions.
* Everything stored in numpy arrays is 0-indexed.
* Edge indices refer to input order and are 0-based; stored endpoints are
  normalized so eu[e] < ev[e].
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import PreconditionError, TreeParseError


@dataclass(frozen=True, eq=False)
class WeightedTree:
    """Tree with per-edge lengths and per-vertex demand weight w and service
    time t.  The balance quantity z = w*t is derived on construction, along
    with CSR adjacency (_ptr, _nbr, _eidx).  All arrays are frozen read-only.
    """

    n: int
    eu: np.ndarray
    ev: np.ndarray
    length: np.ndarray
    w: np.ndarray
    t: np.ndarray
    z: np.ndarray = field(init=False, repr=False)
    _ptr: np.ndarray = field(init=False, repr=False)
    _nbr: np.ndarray = field(init=False, repr=False)
    _eidx: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise PreconditionError(f"tree needs at least 1 vertex, got {n}")
        eu = np.asarray(self.eu, dtype=np.int64)
        ev = np.asarray(self.ev, dtype=np.int64)
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
        if np.any(lo == hi):
            raise TreeParseError("self-loop edge")
        key = lo * n + hi
        if np.unique(key).size != key.size:
            raise TreeParseError("duplicate edge")
        for name, arr in (("length", length), ("w", w), ("t", t)):
            if not np.all(np.isfinite(arr)):
                raise TreeParseError(f"non-finite {name} value")
            if arr.size and arr.min() < 0:
                raise TreeParseError(f"negative {name} value")
        object.__setattr__(self, "eu", lo)
        object.__setattr__(self, "ev", hi)
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "z", w * t)

        # CSR adjacency: stable sort keeps each vertex's slots in edge order.
        ends = np.concatenate([lo, hi])
        others = np.concatenate([hi, lo])
        eidx = np.concatenate([np.arange(n - 1), np.arange(n - 1)])
        perm = np.argsort(ends, kind="stable")
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(ptr, ends + 1, 1)
        np.cumsum(ptr, out=ptr)
        object.__setattr__(self, "_ptr", ptr)
        object.__setattr__(self, "_nbr", others[perm])
        object.__setattr__(self, "_eidx", eidx[perm])

        reach = _sweep(self, np.array([0], dtype=np.int64))
        if reach.order.size != n:
            raise TreeParseError("edge list does not connect all vertices")
        for arr in (self.eu, self.ev, self.length, self.w, self.t, self.z,
                    self._ptr, self._nbr, self._eidx):
            arr.flags.writeable = False

    @property
    def Z(self) -> float:
        return float(self.z.sum())

    @property
    def deg(self) -> np.ndarray:
        return np.diff(self._ptr)

    def edge_tuple(self, e: int) -> tuple[int, int]:
        """1-based (u, v) endpoints of edge index e, u < v."""
        return int(self.eu[e]) + 1, int(self.ev[e]) + 1


class Sweep(NamedTuple):
    dist: np.ndarray
    parent: np.ndarray
    pedge: np.ndarray
    order: np.ndarray
    levels: np.ndarray
    label: np.ndarray | None


def _sweep(tree: WeightedTree, sources: np.ndarray, block_edge: int | None = None,
           labels: np.ndarray | None = None,
           allow: np.ndarray | None = None) -> Sweep:
    """Frontier BFS from one or more source vertices (0-based).

    Returns weighted distances (tree paths are unique, so hop-ordered
    visiting still yields exact distances), BFS parents/parent edges, the
    visit order (parents before children), and optionally a label array
    propagated from the sources.  block_edge excludes one edge; allow is an
    optional vertex mask the traversal must stay inside.  When multiple
    sources are given they must induce a connected subtree; that guarantees
    each remaining vertex is reachable through exactly one frontier vertex
    per level, so candidate batches never contain duplicates.
    """
    n = tree.n
    sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
    ptr, nbr, eidx, length = tree._ptr, tree._nbr, tree._eidx, tree.length
    deg = np.diff(ptr)
    dist = np.full(n, np.inf)
    parent = np.full(n, -1, dtype=np.int64)
    pedge = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=bool)
    visited[sources] = True
    dist[sources] = 0.0
    lab = None
    if labels is not None:
        lab = np.full(n, -1, dtype=np.int64)
        lab[sources] = labels
    chunks = [sources]
    frontier = sources
    while frontier.size:
        cnt = deg[frontier]
        total = int(cnt.sum())
        if total == 0:
            break
        rep_src = np.repeat(frontier, cnt)
        cum = np.cumsum(cnt)
        offs = np.arange(total, dtype=np.int64) - np.repeat(cum - cnt, cnt)
        slots = np.repeat(ptr[frontier], cnt) + offs
        cand = nbr[slots]
        ce = eidx[slots]
        keep = ~visited[cand]
        if block_edge is not None:
            keep &= ce != block_edge
        if allow is not None:
            keep &= allow[cand]
        cand = cand[keep]
        ce = ce[keep]
        src = rep_src[keep]
        if cand.size == 0:
            break
        visited[cand] = True
        dist[cand] = dist[src] + length[ce]
        parent[cand] = src
        pedge[cand] = ce
        if lab is not None:
            lab[cand] = lab[src]
        chunks.append(cand)
        frontier = cand
    order = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
    levels = np.array([c.size for c in chunks], dtype=np.int64)
    return Sweep(dist, parent, pedge, order, levels, lab)


def dist(tree: WeightedTree, a: int, b: int) -> float:
    """Unique-path distance between 1-based vertices a and b."""
    if not (1 <= a <= tree.n and 1 <= b <= tree.n):
        raise PreconditionError("vertex id out of range")
    return float(_sweep(tree, np.array([a - 1]))[0][b - 1])


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


def split_by_edge(tree: WeightedTree, e: int) -> EdgeBipartition:
    if not (0 <= e < tree.n - 1):
        raise PreconditionError(f"edge index {e} out of range")
    reach = _sweep(tree, np.array([tree.eu[e]]), block_edge=e)
    in_a = np.isfinite(reach.dist)
    side_a = np.flatnonzero(in_a) + 1
    side_b = np.flatnonzero(~in_a) + 1
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


def _chase(sweep: Sweep, stop: int, start: int) -> tuple[list[int], list[int]]:
    """Walk parent pointers from start (0-based) back to stop; returns the
    vertex chain [start..stop] and the edges crossed."""
    verts = [start]
    edges = []
    v = start
    while v != stop:
        edges.append(int(sweep.pedge[v]))
        v = int(sweep.parent[v])
        verts.append(v)
    return verts, edges


def _as_path(tree: WeightedTree, verts: list[int], edges: list[int]) -> PathDescriptor:
    verts_arr = np.asarray(verts, dtype=np.int64)
    edges_arr = np.asarray(edges, dtype=np.int64)
    prefix = np.concatenate([[0.0], np.cumsum(tree.length[edges_arr])]) \
        if edges_arr.size else np.zeros(1)
    return PathDescriptor(verts_arr + 1, edges_arr, prefix)


def path_between(tree: WeightedTree, a: int, b: int) -> PathDescriptor:
    """Path from 1-based vertex a to b, in that orientation."""
    s = _sweep(tree, np.array([b - 1]))
    verts, edges = _chase(s, b - 1, a - 1)
    return _as_path(tree, verts, edges)


def diameter(tree: WeightedTree) -> PathDescriptor:
    """A longest path in the tree by weighted distance.

    Double sweep; np.argmax takes the first maximum, which resolves every
    tie to the lexicographically smallest endpoint id pair (the farthest
    set from any start vertex consists of longest-path endpoints only).
    The result is oriented to start at its smaller endpoint id.
    """
    d0 = _sweep(tree, np.array([0], dtype=np.int64)).dist
    a = int(np.argmax(d0))
    sa = _sweep(tree, np.array([a], dtype=np.int64))
    b = int(np.argmax(sa.dist))
    verts, edges = _chase(sa, a, b)
    if min(a, b) == a:
        verts.reverse()
        edges.reverse()
    return _as_path(tree, verts, edges)


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
    m = p.m
    verts0 = p.vertices - 1
    if verts0.min() < 0 or verts0.max() >= tree.n:
        raise PreconditionError("path vertex out of range")
    s = _sweep(tree, verts0, labels=np.arange(m, dtype=np.int64))
    if s.order.size != tree.n:
        raise PreconditionError("path does not belong to the tree")
    pos = s.label
    w_hat = np.bincount(pos, weights=tree.w, minlength=m)
    z_hat = np.bincount(pos, weights=tree.z, minlength=m)
    hang_offset = float(np.dot(tree.w, s.dist))
    return CompressedPath(p, w_hat, z_hat, hang_offset)


def parse_tree(text: str) -> WeightedTree:
    """Parse the plain-text tree format.

    Line 1: vertex count n.  Next n-1 lines: "u v length".  Then either
    exactly n lines "id weight service" (each id once, any order) or none
    at all, in which case every vertex gets weight 1 and service time 1.
    Blank lines and lines starting with '#' are skipped; error messages
    use original line numbers.
    """
    rows = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((ln, stripped))
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

    eu = np.empty(max(n - 1, 0), dtype=np.int64)
    ev = np.empty(max(n - 1, 0), dtype=np.int64)
    length = np.empty(max(n - 1, 0))
    seen_edges = set()
    for i, (ln, row) in enumerate(rows[1:n]):
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
        eu[i], ev[i], length[i] = u - 1, v - 1, ell

    tail = rows[n:]
    w = np.ones(n)
    t = np.ones(n)
    if tail:
        if len(tail) != n:
            raise TreeParseError(
                f"expected {n} vertex lines or none, found {len(tail)}")
        seen = np.zeros(n, dtype=bool)
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
            if seen[vid - 1]:
                raise bad(ln, f"vertex {vid} listed twice")
            if not (np.isfinite(wv) and wv >= 0 and np.isfinite(tv) and tv >= 0):
                raise bad(ln, "weight and service must be finite and non-negative")
            seen[vid - 1] = True
            w[vid - 1], t[vid - 1] = wv, tv

    return WeightedTree(n, eu, ev, length, w, t)


def _fmt(x: float) -> str:
    """Shortest decimal that round-trips; integral values print bare."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def render_tree(tree: WeightedTree) -> str:
    out = io.StringIO()
    out.write(f"{tree.n}\n")
    for e in range(tree.n - 1):
        out.write(f"{tree.eu[e] + 1} {tree.ev[e] + 1} {_fmt(tree.length[e])}\n")
    for v in range(tree.n):
        out.write(f"{v + 1} {_fmt(tree.w[v])} {_fmt(tree.t[v])}\n")
    return out.getvalue()


def build_tree(n: int, edges: Sequence[tuple[int, int]],
               lengths: Sequence[float] | None = None,
               w: Sequence[float] | None = None,
               t: Sequence[float] | None = None) -> WeightedTree:
    """Construct a tree from 1-based edge pairs; omitted data defaults to 1."""
    edges = list(edges)
    eu = np.array([u - 1 for u, _ in edges], dtype=np.int64)
    ev = np.array([v - 1 for _, v in edges], dtype=np.int64)
    length = np.ones(len(edges)) if lengths is None else np.asarray(lengths, dtype=np.float64)
    wv = np.ones(n) if w is None else np.asarray(w, dtype=np.float64)
    tv = np.ones(n) if t is None else np.asarray(t, dtype=np.float64)
    return WeightedTree(n, eu, ev, length, wv, tv)
