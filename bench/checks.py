"""Independent checks of the program's answers.

Everything here is computed from the problem definitions with plain Python,
numpy and scipy.sparse.csgraph; nothing calls treeloc.  On integer inputs
every sum is exact, so exact optima are compared bit for bit.  Answers on
float inputs, and the linear heuristic's, are compared within a relative
1e-9 of the magnitude of the terms involved.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import breadth_first_order, dijkstra

import workloads

REL = 1e-9


class Wrong(Exception):
    """An answer disagrees with the independent computation."""


def close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(a), abs(b), scale)


class Tree(NamedTuple):
    """0-based arrays in input edge order; eu < ev on every edge."""

    n: int
    eu: np.ndarray
    ev: np.ndarray
    length: np.ndarray
    w: np.ndarray
    t: np.ndarray

    @property
    def z(self) -> np.ndarray:
        return self.w * self.t

    def edge_id(self) -> dict:
        return {(int(u), int(v)): e for e, (u, v) in enumerate(zip(self.eu, self.ev))}


def make_tree(n, u, v, length, w, t) -> Tree:
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return Tree(n, np.minimum(u, v), np.maximum(u, v),
                np.asarray(length, dtype=np.float64),
                np.asarray(w, dtype=np.float64), np.asarray(t, dtype=np.float64))


def read_tree(text: str) -> Tree:
    """Reader for the documented file format: n, then n-1 lines 'u v
    length', then optionally n lines 'id weight service'."""
    rows = [ln.split() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith("#")]
    n = int(rows[0][0])
    edges, verts = rows[1:n], rows[n:]
    w, t = np.ones(n), np.ones(n)
    if verts:
        ids = np.array([int(r[0]) for r in verts]) - 1
        w[ids] = [float(r[1]) for r in verts]
        t[ids] = [float(r[2]) for r in verts]
    return make_tree(n, [int(r[0]) - 1 for r in edges], [int(r[1]) - 1 for r in edges],
                     [float(r[2]) for r in edges], w, t)


def tree_of(inp: tuple) -> Tree:
    if inp[0] == "text":
        return read_tree(inp[1])
    return make_tree(*inp[1:])


# --- SplitMix64 and the documented `gen` recipe -------------------------------

_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(seed: int, first: int, count: int) -> np.ndarray:
    """Outputs first+1 .. first+count: mix(seed + k*golden) modulo 2^64."""
    ks = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed % 2**64) + ks * np.uint64(_GOLDEN)
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def gen_tree(n: int, seed: int, weights: str = "fixed", services: str = "fixed",
             length_min: float = 0.01, length_max: float = 5.0) -> Tree:
    """The instance `treeloc gen` documents: vertex i attaches to a vertex
    drawn by modulo from 1..i-1; draws go parents, lengths, then weights
    and service times when uniform (uniform = top 53 bits times 2^-53)."""
    k = 0

    def draw(count):
        nonlocal k
        out = splitmix64(seed, k, count)
        k += count
        return out

    def uniform(count):
        return (draw(count) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    praw = draw(n - 1)
    lu = uniform(n - 1)
    w = uniform(n) * 5.0 if weights == "uniform" else np.full(n, 5.0)
    t = uniform(n) * 5.0 if services == "uniform" else np.ones(n)
    parents = (praw % np.arange(1, n, dtype=np.uint64)).astype(np.int64)
    return make_tree(n, parents, np.arange(1, n), length_min + lu * (length_max - length_min), w, t)


def flags(argv: list[str]) -> dict:
    return {a: b for a, b in zip(argv, argv[1:]) if a.startswith("--")}


def gen_argv_tree(argv: list[str]) -> Tree:
    opts = flags(argv)
    return gen_tree(int(opts["--n"]), int(opts.get("--seed", 0)),
                    opts.get("--weights", "fixed"), opts.get("--services", "fixed"),
                    float(opts.get("--length-min", 0.01)), float(opts.get("--length-max", 5.0)))


def check_gen(text: str, expect: Tree) -> None:
    got = read_tree(text)
    if got.n != expect.n:
        raise Wrong(f"gen wrote {got.n} vertices, expected {expect.n}")
    for field in ("eu", "ev", "length", "w", "t"):
        if not np.array_equal(getattr(got, field), getattr(expect, field)):
            raise Wrong(f"gen file differs from the SplitMix64 recipe in {field}")


# --- distances ----------------------------------------------------------------

def graph(tree: Tree):
    if tree.length.size and tree.length.min() <= 0:
        raise ValueError("checker graphs need positive edge lengths")
    return coo_matrix((tree.length, (tree.eu, tree.ev)), shape=(tree.n, tree.n)).tocsr()


def side_masks(tree: Tree) -> np.ndarray:
    """(n-1) x n: row e marks the component of eu[e] once edge e is cut."""
    n = tree.n
    order, pred = breadth_first_order(graph(tree), 0, directed=False)
    sub = np.eye(n, dtype=bool)
    for v in order[:0:-1]:
        sub[pred[v]] |= sub[v]
    child = np.where(pred[tree.eu] == tree.ev, tree.eu, tree.ev)
    below = sub[child]
    return np.where((child == tree.eu)[:, None], below, ~below)


# --- exact optima of small integer trees ---------------------------------------

class Exact:
    """Exact 2-median and 2-maxian optima of every cut, by enumeration
    over an all-pairs distance table."""

    def __init__(self, tree: Tree):
        self.tree = tree
        self.ids = tree.edge_id()
        n = tree.n
        self.D = dijkstra(graph(tree), directed=False)
        self.side = side_masks(tree)
        WD = self.D * tree.w[None, :]
        a = self.side.T.astype(np.float64)
        self.CA = WD @ a              # CA[x, e]: weighted distance from x to side a
        self.CB = WD @ (1.0 - a)      # ... and to side b
        costa = np.where(self.side.T, self.CA, np.inf)
        costb = np.where(~self.side.T, self.CB, np.inf)
        self.med = np.stack([costa.argmin(0), costb.argmin(0)], axis=1)
        self.f1 = costa.min(0) + costb.min(0)
        za = self.side @ tree.z
        self.f5 = np.abs(za - (tree.z.sum() - za))
        # maxian: x1 serves side b (it holds the larger endpoint), x2 side a
        self.f2 = np.empty(n - 1)
        self.pair = np.empty((n - 1, 2), dtype=np.int64)
        for e in range(n - 1):
            P = self.CB[:, e][:, None] + self.CA[:, e][None, :]
            np.fill_diagonal(P, -np.inf)
            x1, x2 = divmod(int(np.argmax(P)), n)
            self.f2[e], self.pair[e] = P[x1, x2], (x1, x2)

    def median_best(self, lam: float) -> tuple[int, float]:
        obj = lam * self.f1 + (1.0 - lam) * self.f5
        e = int(np.argmin(obj))
        return e, float(obj[e])

    def maxian_best(self, lam: float) -> tuple[int, float]:
        obj = lam * self.f2 - (1.0 - lam) * self.f5
        e = int(np.argmax(obj))
        return e, float(obj[e])


def _edge(ids: dict, ans: dict) -> int:
    u, v = ans["edge_uv"]
    e = ids.get((u - 1, v - 1))
    if e is None or u >= v:
        raise Wrong(f"deleted edge {ans['edge_uv']} is not an edge (u < v) of the tree")
    if "edge" in ans and ans["edge"] != e:
        raise Wrong(f"edge index {ans['edge']} does not match endpoints {ans['edge_uv']}")
    return e


def check_median(ex: Exact, lam: float, ans: dict) -> None:
    tree = ex.tree
    e = _edge(ex.ids, ans)
    m1, m2 = (f - 1 for f in ans["fac"])
    side = ex.side[e]
    if ans["method"] != "edge-deletion":
        raise Wrong(f"median method {ans['method']!r}")
    if not (0 <= m1 < tree.n and 0 <= m2 < tree.n and side[m1] and not side[m2]):
        raise Wrong(f"medians {ans['fac']} do not lie on the sides they serve")
    f1 = float(tree.w[side] @ ex.D[m1, side] + tree.w[~side] @ ex.D[m2, ~side])
    f5 = float(ex.f5[e])
    if (ans["transport"], ans["f5"]) != (f1, f5) or \
            ans["objective"] != lam * f1 + (1.0 - lam) * f5:
        raise Wrong(f"median answer {ans} does not reproduce: f1 {f1}, f5 {f5}")
    best_e, best = ex.median_best(lam)
    if ans["objective"] != best:
        raise Wrong(f"median objective {ans['objective']} is not the optimum {best}")
    if e != best_e:
        raise Wrong(f"median edge {e} is not the smallest optimal edge {best_e}")
    if (m1, m2) != tuple(ex.med[e]):
        raise Wrong(f"medians {ans['fac']} are not the smallest-id medians "
                    f"{tuple(int(x) + 1 for x in ex.med[e])}")


def check_cubic(ex: Exact, lam: float, ans: dict) -> None:
    tree = ex.tree
    e = _edge(ex.ids, ans)
    x1, x2 = (f - 1 for f in ans["fac"])
    if ans["method"] != "cubic":
        raise Wrong(f"cubic maxian reports method {ans['method']!r}")
    if not (0 <= x1 < tree.n and 0 <= x2 < tree.n and x1 != x2):
        raise Wrong(f"facilities {ans['fac']} are not two distinct vertices")
    f2 = float(ex.CB[x1, e] + ex.CA[x2, e])
    f5 = float(ex.f5[e])
    if (ans["transport"], ans["f5"]) != (f2, f5) or \
            ans["objective"] != lam * f2 - (1.0 - lam) * f5:
        raise Wrong(f"maxian answer {ans} does not reproduce: f2 {f2}, f5 {f5}")
    best_e, best = ex.maxian_best(lam)
    if ans["objective"] != best:
        raise Wrong(f"maxian objective {ans['objective']} is not the optimum {best}")
    if e != best_e:
        raise Wrong(f"maxian edge {e} is not the smallest optimal edge {best_e}")
    if (x1, x2) != tuple(ex.pair[e]):
        raise Wrong(f"facilities {ans['fac']} are not the smallest optimal pair "
                    f"{tuple(int(x) + 1 for x in ex.pair[e])}")


def check_linear_bound(ex: Exact, lam: float, ans: dict) -> tuple[bool, bool]:
    """The heuristic never beats the exact optimum and meets it at lam = 1.
    Returns (gap, shape): gap if the objective falls more than the
    tolerance below the optimum; shape if the objective is not the
    documented expression lam*f2 - (1.0-lam)*f5 over its own f2 and f5."""
    if ans["method"] != "linear":
        raise Wrong(f"linear maxian reports method {ans['method']!r}")
    _, best = ex.maxian_best(lam)
    obj = ans["objective"]
    scale = max(abs(lam * ans["transport"]), abs((1.0 - lam) * ans["f5"]))
    if obj > best and not close(obj, best, scale):
        raise Wrong(f"linear objective {obj} exceeds the optimum {best}")
    if lam == 1.0 and not close(obj, best, scale):
        raise Wrong(f"linear objective {obj} misses the optimum {best} at lambda 1")
    gap = obj < best and not close(obj, best, scale)
    return gap, obj != lam * ans["transport"] - (1.0 - lam) * ans["f5"]


# --- the diameter path of the linear method ------------------------------------

class DiameterCuts:
    """Every cut of the path between the lexicographically smallest diameter
    pair (p, q), with q serving the side of p and p the side of q."""

    def __init__(self, tree: Tree):
        self.tree = tree
        g = graph(tree)
        self._g = g
        da = dijkstra(g, directed=False, indices=int(np.argmax(dijkstra(g, directed=False, indices=0))))
        db = dijkstra(g, directed=False, indices=int(np.argmax(da)))
        L = float(da.max())
        self.L = L
        ecc = np.maximum(da, db)               # eccentricity, from any diameter pair
        p = int(np.flatnonzero(ecc >= L * (1 - REL))[0])
        dp = dijkstra(g, directed=False, indices=p)
        q = int(np.flatnonzero(dp >= L * (1 - REL))[0])
        dq = dijkstra(g, directed=False, indices=q)
        self._dist = {p: dp, q: dq}
        self.p, self.q = p, q
        order, pred = breadth_first_order(g, p, directed=False)
        path = [q]
        while path[-1] != p:
            path.append(int(pred[path[-1]]))
        path.reverse()
        pos = np.full(tree.n, -1, dtype=np.int64)
        pos[path] = np.arange(len(path))
        pos_l = pos.tolist()
        pred_l = pred.tolist()
        for v in order.tolist():
            if pos_l[v] < 0:
                pos_l[v] = pos_l[pred_l[v]]
        self.pos = np.array(pos_l, dtype=np.int64)
        self.ids = ids = tree.edge_id()
        self.cut = {ids[(min(a, b), max(a, b))]: j for j, (a, b) in enumerate(zip(path, path[1:]))}
        m = len(path)
        w, z = tree.w, tree.z
        near_q = np.cumsum(np.bincount(self.pos, w * dq, m))[:-1]
        near_p = np.cumsum(np.bincount(self.pos, w * dp, m))
        self.f2 = near_q + (near_p[-1] - near_p[:-1])
        self.Z = float(z.sum())
        zc = np.cumsum(np.bincount(self.pos, z, m))[:-1]
        self.f5 = np.abs(zc - (self.Z - zc))

    def dist(self, x: int) -> np.ndarray:
        if x not in self._dist:
            self._dist[x] = dijkstra(self._g, directed=False, indices=x)
        return self._dist[x]

    def objectives(self, lam: float) -> np.ndarray:
        return lam * self.f2 - (1.0 - lam) * self.f5

    def scale(self, lam: float) -> float:
        """Magnitude of the terms behind an objective: f5 is a difference
        of two sums of z, so its rounding scales with their total."""
        return max(lam * float(self.f2.max()), (1.0 - lam) * self.Z)

    def sides(self, ans: dict) -> tuple[int, np.ndarray]:
        """(edge, mask of the side holding the smaller endpoint)."""
        e = _edge(self.ids, ans)
        if e not in self.cut:
            raise Wrong(f"deleted edge {ans['edge_uv']} is not on the diameter path")
        prefix = self.pos <= self.cut[e]
        return e, prefix if prefix[ans["edge_uv"][0] - 1] else ~prefix


def check_linear(dc: DiameterCuts, lam: float, ans: dict) -> None:
    tree = dc.tree
    if ans["method"] != "linear":
        raise Wrong(f"linear maxian reports method {ans['method']!r}")
    _, side_a = dc.sides(ans)
    x1, x2 = (f - 1 for f in ans["fac"])
    if not (0 <= x1 < tree.n and 0 <= x2 < tree.n):
        raise Wrong(f"facilities {ans['fac']} out of range")
    d1, d2 = dc.dist(x1), dc.dist(x2)
    if not close(float(d1[x2]), dc.L):
        raise Wrong(f"facilities {ans['fac']} are {d1[x2]} apart, the diameter is {dc.L}")
    w, z = tree.w, tree.z
    f2 = float(w[~side_a] @ d1[~side_a] + w[side_a] @ d2[side_a])
    f5 = abs(float(z[side_a].sum() - z[~side_a].sum()))
    if not (close(ans["transport"], f2) and close(ans["f5"], f5, dc.Z)):
        raise Wrong(f"linear answer {ans} does not reproduce: f2 {f2}, f5 {f5}")
    best = float(dc.objectives(lam).max())
    if not close(ans["objective"], best, dc.scale(lam)):
        raise Wrong(f"linear objective {ans['objective']} is not the best "
                    f"diameter-path cut {best}")


def check_report(dc: DiameterCuts, lam: float, ans: dict) -> None:
    check_linear(dc, lam, ans)
    if ans.get("deviations") != deviations(dc, ans):
        raise Wrong(f"report counts {ans.get('deviations')} deviations, "
                    f"recount gives {deviations(dc, ans)}")


def deviations(dc: DiameterCuts, ans: dict) -> int:
    """Clients not served by their farthest facility, strictly: x2 serves
    the side of the smaller endpoint, x1 the other."""
    _, side_a = dc.sides(ans)
    d1, d2 = dc.dist(ans["fac"][0] - 1), dc.dist(ans["fac"][1] - 1)
    serving = np.where(side_a, d2, d1)
    other = np.where(side_a, d1, d2)
    return int(np.count_nonzero(other > serving))


# --- sweeps and fronts ---------------------------------------------------------

def check_sweep(records: list[dict], lams: list[float], check, problem: str) -> None:
    if [r["lam"] for r in records] != [float(x) for x in lams]:
        raise Wrong(f"sweep lambdas {[r['lam'] for r in records]} differ from {lams}")
    for r in records:
        check(r["lam"], r)
    for a, b in zip(records, records[1:]):
        up = b["transport"] >= a["transport"] or close(a["transport"], b["transport"])
        down = b["transport"] <= a["transport"] or close(a["transport"], b["transport"])
        f5_up = b["f5"] >= a["f5"] or close(a["f5"], b["f5"])
        if not f5_up or not (down if problem == "median" else up):
            raise Wrong(f"sweep is not monotone in lambda between {a} and {b}")


def _nondominated(points: list, problem: str) -> None:
    for a in points:
        for b in points:
            if a == b:
                continue
            better = a[0] <= b[0] if problem == "median" else a[0] >= b[0]
            if better and a[1] <= b[1]:
                raise Wrong(f"front point {a} dominates {b}")


def check_pareto_median(ex: Exact, grid: int, points: list) -> None:
    _nondominated(points, "median")
    optima = set()
    for k in range(grid):
        e, _ = ex.median_best(k / (grid - 1))
        optima.add((float(ex.f1[e]), float(ex.f5[e])))
    for pt in points:
        if tuple(pt) not in optima:
            raise Wrong(f"front point {pt} is no grid optimum")
    if not points:
        raise Wrong("empty median front")


def check_pareto_maxian(dc: DiameterCuts, grid: int, points: list) -> None:
    _nondominated(points, "maxian")
    for pt in points:
        same = np.array([close(a, pt[0]) and close(b, pt[1], dc.Z) for a, b in zip(dc.f2, dc.f5)])
        for k in range(grid):
            lam = k / (grid - 1)
            obj = dc.objectives(lam)
            best = obj.max()
            tol = REL * max(1.0, dc.scale(lam))
            if np.any(same & (obj >= best - tol)):
                break
        else:
            raise Wrong(f"front point {pt} is no best diameter-path cut at a grid lambda")
    if not points:
        raise Wrong("empty maxian front")


# --- CLI output ----------------------------------------------------------------

_PAIR = re.compile(r"\((\d+),(\d+)\)")


def parse_summary(text: str) -> dict:
    """The key-value summary `solve-*` and `report` print."""
    out = {}
    for line in text.splitlines():
        key, _, val = line.rpartition(" ")
        if key in ("deleted edge", "facilities", "medians"):
            out["edge_uv" if key == "deleted edge" else "fac"] = \
                [int(x) for x in _PAIR.fullmatch(val).groups()]
        elif key in ("transport", "f5", "objective", "lambda"):
            out[key] = float(val)
        elif key in ("method", "problem"):
            out[key] = val
        elif key in ("n", "deviations"):
            out[key] = int(val)
    return out


def read_records(path: Path) -> list[dict]:
    """Records of a `sweep --output` file, csv or json."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        rows = json.loads(text)
        rows = rows if isinstance(rows, list) else [rows]
    else:
        rows = list(csv.DictReader(io.StringIO(text)))
    return [{"lam": float(r["lambda"]), "transport": float(r["transport"]),
             "f5": float(r["f5"]), "objective": float(r["objective"]),
             "edge_uv": [int(r["edge_u"]), int(r["edge_v"])],
             "fac": [int(r["fac1"]), int(r["fac2"])], "method": r["method"]} for r in rows]


# --- one run's answers -----------------------------------------------------------

class RunChecker:
    """Checks every answer of a run.  check() returns True for an operation
    that failed and raises Wrong for an answer that is incorrect."""

    def __init__(self, workload: str, seed: int, root: Path, workdir: Path):
        self.workload = workload
        self.ops = workloads.round_ops(workload, seed)
        self.workdir = workdir
        self.gap_cases = 0
        self._exact: dict = {}
        self._cuts: dict = {}
        self._trees: dict = {}
        if workload == "cli-io":
            # the set-up files are `gen` output too: check them on first use
            self._gen_argv = workloads.inputs(workload, seed, root)
        else:
            self._inputs = workloads.inputs(workload, seed, root)

    def tree(self, key: str) -> Tree:
        if key not in self._trees:
            if self.workload == "cli-io":
                text = (self.workdir / key).read_text(encoding="utf-8")
                check_gen(text, gen_argv_tree(self._gen_argv[key]))
                tree = read_tree(text)
            else:
                tree = tree_of(self._inputs[key])
            self._trees[key] = tree
        return self._trees[key]

    def exact(self, key: str) -> Exact:
        if key not in self._exact:
            self._exact[key] = Exact(self.tree(key))
        return self._exact[key]

    def cuts(self, key: str) -> DiameterCuts:
        if key not in self._cuts:
            self._cuts[key] = DiameterCuts(self.tree(key))
        return self._cuts[key]

    def check(self, index: int, res: dict) -> bool:
        op = self.ops[index]
        if "error" in res:
            return True
        kind = op[0]
        if kind == "solve":
            _, method, key, lam = op
            if method == "median":
                check_median(self.exact(key), lam, res)
            elif method == "cubic":
                check_cubic(self.exact(key), lam, res)
            elif self.workload == "small-family":
                gap, shape = check_linear_bound(self.exact(key), lam, res)
                self.gap_cases += gap
                return shape
            else:
                check_linear(self.cuts(key), lam, res)
            return False
        if kind == "sweep":
            _, problem, method, key, lams = op
            if problem == "median":
                ex = self.exact(key)
                check_sweep(res["records"], lams, lambda lam, r: check_median(ex, lam, r), problem)
            elif method == "cubic":
                ex = self.exact(key)
                check_sweep(res["records"], lams, lambda lam, r: check_cubic(ex, lam, r), problem)
            else:
                dc = self.cuts(key)
                check_sweep(res["records"], lams, lambda lam, r: check_linear(dc, lam, r), problem)
            return False
        if kind == "pareto":
            _, problem, key, grid = op
            if problem == "median":
                check_pareto_median(self.exact(key), grid, res["points"])
            else:
                check_pareto_maxian(self.cuts(key), grid, res["points"])
            return False
        return self._check_cli(op, res)

    def _check_cli(self, op: list, res: dict) -> bool:
        _, kind, argv = op
        if res["rc"] != 0:
            raise Wrong(f"`treeloc {' '.join(argv)}` exited {res['rc']}: {res['stderr']}")
        opts = flags(argv)
        if kind == "gen":
            text = (self.workdir / res["output"]).read_text(encoding="utf-8")
            check_gen(text, gen_argv_tree(argv))
            return False
        dc = self.cuts(opts["--input"])
        if kind in ("solve", "report"):
            ans = parse_summary(res["stdout"])
            lam = float(opts["--lambda"])
            if ans.get("lambda") != lam or ans.get("n") != dc.tree.n:
                raise Wrong(f"summary {ans} does not echo lambda {lam} and n {dc.tree.n}")
            (check_report if kind == "report" else check_linear)(dc, lam, ans)
            return False
        lams = [float(x) for x in opts["--lambdas"].split(",")]
        records = read_records(self.workdir / res["output"])
        check_sweep(records, lams, lambda lam, r: check_linear(dc, lam, r), "maxian")
        return False
