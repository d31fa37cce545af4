import random
import sys
from pathlib import Path

import numpy as np
import pytest

import treeloc
from treeloc import WeightedTree, build_tree, parse_tree

FIXTURES = Path(treeloc.__file__).parent / "fixtures"


@pytest.fixture
def t6():
    return parse_tree((FIXTURES / "t6.tree").read_text())


@pytest.fixture
def t6b():
    return parse_tree((FIXTURES / "t6b.tree").read_text())


@pytest.fixture
def gap3():
    return parse_tree((FIXTURES / "gap3.tree").read_text())


@pytest.fixture
def gap4():
    return parse_tree((FIXTURES / "gap4.tree").read_text())


def random_int_tree(rng: random.Random, n: int):
    """Random recursive tree with integer weights, service times, and
    lengths drawn from [1, 5]."""
    edges = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
    lengths = [rng.randint(1, 5) for _ in range(n - 1)]
    w = [rng.randint(1, 5) for _ in range(n)]
    t = [rng.randint(1, 5) for _ in range(n)]
    return build_tree(n, edges, lengths, w, t)


def random_int_path(rng: random.Random, n: int):
    edges = [(i, i + 1) for i in range(1, n)]
    lengths = [rng.randint(1, 5) for _ in range(n - 1)]
    w = [rng.randint(1, 5) for _ in range(n)]
    t = [rng.randint(1, 5) for _ in range(n)]
    return build_tree(n, edges, lengths, w, t)


SHAPES = ("path", "star", "caterpillar", "broom", "random")


def shape_parents(kind: str, n: int, pick) -> list[int]:
    """The parents of vertices 2..n, 1-based, in a tree of the given shape;
    a random tree takes vertex i's parent from pick(i), one of 1..i-1."""
    if kind == "path":
        return list(range(1, n))
    if kind == "star":
        return [1] * (n - 1)
    if kind == "caterpillar":       # spine of about n/2, one leg per spine vertex
        s = n - n // 2
        return list(range(1, s)) + list(range(1, n - s + 1))
    if kind == "broom":             # handle of about n/2, bristles on its end
        h = n - n // 2
        return list(range(1, h)) + [h] * (n - h)
    return [pick(i) for i in range(2, n + 1)]


def shape_tree(rng: random.Random, kind: str, n: int, zero: bool = False):
    """A tree of the given shape on n vertices, with its edges listed in a
    shuffled order and each edge's endpoints in a random order.  Lengths,
    weights and service times are integers in 1..5; with zero=True about a
    third of the lengths and weights are 0 instead."""
    parents = shape_parents(kind, n, lambda i: rng.randint(1, i - 1))
    edges = [(p, v) if rng.random() < 0.5 else (v, p)
             for p, v in zip(parents, range(2, n + 1))]
    rng.shuffle(edges)

    def draw(count):
        return [0 if zero and rng.random() < 1 / 3 else rng.randint(1, 5)
                for _ in range(count)]

    t = [rng.randint(1, 5) for _ in range(n)]
    return build_tree(n, edges, draw(n - 1), draw(n), t)


def relabelled(rng: random.Random, tree: WeightedTree) -> WeightedTree:
    """The same tree with its vertex ids permuted at random."""
    perm = np.array(rng.sample(range(tree.n), tree.n))     # old id -> new id
    inv = np.argsort(perm)
    return WeightedTree(tree.n, perm[tree.eu], perm[tree.ev], tree.length,
                        tree.w[inv], tree.t[inv])


def reference_family() -> list[WeightedTree]:
    """The 200-tree reference family, then a relabelled copy of each."""
    rng = random.Random(20240817)
    family = [random_int_tree(rng, rng.randint(3, 12)) for _ in range(200)]
    return family + [relabelled(rng, tree) for tree in family]


def count_rows(monkeypatch, module, name: str) -> list[int]:
    """Rows of each call of module.name from now on, in call order, read
    from its second argument's first axis: the name is replaced in every
    treeloc module that bound it."""
    rows = []
    orig = getattr(module, name)

    def counted(tree, block, *args):
        rows.append(block.shape[0])
        return orig(tree, block, *args)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("treeloc") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return rows


def tour_walk(tree: WeightedTree) -> dict:
    """Every traversal array of a plain depth-first walk from vertex 0 by
    the tour's rule, made with an explicit stack so that depth costs
    nothing: a vertex lists the edges on which it is the smaller endpoint,
    then those on which it is the larger, each group in edge order, and
    leaves by the edge after the one it came in by.  Depths add an edge's
    length on the way down and subtract it on the way up, in walk order,
    as the tour sums them."""
    n = tree.n
    eu, ev, length = tree.eu.tolist(), tree.ev.tolist(), tree.length.tolist()
    nbrs = [[] for _ in range(n)]
    for e, (u, v) in enumerate(zip(eu, ev)):
        nbrs[u].append((v, e))
    for e, (u, v) in enumerate(zip(eu, ev)):
        nbrs[v].append((u, e))

    def leaving(x, came):
        k = 0 if came < 0 else [f for _, f in nbrs[x]].index(came) + 1
        return iter([(y, f) for y, f in nbrs[x][k:] + nbrs[x][:k] if f != came])

    tin, pdep, plen, up, end = [0] * n, [0.0] * n, [0.0] * n, [0] * n, [n] * n
    below = [0] * (n - 1)
    order, depth = [0], 0.0
    stack = [(0, -1, leaving(0, -1))]
    while stack:
        x, came, rest = stack[-1]
        step = next(rest, None)
        if step is None:
            stack.pop()
            end[tin[x]] = len(order)
            if came >= 0:
                depth -= length[came]
            continue
        y, f = step
        # a cumulative sum starts at its first term, not at 0.0 plus it:
        # the two differ when that term is -0.0
        depth = depth + length[f] if len(order) > 1 else length[f]
        i = tin[y] = len(order)
        order.append(y)
        pdep[i], plen[i], up[i], below[f] = depth, length[f], tin[x], i
        stack.append((y, f, leaving(y, f)))
    return dict(preorder=np.array(order), tin=np.array(tin), end=np.array(end),
                pdep=np.array(pdep), plen=np.array(plen), up=np.array(up),
                below=np.array(below, dtype=np.int64))


TRAVERSAL = ("preorder", "tin", "end", "pdep", "plen", "up", "below")


def assert_same_arrays(got: dict, want: dict) -> None:
    """Both dicts hold the seven traversal arrays, equal bit for bit: by
    dtype and bytes, so that -0.0 differs from 0.0."""
    assert sorted(got) == sorted(want) == sorted(TRAVERSAL)
    for name in TRAVERSAL:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name


def traversal_arrays(tree: WeightedTree) -> dict:
    return {name: getattr(tree, name) for name in TRAVERSAL}


def assert_traversal_is_the_walk(tree: WeightedTree) -> None:
    """Every traversal array of the tree equals tour_walk's, bit for bit."""
    assert_same_arrays(traversal_arrays(tree), tour_walk(tree))


def walk_positions(succ: np.ndarray) -> np.ndarray | None:
    """Each element's position on the walk from element 0 along succ, or
    None when the walk comes back to 0 before it reaches every element."""
    pos = np.full(succ.size, -1)
    x = 0
    for i in range(succ.size):
        if pos[x] >= 0:
            return None
        pos[x], x = i, succ[x]
    return pos
