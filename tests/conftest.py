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


def shape_tree(rng: random.Random, kind: str, n: int, zero: bool = False):
    """A tree of the given shape on n vertices, with its edges listed in a
    shuffled order and each edge's endpoints in a random order.  Lengths,
    weights and service times are integers in 1..5; with zero=True about a
    third of the lengths and weights are 0 instead."""
    if kind == "path":
        parents = list(range(1, n))
    elif kind == "star":
        parents = [1] * (n - 1)
    elif kind == "caterpillar":     # spine of about n/2, one leg per spine vertex
        s = n - n // 2
        parents = list(range(1, s)) + list(range(1, n - s + 1))
    elif kind == "broom":           # handle of about n/2, bristles on its end
        h = n - n // 2
        parents = list(range(1, h)) + [h] * (n - h)
    else:
        parents = [rng.randint(1, i - 1) for i in range(2, n + 1)]
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
