"""Derandomized property tests of the cached traversal: every traversal
array equals the reference walk's, bit for bit, on trees drawn by shape,
size, edge order, endpoint order, vertex ids and lengths; and the list
ranking kernel places every element of a drawn list, at every stride."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import treeloc.tree as tree_module
from treeloc import WeightedTree

from conftest import SHAPES, assert_traversal_is_the_walk, shape_parents, walk_positions

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def trees(draw):
    kind = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(1, 40))
    parents = shape_parents(kind, n, lambda i: draw(st.integers(1, i - 1)))
    flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    order = draw(st.permutations(range(n - 1)))
    ids = np.array(draw(st.permutations(range(n))))
    length = draw(st.lists(st.floats(0.0, 100.0) | st.sampled_from([-0.0, 1.0, 2.0, 3.0]),
                           min_size=n - 1, max_size=n - 1))
    child = np.arange(1, n)
    parent = np.array(parents, dtype=np.int64) - 1
    flip = np.array(flips, dtype=bool)
    eu = np.where(flip, child, parent)[order]
    ev = np.where(flip, parent, child)[order]
    return WeightedTree(n, ids[eu], ids[ev], np.array(length)[order], np.ones(n), np.ones(n))


@PROPERTY
@given(trees())
def test_traversal_is_the_walk(tree):
    assert_traversal_is_the_walk(tree)


@st.composite
def lists(draw):
    """A permutation of range(m): one cycle through 0 (a list), or any."""
    m = draw(st.integers(1, 200))
    order = draw(st.permutations(range(m)))
    succ = np.empty(m, dtype=np.int32)
    if draw(st.booleans()):
        order = np.array([0] + [x for x in order if x != 0])
        succ[order] = np.roll(order, -1)
    else:
        succ[:] = order
    return succ


@PROPERTY
@given(lists(), st.integers(1, 9))
def test_list_positions(succ, k):
    want, got = walk_positions(succ), tree_module._list_positions(succ, k)
    assert got is None if want is None else np.array_equal(got, want)
