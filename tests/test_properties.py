"""Derandomized property tests of the cached traversal: every traversal
array equals the reference walk's, bit for bit, on trees drawn by shape,
size, edge order, endpoint order, vertex ids and lengths; the list
ranking kernel places every element of a drawn list, at every stride; and
on small integer trees the median and cubic maxian solves equal their
brute-force oracles, and the linear maxian never beats the cubic one."""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import treeloc.tree as tree_module
from treeloc import (SolverConfig, WeightedTree, brute_2maxian, brute_2median,
                     solve_balanced_2maxian_cubic, solve_balanced_2maxian_linear,
                     solve_balanced_2median)

from conftest import SHAPES, assert_traversal_is_the_walk, shape_parents, walk_positions

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def trees(draw, sizes=st.integers(1, 40),
          lengths=st.floats(0.0, 100.0) | st.sampled_from([-0.0, 1.0, 2.0, 3.0]),
          weights=None, services=None):
    """A tree of a drawn shape and size, its edges shuffled, endpoints
    flipped and ids relabelled, with values drawn from the given
    strategies; weights and service times are 1 when none is given."""
    kind = draw(st.sampled_from(SHAPES))
    n = draw(sizes)
    parents = shape_parents(kind, n, lambda i: draw(st.integers(1, i - 1)))
    flips = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    order = draw(st.permutations(range(n - 1)))
    ids = np.array(draw(st.permutations(range(n))))

    def column(values, count):
        if values is None:
            return np.ones(count)
        return np.array(draw(st.lists(values, min_size=count, max_size=count)), dtype=float)

    length = column(lengths, n - 1)
    child = np.arange(1, n)
    parent = np.array(parents, dtype=np.int64) - 1
    flip = np.array(flips, dtype=bool)
    eu = np.where(flip, child, parent)[order]
    ev = np.where(flip, parent, child)[order]
    return WeightedTree(n, ids[eu], ids[ev], length[order], column(weights, n),
                        column(services, n))


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


SOLVES = settings(PROPERTY, max_examples=150)
LAMBDAS = st.sampled_from([k / 10 for k in range(11)])


def int_trees(min_length=0):
    """Trees on 2..10 vertices with integer lengths in min_length..5,
    weights in 0..5 and service times in 1..5: zeros and exact ties are
    common."""
    return trees(st.integers(2, 10), st.integers(min_length, 5), st.integers(0, 5),
                 st.integers(1, 5))


def _same(sol, ref):
    return (sol.deleted_edge, sol.facilities, sol.objective) == \
        (ref.deleted_edge, ref.facilities, ref.objective)


@SOLVES
@given(int_trees(), LAMBDAS)
def test_median_equals_brute(tree, lam):
    cfg = SolverConfig(lam)
    assert _same(solve_balanced_2median(cfg, tree), brute_2median(cfg, tree))


@SOLVES
@given(int_trees(), LAMBDAS)
def test_cubic_maxian_equals_brute(tree, lam):
    cfg = SolverConfig(lam)
    assert _same(solve_balanced_2maxian_cubic(cfg, tree), brute_2maxian(cfg, tree))


@SOLVES
@given(int_trees(min_length=1), LAMBDAS)
def test_linear_maxian_never_beats_cubic(tree, lam):
    """The diameter endpoints are the paper's heuristic: never better than
    the exact cubic optimum, and equal to it at lambda = 1."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # positive lengths: no fallback
        lin = solve_balanced_2maxian_linear(SolverConfig(lam), tree).objective
        lin_1 = solve_balanced_2maxian_linear(SolverConfig(1.0), tree).objective
    assert lin <= solve_balanced_2maxian_cubic(SolverConfig(lam), tree).objective
    assert lin_1 == solve_balanced_2maxian_cubic(SolverConfig(1.0), tree).objective
