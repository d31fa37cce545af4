import random

import numpy as np
import pytest

from treeloc import (PreconditionError, TreeParseError, WeightedTree,
                     all_pairs_dist, build_tree, compress_onto_path, diameter,
                     dist, one_median, parse_tree, path_between, render_tree,
                     split_by_edge)
from treeloc.tree import dist_sums, distances

from conftest import SHAPES, random_int_tree, shape_tree


def test_parse_t6_fixture(t6):
    assert t6.n == 6
    assert t6.Z == 6.0
    assert t6.edge_tuple(0) == (1, 2)
    assert t6.edge_tuple(2) == (3, 4)
    assert list(t6.deg) == [1, 2, 2, 3, 1, 1]
    assert np.all(t6.z == t6.w * t6.t)


def test_parse_single_vertex():
    tree = parse_tree("1\n1 1 1\n")
    assert tree.n == 1
    assert tree.Z == 1.0
    tree = parse_tree("1\n")
    assert tree.n == 1


def test_parse_defaults_weights_to_one():
    tree = parse_tree("3\n1 2 2\n2 3 1\n")
    assert list(tree.w) == [1, 1, 1]
    assert list(tree.t) == [1, 1, 1]


def test_parse_normalizes_endpoint_order():
    tree = parse_tree("3\n3 1 2\n3 2 1\n")
    assert tree.edge_tuple(0) == (1, 3)
    assert tree.edge_tuple(1) == (2, 3)


def test_parse_skips_comments_and_blanks():
    text = "# header\n\n3\n1 2 1\n\n# mid\n2 3 1\n"
    assert parse_tree(text).n == 3


def test_parse_errors_name_the_line():
    with pytest.raises(TreeParseError, match="line 3"):
        parse_tree("3\n1 2 1\nbroken\n")
    with pytest.raises(TreeParseError, match="line 4"):
        # a comment shifts the edge lines down but not the reported number
        parse_tree("# top\n3\n1 2 1\n2 9 1\n")


@pytest.mark.parametrize("text,frag", [
    ("x\n", "vertex count"),
    ("0\n", "at least 1"),
    ("3\n1 2 1\n", "edge lines"),
    ("3\n1 2 1\n1 1 1\n", "self-loop"),
    ("3\n1 2 1\n2 1 1\n", "duplicate edge"),
    ("3\n1 2 1\n2 4 1\n", "out of range"),
    ("3\n1 2 1\n2 3 -1\n", "non-negative"),
    ("4\n1 2 1\n2 3 1\n1 3 1\n", "connect"),
    # a cycle beside a path, either one holding vertex 1, and an isolated
    # vertex 1; the last edge set is two triangles at vertex 1 whose arcs
    # interleave around it, so the tour from vertex 1 runs through every
    # arc and only the isolated vertices 6 and 7 show it is not a tree
    ("6\n1 2 1\n2 3 1\n1 3 1\n4 5 1\n5 6 1\n", "does not connect all vertices"),
    ("6\n4 5 1\n5 6 1\n4 6 1\n1 2 1\n2 3 1\n", "does not connect all vertices"),
    ("4\n4 2 1\n2 3 1\n4 3 1\n", "does not connect all vertices"),
    ("7\n1 2 1\n1 4 1\n1 3 1\n1 5 1\n2 3 1\n4 5 1\n", "does not connect all vertices"),
    ("3\n1 2 1\n2 3 1\n1 1 1\n", "vertex lines"),
    ("3\n1 2 1\n2 3 1\n1 1 1\n1 2 1\n3 1 1\n", "twice"),
    ("3\n1 2 1\n2 3 1\n1 -1 1\n2 1 1\n3 1 1\n", "non-negative"),
    ("", "empty"),
])
def test_parse_rejects_malformed(text, frag):
    with pytest.raises(TreeParseError, match=frag):
        parse_tree(text)


def test_render_parse_round_trip(t6):
    text = render_tree(t6)
    assert render_tree(parse_tree(text)) == text


def test_round_trip_random_trees():
    rng = random.Random(90)
    for _ in range(25):
        tree = random_int_tree(rng, rng.randint(1, 20))
        text = render_tree(tree)
        again = parse_tree(text)
        assert render_tree(again) == text
        assert again.n == tree.n


def test_constructor_validates_shapes():
    with pytest.raises(PreconditionError):
        WeightedTree(3, np.array([0]), np.array([1]), np.array([1.0]),
                     np.ones(3), np.ones(3))
    with pytest.raises(PreconditionError):
        WeightedTree(0, np.array([]), np.array([]), np.array([]),
                     np.array([]), np.array([]))


def test_arrays_are_read_only(t6):
    with pytest.raises(ValueError):
        t6.w[0] = 9.0
    with pytest.raises(ValueError):
        t6.length[0] = 9.0


def test_dist(t6):
    assert dist(t6, 1, 5) == 5.0
    assert dist(t6, 5, 6) == 2.0
    assert dist(t6, 4, 4) == 0.0
    with pytest.raises(PreconditionError):
        dist(t6, 0, 5)


def test_path_between(t6):
    p = path_between(t6, 1, 5)
    assert list(p.vertices) == [1, 2, 3, 4, 5]
    assert list(p.edges) == [0, 1, 2, 3]
    assert list(p.prefix) == [0.0, 1.0, 3.0, 4.0, 5.0]
    assert p.total_length == 5.0
    back = path_between(t6, 5, 1)
    assert list(back.vertices) == [5, 4, 3, 2, 1]


def test_path_between_checks_vertex_ids():
    # id 0 would wrap around to the last vertex, id 5 would index past the end
    tree = build_tree(4, [(1, 2), (2, 3), (3, 4)])
    for a, b in ((0, 3), (1, 5), (3, 0), (5, 1)):
        with pytest.raises(PreconditionError, match="vertex id out of range"):
            path_between(tree, a, b)


def test_diameter_t6(t6):
    d = diameter(t6)
    assert list(d.vertices) == [1, 2, 3, 4, 5]
    assert d.total_length == 5.0


def test_diameter_starts_at_smaller_endpoint():
    tree = build_tree(5, [(3, 1), (3, 2), (3, 4), (3, 5)],
                      lengths=[2.0, 1.0, 2.0, 1.0])
    d = diameter(tree)
    assert d.vertices[0] == 1
    assert d.vertices[-1] == 4
    assert d.total_length == 4.0


def test_diameter_tie_breaks_to_smallest_pair():
    # star with four equal arms: all leaf pairs have distance 2
    tree = build_tree(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    d = diameter(tree)
    assert list(d.vertices) == [2, 1, 3]


def test_split_by_edge(t6):
    bip = split_by_edge(t6, 2)
    assert list(bip.side_a) == [1, 2, 3]
    assert list(bip.side_b) == [4, 5, 6]
    assert bip.w_a == 3.0 and bip.w_b == 3.0
    assert bip.z_a == 3.0 and bip.z_b == 3.0
    bip = split_by_edge(t6, 0)
    assert list(bip.side_a) == [1]
    assert bip.z_a == 1.0 and bip.z_b == 5.0
    with pytest.raises(PreconditionError):
        split_by_edge(t6, 5)


def test_split_sides_partition_everything():
    rng = random.Random(17)
    for _ in range(20):
        tree = random_int_tree(rng, rng.randint(2, 25))
        e = rng.randrange(tree.n - 1)
        bip = split_by_edge(tree, e)
        both = sorted(list(bip.side_a) + list(bip.side_b))
        assert both == list(range(1, tree.n + 1))
        assert bip.z_a + bip.z_b == tree.Z


def test_compress_onto_path_t6b(t6b):
    cp = compress_onto_path(t6b, diameter(t6b))
    assert list(cp.w_hat) == [1, 1, 1, 2, 1]
    assert list(cp.z_hat) == [1, 1, 1, 2, 1]
    assert cp.hang_offset == 1.0
    assert cp.W == 6.0 and cp.Z == 6.0


def test_compress_pivot_on_unit_path():
    tree = build_tree(4, [(1, 2), (2, 3), (3, 4)])
    cp = compress_onto_path(tree, path_between(tree, 1, 4))
    assert cp.hang_offset == 0.0


def test_compress_mass_is_conserved():
    rng = random.Random(33)
    for _ in range(20):
        tree = random_int_tree(rng, rng.randint(2, 25))
        cp = compress_onto_path(tree, diameter(tree))
        assert cp.W == float(tree.w.sum())
        assert cp.Z == tree.Z


def _kernel_cases():
    """Every shape at n = 1, 2 and up to 16 vertices, with and without
    zero-length edges, edges and endpoints shuffled."""
    rng = random.Random(5150)
    for kind in SHAPES:
        for n in (1, 2, 3, 5, 9, 16):
            for zero in (False, True):
                yield shape_tree(rng, kind, n, zero)


def test_depth_and_distances_match_all_pairs_oracle():
    rng = random.Random(8)
    for tree in _kernel_cases():
        D = all_pairs_dist(tree)
        assert np.array_equal(tree.dep, D[0])
        assert np.array_equal(distances(tree, np.arange(tree.n)), D)
        # distance sums of a block of weight rows, in preorder positions
        W = np.array([[rng.randint(0, 5) for _ in range(tree.n)] for _ in range(3)], dtype=float)
        S, sub = dist_sums(tree, W[:, tree.preorder])
        assert np.array_equal(S[:, tree.tin], W @ D)
        assert np.array_equal(sub[:, 0], W.sum(axis=1))


def test_intervals_nest_and_match_parent():
    for tree in _kernel_cases():
        n = tree.n
        tin, tout, parent = tree.tin, tree.tout, tree.parent
        assert tree.preorder[0] == 0 and parent[0] == -1 and tree.pedge[0] == -1
        assert np.array_equal(tree.preorder[tin], np.arange(n))
        assert tin[0] == 0 and tout[0] == n
        size = np.ones(n, dtype=np.int64)
        for v in range(1, n):
            p = parent[v]
            e = tree.pedge[v]
            assert {int(tree.eu[e]), int(tree.ev[e])} == {v, int(p)}
            assert tin[p] < tin[v] < tout[v] <= tout[p]
            a = p
            while a != -1:         # every ancestor's interval holds v
                size[a] += 1
                a = parent[a]
        assert np.array_equal(tout - tin, size)
        # intervals nest or are disjoint: the vertices inside v's interval
        # are exactly those with v on their root path
        for v in range(n):
            inside = (tin >= tin[v]) & (tin < tout[v])
            assert np.count_nonzero(inside) == size[v]


@pytest.mark.parametrize("kind", SHAPES)
def test_traversal_agrees_with_scipy(kind):
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    n = 10_000
    tree = shape_tree(random.Random(77), kind, n)
    u = np.concatenate([tree.eu, tree.ev])
    v = np.concatenate([tree.ev, tree.eu])
    graph = sparse.csr_matrix((np.concatenate([tree.length] * 2), (u, v)),
                              shape=(n, n))
    order, pred = csgraph.depth_first_order(graph, 0, directed=False)
    assert order.size == n
    assert np.array_equal(np.where(pred < 0, -1, pred), tree.parent)
    size = np.ones(n, dtype=np.int64)
    for x in order[:0:-1]:
        size[pred[x]] += size[x]
    assert np.array_equal(tree.tout - tree.tin, size)
    src = [0, 1234, n - 1]
    far = csgraph.dijkstra(graph, directed=False, indices=src)
    assert np.array_equal(far[0], tree.dep)
    assert np.array_equal(far, distances(tree, src))


def test_one_median_rejects_disconnected_side_on_every_shape():
    rng = random.Random(12)
    for kind in SHAPES:
        tree = shape_tree(rng, kind, 9)
        leaves = np.flatnonzero(tree.deg == 1) + 1
        with pytest.raises(PreconditionError, match="connected"):
            one_median(tree, side=leaves[:2])
        assert one_median(tree, side=leaves[:1])[0] == leaves[0]
