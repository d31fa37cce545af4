import hashlib
import random
import time

import numpy as np
import pytest

from treeloc import (GenSpec, PathDescriptor, PreconditionError, TreeParseError,
                     WeightedTree, all_pairs_dist, build_tree, compress_onto_path,
                     diameter, dist, gen_random_tree, one_median, parse_tree,
                     path_between, render_tree, split_by_edge)
import treeloc.tree as tree_module
from treeloc.tree import dist_sums, distances

from conftest import (SHAPES, assert_traversal_is_the_walk, random_int_tree, relabelled,
                      shape_tree, tour_walk, walk_positions)

nan, inf = float("nan"), float("inf")


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


# The parse outcome of each text, pinned from the line-at-a-time parser:
# the full error text, or the parsed (eu, ev, length, w, t) bit for bit.
# The texts cover every fault kind, faults whose precedence must hold (the
# first faulty line in file order, edge lines before the vertex-line count,
# a duplicate edge before any later fault) and tokens where another
# tokenizer could diverge from str.splitlines, str.split, int and float.
PARSE_PINS = [
    ('',
     'empty tree description'),
    ('# only a comment\n\n   \n',
     'empty tree description'),
    ('x\n',
     "line 1: expected vertex count, got 'x'"),
    ('3 4\n',
     "line 1: expected vertex count, got '3 4'"),
    ('0\n',
     'line 1: vertex count must be at least 1, got 0'),
    ('-2\n',
     'line 1: vertex count must be at least 1, got -2'),
    ('3\n1 2 1\n',
     'expected 2 edge lines, found 1'),
    ('3\n1 2\n2 3 1\n',
     "line 2: expected 'u v length', got '1 2'"),
    ('3\n1 2 1 4\n2 3 1\n',
     "line 2: expected 'u v length', got '1 2 1 4'"),
    ('3\n1 a 1\n2 3 1\n',
     "line 2: expected 'u v length', got '1 a 1'"),
    ('3\n1 2 x\n2 3 1\n',
     "line 2: expected 'u v length', got '1 2 x'"),
    ('3\n1 2 1\n2 4 1\n',
     'line 3: vertex id out of range 1..3'),
    ('3\n0 2 1\n2 3 1\n',
     'line 2: vertex id out of range 1..3'),
    ('3\n1 2 1\n1 1 1\n',
     'line 3: self-loop edge'),
    ('3\n1 2 1\n2 3 -1\n',
     'line 3: edge length must be finite and non-negative'),
    ('3\n1 2 nan\n2 3 1\n',
     'line 2: edge length must be finite and non-negative'),
    ('3\n1 2 inf\n2 3 1\n',
     'line 2: edge length must be finite and non-negative'),
    ('3\n1 2 1e400\n2 3 1\n',
     'line 2: edge length must be finite and non-negative'),
    ('3\n1 2 1\n2 1 1\n',
     'line 3: duplicate edge (1,2)'),
    ('3\n1 2 1\n2 3 1\n1 1 1\n',
     'expected 3 vertex lines or none, found 1'),
    ('3\n1 2 1\n2 3 1\n1 1 1\n2 1\n3 1 1\n',
     "line 5: expected 'id weight service', got '2 1'"),
    ('3\n1 2 1\n2 3 1\n1 1 1\n2 x 1\n3 1 1\n',
     "line 5: expected 'id weight service', got '2 x 1'"),
    ('3\n1 2 1\n2 3 1\n1 1 1\n4 1 1\n3 1 1\n',
     'line 5: vertex id out of range 1..3'),
    ('3\n1 2 1\n2 3 1\n1 1 1\n0 1 1\n3 1 1\n',
     'line 5: vertex id out of range 1..3'),
    ('3\n1 2 1\n2 3 1\n1 1 1\n1 2 1\n3 1 1\n',
     'line 5: vertex 1 listed twice'),
    ('3\n1 2 1\n2 3 1\n1 1 1\n2 -1 1\n3 1 1\n',
     'line 5: weight and service must be finite and non-negative'),
    ('3\n1 2 1\n2 3 1\n1 1 1\n2 1 nan\n3 1 1\n',
     'line 5: weight and service must be finite and non-negative'),
    ('3\n1 2 1\n2 3 1\n1 1 1\n2 inf 1\n3 1 1\n',
     'line 5: weight and service must be finite and non-negative'),
    ('4\n1 2 1\n2 3 1\n1 3 1\n',
     'edge list does not connect all vertices'),
    ('4\n1 2 1\n2 1 1\n3 4 -1\n',
     'line 3: duplicate edge (1,2)'),
    ('4\n1 2 1\n3 4 -1\n2 1 1\n',
     'line 3: edge length must be finite and non-negative'),
    ('3\n1 2 1\n2 1 1\n1 x 1\n2 1 1\n3 1 1\n',
     'line 3: duplicate edge (1,2)'),
    ('3\n1 2 1\n2 x 1\n1 1 1\n',
     "line 3: expected 'u v length', got '2 x 1'"),
    ('3\n1 2 1\n2 3 1\n1 x 1\n2 1 1\n',
     'expected 3 vertex lines or none, found 2'),
    ('5\n1 2 1\n2 3 1\n1 3 1\n4 5 1\n',
     'edge list does not connect all vertices'),
    ('5\n1 2 1\n2 3 1\n1 3 1\n4 5 1\n1 1 1\n2 1 1\n3 1 1\n4 1 1\n5 -1 1\n',
     'line 10: weight and service must be finite and non-negative'),
    ('3\n1 2 1\n2 3 1\n1 1 1\n1 1 1\n3 -1 1\n',
     'line 5: vertex 1 listed twice'),
    ('3\n1 2 1\n2 3 1\n1 1 1\n9 1 1\n2 -1 1\n',
     'line 5: vertex id out of range 1..3'),
    ('3\r\n1 2 1.5\r\n2 3 1\r\n1 2 3\r\n2 4 5\r\n3 6 7\r\n',
     ([0, 1], [1, 2], [1.5, 1.0], [2.0, 4.0, 6.0], [3.0, 5.0, 7.0])),
    ('3\r\n1 2 1\r\n\r\n2 3 x\r\n',
     "line 4: expected 'u v length', got '2 3 x'"),
    ('3\n1\t2\t1\n\t2 3\t1 \n',
     ([0, 1], [1, 2], [1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])),
    ('3\n1 2 1\x0c2 3 1\n',
     ([0, 1], [1, 2], [1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])),
    ('3\n1 2 1\x0c2 3 y\n',
     "line 3: expected 'u v length', got '2 3 y'"),
    ('3\n1 2 1\u20282 3 1\n',
     ([0, 1], [1, 2], [1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])),
    ('3\n1 2 1\u2028\u20282 3 z\n',
     "line 4: expected 'u v length', got '2 3 z'"),
    ('3\n+1 2 1\n2 +3 +1.5\n',
     ([0, 1], [1, 2], [1.0, 1.5], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])),
    ('3\n1 2 1_0\n2 0_3 2_5.5\n',
     ([0, 1], [1, 2], [10.0, 25.5], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])),
    ('3\n1 3.0 1\n2 3 1\n',
     "line 2: expected 'u v length', got '1 3.0 1'"),
    ('3\n1 2 1e3\n2 3 1E-3\n',
     ([0, 1], [1, 2], [1000.0, 0.001], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])),
    ('3\n1 1e0 1\n2 3 1\n',
     "line 2: expected 'u v length', got '1 1e0 1'"),
    ('3\n1 2 1\n2 3 1\n1 1 1\n2.0 1 1\n3 1 1\n',
     "line 5: expected 'id weight service', got '2.0 1 1'"),
    ('3\n1 2 1\n2 3 1\n1e0 1 1\n2 1 1\n3 1 1\n',
     "line 4: expected 'id weight service', got '1e0 1 1'"),
    ('3\n1 2 -0\n2 3 -0.0\n1 -0 0\n2 1 -0\n3 0 0\n',
     ([0, 1], [1, 2], [-0.0, -0.0], [-0.0, 1.0, 0.0], [0.0, -0.0, 0.0])),
    ('3\n-0 2 1\n2 3 1\n',
     'line 2: vertex id out of range 1..3'),
    ('3\n1 99999999999999999999 1\n2 3 1\n',
     'line 2: vertex id out of range 1..3'),
    ('3\n1 2 1\n2 3 1\n99999999999999999999 1 1\n2 1 1\n3 1 1\n',
     'line 4: vertex id out of range 1..3'),
    ('99999999999999999999\n1 2 1\n',
     'expected 99999999999999999998 edge lines, found 1'),
    ('\ufeff3\n1 2 1\n2 3 1\n',
     "line 1: expected vertex count, got '\\ufeff3'"),
    ('3\n\ufeff1 2 1\n2 3 1\n',
     "line 2: expected 'u v length', got '\\ufeff1 2 1'"),
    ('3\n1 2 1\n2 3 1\n1 \ufeff1 1\n2 1 1\n3 1 1\n',
     "line 4: expected 'id weight service', got '1 \\ufeff1 1'"),
    ('3\n1 2 0x1\n2 3 1\n',
     "line 2: expected 'u v length', got '1 2 0x1'"),
    ('3\n1 2 1\n2 3 1\n3 1 1\n1 2.5 0.1\n2 Infinity 1\n',
     'line 6: weight and service must be finite and non-negative'),
    ('3\n١ 2 1\n2 3 1\n',
     ([0, 1], [1, 2], [1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])),
    ('1\n',
     ([], [], [], [1.0], [1.0])),
    ('1\n1 0 0\n',
     ([], [], [], [0.0], [0.0])),
    ('1\n1 0\n',
     "line 2: expected 'id weight service', got '1 0'"),
    ('2\n2 1 0\n2 7 0.25\n1 5e-324 1.7976931348623157e308\n',
     ([0], [1], [0.0], [5e-324, 7.0], [1.7976931348623157e+308, 0.25])),
]


@pytest.mark.parametrize("text,want", PARSE_PINS,
                         ids=[f"case{k}" for k in range(len(PARSE_PINS))])
def test_parse_pins(text, want):
    if isinstance(want, str):
        with pytest.raises(TreeParseError) as err:
            parse_tree(text)
        assert str(err.value) == want
        return
    tree = parse_tree(text)
    for arr, exp in zip((tree.eu, tree.ev, tree.length, tree.w, tree.t), want):
        assert arr.tobytes() == np.asarray(exp, dtype=arr.dtype).tobytes()


@pytest.mark.parametrize("line,value,want", [
    (20000, "-1", "line 20000: edge length must be finite and non-negative"),
    (40000, "nan", "line 40000: weight and service must be finite and non-negative"),
])
def test_parse_names_a_late_line(line, value, want):
    lines = render_tree(gen_random_tree(GenSpec(20000, 3))).splitlines()
    assert len(lines) == 40000
    lines[line - 1] = lines[line - 1].rsplit(" ", 1)[0] + " " + value
    with pytest.raises(TreeParseError) as err:
        parse_tree("\n".join(lines) + "\n")
    assert str(err.value) == want


@pytest.mark.parametrize("n,edges,data,want", [
    # a duplicate edge is named before any later fault
    (3, [(1, 2), (2, 1)], dict(lengths=[1.0, -1.0]), "duplicate edge"),
    (3, [(1, 2), (2, 1)], dict(w=[1.0, float("nan"), 1.0]), "duplicate edge"),
    (3, [(1, 2), (2, 1)], {}, "duplicate edge"),
    (3, [(1, 2), (2, 3)], dict(lengths=[1.0, -1.0]), "negative length value"),
    (3, [(1, 2), (2, 3)], dict(t=[1.0, float("inf"), 1.0]), "non-finite t value"),
    (4, [(1, 2), (2, 3), (1, 3)], dict(w=[1.0, -1.0, 1.0, 1.0]), "negative w value"),
    (4, [(1, 2), (2, 3), (1, 3)], {}, "edge list does not connect all vertices"),
    (3, [(1, 2), (2, 2)], dict(lengths=[1.0, -1.0]), "self-loop edge"),
    (3, [(1, 2), (2, 4)], dict(lengths=[1.0, -1.0]), "edge endpoint out of range"),
    # within one array a non-finite value is named before a negative one,
    # and the arrays are named in the order length, w, t
    (3, [(1, 2), (2, 3)], dict(lengths=[nan, -1.0]), "non-finite length value"),
    (3, [(1, 2), (2, 3)], dict(lengths=[-1.0, nan]), "non-finite length value"),
    (3, [(1, 2), (2, 3)], dict(lengths=[1.0, -1.0], w=[nan, 1.0, 1.0]), "negative length value"),
    (3, [(1, 2), (2, 3)], dict(w=[1.0, -inf, 1.0]), "non-finite w value"),
    (3, [(1, 2), (2, 3)], dict(w=[1.0, -1.0, 1.0], t=[nan, 1.0, 1.0]), "negative w value"),
    (1, [], dict(w=[nan]), "non-finite w value"),
    (1, [], dict(t=[-1.0]), "negative t value"),
    # accepted: a negative zero is not negative, and the value check sums
    # nothing, so the largest values do not overflow it
    (3, [(1, 2), (2, 3)], dict(lengths=[-0.0, -0.0], w=[-0.0] * 3, t=[-0.0] * 3), None),
    (3, [(1, 2), (1, 3)], dict(lengths=[1e308, 1e308], w=[1e308] * 3), None),
    # endpoints must be integers, checked before the cast to int64 that
    # would truncate them; a non-finite one is named before a fractional one
    (3, [(1, 2), (1.5, 3)], {}, "non-integer edge endpoint"),
    (3, [(1, 2.5), (1, nan)], {}, "non-finite edge endpoint"),
    (3, [(1, 2), (2, -inf)], dict(lengths=[1.0, -1.0]), "non-finite edge endpoint"),
    (2, [(True, False)], {}, "boolean edge endpoint"),
    (3, [(1, 2), (1e30, 3)], {}, "edge endpoint out of range"),
    (3, [(1.0, 2.0), (3.0, 2.0)], {}, None),
])
def test_constructor_fault_precedence(n, edges, data, want):
    if want is None:
        assert build_tree(n, edges, **data).n == n
        return
    with pytest.raises(TreeParseError) as err:
        build_tree(n, edges, **data)
    assert str(err.value) == want


@pytest.mark.parametrize("eu,ev,want", [
    ([0.7], [1.9], "non-integer edge endpoint"),
    ([True], [False], "boolean edge endpoint"),
    ([nan], [1], "non-finite edge endpoint"),
    ([0], [1 + 1j], "non-integer edge endpoint"),
    (np.array([0.7], dtype=object), np.array([1.9], dtype=object), "non-integer edge endpoint"),
    (np.array([True], dtype=object), [1], "boolean edge endpoint"),
    (np.array([0], dtype=object), np.array([1.0], dtype=object), None),
    ([0.0], [1.0], None),
    (np.array([0], dtype=np.uint8), np.array([1], dtype=np.float32), None),
    ([0], [1 + 0j], None),
    # a bool among ints, which numpy would cast to 1, in a list, a tuple or
    # an object column
    ([0, True], [1, 2], "boolean edge endpoint"),
    ([0, 1], (1, True), "boolean edge endpoint"),
    ([0, np.True_], [1, 2], "boolean edge endpoint"),
    (np.array([0, True], dtype=object), [1, 2], "boolean edge endpoint"),
    (np.array([0, np.False_], dtype=object), np.array([1, 2], dtype=object),
     "boolean edge endpoint"),
    ((0, 1), np.array([1, 2], dtype=object), None),
])
def test_constructor_checks_endpoints_before_the_cast(eu, ev, want):
    """Each row builds the path 0 - 1 - ... by WeightedTree, and by
    build_tree from the same values made 1-based (a bool stays a bool)."""
    n = len(eu) + 1

    def one_based(col):
        return [x if isinstance(x, (bool, np.bool_)) else x + 1 for x in col]

    for build in (lambda: WeightedTree(n, eu, ev, [1.0] * (n - 1), [1.0] * n, [1.0] * n),
                  lambda: build_tree(n, list(zip(one_based(eu), one_based(ev))))):
        if want is None:
            tree = build()
            assert tree.eu.tolist() == list(range(n - 1))
            assert tree.ev.tolist() == list(range(1, n))
            assert tree.eu.dtype == tree.ev.dtype == np.int64
            continue
        with pytest.raises(TreeParseError) as err:
            build()
        assert str(err.value) == want


def test_constructor_takes_empty_endpoints():
    for col in ([], np.array([]), np.zeros(0, dtype=np.int32)):
        assert WeightedTree(1, col, col, [], [1.0], [1.0]).eu.dtype == np.int64


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


def _assert_round_trip(tree):
    again = parse_tree(render_tree(tree))
    assert again.n == tree.n
    for name in ("eu", "ev", "length", "w", "t"):
        a, b = getattr(again, name), getattr(tree, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("seed", [1, 2])
def test_round_trip_is_bit_exact_on_gen_trees(seed):
    _assert_round_trip(gen_random_tree(GenSpec(20000, seed, weight_mode="uniform",
                                               service_mode="uniform")))


@pytest.mark.parametrize("kind", SHAPES)
def test_round_trip_is_bit_exact_on_shapes(kind):
    rng = random.Random(404)
    base = shape_tree(rng, kind, 300)
    n = base.n

    def draw(count):
        return [rng.random() * 10 ** rng.randint(-3, 3) for _ in range(count)]

    _assert_round_trip(WeightedTree(n, base.eu, base.ev, draw(n - 1), draw(n), draw(n)))


def test_round_trip_is_bit_exact_on_format_boundaries():
    # either side of the bare-integer rule (below 1e16), the largest
    # float64 integers, the smallest subnormal and the largest finite value
    vals = [0.1, 1e16 - 2, 1e16, 2.0 ** 53 + 2, 5e-324, 1.7976931348623157e308]
    n = len(vals) + 1
    tree = build_tree(n, [(k, k + 1) for k in range(1, n)], lengths=vals,
                      w=vals[::-1] + [0.0], t=[0.0] + vals)
    _assert_round_trip(tree)
    assert render_tree(tree).splitlines()[1:3] == ["1 2 0.1", "2 3 9999999999999998"]


@pytest.mark.parametrize("spec,digest", [
    (GenSpec(3000, 11),
     "f1a2f8a5dfa96bd80df785b83da8ee2545a747870f80278ebf40d5d26a7e114c"),
    (GenSpec(3000, 11, weight_mode="uniform", service_mode="uniform"),
     "8bbf723532b50a49bec21ef0cb1e0d09d09df3440fe2f735f929e7bd32e4f625"),
])
def test_render_text_is_pinned(spec, digest):
    text = render_tree(gen_random_tree(spec))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_constructor_validates_shapes():
    with pytest.raises(PreconditionError):
        WeightedTree(3, np.array([0]), np.array([1]), np.array([1.0]),
                     np.ones(3), np.ones(3))
    with pytest.raises(PreconditionError):
        WeightedTree(0, np.array([]), np.array([]), np.array([]),
                     np.array([]), np.array([]))


@pytest.mark.parametrize("length,w,t,want", [
    ([1.0], [1.0] * 3, [1.0] * 3, "length array must have one entry per edge"),
    ([1.0] * 3, [1.0] * 3, [1.0] * 3, "length array must have one entry per edge"),
    ([1.0] * 2, [1.0] * 2, [1.0] * 3, "w and t arrays must have one entry per vertex"),
    ([1.0] * 2, [1.0] * 3, [1.0] * 4, "w and t arrays must have one entry per vertex"),
])
def test_constructor_names_the_wrong_sized_array(length, w, t, want):
    with pytest.raises(PreconditionError) as err:
        WeightedTree(3, [0, 1], [1, 2], length, w, t)
    assert str(err.value) == want


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


@pytest.mark.parametrize("verts,want", [
    ([0, 1, 2], "path vertex out of range"),
    ([5, 6, 7], "path vertex out of range"),
    ([1, 2, 1], "path does not belong to the tree"),
    ([1, 3], "path does not belong to the tree"),
])
def test_compress_checks_the_path(t6, verts, want):
    m = len(verts)
    p = PathDescriptor(np.array(verts), np.zeros(m - 1, dtype=np.int64), np.zeros(m))
    with pytest.raises(PreconditionError) as err:
        compress_onto_path(t6, p)
    assert str(err.value) == want


def test_compress_mass_is_conserved():
    rng = random.Random(33)
    for _ in range(20):
        tree = random_int_tree(rng, rng.randint(2, 25))
        cp = compress_onto_path(tree, diameter(tree))
        assert cp.W == float(tree.w.sum())
        assert cp.Z == tree.Z


def test_fold_reads_the_hanging_distances_from_any_path_vertex():
    """The fold from any vertex q of a path equals compress_onto_path, which
    folds from the path's top: a vertex's distance to q is its distance to
    its anchor plus the anchor's to q.  The data are integers, so the
    hanging offset is exact."""
    rng = random.Random(1302)
    for kind in SHAPES:
        for n in (2, 3, 4, 7, 12, 40):
            for zero in (False, True):
                tree = shape_tree(rng, kind, n, zero)
                for t in (tree, relabelled(rng, tree)):
                    a, b = rng.randint(1, n), rng.randint(1, n)
                    for p in (diameter(t), path_between(t, a, b)):
                        cp = compress_onto_path(t, p)
                        for q in p.vertices - 1:
                            got = tree_module._fold_onto_path(t, p, distances(t, q)[0])
                            assert got.w_hat.tobytes() == cp.w_hat.tobytes()
                            assert got.z_hat.tobytes() == cp.z_hat.tobytes()
                            assert got.hang_offset == cp.hang_offset


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
        assert np.array_equal(tree.pdep[tree.tin], D[0])
        assert np.array_equal(distances(tree, np.arange(tree.n)), D)
        # distance sums of a block of weight rows, in preorder positions
        W = np.array([[rng.randint(0, 5) for _ in range(tree.n)] for _ in range(3)], dtype=float)
        S, sub = dist_sums(tree, W[:, tree.preorder])
        assert np.array_equal(S[:, tree.tin], W @ D)
        assert np.array_equal(sub[:, 0], W.sum(axis=1))


def test_intervals_nest_and_match_parent():
    for tree in _kernel_cases():
        n = tree.n
        pre, end, up = tree.preorder, tree.end, tree.up
        assert pre[0] == 0 and end[0] == n and up[0] == 0
        assert tree.pdep[0] == 0 and tree.plen[0] == 0
        assert np.array_equal(pre[tree.tin], np.arange(n))
        assert not any(a.flags.writeable for a in (pre, tree.tin, end, tree.pdep,
                                                   tree.plen, up, tree.low))
        # each edge is the parent edge of its lower end, one edge per position
        pedge = np.full(n, -1)
        pedge[tree.tin[tree.low]] = np.arange(n - 1)
        assert pedge[0] == -1 and np.all(pedge[1:] >= 0)
        size = np.ones(n, dtype=np.int64)
        below = np.eye(n, dtype=bool)      # below[i, j]: position i is on j's root path
        for j in range(1, n):
            i, e = int(up[j]), int(pedge[j])
            assert {int(tree.eu[e]), int(tree.ev[e])} == {int(pre[i]), int(pre[j])}
            assert tree.plen[j] == tree.length[e]
            assert tree.pdep[j] == tree.pdep[i] + tree.plen[j]
            assert i < j < end[j] <= end[i]
            while True:            # every ancestor's interval holds j
                size[i] += 1
                below[i, j] = True
                if i == 0:
                    break
                i = int(up[i])
        assert np.array_equal(end - np.arange(n), size)
        # intervals nest or are disjoint: the positions inside i's interval
        # are exactly those with i on their root path
        for i in range(n):
            assert np.array_equal(np.flatnonzero(below[i]), np.arange(i, end[i]))


def test_preorder_follows_the_tour_rule():
    # vertex 3 lists (3,4) before (2,3) and (1,3): not edge-list order
    tree = build_tree(4, [(2, 3), (1, 3), (3, 4)])
    assert (tree.preorder + 1).tolist() == [1, 3, 4, 2] == (tour_walk(tree)["preorder"] + 1).tolist()
    # relabelled, so that children also get smaller ids than their parents
    rng = random.Random(404)
    for _ in range(400):
        base = shape_tree(rng, rng.choice(SHAPES), rng.randint(1, 30))
        ids = rng.sample(range(1, base.n + 1), base.n)
        tree = build_tree(base.n, [(ids[u], ids[v]) for u, v in
                                   zip(base.eu.tolist(), base.ev.tolist())])
        assert_traversal_is_the_walk(tree)


@pytest.mark.parametrize("n", [10_000, 70_000])
@pytest.mark.parametrize("kind", ["path", "star", "random"])
def test_traversal_is_the_walk_on_large_trees(kind, n):
    # relabelled, with fractional lengths, past the ruling-set crossover of
    # 2^14 arcs; 70,000 vertices also need two radix passes to group arcs
    rng = random.Random(n + len(kind))
    tree = relabelled(rng, shape_tree(rng, kind, n))
    assert_traversal_is_the_walk(WeightedTree(n, tree.eu, tree.ev, tree.length / 7,
                                              tree.w, tree.t))


def test_list_positions_past_the_walk_cap(monkeypatch):
    """A list built against the splitter hash: 0, then every element that
    is not a splitter, then the other splitters.  The walk from 0 runs past
    its cap, and the ranking starts over by pointer jumping.  Cut into two
    cycles, the list is rejected."""
    m, k = 4096, 4
    hashed = np.arange(m, dtype=np.uint32) * np.uint32(0x9E3779B1) < (1 << 32) // k
    order = np.concatenate((np.flatnonzero(~hashed), np.flatnonzero(hashed)))
    order = np.concatenate(([0], order[order != 0]))
    succ = np.empty(m, dtype=np.int32)
    succ[order] = np.roll(order, -1)
    strides = []
    rank = tree_module._list_positions
    monkeypatch.setattr(tree_module, "_list_positions",
                        lambda s, k=None: strides.append(k) or rank(s, k))
    assert np.array_equal(tree_module._list_positions(succ, k), walk_positions(succ))
    assert strides == [k, 1]
    succ[order[m // 2 - 1]], succ[order[-1]] = 0, order[m // 2]
    assert tree_module._list_positions(succ, k) is None


def test_long_cycle_does_not_connect():
    """n - 1 edges and no isolated vertex: a cycle on 1e5 vertices beside a
    random tree on 2e4, relabelled and shuffled.  Its splitters never reach
    the tour's head, so it is rejected at about the cost of a construction
    (a cycle that holds no splitter is test_properties' list case)."""
    rng = np.random.default_rng(5)
    cycle, rest = 100_000, 20_000
    n = cycle + rest
    at = np.arange(cycle + 1, n)
    parent = at - 1 - (rng.random(rest - 1) * (at - cycle)).astype(np.int64)
    u = np.concatenate((np.arange(cycle), parent))
    v = np.concatenate(((np.arange(cycle) + 1) % cycle, at))
    perm, order = rng.permutation(n), rng.permutation(n - 1)
    start = time.perf_counter()
    with pytest.raises(TreeParseError, match="^edge list does not connect all vertices$"):
        WeightedTree(n, perm[u][order], perm[v][order], np.ones(n - 1), np.ones(n), np.ones(n))
    assert time.perf_counter() - start < 10.0
    # a large edge list with a duplicate is named for it
    eu, ev = np.arange(n - 1), np.arange(1, n)
    eu[n // 2], ev[n // 2] = ev[7], eu[7]
    with pytest.raises(TreeParseError, match="^duplicate edge$"):
        WeightedTree(n, eu, ev, np.ones(n - 1), np.ones(n), np.ones(n))


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
    pre = tree.preorder
    assert pred[0] < 0 and np.array_equal(pred[pre[1:]], pre[tree.up[1:]])
    size = np.ones(n, dtype=np.int64)
    for x in order[:0:-1]:
        size[pred[x]] += size[x]
    assert np.array_equal(tree.end - np.arange(n), size[pre])
    src = [0, 1234, n - 1]
    far = csgraph.dijkstra(graph, directed=False, indices=src)
    assert np.array_equal(far[0], tree.pdep[tree.tin])
    assert np.array_equal(far, distances(tree, src))


def test_one_median_rejects_disconnected_side_on_every_shape():
    rng = random.Random(12)
    for kind in SHAPES:
        tree = shape_tree(rng, kind, 9)
        leaves = np.flatnonzero(tree.deg == 1) + 1
        with pytest.raises(PreconditionError, match="connected"):
            one_median(tree, side=leaves[:2])
        assert one_median(tree, side=leaves[:1])[0] == leaves[0]
