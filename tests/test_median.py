import random
from fractions import Fraction

import pytest

from treeloc import (GenSpec, PreconditionError, SolverConfig, brute_2median,
                     build_tree, gen_random_tree, one_median,
                     solve_balanced_2median, split_by_edge)
from treeloc.median import median_cut_table

from conftest import SHAPES, random_int_tree, shape_tree


def test_one_median_whole_tree(t6):
    v, cost = one_median(t6)
    assert (v, cost) == (3, 10.0)


def test_one_median_restricted_sides(t6):
    bip = split_by_edge(t6, 2)
    assert one_median(t6, side=bip.side_a) == (2, 3.0)
    assert one_median(t6, side=bip.side_b) == (4, 2.0)


def test_one_median_tie_takes_smallest_id():
    tree = build_tree(2, [(1, 2)])
    assert one_median(tree) == (1, 1.0)


def test_one_median_weight_majority():
    # all weight at vertex 4 drags the median there
    tree = build_tree(4, [(1, 2), (2, 3), (3, 4)], w=[1, 1, 1, 10])
    assert one_median(tree) == (4, 6.0)


def test_one_median_validates_side(t6):
    with pytest.raises(PreconditionError):
        one_median(t6, side=[])
    with pytest.raises(PreconditionError):
        one_median(t6, side=[1, 9])
    with pytest.raises(PreconditionError):
        one_median(t6, side=[1, 5])


def test_solve_t6_half(t6):
    sol = solve_balanced_2median(SolverConfig(0.5), t6)
    assert sol.objective == 2.5
    assert sol.edge_uv == (3, 4)
    assert sol.medians == (2, 4)
    assert sol.f1 == 5.0
    assert sol.f5 == 0.0


def test_solve_t6_pure_median(t6):
    sol = solve_balanced_2median(SolverConfig(1.0), t6)
    assert sol.objective == 4.0
    assert sol.edge_uv == (2, 3)
    assert sol.medians == (1, 4)
    assert sol.f5 == 2.0


def test_solve_t6_pure_balance(t6):
    sol = solve_balanced_2median(SolverConfig(0.0), t6)
    assert sol.objective == 0.0
    assert sol.edge_uv == (3, 4)


def test_tied_edges_take_smallest_index():
    # unit path on 4 vertices: every deletion gives f1 = 2 at lambda 1
    tree = build_tree(4, [(1, 2), (2, 3), (3, 4)])
    sol = solve_balanced_2median(SolverConfig(1.0), tree)
    assert sol.f1 == 2.0
    assert sol.deleted_edge == 0
    assert sol.edge_uv == (1, 2)


def test_two_vertex_tree():
    tree = build_tree(2, [(1, 2)], lengths=[3.0], w=[2, 5], t=[1, 1])
    sol = solve_balanced_2median(SolverConfig(0.5), tree)
    assert sol.f1 == 0.0
    assert sol.medians == (1, 2)
    assert sol.f5 == 3.0
    assert sol.objective == 1.5


def test_needs_two_vertices():
    tree = build_tree(1, [])
    with pytest.raises(PreconditionError):
        solve_balanced_2median(SolverConfig(0.5), tree)


def test_matches_brute_force():
    rng = random.Random(7101)
    for _ in range(40):
        tree = random_int_tree(rng, rng.randint(3, 12))
        for lam in (0.0, 0.3, 0.7, 1.0):
            cfg = SolverConfig(lam)
            fast = solve_balanced_2median(cfg, tree)
            slow = brute_2median(cfg, tree)
            assert fast.objective == slow.objective
            assert fast.deleted_edge == slow.deleted_edge
            assert fast.medians == slow.medians


def test_objective_recomposes(t6):
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        sol = solve_balanced_2median(SolverConfig(lam), t6)
        assert sol.objective == lam * sol.f1 + (1.0 - lam) * sol.f5


def _exact_median_pairs(tree):
    """Per edge, the smallest id of each side's exact argmin set and the
    exact f1, from Fraction distances over the tree's float lengths and
    weights (no float sum is compared)."""
    n = tree.n
    adj = [[] for _ in range(n)]
    for e in range(n - 1):
        u, v, ln = int(tree.eu[e]), int(tree.ev[e]), Fraction(float(tree.length[e]))
        adj[u].append((v, ln, e))
        adj[v].append((u, ln, e))

    def reach(s, banned=-1):
        d = {s: Fraction(0)}
        stack = [s]
        while stack:
            x = stack.pop()
            for y, ln, e in adj[x]:
                if e != banned and y not in d:
                    d[y] = d[x] + ln
                    stack.append(y)
        return d

    D = [reach(s) for s in range(n)]
    w = [Fraction(float(x)) for x in tree.w]
    rows = []
    for e in range(n - 1):
        side_a = sorted(reach(int(tree.eu[e]), e))
        side_b = sorted(set(range(n)) - set(side_a))
        pair, f1 = [], Fraction(0)
        for side in (side_a, side_b):
            cost = {x: sum(w[v] * D[x][v] for v in side) for x in side}
            best = min(cost.values())
            pair.append(min(x for x in side if cost[x] == best) + 1)
            f1 += best
        rows.append((tuple(pair), f1))
    return rows


def _tie_cases():
    for n, seed in ((12, 1), (20, 2), (31, 3), (40, 4)):
        yield gen_random_tree(GenSpec(n, seed))        # float lengths, w = 5
    rng = random.Random(404)
    for kind in SHAPES:
        yield shape_tree(rng, kind, rng.randint(8, 40), zero=True)


def test_table_names_smallest_exact_median():
    for tree in _tie_cases():
        table = median_cut_table(tree)
        for e, (pair, f1) in enumerate(_exact_median_pairs(tree)):
            assert tuple(table.facilities[e]) == pair, (tree.n, e)
            assert abs(table.transport[e] - float(f1)) <= 1e-9 * (1 + float(f1))
