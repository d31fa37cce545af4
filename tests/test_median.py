import random
import time
from fractions import Fraction

import numpy as np
import pytest

from treeloc import (GenSpec, PreconditionError, SolverConfig, brute_2median,
                     build_tree, eval_fpmed, gen_random_tree, median_assignment,
                     one_median, solve_balanced_2median, split_by_edge)
from treeloc import median as median_module
from treeloc.median import median_cut_table
from treeloc.objectives import TOLERANCE
from treeloc.oracle import blocked_median_table

from conftest import SHAPES, count_rows, random_int_tree, relabelled, shape_tree


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


def test_blocked_oracle_needs_two_vertices():
    with pytest.raises(PreconditionError) as err:
        blocked_median_table(build_tree(1, []))
    assert str(err.value) == "balanced 2-median needs at least 2 vertices"


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


def _shape_trees(zero: bool):
    """The five shapes at 2 to 40 vertices and at 100, 300 and 700, each
    followed by a relabelled copy."""
    rng = random.Random(1103 + zero)
    for kind in SHAPES:
        for n in list(range(2, 41)) + [100, 300, 700]:
            tree = shape_tree(rng, kind, n, zero=zero)
            yield tree
            yield relabelled(rng, tree)


def _family():
    """The 200-tree reference family, then a relabelled copy of each."""
    rng = random.Random(20240817)
    family = [random_int_tree(rng, rng.randint(3, 12)) for _ in range(200)]
    return family + [relabelled(rng, tree) for tree in family]


def _assert_same_table(tree):
    """Facilities, transport and f5 equal the blocked oracle's bit for bit."""
    fast, blocked = median_cut_table(tree), blocked_median_table(tree)
    assert np.array_equal(fast.edges, blocked.edges)
    assert np.array_equal(fast.facilities, blocked.facilities), tree.n
    assert fast.transport.tobytes() == blocked.transport.tobytes(), tree.n
    assert fast.f5.tobytes() == blocked.f5.tobytes(), tree.n


def test_table_matches_blocked_oracle_on_family(t6, t6b):
    for tree in _family() + [t6, t6b]:
        _assert_same_table(tree)


@pytest.mark.parametrize("zero", [False, True])
def test_table_matches_blocked_oracle_on_shapes(zero):
    for tree in _shape_trees(zero):
        _assert_same_table(tree)


def test_table_matches_blocked_oracle_on_float_data():
    """Non-integer weights and lengths: the same medians and f5, f1 within
    TOLERANCE, and the same picked cut at every lambda."""
    for n, seed in ((2, 1), (3, 2), (12, 3), (60, 4), (300, 5), (1500, 6)):
        tree = gen_random_tree(GenSpec(n, seed, weight_mode="uniform",
                                       service_mode="uniform"))
        fast, blocked = median_cut_table(tree), blocked_median_table(tree)
        assert np.array_equal(fast.facilities, blocked.facilities)
        assert fast.f5.tobytes() == blocked.f5.tobytes()
        assert np.all(np.abs(fast.transport - blocked.transport)
                      <= TOLERANCE * (1.0 + np.abs(blocked.transport)))
        for lam in (k / 10 for k in range(11)):
            a, b = fast.pick(lam, tree), blocked.pick(lam, tree)
            assert (a.deleted_edge, a.facilities) == (b.deleted_edge, b.facilities)


def test_zero_data_alone_takes_the_swept_route(monkeypatch):
    """Positive weights and lengths never call _one_median_swept; trees
    with zero weights or lengths call it on some cuts, not on all."""
    calls = count_rows(monkeypatch, median_module, "_one_median_swept")
    for tree in _shape_trees(zero=False):
        median_cut_table(tree)
    for n, seed in ((2, 1), (200, 2), (3000, 3)):
        median_cut_table(gen_random_tree(GenSpec(n, seed, weight_mode="uniform")))
    assert calls == []
    rows = cuts = 0
    for tree in _shape_trees(zero=True):
        calls.clear()
        median_cut_table(tree)
        rows += sum(calls) // 2
        cuts += tree.n - 1
    assert 0 < rows < cuts


def test_scale_1e5():
    """A 100,000-vertex solve, checked in O(n): the reported assignment
    evaluates to the objective, and each side's 1-median is the reported
    median.  The bound is loose: an O(n^2) table takes minutes here."""
    tree = gen_random_tree(GenSpec(100_000, 77, weight_mode="uniform"))
    cfg = SolverConfig(0.5)
    t0 = time.perf_counter()
    sol = solve_balanced_2median(cfg, tree)
    elapsed = time.perf_counter() - t0
    cut = median_assignment(tree, sol.deleted_edge, *sol.medians)
    value = eval_fpmed(cfg, tree, cut)
    assert abs(value - sol.objective) <= TOLERANCE * (1.0 + abs(sol.objective))
    part = cut.partition
    assert one_median(tree, part.side_a)[0] == sol.medians[0]
    assert one_median(tree, part.side_b)[0] == sol.medians[1]
    assert elapsed < 10.0
