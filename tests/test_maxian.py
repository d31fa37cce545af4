import random
import warnings

import numpy as np
import pytest

from treeloc import (GenSpec, PreconditionError, SolverConfig, WeightedTree,
                     brute_2maxian, brute_path_fpmax, build_tree,
                     compress_onto_path, diameter, eval_f5, eval_transport,
                     gen_random_tree, maxian_assignment, path_between,
                     path_fpmax_sweep, solve_balanced_2maxian_cubic,
                     solve_balanced_2maxian_linear)
from treeloc.maxian import linear_cut_table
from treeloc.objectives import TOLERANCE, cut_imbalance, objective

from conftest import (SHAPES, random_int_path, random_int_tree, reference_family,
                      relabelled, shape_tree)


def test_t6b_both_methods(t6b):
    cfg = SolverConfig(0.5)
    for solve in (solve_balanced_2maxian_cubic, solve_balanced_2maxian_linear):
        sol = solve(cfg, t6b)
        assert sol.objective == 12.0
        assert sol.edge_uv == (3, 4)
        assert sol.facilities == (1, 5)
        assert sol.f2 == 24.0
        assert sol.f5 == 0.0
    assert solve_balanced_2maxian_cubic(cfg, t6b).method == "cubic"
    assert solve_balanced_2maxian_linear(cfg, t6b).method == "linear"


def _terms(sol):
    return sol.edge_uv, sol.facilities, sol.transport, sol.f5, sol.objective


def test_gap3_same_side_optimum(gap3):
    """The smallest tree on which the diameter endpoints miss the optimum:
    on the path 1-2-3 the best pair on the linear method's own cut has both
    facilities on one side.  At lambda = 1 the endpoints are optimal."""
    cfg = SolverConfig(0.1)
    assert _terms(solve_balanced_2maxian_linear(cfg, gap3)) == ((2, 3), (1, 3), 13.0, 22.0, -18.5)
    best = ((2, 3), (2, 1), 16.0, 22.0, -18.2)
    assert _terms(solve_balanced_2maxian_cubic(cfg, gap3)) == best
    assert _terms(brute_2maxian(cfg, gap3)) == best
    at_1 = SolverConfig(1.0)
    assert (solve_balanced_2maxian_linear(at_1, gap3).objective
            == solve_balanced_2maxian_cubic(at_1, gap3).objective == 23.0)


def test_gap4_optimal_cut_off_the_diameter(gap4):
    """The smallest tree whose optimal cut lies off the diameter path: the
    star on vertex 2, whose diameter 1-2-3 leaves out edge (2,4)."""
    cfg = SolverConfig(0.0)
    assert diameter(gap4).edges.tolist() == [0, 1]
    assert _terms(solve_balanced_2maxian_linear(cfg, gap4)) == ((2, 3), (1, 3), 89.0, 26.0, -26.0)
    best = ((2, 4), (3, 4), 73.0, 18.0, -18.0)
    assert _terms(solve_balanced_2maxian_cubic(cfg, gap4)) == best
    assert _terms(brute_2maxian(cfg, gap4)) == best


def test_t6b_path_sweep_values(t6b):
    cfg = SolverConfig(0.5)
    cp = compress_onto_path(t6b, diameter(t6b))
    vals = path_fpmax_sweep(cfg, cp)
    assert vals == [(0, 10.0), (1, 11.5), (2, 12.0), (3, 7.0)]
    assert brute_path_fpmax(cfg, cp) == vals


def test_unit_path_sweep_values():
    tree = build_tree(4, [(1, 2), (2, 3), (3, 4)])
    cp = compress_onto_path(tree, path_between(tree, 1, 4))
    vals = path_fpmax_sweep(SolverConfig(0.5), cp)
    assert vals == [(0, 3.5), (1, 5.0), (2, 3.5)]
    tree3 = build_tree(3, [(1, 2), (2, 3)])
    cp3 = compress_onto_path(tree3, path_between(tree3, 1, 3))
    assert path_fpmax_sweep(SolverConfig(0.5), cp3) == [(0, 2.0), (1, 2.0)]


def test_sweep_needs_an_edge():
    tree = build_tree(1, [])
    cp = compress_onto_path(tree, path_between(tree, 1, 1))
    with pytest.raises(PreconditionError):
        path_fpmax_sweep(SolverConfig(0.5), cp)


def test_brute_path_needs_an_edge():
    tree = build_tree(1, [])
    cp = compress_onto_path(tree, path_between(tree, 1, 1))
    with pytest.raises(PreconditionError) as err:
        brute_path_fpmax(SolverConfig(0.5), cp)
    assert str(err.value) == "path has no edges to delete"


def test_sweep_matches_direct_evaluation():
    rng = random.Random(883)
    for _ in range(30):
        tree = random_int_path(rng, rng.randint(2, 60))
        cp = compress_onto_path(tree, path_between(tree, 1, tree.n))
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = SolverConfig(lam)
            assert path_fpmax_sweep(cfg, cp) == brute_path_fpmax(cfg, cp)


def test_two_vertex_tree():
    tree = build_tree(2, [(1, 2)], lengths=[2.0])
    sol = solve_balanced_2maxian_linear(SolverConfig(0.5), tree)
    assert sol.objective == 2.0
    assert sol.f2 == 4.0
    assert sol.f5 == 0.0
    assert sol.facilities == (1, 2)


def test_needs_two_vertices():
    tree = build_tree(1, [])
    with pytest.raises(PreconditionError):
        solve_balanced_2maxian_linear(SolverConfig(0.5), tree)
    with pytest.raises(PreconditionError):
        solve_balanced_2maxian_cubic(SolverConfig(0.5), tree)


def test_zero_length_edge_falls_back_to_cubic():
    tree = build_tree(4, [(1, 2), (2, 3), (3, 4)], lengths=[1.0, 0.0, 1.0])
    with pytest.warns(RuntimeWarning):
        sol = solve_balanced_2maxian_linear(SolverConfig(0.5), tree)
    assert sol.method == "cubic"
    ref = solve_balanced_2maxian_cubic(SolverConfig(0.5), tree)
    assert sol.objective == ref.objective


def test_positive_lengths_take_linear_route(t6b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_balanced_2maxian_linear(SolverConfig(0.5), t6b)
    assert sol.method == "linear"


def test_cubic_matches_brute_force():
    rng = random.Random(7201)
    for _ in range(30):
        tree = random_int_tree(rng, rng.randint(3, 10))
        for lam in (0.0, 0.3, 0.7, 1.0):
            cfg = SolverConfig(lam)
            fast = solve_balanced_2maxian_cubic(cfg, tree)
            slow = brute_2maxian(cfg, tree)
            assert fast.objective == slow.objective
            assert fast.deleted_edge == slow.deleted_edge
            assert fast.facilities == slow.facilities


def test_linear_equals_cubic_at_pure_maxian():
    rng = random.Random(7301)
    cfg = SolverConfig(1.0)
    for _ in range(60):
        tree = random_int_tree(rng, rng.randint(3, 14))
        a = solve_balanced_2maxian_linear(cfg, tree)
        b = solve_balanced_2maxian_cubic(cfg, tree)
        assert a.objective == b.objective


def test_objective_recomposes(t6b):
    rng = random.Random(7401)
    trees = [t6b] + [random_int_tree(rng, rng.randint(3, 14)) for _ in range(60)]
    for tree in trees:
        for lam in (0.0, 0.1, 0.25, 0.5, 0.75, 0.8, 1.0):
            sol = solve_balanced_2maxian_linear(SolverConfig(lam), tree)
            assert sol.objective == lam * sol.f2 - (1.0 - lam) * sol.f5


def test_linear_picks_smallest_best_path_cut():
    rng = random.Random(7501)
    for _ in range(60):
        tree = random_int_tree(rng, rng.randint(3, 14))
        cp = compress_onto_path(tree, diameter(tree))
        for lam in (0.0, 0.1, 0.25, 0.5, 0.75, 0.8, 1.0):
            cfg = SolverConfig(lam)
            vals = brute_path_fpmax(cfg, cp)
            top = max(v for _, v in vals)
            best = min(e for e, v in vals if v == top)
            assert solve_balanced_2maxian_linear(cfg, tree).deleted_edge == best


def _route_trees():
    """Shape trees of 2 to 40 vertices with positive lengths, every other
    one with about a third of its weights zero, each also relabelled; and
    float gen trees with uniform weights and service times."""
    rng = random.Random(9103)
    for kind in SHAPES:
        for n in range(2, 41):
            base = shape_tree(rng, kind, n, zero=n % 2 == 0)
            lengths = [rng.randint(1, 5) for _ in range(n - 1)]
            tree = WeightedTree(n, base.eu, base.ev, lengths, base.w, base.t)
            yield tree
            yield relabelled(rng, tree)
    for n, seed in ((5, 1), (40, 2), (300, 3), (2000, 4)):
        yield gen_random_tree(GenSpec(n, seed, weight_mode="uniform",
                                      service_mode="uniform"))


def test_linear_pick_matches_assignment_route():
    """The linear pick recomputes its cut from the side mask and the
    table's two distance rows; the assignment route recomputes it from
    scratch.  Both must give the same bits, on sweeps that pick more than
    one edge."""
    lams = [k / 10 for k in range(11)]
    several_edges = 0
    for tree in _route_trees():
        table = linear_cut_table(tree)
        edges = set()
        for lam in lams:
            sol = table.pick(lam, tree)
            cut = maxian_assignment(tree, sol.deleted_edge, *sol.facilities)
            assert (sol.transport.hex(), sol.f5.hex()) == \
                (eval_transport(tree, cut).hex(), eval_f5(cut.partition).hex())
            edges.add(sol.deleted_edge)
        several_edges += len(edges) > 1
    assert several_edges >= 200


def test_linear_table_matches_the_papers_path_sweep():
    """The paper's construction is the linear table's oracle: the demand
    compressed onto the diameter path and swept with facilities at its ends
    gives the table's edges and, row for row, its objectives, exactly on
    integer data and within TOLERANCE on float data.  A zero-length edge
    sends the table to the cubic fallback, so every tree here has positive
    lengths."""
    lams = [k / 10 for k in range(11)]
    for tree in reference_family() + list(_route_trees()):
        table = linear_cut_table(tree)
        # one f5 route: the other tables' column at the same edges
        assert table.f5.tobytes() == cut_imbalance(tree)[table.edges].tobytes()
        cp = compress_onto_path(tree, diameter(tree))
        exact = all(np.array_equal(np.trunc(x), x) for x in (tree.length, tree.w, tree.t))
        for lam in lams:
            swept = dict(path_fpmax_sweep(SolverConfig(lam), cp))
            assert sorted(swept) == table.edges.tolist()
            want = np.array([swept[e] for e in table.edges.tolist()])
            got = objective(lam, table.transport, table.f5, "maxian")
            if exact:
                assert got.tolist() == want.tolist(), (tree.n, lam)
            else:
                assert np.all(np.abs(got - want) <= TOLERANCE * (1.0 + np.abs(want)))
