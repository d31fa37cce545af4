import random

import numpy as np
import pytest

from treeloc import (PreconditionError, SolverConfig, all_pairs_dist,
                     brute_2maxian, brute_2median, brute_path_fpmax,
                     build_tree, compress_onto_path, diameter, dist, eval_f5,
                     path_between, solve_balanced_2maxian_cubic,
                     solve_balanced_2median, split_by_edge)
from treeloc import oracle
from treeloc.objectives import cut_imbalance
from treeloc.tree import _side_a, dist_sums

from conftest import SHAPES, random_int_path, random_int_tree, relabelled, shape_tree


def test_all_pairs_dist(t6):
    D = all_pairs_dist(t6)
    assert D.shape == (6, 6)
    assert np.all(np.diag(D) == 0.0)
    assert np.array_equal(D, D.T)
    assert D[0, 4] == 5.0
    assert D[4, 5] == 2.0
    rng = random.Random(11)
    tree = random_int_tree(rng, 12)
    D = all_pairs_dist(tree)
    for _ in range(20):
        a, b = rng.randint(1, 12), rng.randint(1, 12)
        assert D[a - 1, b - 1] == dist(tree, a, b)


def test_brute_median_t6(t6):
    sol = brute_2median(SolverConfig(0.5), t6)
    assert sol.objective == 2.5
    assert sol.edge_uv == (3, 4)
    assert sol.medians == (2, 4)


def test_brute_median_agrees_with_solver_at_lambda_one(t6):
    cfg = SolverConfig(1.0)
    assert brute_2median(cfg, t6).objective == \
        solve_balanced_2median(cfg, t6).objective


def test_brute_median_two_vertices():
    tree = build_tree(2, [(1, 2)], w=[3, 1], t=[1, 2])
    sol = brute_2median(SolverConfig(0.5), tree)
    assert sol.deleted_edge == 0
    assert sol.f1 == 0.0
    assert sol.f5 == 1.0


def test_brute_maxian_t6b(t6b):
    sol = brute_2maxian(SolverConfig(0.5), t6b)
    assert sol.objective == 12.0
    assert sol.edge_uv == (3, 4)
    assert sol.facilities == (1, 5)


def test_brute_maxian_pure_balance():
    rng = random.Random(52)
    for _ in range(15):
        tree = random_int_tree(rng, rng.randint(2, 10))
        sol = brute_2maxian(SolverConfig(0.0), tree)
        f5s = [eval_f5(split_by_edge(tree, e)) for e in range(tree.n - 1)]
        assert sol.objective == -min(f5s)


def test_brute_maxian_agrees_with_cubic():
    rng = random.Random(53)
    for _ in range(20):
        tree = random_int_tree(rng, rng.randint(3, 10))
        cfg = SolverConfig(rng.choice([0.0, 0.4, 1.0]))
        assert brute_2maxian(cfg, tree).objective == \
            solve_balanced_2maxian_cubic(cfg, tree).objective


def test_cap_guards():
    rng = random.Random(54)
    tree = random_int_tree(rng, 17)
    with pytest.raises(PreconditionError):
        brute_2median(SolverConfig(0.5), tree)
    with pytest.raises(PreconditionError):
        brute_2maxian(SolverConfig(0.5), tree)
    assert brute_2median(SolverConfig(0.5), tree, cap=20) is not None
    single = build_tree(1, [])
    with pytest.raises(PreconditionError):
        brute_2median(SolverConfig(0.5), single)


def _small_trees():
    """Integer trees of 2 to 16 vertices in every shape, every other one
    with about a third of its weights and lengths zero, each followed by a
    relabelled copy."""
    rng = random.Random(58)
    for n in range(2, 17):
        for k, kind in enumerate(SHAPES):
            tree = shape_tree(rng, kind, n, zero=(n + k) % 2 == 1)
            yield tree
            yield relabelled(rng, tree)


def test_cuts_match_the_fast_routes():
    """The oracles' one enumeration of cuts agrees, cut by cut, with the
    solvers' own routes: the side mask of _side_a, f5 of cut_imbalance and
    the dist_sums rows of each side's weights, read by vertex id."""
    for tree in _small_trees():
        f5 = cut_imbalance(tree)
        cuts = list(oracle._cuts(tree, oracle.DEFAULT_CAP))
        assert [cut[0] for cut in cuts] == list(range(tree.n - 1))
        for e, side_a, side_b, f5_e, cost_a, cost_b in cuts:
            in_a = _side_a(tree, e)
            assert side_a == np.flatnonzero(in_a).tolist()
            assert side_b == np.flatnonzero(~in_a).tolist()
            assert f5_e == f5[e]
            S, _ = dist_sums(tree, np.where([in_a, ~in_a], tree.w, 0.0)[:, tree.preorder])
            assert [cost_a, cost_b] == S[:, tree.tin].tolist()


def test_cap_is_checked_before_any_work(monkeypatch):
    def fail(tree):
        raise AssertionError("the distance table was built before the cap check")

    monkeypatch.setattr(oracle, "all_pairs_dist", fail)
    tree = random_int_tree(random.Random(59), 17)
    for brute in (brute_2median, brute_2maxian):
        with pytest.raises(PreconditionError) as err:
            brute(SolverConfig(0.5), tree)
        assert str(err.value) == "instance with 17 vertices exceeds the oracle cap 16"
        with pytest.raises(PreconditionError) as err:
            brute(SolverConfig(0.5), build_tree(1, []))
        assert str(err.value) == "need at least 2 vertices"


def test_brute_path_t6b(t6b):
    cp = compress_onto_path(t6b, diameter(t6b))
    assert brute_path_fpmax(SolverConfig(0.5), cp) == \
        [(0, 10.0), (1, 11.5), (2, 12.0), (3, 7.0)]


def test_brute_path_unit_three():
    tree = build_tree(3, [(1, 2), (2, 3)])
    cp = compress_onto_path(tree, path_between(tree, 1, 3))
    assert brute_path_fpmax(SolverConfig(0.5), cp) == [(0, 2.0), (1, 2.0)]


def test_path_values_are_affine_in_lambda():
    # f(lam) = lam*T - (1-lam)*f5, so f(1/2) must equal (f(0)+f(1))/2
    rng = random.Random(55)
    for _ in range(20):
        tree = random_int_path(rng, rng.randint(2, 40))
        cp = compress_onto_path(tree, path_between(tree, 1, tree.n))
        v0 = brute_path_fpmax(SolverConfig(0.0), cp)
        v1 = brute_path_fpmax(SolverConfig(1.0), cp)
        vh = brute_path_fpmax(SolverConfig(0.5), cp)
        for (e0, a), (e1, b), (eh, c) in zip(v0, v1, vh):
            assert e0 == e1 == eh
            assert c == (a + b) / 2.0
            assert a <= 0.0


def test_relabeling_preserves_objectives():
    rng = random.Random(56)
    for _ in range(10):
        n = rng.randint(3, 9)
        tree = random_int_tree(rng, n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        edges = [(perm[int(tree.eu[e])], perm[int(tree.ev[e])])
                 for e in range(n - 1)]
        w = [0.0] * n
        t = [0.0] * n
        for v in range(n):
            w[perm[v] - 1] = float(tree.w[v])
            t[perm[v] - 1] = float(tree.t[v])
        relabeled = build_tree(n, edges, list(tree.length), w, t)
        for lam in (0.0, 0.5, 1.0):
            cfg = SolverConfig(lam)
            assert brute_2median(cfg, tree).objective == \
                brute_2median(cfg, relabeled).objective
            assert brute_2maxian(cfg, tree).objective == \
                brute_2maxian(cfg, relabeled).objective


def test_path_oracle_never_beats_full_oracle():
    # restricting facilities to diameter ends and deletions to path edges
    # can only lower the maxian value; at lambda=1 the restriction is tight
    rng = random.Random(57)
    for _ in range(20):
        tree = random_int_tree(rng, rng.randint(3, 10))
        cp = compress_onto_path(tree, diameter(tree))
        for lam in (0.0, 0.3, 0.7, 1.0):
            cfg = SolverConfig(lam)
            best_path = max(v for _, v in brute_path_fpmax(cfg, cp))
            full = brute_2maxian(cfg, tree).objective
            assert best_path <= full
            if lam == 1.0:
                assert best_path == full
