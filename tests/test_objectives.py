import random
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

import treeloc
from treeloc import (Assignment, ConfigError, PreconditionError, SolverConfig,
                     brute_2maxian, brute_2median, build_tree, eval_f3, eval_f5,
                     eval_fpmax, eval_fpmed, eval_transport, maxian_assignment,
                     median_assignment, solve_balanced_2maxian_cubic,
                     solve_balanced_2maxian_linear, solve_balanced_2median,
                     split_by_edge)
from treeloc.experiments import GenSpec, gen_random_tree
from treeloc.maxian import cubic_cut_table, linear_cut_table
from treeloc.median import median_cut_table
from treeloc.objectives import objective

from conftest import SHAPES, random_int_tree, relabelled, shape_tree


def test_solver_config_defaults():
    cfg = SolverConfig(0.5)
    assert cfg.lam == 0.5
    assert [f.name for f in fields(SolverConfig)] == ["lam"]
    # any real number is stored as a float, numpy scalars included
    for lam in (np.float32(0.5), np.int64(0), 1):
        cfg = SolverConfig(lam)
        assert type(cfg.lam) is float and cfg.lam == lam


@pytest.mark.parametrize("kwargs", [
    {"lam": -0.1},
    {"lam": 1.1},
    {"lam": True},
])
def test_solver_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        SolverConfig(**kwargs)


def test_median_assignment_requires_facility_inside_its_side(t6):
    a = median_assignment(t6, 2, 2, 4)
    assert a.facilities == (2, 4)
    assert a.mode == "median"
    with pytest.raises(PreconditionError):
        median_assignment(t6, 2, 4, 2)


def test_maxian_assignment_is_crossed(t6):
    # deleting (3,4): x1 sits with the smaller side and serves the larger
    a = maxian_assignment(t6, 2, 1, 5)
    assert a.serve_a == 5 and a.serve_b == 1
    assert a.facilities == (1, 5)
    assert a.mode == "maxian"
    with pytest.raises(PreconditionError):
        maxian_assignment(t6, 2, 5, 1)


def test_assignment_rejects_an_unknown_mode(t6):
    with pytest.raises(PreconditionError) as err:
        Assignment(split_by_edge(t6, 2), 2, 4, "both")
    assert str(err.value) == "unknown assignment mode 'both'"


def test_transport_t6_example(t6):
    a = median_assignment(t6, 2, 2, 4)
    assert eval_transport(t6, a) == 5.0
    assert eval_fpmed(SolverConfig(0.5), t6, a) == 2.5
    assert eval_fpmed(SolverConfig(1.0), t6, a) == 5.0
    assert eval_fpmed(SolverConfig(0.0), t6, a) == 0.0


def test_alternative_partition_is_worse(t6):
    a = median_assignment(t6, 1, 1, 4)
    assert eval_fpmed(SolverConfig(0.5), t6, a) == 3.0


def test_fpmed_rejects_maxian_assignment(t6):
    a = maxian_assignment(t6, 2, 1, 5)
    with pytest.raises(PreconditionError):
        eval_fpmed(SolverConfig(0.5), t6, a)
    b = median_assignment(t6, 2, 2, 4)
    with pytest.raises(PreconditionError):
        eval_fpmax(SolverConfig(0.5), t6, b)


def test_f3_f5_values(t6):
    assert eval_f3(split_by_edge(t6, 2)) == 3.0
    assert eval_f3(split_by_edge(t6, 0)) == 5.0
    per_edge_f5 = [eval_f5(split_by_edge(t6, e)) for e in range(5)]
    assert per_edge_f5 == [4.0, 2.0, 0.0, 4.0, 4.0]


def test_fpmax_t6b_examples(t6b):
    cfg = SolverConfig(0.5)
    a = maxian_assignment(t6b, 1, 1, 6)
    assert eval_transport(t6b, a) == 25.0
    assert eval_fpmax(cfg, t6b, a) == 11.5
    b = maxian_assignment(t6b, 2, 1, 5)
    assert eval_transport(t6b, b) == 24.0
    assert eval_fpmax(cfg, t6b, b) == 12.0


def test_balance_identity_random():
    rng = random.Random(41)
    for _ in range(100):
        tree = random_int_tree(rng, rng.randint(2, 25))
        e = rng.randrange(tree.n - 1)
        bip = split_by_edge(tree, e)
        assert eval_f3(bip) == (tree.Z + eval_f5(bip)) / 2.0
        assert eval_f5(bip) == abs(bip.z_a - bip.z_b)


def test_transport_facility_range_check(t6):
    with pytest.raises(PreconditionError):
        median_assignment(t6, 2, 2, 9)


def test_transport_rejects_an_assignment_of_another_tree(t6):
    # the first pair names a facility past the small tree's ids, the second
    # fits both trees
    small = build_tree(3, [(1, 2), (2, 3)])
    for assignment in (median_assignment(t6, 2, 2, 5), median_assignment(t6, 1, 2, 3)):
        with pytest.raises(PreconditionError) as err:
            eval_transport(small, assignment)
        assert str(err.value) == "assignment belongs to a tree of another size"


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_solution_aliases_per_problem(t6, t6b, lam):
    """The old per-problem names stay readable: medians and f1 on median
    solutions, f2 on maxian ones, and nothing else."""
    cfg = SolverConfig(lam)
    for tree in (t6, t6b):
        for med in (solve_balanced_2median(cfg, tree), brute_2median(cfg, tree)):
            assert med.problem == "median"
            assert med.medians == med.facilities and med.f1 == med.transport
            assert not hasattr(med, "f2")
        for solve in (solve_balanced_2maxian_linear, solve_balanced_2maxian_cubic,
                      brute_2maxian):
            mx = solve(cfg, tree)
            assert mx.problem == "maxian"
            assert mx.f2 == mx.transport
            assert not hasattr(mx, "medians") and not hasattr(mx, "f1")
        with pytest.raises(AttributeError):
            med.medians = (1, 2)


def test_pick_rejects_facilities_on_the_side_they_serve(t6):
    """A linear table whose facility columns are swapped puts each facility
    inside the side it serves; the pick's recomputation refuses it."""
    table = linear_cut_table(t6)
    swapped = replace(table, facilities=table.facilities[:, ::-1])
    with pytest.raises(PreconditionError) as err:
        swapped.pick(0.5, t6)
    assert str(err.value) == "maxian facilities must lie opposite the side they serve"


def test_solution_methods(t6, t6b):
    cfg = SolverConfig(0.5)
    assert brute_2median(cfg, t6).method == "brute"
    assert brute_2maxian(cfg, t6b).method == "brute"
    assert solve_balanced_2median(cfg, t6).method == "edge-deletion"
    assert solve_balanced_2maxian_linear(cfg, t6b).method == "linear"
    assert solve_balanced_2maxian_cubic(cfg, t6b).method == "cubic"


def test_every_exported_name_resolves():
    for name in treeloc.__all__:
        assert hasattr(treeloc, name), name
    assert "MedianSolution" not in treeloc.__all__
    assert "MaxianSolution" not in treeloc.__all__


BUILDERS = (median_cut_table, linear_cut_table, cubic_cut_table)
LAMS = [k / 20 for k in range(21)]


def _fields(sol):
    """Every field of a Solution, floats by their hex."""
    return [v.hex() if isinstance(v, float) else v for v in vars(sol).values()]


def _first_best_edge(table, lam):
    """The rule picks follows, read off the table one lam at a time: the
    smallest edge among the cuts of extremal objective."""
    obj = objective(lam, table.transport, table.f5, table.problem)
    top = obj.min() if table.problem == "median" else obj.max()
    return int(table.edges[obj == top].min())


def _assert_picks_are_single_picks(tree, lams):
    """On every table of the tree, picks(lams) equals pick at each lam
    field for field, on a fresh table each (so the linear recomputation
    runs on both sides), and takes the first best edge of the table."""
    for build in BUILDERS:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            table, fresh = build(tree), build(tree)
        assert np.all(np.diff(table.edges) > 0)
        batch = table.picks(lams, tree)
        assert [_fields(sol) for sol in batch] == \
            [_fields(fresh.pick(lam, tree)) for lam in lams]
        for lam, sol in zip(lams, batch):
            assert sol.deleted_edge == _first_best_edge(table, lam)
            if table.method != "linear":
                k = int(np.searchsorted(table.edges, sol.deleted_edge))
                assert (sol.transport, sol.f5) == (table.transport[k], table.f5[k])


def _equivalence_trees():
    """The reference family; the five shapes, with and without zero
    weights and lengths, each also relabelled; and a zero-length tree,
    whose linear table falls back to the cubic one."""
    rng = random.Random(20240817)
    for _ in range(200):
        yield random_int_tree(rng, rng.randint(3, 12))
    rng = random.Random(1907)
    for kind in SHAPES:
        for n in (2, 7, 30):
            for zero in (False, True):
                tree = shape_tree(rng, kind, n, zero)
                yield tree
                yield relabelled(rng, tree)
    yield build_tree(4, [(1, 2), (2, 3), (3, 4)], [1, 0, 2])


def test_picks_equal_single_picks():
    for tree in _equivalence_trees():
        _assert_picks_are_single_picks(tree, LAMS)


def test_picks_tie_rule():
    """Exact ties go to the smallest edge index of the table: every cut
    of an equal-weight star scores the same, and on the path 1-2-3 listed
    as (2,3), (1,2) both cuts of the linear table tie at every lambda,
    while the diameter path meets edge 1 before edge 0."""
    star = build_tree(6, [(1, v) for v in (4, 2, 6, 3, 5)])
    for build in BUILDERS:
        table = build(star)
        assert np.unique(objective(0.5, table.transport, table.f5, table.problem)).size == 1
        assert [sol.deleted_edge for sol in table.picks(LAMS, star)] == \
            [int(table.edges.min())] * len(LAMS)
    path = build_tree(3, [(2, 3), (1, 2)])
    table = linear_cut_table(path)
    assert table.edges.tolist() == [0, 1]
    assert table.transport[0] == table.transport[1] and table.f5[0] == table.f5[1]
    assert set(table.facilities.ravel().tolist()) == {1, 3}
    assert [sol.deleted_edge for sol in table.picks(LAMS, path)] == [0] * len(LAMS)


def test_picks_across_blocks():
    """A lambda list longer than one block of _BLOCK elements: at 200
    vertices a block holds 82 lambdas, so 201 of them take three."""
    tree = gen_random_tree(GenSpec(200, 8, weight_mode="uniform", service_mode="uniform"))
    lams = [k / 200 for k in range(201)]
    assert len(lams) > treeloc.tree._BLOCK // (tree.n - 1)
    _assert_picks_are_single_picks(tree, lams)


@pytest.mark.parametrize("build", BUILDERS)
def test_picks_overflow_raises_as_pick(build):
    """Finite weights whose sums overflow leave the median and cubic
    tables NaN and the linear one inf: picks raises the same
    PreconditionError as pick, for a list of lambdas and for one."""
    huge = build_tree(3, [(1, 2), (2, 3)], [10, 10], [1e308, 1, 1e308])
    with np.errstate(over="ignore", invalid="ignore"):
        table = build(huge)
        for lams in ([0.0, 0.5], [0.5]):
            with pytest.raises(PreconditionError) as one:
                table.pick(lams[-1], huge)
            with pytest.raises(PreconditionError) as batch:
                table.picks(lams, huge)
        assert str(batch.value) == str(one.value) == \
            "objective is not finite: the weights, service times or lengths are too large"
