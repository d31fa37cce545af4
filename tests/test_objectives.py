import random
from dataclasses import fields

import numpy as np
import pytest

import treeloc
from treeloc import (ConfigError, PreconditionError, SolverConfig,
                     brute_2maxian, brute_2median, eval_f3, eval_f5,
                     eval_fpmax, eval_fpmed, eval_transport, maxian_assignment,
                     median_assignment, solve_balanced_2maxian_cubic,
                     solve_balanced_2maxian_linear, solve_balanced_2median,
                     split_by_edge)

from conftest import random_int_tree


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
