import io
import math
import random
from dataclasses import fields, replace

import numpy as np
import pytest

from conftest import count_rows, random_int_tree
from treeloc import (ConfigError, ExperimentRecord, GenSpec, PreconditionError,
                     Solution, SolverConfig, SplitMix64, allocation_report,
                     build_tree, emit_csv, gen_random_tree, lambda_sweep,
                     pareto_front, parse_tree, render_tree,
                     solve_balanced_2maxian_cubic,
                     solve_balanced_2maxian_linear, solve_balanced_2median)
from treeloc import experiments
from treeloc import tree as tree_module
from treeloc.cli import run

MASK = (1 << 64) - 1


def _mix_reference(seed, k):
    """Pure-integer SplitMix64 output k (k >= 1), written without numpy so
    the vectorized implementation is checked against an independent route."""
    z = (seed + k * 0x9E3779B97F4A7C15) & MASK
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK
    z ^= z >> 31
    return z


def test_splitmix_matches_integer_reference():
    for seed in (0, 1, 42, 2**63, MASK):
        got = list(SplitMix64(seed).raw(20))
        want = [_mix_reference(seed, k) for k in range(1, 21)]
        assert [int(x) for x in got] == want


def test_splitmix_stream_is_positional():
    g = SplitMix64(99)
    first = list(g.raw(5)) + list(g.raw(5))
    assert first == list(SplitMix64(99).raw(10))


def test_splitmix_uniform_and_integers():
    u = SplitMix64(7).uniform(5000)
    assert u.min() >= 0.0 and u.max() < 1.0
    iv = SplitMix64(9).integers(1, 5, 5000)
    assert iv.min() == 1 and iv.max() == 5
    assert set(np.unique(iv)) == {1, 2, 3, 4, 5}
    assert SplitMix64(9).integers(3, 3, 4).tolist() == [3] * 4


def test_splitmix_integers_rejects_an_empty_range():
    with pytest.raises(ConfigError, match="^integers needs lo <= hi, got lo=5, hi=1$"):
        SplitMix64(1).integers(5, 1, 3)


def test_genspec_validation():
    with pytest.raises(ConfigError):
        GenSpec(0, 1)
    with pytest.raises(ConfigError, match="^n must be a positive integer, got True$"):
        GenSpec(True, 1)
    with pytest.raises(ConfigError):
        GenSpec(5, 1, length_min=3.0, length_max=1.0)
    for bounds in ((0.0, float("inf")), (float("inf"), float("inf")),
                   (0.0, float("nan"))):
        with pytest.raises(ConfigError):
            GenSpec(5, 1, *bounds)
    with pytest.raises(ConfigError):
        GenSpec(5, 1, weight_mode="gauss")
    with pytest.raises(ConfigError):
        GenSpec(5, 1, service_mode="gauss")


def test_genspec_takes_a_numpy_integer_as_int():
    spec = GenSpec(np.int64(5), np.uint64(1))
    assert type(spec.n) is int and type(spec.seed) is int and spec == GenSpec(5, 1)
    assert render_tree(gen_random_tree(spec)) == render_tree(gen_random_tree(GenSpec(5, 1)))


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.bool_(True), "7", None])
def test_genspec_rejects_a_seed_that_is_not_an_integer(seed):
    """A float seed is not truncated, nor a bool read as 0 or 1."""
    with pytest.raises(ConfigError, match=f"^seed must be an integer, got {seed!r}$"):
        GenSpec(5, seed)


def test_gen_is_deterministic():
    spec = GenSpec(100, 42)
    assert render_tree(gen_random_tree(spec)) == \
        render_tree(gen_random_tree(spec))


def test_gen_round_trips_through_parser():
    tree = gen_random_tree(GenSpec(100, 42))
    text = render_tree(tree)
    again = parse_tree(text)
    assert again.n == 100
    assert render_tree(again) == text


def test_gen_single_vertex():
    tree = gen_random_tree(GenSpec(1, 3))
    assert tree.n == 1
    assert tree.eu.size == 0


def test_gen_draw_layout_is_stable():
    # weights are drawn after parents and lengths, so switching weight mode
    # must not disturb the topology
    a = gen_random_tree(GenSpec(30, 5, weight_mode="fixed"))
    b = gen_random_tree(GenSpec(30, 5, weight_mode="uniform"))
    assert np.array_equal(a.eu, b.eu)
    assert np.array_equal(a.ev, b.ev)
    assert np.array_equal(a.length, b.length)
    assert not np.array_equal(a.w, b.w)


def test_gen_modes():
    tree = gen_random_tree(GenSpec(50, 8))
    assert np.all(tree.w == 5.0)
    assert np.all(tree.t == 1.0)
    assert tree.length.min() >= 0.01 and tree.length.max() <= 5.0
    tree = gen_random_tree(GenSpec(50, 8, service_mode="uniform"))
    assert np.all((tree.t >= 0) & (tree.t < 5))


def test_lambda_sweep_t6(t6):
    recs = lambda_sweep(t6, "median", [0.0, 0.5, 1.0])
    assert [r.objective for r in recs] == [0.0, 2.5, 4.0]
    assert [r.lam for r in recs] == [0.0, 0.5, 1.0]
    assert recs[1].transport == 5.0 and recs[1].f5 == 0.0
    assert recs[0].f5 == 0.0
    assert all(r.method == "edge-deletion" for r in recs)
    assert all(r.runtime_ms >= 0.0 for r in recs)
    # equal shares of the one pick pass; the first also carries the build
    assert recs[1].runtime_ms == recs[2].runtime_ms <= recs[0].runtime_ms


def test_lambda_sweep_t6b_maxian(t6b):
    recs = lambda_sweep(t6b, "maxian", [0.5])
    assert len(recs) == 1
    assert recs[0].objective == 12.0
    assert recs[0].method == "linear"
    cub = lambda_sweep(t6b, "maxian", [0.5], method="cubic")
    assert cub[0].objective == 12.0
    assert cub[0].method == "cubic"


@pytest.mark.parametrize("problem,method,solver", [
    ("median", "linear", solve_balanced_2median),
    ("maxian", "linear", solve_balanced_2maxian_linear),
    ("maxian", "cubic", solve_balanced_2maxian_cubic)])
def test_lambda_sweep_records_are_the_picked_solutions(t6, t6b, problem, method, solver):
    """A record is the solver's Solution, deleted edge and aliases too, with
    the run's own fields added."""
    own = ["lam", "n", "runtime_ms", "test_id", "seed"]
    assert [f.name for f in fields(ExperimentRecord)] == \
        [f.name for f in fields(Solution)] + own
    lams = [0.0, 0.3, 1.0]
    for tree in (t6, t6b):
        for lam, rec in zip(lams, lambda_sweep(tree, problem, lams, method,
                                               test_id=4, seed=9)):
            sol = solver(SolverConfig(lam), tree)
            assert isinstance(rec, Solution)
            assert vars(rec) == {**vars(sol), "lam": lam, "n": tree.n,
                                 "runtime_ms": rec.runtime_ms, "test_id": 4,
                                 "seed": 9}
            alias = "f1" if problem == "median" else "f2"
            assert getattr(rec, alias) == rec.transport


def test_lambda_sweep_empty(t6):
    assert lambda_sweep(t6, "median", []) == []


def test_lambda_sweep_validation(t6):
    with pytest.raises(ConfigError):
        lambda_sweep(t6, "mean", [0.5])
    with pytest.raises(ConfigError):
        lambda_sweep(t6, "median", [0.5], method="quartic")
    with pytest.raises(ConfigError):
        lambda_sweep(t6, "median", [1.5])
    # every lambda is checked before the (impossible) solve starts
    with pytest.raises(ConfigError):
        lambda_sweep(build_tree(1, []), "median", [0.5, 2.0])


def test_record_consistency_check():
    with pytest.raises(PreconditionError):
        ExperimentRecord("median", "edge-deletion", 2, (3, 4), (2, 4), 5.0, 0.0,
                         99.0, lam=0.5, n=6, runtime_ms=0.0)
    with pytest.raises(ConfigError):
        ExperimentRecord("mediam", "edge-deletion", 2, (3, 4), (2, 4), 5.0, 0.0,
                         2.5, lam=0.5, n=6, runtime_ms=0.0)


def test_pareto_t6(t6):
    pts = pareto_front(t6, "median", 11)
    assert pts == [(4.0, 2.0), (5.0, 0.0)]


def test_pareto_single_edge_tree():
    tree = build_tree(2, [(1, 2)])
    assert len(pareto_front(tree, "median", 5)) == 1


def test_pareto_is_nondominated():
    rng = random.Random(61)
    for problem in ("median", "maxian"):
        tree = random_int_tree(rng, 15)
        pts = pareto_front(tree, problem, 9)
        assert pts == sorted(pts)
        for p in pts:
            for q in pts:
                if p == q:
                    continue
                if problem == "median":
                    assert not (q[0] <= p[0] and q[1] <= p[1])
                else:
                    assert not (q[0] >= p[0] and q[1] <= p[1])
    with pytest.raises(ConfigError):
        pareto_front(tree, "median", 1)
    with pytest.raises(ConfigError):
        pareto_front(build_tree(1, []), "medain", 3)


@pytest.mark.parametrize("grid", [2.5, 3.0, "3", True, None])
def test_pareto_front_rejects_a_grid_size_that_is_not_an_integer(t6b, grid):
    with pytest.raises(ConfigError, match=f"^grid_size must be an integer, got {grid!r}$"):
        pareto_front(t6b, "median", grid)


def test_pareto_front_takes_a_numpy_grid_size(t6b):
    assert pareto_front(t6b, "median", np.int64(5)) == pareto_front(t6b, "median", 5)


def test_validation_order():
    """pareto_front checks the grid size, then the problem; lambda_sweep
    the problem, then the method, then every lambda; all before any work
    on the one-vertex tree, which no solver accepts."""
    one = build_tree(1, [])
    for call, message in [
            (lambda: pareto_front(one, "medain", 1), "grid_size must be at least 2"),
            (lambda: pareto_front(one, "medain", 3), "unknown problem 'medain'"),
            (lambda: lambda_sweep(one, "medain", [2.0], "quartic"), "unknown problem 'medain'"),
            (lambda: lambda_sweep(one, "median", [2.0], "quartic"), "unknown method 'quartic'"),
            (lambda: lambda_sweep(one, "median", [0.5, 2.0]), "lambda must lie in [0, 1]")]:
        with pytest.raises(ConfigError) as err:
            call()
        assert str(err.value).startswith(message)


@pytest.mark.parametrize("problem", ["median", "maxian"])
def test_one_table_per_sweep_and_front(monkeypatch, problem):
    """An 11-lambda sweep and an 11-point front each build one cut table
    and pick every lambda from it; the front builds no record."""
    builds = []
    for key, build in list(experiments.SOLVERS.items()):
        def counted(tree, build=build, key=key):
            builds.append(key)
            return build(tree)
        monkeypatch.setitem(experiments.SOLVERS, key, counted)
    tree = gen_random_tree(GenSpec(80, 5, weight_mode="uniform"))
    lams = [k / 10 for k in range(11)]
    assert len(lambda_sweep(tree, problem, lams)) == 11
    assert builds == [(problem, "linear")]

    def no_record(*args, **kwargs):
        raise AssertionError("pareto_front built a record")

    monkeypatch.setattr(experiments, "ExperimentRecord", no_record)
    builds.clear()
    pts = pareto_front(tree, problem, 11)
    assert builds == [(problem, "linear")]
    assert set(pts) <= {(s.transport, s.f5) for s in
                        experiments.SOLVERS[problem, "linear"](tree).picks(lams, tree)}


def test_allocation_report_median(t6):
    sol = solve_balanced_2median(SolverConfig(0.5), t6)
    assert allocation_report(sol, t6) == 1
    sol = solve_balanced_2median(SolverConfig(1.0), t6)
    assert allocation_report(sol, t6) == 0


def test_allocation_report_maxian(t6b):
    sol = solve_balanced_2maxian_cubic(SolverConfig(0.5), t6b)
    assert sol.facilities == (1, 5)
    assert allocation_report(sol, t6b) == 1
    # the tied optimum with facilities {v1, v6} deviates at v3 as well
    alt = Solution("maxian", "cubic", 2, (3, 4), (1, 6), 24.0, 0.0, 12.0)
    assert allocation_report(alt, t6b) == 1


@pytest.mark.parametrize("edge", [-1, 5])
def test_allocation_report_edge_out_of_range(t6b, edge):
    sol = Solution("maxian", "cubic", edge, (3, 4), (1, 6), 24.0, 0.0, 12.0)
    with pytest.raises(PreconditionError, match=f"^edge index {edge} out of range$"):
        allocation_report(sol, t6b)


@pytest.mark.parametrize("facilities,bad", [((0, 6), 0), ((True, 6), True),
                                             ((1, 7), 7), ((1.0, 6), 1.0)])
def test_allocation_report_checks_the_facility_ids(t6b, facilities, bad):
    """Id 0 would read the last vertex's row, True vertex 1's, and 7 or
    1.0 would fail inside numpy: each is rejected before any row is read."""
    sol = replace(solve_balanced_2maxian_cubic(SolverConfig(0.5), t6b), facilities=facilities)
    with pytest.raises(PreconditionError, match=f"^facility id {bad} out of range$"):
        allocation_report(sol, t6b)


def test_allocation_report_counts_both_sides():
    """The path 1-2-3-4, cut at (2, 3): side a is {1, 2}.  Median (2, 1)
    serves side a from 2 and side b from 1, so vertex 1 on side a and
    vertices 3 and 4 on side b are nearer the other facility.  Maxian (4, 1)
    serves side a from 1 and side b from 4, each vertex's nearer facility,
    so all four are nearer than the other; maxian (1, 4) serves each from
    the farther one."""
    path = build_tree(4, [(1, 2), (2, 3), (3, 4)], [1.0, 5.0, 1.0])
    counts = [allocation_report(Solution(problem, "brute", 1, (2, 3), facs,
                                         0.0, 0.0, 0.0), path)
              for problem, facs in [("median", (1, 4)), ("median", (2, 1)),
                                    ("maxian", (4, 1)), ("maxian", (1, 4))]]
    assert counts == [0, 3, 4, 0]


def test_emit_csv_shapes(t6):
    buf = io.StringIO()
    emit_csv([], buf)
    assert buf.getvalue() == ("test,n,seed,problem,method,lambda,transport,"
                              "f5,objective,edge_u,edge_v,fac1,fac2,"
                              "runtime_ms\n")
    buf = io.StringIO()
    emit_csv(lambda_sweep(t6, "median", [0.5]), buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    parts = lines[1].split(",")
    assert parts[3] == "median" and parts[5] == "0.5"
    assert float(parts[8]) == 2.5


def test_emit_csv_to_a_path(t6b, tmp_path):
    recs = lambda_sweep(t6b, "maxian", [0.0, 1 / 3, 1.0])
    buf = io.StringIO()
    emit_csv(recs, buf)
    emit_csv(recs, tmp_path / "out.csv")
    with open(tmp_path / "out.csv", encoding="utf-8", newline="") as fh:
        assert fh.read() == buf.getvalue()


def test_emit_csv_table_shape():
    recs = []
    for i in range(10):
        tree = gen_random_tree(GenSpec(41, 100 + i))
        recs += lambda_sweep(tree, "median", [0.0, 0.2, 0.5, 1.0],
                             test_id=i, seed=100 + i)
    buf = io.StringIO()
    emit_csv(recs, buf)
    text = buf.getvalue()
    assert len(text.splitlines()) == 41
    assert "\r" not in text


def test_csv_floats_round_trip(t6b):
    recs = lambda_sweep(t6b, "maxian", [1 / 3])
    buf = io.StringIO()
    emit_csv(recs, buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert float(row[5]) == recs[0].lam
    assert float(row[6]) == recs[0].transport
    assert float(row[8]) == recs[0].objective
    assert float(row[13]) == recs[0].runtime_ms


@pytest.mark.parametrize("n", [2, 3, 12, 200, 700])
def test_distance_sweeps_per_solve(monkeypatch, n):
    """A linear solve or sweep makes two distance sweeps of one row each:
    the deepest vertex a, then the far endpoint; compression reads a's row,
    and the picks read the table's rows.  The cubic table makes one sweep
    for the whole tree and one per block of cuts.  The median table makes
    none: its costs come from subtree and root-path sums."""
    tree = gen_random_tree(GenSpec(n, 31, weight_mode="uniform"))
    rows = count_rows(monkeypatch, tree_module, "dist_sums")
    solve_balanced_2maxian_linear(SolverConfig(0.5), tree)
    assert rows == [1, 1]
    rows.clear()
    lambda_sweep(tree, "maxian", [k / 10 for k in range(11)])
    assert rows == [1, 1]
    rows.clear()
    solve_balanced_2median(SolverConfig(0.5), tree)
    assert rows == []
    blocks = math.ceil((n - 1) / max(1, tree_module._BLOCK // n))
    rows.clear()
    solve_balanced_2maxian_cubic(SolverConfig(0.5), tree)
    assert len(rows) == 1 + blocks


@pytest.mark.parametrize("n", [2, 12, 700])
def test_distance_sweeps_per_report(monkeypatch, tmp_path, capsys, n):
    """`treeloc report` sweeps the same rows as the solve it reports on,
    then reads the two facilities' rows from a linear table's reach, so it
    makes no further sweep; after a cubic or median solve, whose tables
    hold no rows, it sweeps both facilities in one two-row call."""
    tree = gen_random_tree(GenSpec(n, 31, weight_mode="uniform"))
    path = tmp_path / "tree.txt"
    path.write_text(render_tree(tree))
    rows = count_rows(monkeypatch, tree_module, "dist_sums")
    blocks = math.ceil((n - 1) / max(1, tree_module._BLOCK // n))
    for argv, solve, report in [
            (["maxian"], [1, 1], []),
            (["maxian", "--method", "cubic"], [1] * (1 + blocks), [2]),
            (["median"], [], [2])]:
        rows.clear()
        assert run(["report", *argv, "--lambda", "0.5", "--input", str(path)]) == 0
        assert len(rows) == len(solve) + len(report)
        assert rows[len(solve):] == report
    capsys.readouterr()
