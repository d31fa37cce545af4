"""Tests of the benchmark's own checkers.

Each checker must agree with the program, and with treeloc.oracle where an
oracle exists, on small trees, and must reject a corrupted answer.

    PYTHONPATH=src python3 -m pytest bench
"""

import contextlib
import io
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import treeloc  # noqa: E402
import treeloc.cli  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Wrong  # noqa: E402
from worker import record_dict, solution_dict  # noqa: E402

LAMS = [0.0, 0.3, 0.5, 0.9, 1.0]


def int_trees(count=8, seed=5):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(3, 11))
        kind = ("random", "path", "star", "broom", "caterpillar")[i % 5]
        out.append(workloads.int_tree(rng, workloads.shape_parents(kind, n, rng)))
    return out


def program_tree(inp):
    return treeloc.WeightedTree(*inp[1:])


def ulp_up(x):
    return float(np.nextafter(x, np.inf))


# --- SplitMix64 and gen -----------------------------------------------------------

def splitmix_reference(seed, count):
    mask = 2**64 - 1
    out = []
    for k in range(1, count + 1):
        z = (seed + k * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5, 2**64 - 1])
def test_splitmix64_matches_python_ints(seed):
    assert checks.splitmix64(seed, 0, 50).tolist() == splitmix_reference(seed, 50)
    assert checks.splitmix64(seed, 20, 30).tolist() == splitmix_reference(seed, 50)[20:]


@pytest.mark.parametrize("modes", [("fixed", "fixed"), ("uniform", "fixed"),
                                   ("fixed", "uniform"), ("uniform", "uniform")])
def test_gen_recipe_matches_program(modes):
    spec = treeloc.GenSpec(300, 77, 0.5, 3.0, *modes)
    text = treeloc.render_tree(treeloc.gen_random_tree(spec))
    checks.check_gen(text, checks.gen_tree(300, 77, *modes, 0.5, 3.0))
    argv = ["gen", "--n", "300", "--seed", "77", "--weights", modes[0],
            "--services", modes[1], "--length-min", "0.5", "--length-max", "3.0"]
    checks.check_gen(text, checks.gen_argv_tree(argv))


def test_gen_check_rejects_corrupted_file():
    text = treeloc.render_tree(treeloc.gen_random_tree(treeloc.GenSpec(50, 3, weight_mode="uniform")))
    expect = checks.gen_tree(50, 3, "uniform")
    lines = text.splitlines()
    u, v, ln = lines[10].split()
    bad_length = lines[:10] + [f"{u} {v} {float(ln) + 1e-9!r}"] + lines[11:]
    vid, w, t = lines[60].split()
    bad_weight = lines[:60] + [f"{vid} {ulp_up(float(w))!r} {t}"] + lines[61:]
    for bad in (bad_length, bad_weight):
        with pytest.raises(Wrong):
            checks.check_gen("\n".join(bad) + "\n", expect)
    with pytest.raises(Wrong):
        checks.check_gen(text, checks.gen_tree(50, 4, "uniform"))


def test_reader_matches_parser():
    text = (ROOT / "src" / "treeloc" / "fixtures" / "t6b.tree").read_text()
    mine, theirs = checks.read_tree(text), treeloc.parse_tree(text)
    for field in ("eu", "ev", "length", "w", "t"):
        assert np.array_equal(getattr(mine, field), getattr(theirs, field))


# --- exact optima ---------------------------------------------------------------

def test_exact_agrees_with_oracle():
    for inp in int_trees():
        tree, ex = program_tree(inp), checks.Exact(checks.tree_of(inp))
        for lam in LAMS:
            cfg = treeloc.SolverConfig(lam)
            med = treeloc.brute_2median(cfg, tree)
            e, obj = ex.median_best(lam)
            assert (e, obj) == (med.deleted_edge, med.objective)
            assert tuple(ex.med[e] + 1) == med.medians
            mx = treeloc.brute_2maxian(cfg, tree)
            e, obj = ex.maxian_best(lam)
            assert (e, obj) == (mx.deleted_edge, mx.objective)
            assert tuple(ex.pair[e] + 1) == mx.facilities


def corruptions(ans, n):
    """A wrong edge, a wrong facility, and an objective one ulp high."""
    u, v = ans["edge_uv"]
    yield {**ans, "objective": ulp_up(ans["objective"])}
    yield {**ans, "fac": [ans["fac"][0] % n + 1, ans["fac"][1]]}
    yield {**ans, "fac": [ans["fac"][0], ans["fac"][1] % n + 1]}
    other = {k: v for k, v in ans.items() if k != "edge"}
    yield {**other, "edge_uv": [v, u]}
    yield {**ans, "edge": (ans["edge"] + 1) % (n - 1)}


@pytest.mark.parametrize("method", ["median", "cubic"])
def test_exact_checkers_accept_program_and_reject_corruption(method):
    solve = {"median": treeloc.solve_balanced_2median,
             "cubic": treeloc.solve_balanced_2maxian_cubic}[method]
    check = {"median": checks.check_median, "cubic": checks.check_cubic}[method]
    for inp in int_trees():
        ex = checks.Exact(checks.tree_of(inp))
        for lam in LAMS:
            ans = solution_dict(solve(treeloc.SolverConfig(lam), program_tree(inp)))
            check(ex, lam, ans)
            for bad in corruptions(ans, inp[1]):
                with pytest.raises(Wrong):
                    check(ex, lam, bad)
            # the same answer reported on another edge
            e2 = (ans["edge"] + 1) % (inp[1] - 1)
            tr = ex.tree
            moved = {**ans, "edge": e2, "edge_uv": [int(tr.eu[e2]) + 1, int(tr.ev[e2]) + 1]}
            with pytest.raises(Wrong):
                check(ex, lam, moved)


def test_linear_bound_flags_gap_shape_and_excess():
    gaps = shapes = 0
    for inp in int_trees(30, seed=9):
        ex = checks.Exact(checks.tree_of(inp))
        for lam in workloads.LAMBDAS:
            ans = solution_dict(treeloc.solve_balanced_2maxian_linear(
                treeloc.SolverConfig(lam), program_tree(inp)))
            gap, shape = checks.check_linear_bound(ex, lam, ans)
            gaps += gap
            shapes += shape
            _, best = ex.maxian_best(lam)
            with pytest.raises(Wrong):
                checks.check_linear_bound(ex, lam, {**ans, "objective": best + 1e-3 * (1 + abs(best))})
            if not shape:
                assert checks.check_linear_bound(
                    ex, lam, {**ans, "objective": ulp_up(ans["objective"])})[1]
            if lam == 1.0:
                assert not gap
    assert gaps > 0 and shapes > 0


# --- the diameter path ------------------------------------------------------------

def float_trees(count=6, n=40, seed=3):
    for i in range(count):
        spec = treeloc.GenSpec(n, seed + i, weight_mode="uniform", service_mode="uniform")
        tree = treeloc.gen_random_tree(spec)
        yield tree, checks.make_tree(tree.n, tree.eu, tree.ev, tree.length, tree.w, tree.t)


def test_diameter_cuts_agree_with_oracle_path_sweep():
    for tree, mine in list(float_trees()) + [(program_tree(i), checks.tree_of(i)) for i in int_trees()]:
        dc = checks.DiameterCuts(mine)
        path = treeloc.diameter(tree)
        assert (dc.p + 1, dc.q + 1) == (int(path.vertices[0]), int(path.vertices[-1]))
        cp = treeloc.compress_onto_path(tree, path)
        for lam in LAMS:
            ref = dict(treeloc.brute_path_fpmax(treeloc.SolverConfig(lam), cp))
            obj = dc.objectives(lam)
            for e, j in dc.cut.items():
                assert checks.close(obj[j], ref[e], dc.scale(lam))


def test_linear_checker_accepts_program_and_rejects_corruption():
    for tree, mine in float_trees():
        dc = checks.DiameterCuts(mine)
        for lam in LAMS:
            ans = solution_dict(treeloc.solve_balanced_2maxian_linear(treeloc.SolverConfig(lam), tree))
            checks.check_linear(dc, lam, ans)
            bad = [{**ans, "objective": ans["objective"] * (1 + 1e-6) + 1e-6},
                   {**ans, "fac": ans["fac"][::-1]},
                   {**ans, "fac": [ans["fac"][0], min(set(range(1, 4)) - set(ans["fac"]))]},
                   {**ans, "transport": ans["transport"] * (1 + 1e-6)}]
            j = dc.cut[ans["edge"]]
            for e2, j2 in dc.cut.items():
                if abs(j2 - j) == 1:
                    bad.append({**ans, "edge": e2, "edge_uv": [int(mine.eu[e2]) + 1, int(mine.ev[e2]) + 1]})
            off_path = next(e for e in range(tree.n - 1) if e not in dc.cut)
            bad.append({**ans, "edge": off_path,
                        "edge_uv": [int(mine.eu[off_path]) + 1, int(mine.ev[off_path]) + 1]})
            for b in bad:
                with pytest.raises(Wrong):
                    checks.check_linear(dc, lam, b)


def test_deviation_recount_matches_program():
    for tree, mine in float_trees():
        dc = checks.DiameterCuts(mine)
        for lam in LAMS:
            sol = treeloc.solve_balanced_2maxian_linear(treeloc.SolverConfig(lam), tree)
            ans = {**solution_dict(sol), "deviations": treeloc.allocation_report(sol, tree)}
            checks.check_report(dc, lam, ans)
            with pytest.raises(Wrong):
                checks.check_report(dc, lam, {**ans, "deviations": ans["deviations"] + 1})


# --- sweeps, fronts and CLI text --------------------------------------------------

def test_sweep_and_front_checkers():
    for inp in int_trees(5):
        ex = checks.Exact(checks.tree_of(inp))
        recs = [record_dict(r) for r in treeloc.lambda_sweep(program_tree(inp), "median", LAMS)]
        check = lambda lam, r: checks.check_median(ex, lam, r)  # noqa: E731
        checks.check_sweep(recs, LAMS, check, "median")
        with pytest.raises(Wrong):
            checks.check_sweep(recs, LAMS[:-1] + [0.95], check, "median")
        pts = [list(p) for p in treeloc.pareto_front(program_tree(inp), "median", 11)]
        checks.check_pareto_median(ex, 11, pts)
        worse = [pts[0][0] + 1, pts[0][1] + 1]
        with pytest.raises(Wrong):
            checks.check_pareto_median(ex, 11, pts + [worse])
        pts = [list(p) for p in treeloc.pareto_front(program_tree(inp), "maxian", 11)]
        dc = checks.DiameterCuts(checks.tree_of(inp))
        checks.check_pareto_maxian(dc, 11, pts)
        with pytest.raises(Wrong):
            checks.check_pareto_maxian(dc, 11, [[pts[0][0] - 0.5, pts[0][1]]])


def test_sweep_checker_rejects_a_sweep_that_is_not_monotone():
    def rec(lam, transport, f5):
        return {"lam": lam, "transport": transport, "f5": f5}

    def accept(lam, r):
        pass

    checks.check_sweep([rec(0.0, 6, 1), rec(1.0, 5, 2)], [0, 1], accept, "median")
    checks.check_sweep([rec(0.0, 5, 1), rec(1.0, 6, 2)], [0, 1], accept, "maxian")
    for problem, bad in (("median", [rec(0.0, 5, 1), rec(1.0, 6, 2)]),
                         ("maxian", [rec(0.0, 6, 1), rec(1.0, 5, 2)]),
                         ("median", [rec(0.0, 6, 2), rec(1.0, 5, 1)]),
                         ("maxian", [rec(0.0, 5, 2), rec(1.0, 6, 1)])):
        with pytest.raises(Wrong):
            checks.check_sweep(bad, [0, 1], accept, problem)


def test_parse_summary_reads_cli_output():
    src = ROOT / "src" / "treeloc" / "fixtures" / "t6b.tree"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert treeloc.cli.run(["report", "maxian", "--lambda", "0.5", "--input", str(src)]) == 0
    ans = checks.parse_summary(buf.getvalue())
    sol = treeloc.solve_balanced_2maxian_linear(treeloc.SolverConfig(0.5), treeloc.parse_tree(src.read_text()))
    assert ans["edge_uv"] == list(sol.edge_uv) and ans["fac"] == list(sol.facilities)
    assert ans["objective"] == sol.objective and ans["lambda"] == 0.5 and "deviations" in ans


# --- harness ------------------------------------------------------------------------

def test_small_family_is_the_reference_family():
    rng = random.Random(workloads.FAMILY_SEED)
    fam = workloads.inputs("small-family", 1, ROOT)
    assert len(fam) == workloads.FAMILY_SIZE + len(workloads.FIXTURES)
    n = rng.randint(3, 12)
    assert fam["family-000"][1] == n
    assert workloads.inputs("small-family", 2, ROOT).keys() == fam.keys()


def test_tracer_reports_a_missing_name(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", {"tree.gone": ("tree", "no_such_name"), **tracing.SPANS})
    with pytest.raises(tracing.MissingName, match="no_such_name"):
        tracing.Tracer().install()


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", "small-family"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
