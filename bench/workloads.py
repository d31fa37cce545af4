"""Inputs and operation lists of the four workloads.

Both processes of a run import this module: the worker builds the inputs
and times the operations, and run.py rebuilds the same inputs from the same
seed to check the answers.  Nothing here imports treeloc.

An operation is a JSON-friendly list:

    ["solve", method, key, lam]          method: median, linear or cubic
    ["sweep", problem, method, key, lams]
    ["pareto", problem, key, grid]
    ["cli", kind, argv]                  kind: solve, report, sweep or gen

key names an in-process input: ("arrays", n, eu, ev, length, w, t) with
0-based endpoints, or ("text", tree file text).  In a cli argv "{out}"
stands for a fresh output path, one per operation.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-io", "shape-extremes", "lambda-frontier", "small-family")
LAMBDAS = [k / 10 for k in range(11)]

CLI_N = 70_000
SHAPE_LINEAR_N = 10_000
# median and cubic sizes per shape; the star is cheap per vertex, so it is
# larger, which keeps it the high-degree extreme
SHAPE_SMALL_N = {"path": 150, "caterpillar": 150, "broom": 150, "star": 400}
FRONTIER_N = (60, 80, 100)
FAMILY_SEED = 20240817
FAMILY_SIZE = 200
FIXTURES = ("t6.tree", "t6b.tree")


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def shape_parents(kind: str, n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Parent (0-based) of vertices 1..n-1 in a canonical labelling."""
    if kind == "path":
        return np.arange(n - 1)
    if kind == "star":
        return np.zeros(n - 1, dtype=np.int64)
    if kind == "caterpillar":      # spine of n/2 vertices, one leg per spine vertex
        s = n - n // 2
        return np.concatenate([np.arange(s - 1), np.arange(n - s)])
    if kind == "broom":            # handle of n/2 vertices, bristles on its end
        h = n - n // 2
        return np.concatenate([np.arange(h - 1), np.full(n - h, h - 1)])
    if kind == "random":           # random recursive tree
        return (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    raise ValueError(f"unknown shape {kind!r}")


def int_tree(rng: np.random.Generator, parents: np.ndarray) -> tuple:
    """Integer lengths, weights and service times in 1..5, with the edges
    listed in a shuffled order and with shuffled endpoint order.  Vertex
    ids stay canonical: a sweep's depth, and so the cost of an operation,
    depends on where vertex 1 sits, and a shuffled id would make it vary
    from seed to seed."""
    n = parents.size + 1
    eu, ev = parents, np.arange(1, n)
    flip = rng.random(n - 1) < 0.5
    eu, ev = np.where(flip, ev, eu), np.where(flip, eu, ev)
    order = rng.permutation(n - 1)
    length = rng.integers(1, 6, n - 1).astype(np.float64)
    w = rng.integers(1, 6, n).astype(np.float64)
    t = rng.integers(1, 6, n).astype(np.float64)
    return ("arrays", n, eu[order], ev[order], length, w, t)


def family_tree(rng: random.Random, n: int) -> tuple:
    """The reference family's recipe: a random recursive tree on 1..n with
    integer lengths, weights and service times in 1..5."""
    edges = [(rng.randint(1, i - 1), i) for i in range(2, n + 1)]
    lengths = [rng.randint(1, 5) for _ in range(n - 1)]
    w = [rng.randint(1, 5) for _ in range(n)]
    t = [rng.randint(1, 5) for _ in range(n)]
    eu = np.array([u - 1 for u, _ in edges], dtype=np.int64)
    ev = np.array([v - 1 for _, v in edges], dtype=np.int64)
    return ("arrays", n, eu, ev, np.array(lengths, dtype=np.float64),
            np.array(w, dtype=np.float64), np.array(t, dtype=np.float64))


def _lam_text(rng: np.random.Generator, count: int) -> list[str]:
    """Distinct lambdas on a 0.05 grid inside (0, 1), ascending, as the
    CLI is given them."""
    ks = np.sort(rng.choice(np.arange(1, 20), size=count, replace=False))
    return [repr(int(k) / 20) for k in ks]


def inputs(workload: str, seed: int, root: Path) -> dict:
    """In-process inputs by key.  For cli-io: the argv of the set-up `gen`
    commands by input file name."""
    rng = _rng(workload, seed)
    if workload == "cli-io":
        s1, s2 = (int(x) for x in rng.integers(0, 2**31, 2))
        n = str(CLI_N)
        return {
            "in/fixed.tree": ["gen", "--n", n, "--seed", str(s1),
                              "--output", "in/fixed.tree"],
            "in/uniform.tree": ["gen", "--n", n, "--seed", str(s2),
                                "--weights", "uniform", "--services", "uniform",
                                "--output", "in/uniform.tree"],
        }
    if workload == "shape-extremes":
        out = {}
        for kind in ("path", "caterpillar", "broom", "star"):
            out[f"{kind}-{SHAPE_LINEAR_N}"] = int_tree(rng, shape_parents(kind, SHAPE_LINEAR_N))
            m = SHAPE_SMALL_N[kind]
            out[f"{kind}-{m}"] = int_tree(rng, shape_parents(kind, m))
        return out
    if workload == "lambda-frontier":
        # the shapes are fixed: every operation here costs in proportion to
        # the trees' depth, which a shape drawn per seed would make vary
        shapes = np.random.default_rng(FAMILY_SEED)
        return {f"random-{n}": int_tree(rng, shape_parents("random", n, shapes))
                for n in FRONTIER_N}
    if workload == "small-family":
        # fixed on purpose: the family does not depend on the seed, so the
        # count of expression-shape failures repeats exactly in every run
        frng = random.Random(FAMILY_SEED)
        out = {f"family-{i:03d}": family_tree(frng, frng.randint(3, 12))
               for i in range(FAMILY_SIZE)}
        fixtures = root / "src" / "treeloc" / "fixtures"
        for name in FIXTURES:
            out[name] = ("text", (fixtures / name).read_text(encoding="utf-8"))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def round_ops(workload: str, seed: int) -> list[list]:
    """The operations of one round, in the order they run.  Every round of
    a run repeats this list, and its first entry is the warm-up."""
    rng = _rng(workload, seed)
    if workload == "cli-io":
        rng.integers(0, 2**31, 2)           # the input seeds drawn in inputs()
        s3, s4 = (int(x) for x in rng.integers(0, 2**31, 2))
        l1, l2, l3 = _lam_text(rng, 3)
        sw1 = ",".join(_lam_text(rng, 3))
        sw2 = ",".join(_lam_text(rng, 2))
        n = str(CLI_N)
        fixed, uniform = "in/fixed.tree", "in/uniform.tree"
        # an odd number of operations of spread-out costs: the median lands
        # on one operation's time, not in the gap between two of them
        return [
            ["cli", "solve", ["solve-maxian", "--lambda", l1, "--input", fixed]],
            ["cli", "solve", ["solve-maxian", "--lambda", l2, "--input", uniform]],
            ["cli", "report", ["report", "maxian", "--lambda", l3, "--input", uniform]],
            ["cli", "sweep", ["sweep", "maxian", "--lambdas", sw1, "--input", fixed,
                              "--output", "{out}.csv", "--format", "csv"]],
            ["cli", "sweep", ["sweep", "maxian", "--lambdas", sw2, "--input", uniform,
                              "--output", "{out}.json", "--format", "json"]],
            ["cli", "gen", ["gen", "--n", n, "--seed", str(s3), "--output", "{out}.tree"]],
            ["cli", "gen", ["gen", "--n", n, "--seed", str(s4), "--weights", "uniform",
                            "--services", "uniform", "--output", "{out}.tree"]],
        ]
    if workload == "shape-extremes":
        ops = []
        for kind in ("star", "broom", "caterpillar", "path"):
            m = SHAPE_SMALL_N[kind]
            lams = rng.choice(LAMBDAS, size=3)
            ops.append(["solve", "linear", f"{kind}-{SHAPE_LINEAR_N}", float(lams[0])])
            ops.append(["solve", "median", f"{kind}-{m}", float(lams[1])])
            ops.append(["solve", "cubic", f"{kind}-{m}", float(lams[2])])
        return ops
    if workload == "lambda-frontier":
        ops = []
        for n in FRONTIER_N:
            key = f"random-{n}"
            ops += [["pareto", "maxian", key, 11],
                    ["sweep", "median", "linear", key, LAMBDAS],
                    ["sweep", "maxian", "cubic", key, LAMBDAS],
                    ["pareto", "median", key, 11]]
        return ops
    if workload == "small-family":
        keys = [f"family-{i:03d}" for i in range(FAMILY_SIZE)] + list(FIXTURES)
        ops = [["solve", method, key, lam] for key in keys for lam in LAMBDAS
               for method in ("median", "linear", "cubic")]
        # the seed only orders the operations; the set is the same in every run
        return [ops[i] for i in rng.permutation(len(ops))]
    raise ValueError(f"unknown workload {workload!r}")
