"""Random instances, lambda sweeps, Pareto fronts, and CSV reporting."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, PreconditionError
from .maxian import cubic_cut_table, linear_cut_table
from .median import median_cut_table
from .objectives import TOLERANCE, CutTable, Solution, SolverConfig, objective
from .tree import WeightedTree, _fmt, _side_a, distances

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF


class SplitMix64:
    """Deterministic 64-bit stream: the k-th output (k >= 1) is
    mix(seed + k*0x9E3779B97F4A7C15) where mix(z) is
    z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27;
    z *= 0x94D049BB133111EB; z ^= z>>31, all modulo 2^64.

    Stateless per position, so whole blocks vectorize; the instance only
    tracks how many outputs were consumed.  Integer draws use a plain
    modulo (bias is irrelevant here; cross-platform determinism is the
    contract)."""

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & _MASK)
        self._k = 0

    def raw(self, count: int) -> np.ndarray:
        ks = np.arange(self._k + 1, self._k + count + 1, dtype=np.uint64)
        self._k += count
        with np.errstate(over="ignore"):
            z = self._seed + ks * _GOLDEN
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            z = z ^ (z >> np.uint64(31))
        return z

    def uniform(self, count: int) -> np.ndarray:
        """float64 values in [0, 1), 53-bit resolution."""
        return (self.raw(count) >> np.uint64(11)) * (2.0 ** -53)

    def integers(self, lo: int, hi: int, count: int) -> np.ndarray:
        """int64 values in [lo, hi], inclusive bounds."""
        span = np.uint64(hi - lo + 1)
        return (self.raw(count) % span).astype(np.int64) + lo


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a random instance.

    weight_mode: "fixed" assigns w_i = 5, "uniform" draws w_i from [0, 5).
    service_mode: "fixed" assigns t_i = 1, "uniform" draws t_i from [0, 5).
    The default length_min of 0.01 keeps lengths strictly positive so the
    linear maxian method never needs its zero-length fallback; pass
    length_min=0 to allow the full [0, 5] range."""

    n: int
    seed: int
    length_min: float = 0.01
    length_max: float = 5.0
    weight_mode: str = "fixed"
    service_mode: str = "fixed"

    def __post_init__(self):
        if not (isinstance(self.n, int) and self.n >= 1):
            raise ConfigError(f"n must be a positive integer, got {self.n!r}")
        if not (0.0 <= self.length_min <= self.length_max):
            raise ConfigError("need 0 <= length_min <= length_max")
        if not math.isfinite(self.length_max):
            raise ConfigError("length bounds must be finite")
        if self.weight_mode not in ("fixed", "uniform"):
            raise ConfigError(f"unknown weight_mode {self.weight_mode!r}")
        if self.service_mode not in ("fixed", "uniform"):
            raise ConfigError(f"unknown service_mode {self.service_mode!r}")


def gen_random_tree(spec: GenSpec) -> WeightedTree:
    """Random recursive tree: vertex i (i >= 2) attaches to a uniformly
    random vertex in 1..i-1.  Draw order is fixed (parents, then lengths,
    then weights if uniform, then service times if uniform), so identical
    specs give identical instances on every platform."""
    return WeightedTree(*_gen_columns(spec))


def _gen_columns(spec: GenSpec) -> tuple:
    """(n, eu, ev, length, w, t) of gen_random_tree(spec), 0-based, with
    eu < ev: the columns form a tree by construction."""
    n = spec.n
    g = SplitMix64(spec.seed)
    praw = g.raw(n - 1)
    lu = g.uniform(n - 1)
    if spec.weight_mode == "uniform":
        w = g.uniform(n) * 5.0
    else:
        w = np.full(n, 5.0)
    if spec.service_mode == "uniform":
        t = g.uniform(n) * 5.0
    else:
        t = np.ones(n)
    parents = (praw % np.arange(1, n, dtype=np.uint64)).astype(np.int64)
    ev = np.arange(1, n, dtype=np.int64)
    lengths = spec.length_min + lu * (spec.length_max - spec.length_min)
    return n, parents, ev, lengths, w, t


@dataclass(frozen=True, kw_only=True)
class ExperimentRecord(Solution):
    """One solver run: the Solution it picked, with the run's own fields.

    lam is the run's lambda and n its tree's size; runtime_ms is the time
    the run took; test_id and seed label the run for its caller.  The
    problem is checked first (ConfigError), then Solution's finiteness,
    then that objective equals objective(lam, transport, f5, problem)."""

    lam: float
    n: int
    runtime_ms: float
    test_id: int = 0
    seed: int = 0

    def __post_init__(self):
        check_problem(self.problem)
        super().__post_init__()
        expect = objective(self.lam, self.transport, self.f5, self.problem)
        if abs(expect - self.objective) > TOLERANCE * (1.0 + abs(self.objective)):
            raise PreconditionError(
                f"record objective {self.objective} inconsistent with its "
                f"components ({expect} expected)")


def check_problem(problem: str):
    if problem not in ("median", "maxian"):
        raise ConfigError(f"unknown problem {problem!r}; expected median or maxian")


def check_method(method: str):
    if method not in ("linear", "cubic"):
        raise ConfigError(f"unknown method {method!r}; expected linear or cubic")


# (problem, method) -> builder of the lambda-independent cut table; the
# median has one method under both names
SOLVERS = {
    ("median", "linear"): median_cut_table,
    ("median", "cubic"): median_cut_table,
    ("maxian", "linear"): linear_cut_table,
    ("maxian", "cubic"): cubic_cut_table,
}


def lambda_sweep(tree: WeightedTree, problem: str, lambdas: Iterable[float],
                 method: str = "linear", test_id: int = 0,
                 seed: int = 0) -> list[ExperimentRecord]:
    """One record per lambda value, all picked by one CutTable.picks call
    from one cut table built by the fast solver for the problem (the linear
    method for maxian unless method="cubic" is asked for).

    The problem, the method and every lambda are checked before any work.
    Each record's runtime_ms is its equal share of the time the picks
    took; the first record's also includes building the table, so the
    records sum to the sweep's time."""
    return _sweep(tree, problem, lambdas, method, test_id, seed)[1]


def _sweep(tree: WeightedTree, problem: str, lambdas: Iterable[float], method: str,
           test_id: int = 0, seed: int = 0) -> tuple[CutTable | None, list[ExperimentRecord]]:
    """lambda_sweep's records with the table they were picked from, None
    when there are no lambdas."""
    check_problem(problem)
    check_method(method)
    lams = [SolverConfig(float(lam)).lam for lam in lambdas]
    if not lams:
        return None, []
    t0 = time.perf_counter()
    table = SOLVERS[problem, method](tree)
    t1 = time.perf_counter()
    sols = table.picks(lams, tree)
    ms = [(time.perf_counter() - t1) * 1e3 / len(lams)] * len(lams)
    ms[0] += (t1 - t0) * 1e3
    return table, [ExperimentRecord(**vars(sol), lam=lam, n=tree.n, runtime_ms=t,
                                    test_id=test_id, seed=seed)
                   for lam, sol, t in zip(lams, sols, ms)]


def pareto_front(tree: WeightedTree, problem: str,
                 grid_size: int) -> list[tuple[float, float]]:
    """Nondominated (transport, f5) pairs of the picks at a uniform grid of
    lambda values, read from one CutTable.picks call; sorted by transport.
    Median minimizes both coordinates; maxian maximizes transport and
    minimizes f5.  The maxian front comes from the linear diameter-endpoint
    heuristic, so it is heuristic too.  The grid size is checked first,
    then the problem."""
    if grid_size < 2:
        raise ConfigError("grid_size must be at least 2")
    check_problem(problem)
    lambdas = [k / (grid_size - 1) for k in range(grid_size)]
    table = SOLVERS[problem, "linear"](tree)
    points = {(s.transport, s.f5) for s in table.picks(lambdas, tree)}

    def dominates(a, b):
        better = a[0] <= b[0] if problem == "median" else a[0] >= b[0]
        return better and a[1] <= b[1] and a != b

    return sorted(p for p in points if not any(dominates(q, p) for q in points))


def allocation_report(solution: Solution, tree: WeightedTree) -> int:
    """Number of vertices not served by their nearest facility (median) or
    not served by their farthest facility (maxian), strictly."""
    return _allocation_report(solution, tree, {})


def _allocation_report(solution: Solution, tree: WeightedTree, reach: dict) -> int:
    """allocation_report, reading the two facilities' distance rows from
    reach (a CutTable's, by 1-based id) when it holds both, else sweeping
    them."""
    e = solution.deleted_edge
    if not (0 <= e < tree.n - 1):
        raise PreconditionError(f"edge index {e} out of range")
    x1, x2 = solution.facilities
    median = solution.problem == "median"
    # the median's x1 serves side a, the maxian's x1 side b
    serve_a, serve_b = (x1, x2) if median else (x2, x1)
    da, db = ((reach[serve_a], reach[serve_b]) if serve_a in reach and serve_b in reach
              else distances(tree, [serve_a - 1, serve_b - 1]))
    # other < serving (median) or other > serving (maxian), on side a and on side b
    off_a, off_b = (db < da, da < db) if median else (db > da, da > db)
    return int(np.count_nonzero(np.where(_side_a(tree, e), off_a, off_b)))


COLUMNS = ("test", "n", "seed", "problem", "method", "lambda", "transport", "f5",
           "objective", "edge_u", "edge_v", "fac1", "fac2", "runtime_ms")
CSV_HEADER = ",".join(COLUMNS)


def record_fields(r: ExperimentRecord) -> dict:
    """The record's columns, by name, in the order CSV and JSON write them."""
    return dict(zip(COLUMNS, (r.test_id, r.n, r.seed, r.problem, r.method, r.lam,
                              r.transport, r.f5, r.objective, *r.edge_uv,
                              *r.facilities, r.runtime_ms)))


def emit_csv(records: Sequence[ExperimentRecord], sink) -> None:
    """Write records in the fixed CSV schema; sink is a path or a text
    file-like.  Floats use shortest round-trip formatting; lines end in LF."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in record_fields(r).values()))
    text = "\n".join(lines) + "\n"
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        with open(sink, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
