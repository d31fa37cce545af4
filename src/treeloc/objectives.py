"""Objective evaluators for facility pairs on an edge-induced bipartition,
the per-cut table every solver picks its answer from, and the one
solution type every solver and oracle returns.

The scalarized objectives are always computed with the same expression
shape, lam*(transport) +/- (1.0-lam)*balance, so that independent routes
to the same quantities compare bit-for-bit on integer inputs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PreconditionError
from .tree import (_BLOCK, EdgeBipartition, WeightedTree, _side_a, distances,
                   split_by_edge, subtree_sums)

# relative slack for comparing two routes to one float that may round apart
TOLERANCE = 1e-9
# finite weights, service times or lengths can still overflow the sums
_OVERFLOW = "objective is not finite: the weights, service times or lengths are too large"
_OPPOSITE = "maxian facilities must lie opposite the side they serve"


@dataclass(frozen=True)
class SolverConfig:
    """lam is the transport weight in [0, 1]; 1-lam weighs the balance term."""

    lam: float

    def __post_init__(self):
        lam = self.lam
        if isinstance(lam, bool) or not (isinstance(lam, numbers.Real) and 0.0 <= lam <= 1.0):
            raise ConfigError(f"lambda must lie in [0, 1], got {lam!r}")
        object.__setattr__(self, "lam", float(lam))


def objective(lam: float, transport, f5, problem: str):
    """lam*transport + (1.0-lam)*f5 for the median, lam*transport -
    (1.0-lam)*f5 for the maxian; scalars or arrays alike."""
    if problem == "median":
        return lam * transport + (1.0 - lam) * f5
    return lam * transport - (1.0 - lam) * f5


# per-problem names for transport and facilities that callers may still read
_ALIASES = {"median": {"medians": "facilities", "f1": "transport"},
            "maxian": {"f2": "transport"}}


@dataclass(frozen=True, eq=False)
class Solution:
    """The best cut of one problem at one lambda.

    deleted_edge is the 0-based input edge index, edge_uv its 1-based
    endpoints.  facilities = (x1, x2): for the median x1 is a 1-median of
    the side containing the smaller endpoint, x2 of the other side; for the
    maxian x1 serves the side containing the larger endpoint, x2 the other
    side.  transport is f1 (median) or f2 (maxian), and objective is
    objective(lam, transport, f5, problem).  method records which algorithm
    produced it.  Median solutions also answer medians and f1, maxian ones
    f2, as read-only aliases.  transport, f5 and objective are finite:
    values that overflowed raise PreconditionError."""

    problem: str
    method: str
    deleted_edge: int
    edge_uv: tuple[int, int]
    facilities: tuple[int, int]
    transport: float
    f5: float
    objective: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.transport, self.f5, self.objective))):
            raise PreconditionError(_OVERFLOW)

    def __getattr__(self, name):
        alias = _ALIASES.get(vars(self).get("problem"), {}).get(name)
        if alias is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        return getattr(self, alias)


@dataclass(frozen=True, eq=False)
class CutTable:
    """The lambda-independent terms of every cut a solver considers.

    Row k deletes tree edge edges[k], in increasing edge order; transport[k]
    is its f1 (median) or f2 (maxian), f5[k] its imbalance and
    facilities[k] the 1-based pair a solution reports for it.  problem is
    "median" or "maxian"; method names the algorithm that filled the table.
    Only the weighting of the two terms depends on lambda, so one table
    answers every lambda, and picks answers a whole list of them.  A linear
    table keeps in reach the distances from each of its two facilities to
    every vertex, by the facility's 1-based id and then by vertex id, for
    its picks to recompute from; recomputed keeps the (transport, f5) a pick
    recomputed, by edge, for picks at other lambdas.
    """

    problem: str
    method: str
    edges: np.ndarray
    transport: np.ndarray
    f5: np.ndarray
    facilities: np.ndarray
    reach: dict = field(default_factory=dict, repr=False)
    recomputed: dict = field(default_factory=dict, repr=False)

    def pick(self, lam: float, tree: WeightedTree) -> Solution:
        """The best cut at lam: picks([lam], tree)[0]."""
        return self.picks([lam], tree)[0]

    def picks(self, lams: list[float], tree: WeightedTree) -> list[Solution]:
        """The best cut at each lam, in order: the minimum for the median,
        the maximum for the maxian, the smallest edge index among ties, which
        is the first extremal row.  The objectives of a block of lams and
        every cut form one matrix of about _BLOCK elements, so memory stays
        bounded however many lams there are.  A linear table's path terms
        round differently from the tree's own sums, so its picked cut is
        recomputed, once per edge, as eval_transport and eval_f5 would
        through maxian_assignment, from the side mask and the distance rows
        in reach; the objective comes from them.  When no cut has a finite
        objective, or a NaN from overflowed sums leaves the pick undefined,
        it raises PreconditionError."""
        out, step = [], _BLOCK // self.edges.size or 1
        for j, lam in enumerate(lams):
            i = j % step
            if i == 0:
                # the objectives of the block of lams from j on, at every cut
                obj = objective(np.array(lams[j:j + step], dtype=float)[:, None],
                                self.transport, self.f5, self.problem)
                ks = (obj.argmin(1) if self.problem == "median" else obj.argmax(1)).tolist()
            # argmin and argmax return the first NaN, so a NaN anywhere in
            # the row is the picked value
            k, value = ks[i], obj.item(i, ks[i])
            if not math.isfinite(value):
                raise PreconditionError(_OVERFLOW)
            e, (x1, x2) = self.edges.item(k), self.facilities[k].tolist()
            transport, f5 = self.transport.item(k), self.f5.item(k)
            if self.method == "linear":
                if e not in self.recomputed:
                    # x2 serves side a, which holds the smaller endpoint,
                    # from side b; x1 serves side b from side a
                    in_a = _side_a(tree, e)
                    if in_a[x2 - 1] or not in_a[x1 - 1]:
                        raise PreconditionError(_OPPOSITE)
                    z_a = float(tree.z[in_a].sum())
                    self.recomputed[e] = (
                        _transport(tree, in_a, self.reach[x2], self.reach[x1]),
                        abs(z_a - (float(tree.z.sum()) - z_a)))
                transport, f5 = self.recomputed[e]
                path_value, value = value, objective(lam, transport, f5, self.problem)
                assert abs(value - path_value) <= TOLERANCE * (1.0 + abs(path_value)), \
                    "path objective disagrees with component recomputation"
            out.append(Solution(self.problem, self.method, e, tree.edge_tuple(e), (x1, x2),
                                transport, f5, value))
        return out


@dataclass(frozen=True, eq=False)
class Assignment:
    """A bipartition together with the facility serving each side.

    serve_a and serve_b are 1-based vertex ids.  In median mode each
    facility must lie inside the side it serves; in maxian mode clients are
    served by a facility on the opposite side, so serve_a lies in side_b
    and vice versa (degenerate reported solutions may break that rule, but
    evaluation through Assignment enforces it).
    """

    partition: EdgeBipartition
    serve_a: int
    serve_b: int
    mode: str

    def __post_init__(self):
        if self.mode not in ("median", "maxian"):
            raise PreconditionError(f"unknown assignment mode {self.mode!r}")
        part = self.partition
        n = part._in_a.size
        for f in (self.serve_a, self.serve_b):
            if not (1 <= f <= n):
                raise PreconditionError(f"facility id {f} out of range")
        a_in_a = bool(part._in_a[self.serve_a - 1])
        b_in_a = bool(part._in_a[self.serve_b - 1])
        if self.mode == "median":
            if not a_in_a or b_in_a:
                raise PreconditionError(
                    "median facilities must lie inside the side they serve")
        else:
            if a_in_a or not b_in_a:
                raise PreconditionError(_OPPOSITE)

    @property
    def facilities(self) -> tuple[int, int]:
        """(x1, x2) where x1 serves side_b and x2 serves side_a in maxian
        mode; in median mode x1 serves side_a."""
        if self.mode == "median":
            return self.serve_a, self.serve_b
        return self.serve_b, self.serve_a


def median_assignment(tree: WeightedTree, e: int, m1: int, m2: int) -> Assignment:
    """m1 serves the side containing the smaller endpoint of edge e."""
    return Assignment(split_by_edge(tree, e), m1, m2, "median")


def maxian_assignment(tree: WeightedTree, e: int, x1: int, x2: int) -> Assignment:
    """x1 serves the side containing the larger endpoint of edge e."""
    return Assignment(split_by_edge(tree, e), x2, x1, "maxian")


def eval_transport(tree: WeightedTree, assignment: Assignment) -> float:
    """Sum over both sides of w_i * d(v_i, serving facility).  The
    assignment must come from this tree: one whose partition has another
    size raises PreconditionError."""
    if assignment.partition._in_a.size != tree.n:
        raise PreconditionError("assignment belongs to a tree of another size")
    da, db = distances(tree, [assignment.serve_a - 1, assignment.serve_b - 1])
    return _transport(tree, assignment.partition._in_a, da, db)


def _transport(tree: WeightedTree, in_a: np.ndarray, da: np.ndarray,
               db: np.ndarray) -> float:
    """Side a's weight times its distances da plus side b's times db, all
    by vertex id."""
    ta = float(np.dot(tree.w[in_a], da[in_a]))
    tb = float(np.dot(tree.w[~in_a], db[~in_a]))
    return ta + tb


def cut_imbalance(tree: WeightedTree, z_sub: np.ndarray | None = None) -> np.ndarray:
    """f5 of every edge deletion, in edge order: |z_a - z_b| with z_a the
    z sum of the side holding the smaller endpoint, from z's subtree sums
    (given, or computed here)."""
    Z = float(tree.z.sum())
    if z_sub is None:
        z_sub = subtree_sums(tree, tree.z[tree.preorder])
    z_low = z_sub[tree.tin[tree.low]]
    z_a = np.where(tree.low == tree.eu, z_low, Z - z_low)
    return np.abs(z_a - (Z - z_a))


def eval_f3(partition: EdgeBipartition) -> float:
    """Larger of the two sides' z sums (the busier facility's load)."""
    return max(partition.z_a, partition.z_b)


def eval_f5(partition: EdgeBipartition) -> float:
    """Absolute difference of the two sides' z sums."""
    return abs(partition.z_a - partition.z_b)


def eval_fpmed(cfg: SolverConfig, tree: WeightedTree, assignment: Assignment) -> float:
    if assignment.mode != "median":
        raise PreconditionError("eval_fpmed needs a median-mode assignment")
    return objective(cfg.lam, eval_transport(tree, assignment),
                     eval_f5(assignment.partition), "median")


def eval_fpmax(cfg: SolverConfig, tree: WeightedTree, assignment: Assignment) -> float:
    if assignment.mode != "maxian":
        raise PreconditionError("eval_fpmax needs a maxian-mode assignment")
    return objective(cfg.lam, eval_transport(tree, assignment),
                     eval_f5(assignment.partition), "maxian")
