"""Command-line frontend.

Exit codes: 0 success, 2 parse or I/O error, 3 invalid configuration,
4 solver precondition failure.  Standard error carries only "error: ..."
and "warning: ..." lines.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
import warnings

import numpy as np

from .errors import ConfigError, PreconditionError, TreeParseError
from .experiments import (COLUMNS, ExperimentRecord, GenSpec, _allocation_report,
                          _csv_lines, _gen_columns, _sweep, check_grid,
                          check_method, check_problem, lambda_sweep,
                          pareto_front, record_fields)
from .objectives import SolverConfig
from .oracle import DEFAULT_CAP, brute_2maxian, brute_2median
from .tree import (WeightedTree, _columns, _fmt, _read_lines, _render_columns,
                   parse_tree)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treeloc",
        description="Balanced 2-median and 2-maxian solvers on weighted trees.")
    sub = ap.add_subparsers(dest="command", required=True)

    def io_flags(p):
        p.add_argument("--input", required=True, help="tree description file")
        p.add_argument("--output", help="write machine output to this file")
        p.add_argument("--format", default="text",
                       help="machine output format: json, csv, or text")

    p = sub.add_parser("solve-median", help="balanced 2-median by edge deletion")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    io_flags(p)

    p = sub.add_parser("solve-maxian", help="balanced 2-maxian")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--method", default="linear", help="linear or cubic")
    io_flags(p)

    p = sub.add_parser("oracle", help="brute-force reference solver")
    p.add_argument("problem", help="median or maxian")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="largest instance the oracle accepts")
    io_flags(p)

    p = sub.add_parser("sweep", help="solve across several lambda values")
    p.add_argument("problem", help="median or maxian")
    p.add_argument("--lambdas", required=True,
                   help="comma-separated values in [0,1], e.g. 0,0.5,1")
    p.add_argument("--method", default="linear", help="linear or cubic")
    io_flags(p)

    p = sub.add_parser("pareto", help="nondominated (transport, f5) points")
    p.add_argument("problem", help="median or maxian (the maxian front comes "
                   "from the linear heuristic)")
    p.add_argument("--grid", type=int, default=11,
                   help="number of lambda grid points")
    io_flags(p)

    p = sub.add_parser("gen", help="generate a random tree file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--length-min", type=float, default=0.01)
    p.add_argument("--length-max", type=float, default=5.0)
    p.add_argument("--weights", default="fixed", help="fixed or uniform")
    p.add_argument("--services", default="fixed", help="fixed or uniform")
    p.add_argument("--output", help="write the tree here instead of stdout")

    p = sub.add_parser("report", help="allocation deviations for a solution")
    p.add_argument("problem", help="median or maxian")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--method", default="linear", help="linear or cubic")
    io_flags(p)

    return ap


def _check_format(fmt: str):
    if fmt not in ("json", "csv", "text"):
        raise ConfigError(f"unknown format {fmt!r}; expected json, csv, or text")


def _load_tree(path: str) -> WeightedTree:
    """The tree of a file, whose lines reach _columns a chunk at a time, so
    that neither the whole text nor a list of its lines is ever alive.  On
    any fault the file is read again whole, and parse_tree names the fault
    as it does for the text: its line, or a decode error's byte position
    in the file.  A pipe or another file that is not regular is read whole."""
    with open(path, encoding="utf-8") as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            try:
                return WeightedTree(*_columns(_read_lines(fh)))
            except (ValueError, OverflowError):
                fh.seek(0)
        return parse_tree(fh.read())


def _summary(rec: ExperimentRecord) -> str:
    label = "medians" if rec.problem == "median" else "facilities"
    return "\n".join([
        f"problem {rec.problem}",
        f"n {rec.n}",
        f"method {rec.method}",
        f"lambda {_fmt(rec.lam)}",
        f"deleted edge ({rec.edge_uv[0]},{rec.edge_uv[1]})",
        f"{label} ({rec.facilities[0]},{rec.facilities[1]})",
        f"transport {_fmt(rec.transport)}",
        f"f5 {_fmt(rec.f5)}",
        f"objective {_fmt(rec.objective)}",
    ])


def _emit(args, text: str, payload, rows) -> int:
    """Print the text; with --output, also build and write there the one
    format asked for: the text, the payload as JSON, or rows (a header row,
    then value rows) as CSV."""
    print(text)
    if args.output:
        data = (_csv_lines(rows) if args.format == "csv" else
                (json.dumps(payload, indent=2) if args.format == "json" else text) + "\n")
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
    return 0


def _emit_records(args, text: str, records: list[ExperimentRecord]) -> int:
    """_emit of records: their columns, one object or a list of several as JSON."""
    fields = [record_fields(r) for r in records]
    return _emit(args, text, fields[0] if len(fields) == 1 else fields,
                 [COLUMNS, *(f.values() for f in fields)])


def _parse_lambdas(text: str) -> list[float]:
    vals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            vals.append(float(part))
        except ValueError:
            raise ConfigError(f"bad lambda value {part!r}") from None
    if not vals:
        raise ConfigError("empty lambda list")
    return vals


def _solve_once(args, problem: str):
    """(tree, table, [record]) of one lambda, as lambda_sweep picks it;
    everything is checked before the input is read."""
    _check_format(args.format)
    method = getattr(args, "method", "linear")
    check_method(method)
    lam = SolverConfig(args.lam).lam
    tree = _load_tree(args.input)
    return (tree, *_sweep(tree, problem, [lam], method))


def _cmd_solve(args, problem: str) -> int:
    *_, (rec,) = _solve_once(args, problem)
    return _emit_records(args, _summary(rec), [rec])


def _cmd_oracle(args) -> int:
    check_problem(args.problem)
    _check_format(args.format)
    cfg = SolverConfig(args.lam)
    tree = _load_tree(args.input)
    brute = brute_2median if args.problem == "median" else brute_2maxian
    t0 = time.perf_counter()
    sol = brute(cfg, tree, cap=args.cap)
    ms = (time.perf_counter() - t0) * 1e3
    rec = ExperimentRecord(**vars(sol), lam=cfg.lam, n=tree.n, runtime_ms=ms)
    return _emit_records(args, _summary(rec), [rec])


def _cmd_sweep(args) -> int:
    check_problem(args.problem)
    check_method(args.method)
    _check_format(args.format)
    lambdas = [SolverConfig(lam).lam for lam in _parse_lambdas(args.lambdas)]
    tree = _load_tree(args.input)
    records = lambda_sweep(tree, args.problem, lambdas, method=args.method)
    lines = [f"problem {args.problem} n {tree.n} sweeps {len(records)}"]
    lines += (f"lambda {_fmt(r.lam)} objective {_fmt(r.objective)} "
              f"transport {_fmt(r.transport)} f5 {_fmt(r.f5)} "
              f"edge ({r.edge_uv[0]},{r.edge_uv[1]}) "
              f"facilities ({r.facilities[0]},{r.facilities[1]})" for r in records)
    return _emit_records(args, "\n".join(lines), records)


def _cmd_pareto(args) -> int:
    check_problem(args.problem)
    _check_format(args.format)
    check_grid(args.grid)
    tree = _load_tree(args.input)
    pts = pareto_front(tree, args.problem, args.grid)
    lines = [f"problem {args.problem} grid {args.grid} points {len(pts)}"]
    lines += (f"transport {_fmt(a)} f5 {_fmt(b)}" for a, b in pts)
    return _emit(args, "\n".join(lines),
                 {"problem": args.problem, "grid": args.grid,
                  "points": [[float(a), float(b)] for a, b in pts]},
                 [("transport", "f5"), *pts])


def _cmd_gen(args) -> int:
    spec = GenSpec(args.n, args.seed, args.length_min, args.length_max,
                   args.weights, args.services)
    # the drawn columns form a tree by construction, so no tree is built;
    # each block is written as soon as it is formatted
    blocks = _render_columns(*_gen_columns(spec))
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(blocks)
        print(f"generated n={spec.n} seed={args.seed} -> {args.output}")
    else:
        sys.stdout.writelines(blocks)
    return 0


def _cmd_report(args) -> int:
    check_problem(args.problem)
    tree, table, (rec,) = _solve_once(args, args.problem)
    # a linear table holds both facilities' distance rows
    dev = _allocation_report(rec, tree, table.reach)
    return _emit(args, _summary(rec) + f"\ndeviations {dev}",
                 {**record_fields(rec), "deviations": dev},
                 [("problem", "method", "lambda", "deviations"),
                  (rec.problem, rec.method, rec.lam, dev)])


def _warning_line(message, category, filename, lineno, file=None, line=None):
    """Show a warning as one line, without the source location."""
    print(f"warning: {message}", file=sys.stderr)


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    dispatch = {
        "solve-median": lambda a: _cmd_solve(a, "median"),
        "solve-maxian": lambda a: _cmd_solve(a, "maxian"),
        "oracle": _cmd_oracle,
        "sweep": _cmd_sweep,
        "pareto": _cmd_pareto,
        "gen": _cmd_gen,
        "report": _cmd_report,
    }
    # an overflow surfaces as a non-finite objective, which exits 4
    try:
        with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
            warnings.showwarning = _warning_line
            return dispatch[args.command](args)
    except (TreeParseError, OSError, UnicodeDecodeError, ConfigError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (3 if isinstance(exc, ConfigError)
                else 4 if isinstance(exc, PreconditionError) else 2)


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
