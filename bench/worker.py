"""Benchmark worker: one workload's set-up, warm-up and timed rounds.

run.py starts this script once per set-up it measures; only the last start
goes on to the timed rounds.  The worker writes the raw answers, one JSON
line per operation, and then its timings to a file, and run.py checks the
answers after the worker has ended, so the checkers' arrays never count
toward this process's peak memory.

Usage (from run.py): worker.py WORKLOAD SEED SECONDS TRACE T0 RESULTS [--setup-only]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import SPANS, STARTUP, Tracer

ROOT = Path(__file__).resolve().parent.parent


def clock() -> float:
    """System-wide monotonic clock, comparable with run.py's."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cli_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "treeloc.cli", *argv],
                          capture_output=True, text=True)


class InProcess:
    """Times API calls; each call builds its tree from fresh arrays."""

    def __init__(self, workload: str, seed: int):
        import treeloc
        self.tl = treeloc
        self.inputs = workloads.inputs(workload, seed, ROOT)

    def _build(self, key: str):
        inp = self.inputs[key]
        if inp[0] == "text":
            return lambda: self.tl.parse_tree(inp[1])
        _, n, eu, ev, length, w, t = inp
        arrays = [a.copy() for a in (eu, ev, length, w, t)]
        return lambda: self.tl.WeightedTree(n, *arrays)

    def __call__(self, op: list, tag: str) -> tuple[float, dict]:
        tl = self.tl
        kind = op[0]
        if kind == "solve":
            _, method, key, lam = op
            build = self._build(key)
            solver = {"median": tl.solve_balanced_2median,
                      "linear": tl.solve_balanced_2maxian_linear,
                      "cubic": tl.solve_balanced_2maxian_cubic}[method]
            t0 = time.perf_counter()
            sol = solver(tl.SolverConfig(lam), build())
            ms = (time.perf_counter() - t0) * 1e3
            return ms, solution_dict(sol)
        if kind == "sweep":
            _, problem, method, key, lams = op
            build = self._build(key)
            t0 = time.perf_counter()
            recs = tl.lambda_sweep(build(), problem, lams, method=method)
            ms = (time.perf_counter() - t0) * 1e3
            return ms, {"records": [record_dict(r) for r in recs]}
        if kind == "pareto":
            _, problem, key, grid = op
            build = self._build(key)
            t0 = time.perf_counter()
            pts = tl.pareto_front(build(), problem, grid)
            ms = (time.perf_counter() - t0) * 1e3
            return ms, {"points": [[float(a), float(b)] for a, b in pts]}
        raise ValueError(f"unknown operation {op!r}")


class Cli:
    """Times CLI commands: child processes, or cli.run() in-process when
    traced.  Set-up writes the input files with `treeloc gen`."""

    def __init__(self, workload: str, seed: int, traced: bool):
        self.traced = traced
        os.makedirs("in", exist_ok=True)
        os.makedirs("out", exist_ok=True)
        for argv in workloads.inputs(workload, seed, ROOT).values():
            p = cli_child(argv)
            if p.returncode != 0:
                raise SystemExit(f"set-up command {argv} failed: {p.stderr}")

    def __call__(self, op: list, tag: str) -> tuple[float, dict]:
        argv = [a.replace("{out}", f"out/{tag}") for a in op[2]]
        output = next((a for a in argv if a.startswith("out/")), None)
        if not self.traced:
            t0 = time.perf_counter()
            p = cli_child(argv)
            ms = (time.perf_counter() - t0) * 1e3
            return ms, {"rc": p.returncode, "stdout": p.stdout,
                        "stderr": p.stderr[-2000:], "output": output}
        cli = sys.modules["treeloc.cli"]
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
        ms = (time.perf_counter() - t0) * 1e3
        return ms, {"rc": rc, "stdout": buf.getvalue(), "stderr": "", "output": output}


def solution_dict(sol) -> dict:
    median = hasattr(sol, "medians")
    return {"edge": int(sol.deleted_edge), "edge_uv": list(sol.edge_uv),
            "fac": list(sol.medians if median else sol.facilities),
            "transport": float(sol.f1 if median else sol.f2),
            "f5": float(sol.f5), "objective": float(sol.objective),
            "method": "edge-deletion" if median else sol.method}


def record_dict(r) -> dict:
    return {"lam": r.lam, "transport": r.transport, "f5": r.f5,
            "objective": r.objective, "edge_uv": list(r.edge_uv),
            "fac": list(r.facilities), "method": r.method}


def startup_ms(count: int) -> float:
    """Wall time of `count` interpreters that each import treeloc.cli."""
    total = 0.0
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import treeloc.cli"], check=True)
        total += time.perf_counter() - t0
    return total * 1e3


def main(argv: list[str]) -> None:
    workload, seed, seconds, trace, t0, results = argv[:6]
    seed, seconds, traced, t0 = int(seed), float(seconds), trace == "1", float(t0)
    setup_only = "--setup-only" in argv[6:]
    if sys.flags.optimize:
        raise SystemExit("the benchmark runs the program without -O")
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    if workload == "cli-io":
        execute = Cli(workload, seed, traced)
    else:
        execute = InProcess(workload, seed)
    ops = workloads.round_ops(workload, seed)
    execute(ops[0], "warmup")
    out = {"setup_s": clock() - t0}
    # one JSON line per operation, then the summary line; streaming keeps
    # the answers out of this process's peak memory
    with open(results, "w", encoding="utf-8") as fh:
        if not setup_only:
            out.update(timed_rounds(execute, ops, seconds, tracer, fh))
            who = resource.RUSAGE_CHILDREN if workload == "cli-io" else resource.RUSAGE_SELF
            out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        fh.write(json.dumps(out) + "\n")


def timed_rounds(execute, ops: list, seconds: float, tracer, fh) -> dict:
    """Whole rounds of ops until `seconds` have passed."""
    if tracer:
        tracer.recording = True
    round_ms = []
    start = clock()
    while not round_ms or clock() - start < seconds:
        r = len(round_ms)
        total = 0.0
        for i, op in enumerate(ops):
            try:
                ms, res = execute(op, f"r{r}-o{i}")
            except Exception as exc:   # a failed operation is counted, not fatal
                ms, res = 0.0, {"error": repr(exc)}
            total += ms
            fh.write(json.dumps([r, i, ms, res]) + "\n")
        round_ms.append(total)
    out = {"round_ms": round_ms}
    if tracer:
        tracer.recording = False
        rounds = len(round_ms)
        per_layer = {}
        for name in SPANS:
            per_layer[f"{name}_ms"] = tracer.self_s[name] * 1e3 / rounds
            per_layer[f"{name}_calls"] = tracer.calls[name] // rounds
        cli_ops = sum(op[0] == "cli" for op in ops)
        per_layer[f"{STARTUP}_ms"] = startup_ms(cli_ops) if cli_ops else 0.0
        per_layer[f"{STARTUP}_calls"] = cli_ops
        out["per_layer"] = per_layer
    return out


if __name__ == "__main__":
    main(sys.argv[1:])
