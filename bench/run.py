"""Benchmark of treeloc: one workload per run, every answer checked.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from src/.  The
workload runs in a worker process (worker.py), one operation at a time,
with BLAS threads pinned to 1 and without -O.  The set-up is measured in
SETUPS fresh workers and reported as their median; the last worker then
repeats whole rounds of the workload's operations for --seconds.  After it
has ended, every answer is checked here against computations of the
benchmark's own (checks.py).  The last line of standard output is one JSON
object: the end-to-end metrics, or with --trace 1 the per-layer metrics of
a traced replay.  See bench/README.md.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUPS = 3
DEADLINE_S = 170     # the whole run, checks included, ends within 180 s


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_worker(args, results: Path, workdir: Path, setup_only: bool,
               deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = clock()
    argv = [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
            str(args.seconds), str(args.trace), repr(t0), str(results)]
    proc = subprocess.Popen(argv + (["--setup-only"] if setup_only else []),
                            cwd=workdir, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - clock(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"error: the run did not finish in {DEADLINE_S} s")
    if code != 0:
        raise SystemExit(f"error: worker exited with code {code}")
    with open(results, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    return {**lines[-1], "ops": lines[:-1]}


def measure(args, workdir: Path) -> tuple[list[float], dict]:
    deadline = clock() + DEADLINE_S
    setups = []
    count = 1 if args.trace else SETUPS
    for k in range(count):
        data = run_worker(args, workdir / f"worker{k}.json", workdir, k < count - 1,
                          deadline)
        setups.append(data["setup_s"])
    return setups, data


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "treeloc" / "__init__.py").is_file():
        print(f"error: no treeloc sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setups, data = measure(args, workdir)
        import checks     # scipy is loaded only after the workers have ended
        checker = checks.RunChecker(args.workload, args.seed, ROOT, workdir)
        failed = wrong = 0
        for _, index, _, res in data["ops"]:
            if "error" in res:
                print(f"{checker.ops[index]} raised {res['error']}", file=sys.stderr)
            try:
                failed += checker.check(index, res)
            except checks.Wrong as exc:
                wrong += 1
                if wrong <= 5:
                    print(f"wrong answer to {checker.ops[index]}: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = len(data["round_ms"])
    times = [ms for _, _, ms, res in data["ops"] if "error" not in res]
    run_s = statistics.median(data["round_ms"]) / 1e3
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(checker.ops)} "
          f"operations; op_ms.p50 over {len(times)} operations, run_s median of "
          f"{rounds} round times, setup_s median of {len(setups)} set-ups "
          f"{[round(s, 3) for s in setups]}; {wrong} wrong, {failed} failed")
    if args.trace:
        print(f"traced run_s {run_s:.4f}")
        metrics = {k: {"value": v, "unit": "count" if k.endswith("_calls") else "ms"}
                   for k, v in data["per_layer"].items()}
        metrics["maxian.linear_gap_cases"] = {"value": checker.gap_cases // rounds,
                                              "unit": "count"}
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "op_ms.p50": {"value": statistics.median(times), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": data["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": wrong == 0, "attempted": len(data["ops"]), "failed": failed,
              "metrics": metrics}
    out = ROOT / ".bench_results"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
