"""Peak memory and wall time of the CLI commands that the cli-io benchmark
workload runs, and of `solve-median`, each in its own child process.

    python scripts/peak_rss.py --n 70000 [--repeat R] [--only NAME ...]

Writes the two input trees with `treeloc gen` (fixed data, and uniform
weights and services) into a temporary directory, then runs the seven
command kinds of cli-io: the two `gen` runs themselves, `solve-maxian` on
each file, `report maxian` on the uniform file, and a `sweep maxian` on each
file with CSV and JSON output.  Last comes `solve-median` on the uniform
file, which cli-io does not run.  Each child's peak resident set size is its
ru_maxrss, read with os.wait4.  The program is imported from this
checkout's src/, with BLAS threads pinned to 1 as in the benchmark.

Prints one JSON object: per command, the median over the R runs of peak MB
and wall seconds.  --only reports just the named commands; the two `gen`
runs still write the inputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def commands(n: int, work: Path) -> dict:
    """argv by command name, in the order they run: the gens come first."""
    fixed, uniform = str(work / "fixed.tree"), str(work / "uniform.tree")
    return {
        "gen-fixed": ["gen", "--n", str(n), "--seed", "1", "--output", fixed],
        "gen-uniform": ["gen", "--n", str(n), "--seed", "2", "--weights", "uniform",
                        "--services", "uniform", "--output", uniform],
        "solve-maxian-fixed": ["solve-maxian", "--lambda", "0.5", "--input", fixed],
        "solve-maxian-uniform": ["solve-maxian", "--lambda", "0.5", "--input", uniform],
        "report-maxian-uniform": ["report", "maxian", "--lambda", "0.3", "--input", uniform],
        "sweep-maxian-fixed-csv": ["sweep", "maxian", "--lambdas", "0.2,0.5,0.8",
                                   "--input", fixed, "--output", str(work / "sweep.csv"),
                                   "--format", "csv"],
        "sweep-maxian-uniform-json": ["sweep", "maxian", "--lambdas", "0.1,0.9",
                                      "--input", uniform, "--output", str(work / "sweep.json"),
                                      "--format", "json"],
        "solve-median-uniform": ["solve-median", "--lambda", "0.5", "--input", uniform],
    }


def run_child(argv: list[str]) -> tuple[float, float]:
    """(peak MB, wall s) of `python -m treeloc.cli argv`; raises on a
    nonzero exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "treeloc.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}")
    return usage.ru_maxrss / 1024.0, wall


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, required=True, help="vertices of the input trees")
    ap.add_argument("--repeat", type=int, default=1, help="runs of each command")
    ap.add_argument("--only", nargs="+", help="report only these commands")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        cmds = commands(args.n, Path(tmp))
        unknown = set(args.only or ()) - set(cmds)
        if unknown:
            ap.error(f"unknown commands {sorted(unknown)}; choose from {list(cmds)}")
        wanted = [name for name in cmds
                  if name.startswith("gen-") or not args.only or name in args.only]
        runs = {name: [] for name in wanted}
        for _ in range(args.repeat):
            for name in wanted:
                runs[name].append(run_child(cmds[name]))
    report = {name: {"peak_mb": round(statistics.median(p for p, _ in r), 1),
                     "wall_s": round(statistics.median(w for _, w in r), 3)}
              for name, r in runs.items() if not args.only or name in args.only}
    print(json.dumps({"n": args.n, "runs": args.repeat, "commands": report}, indent=1))


if __name__ == "__main__":
    main()
