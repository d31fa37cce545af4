"""Check that this checkout's program answers as another revision's does,
byte for byte.

    python scripts/same_output.py REV

Extracts `git archive REV src` into a temporary directory and writes the
inputs there with REV's `treeloc gen`: files of 12, 200, 3,000 and 70,000
vertices with fixed and with uniform data, and one drawn with
`--length-min 0`.  The package fixtures and five fault inputs join them: a
one-vertex tree, a tree whose sums overflow, a self-loop, a zero-length
edge and a file that does not exist.

Then one child process per checkout, REV's src and then this checkout's,
imports treeloc from it and calls `treeloc.cli.run` in-process: every
subcommand on every input, once without --output and once with --output in
each format (the cubic method and the oracle only on inputs of up to 200
vertices), `gen` itself, and a list of option errors.  Each run gives its
exit code, stdout, stderr and output file.  The child also records
`lambda_sweep` of both problems and both methods at 21 lambdas on 300
generated trees of 2 to 60 vertices.  runtime_ms is masked wherever it is
printed.

Prints the number of runs and the first differing ones, and exits 1 on any
difference.  Needs git, tar, the standard library and numpy.
"""

import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# (name, vertices, gen options) of the generated input files
GENERATED = [(f"{mode}{n}", n, opts) for n in (12, 200, 3000, 70000)
             for mode, opts in (("fixed", []),
                                ("uniform", ["--weights", "uniform", "--services", "uniform"]))]
GENERATED.append(("length0-200", 200, ["--seed", "5", "--length-min", "0"]))
# the largest input on which the cubic method and the oracle run
SMALL = 200
FAULTS = {
    "one-vertex.tree": "1\n",
    "overflow.tree": "3\n1 2 10\n2 3 10\n1 1e308 1\n2 1 1\n3 1e308 1\n",
    "self-loop.tree": "3\n1 1 1\n2 3 1\n",
    "zero-length.tree": "5\n1 2 1\n2 3 0\n3 4 2\n3 5 1\n",
}
LAMBDAS = ",".join(str(k / 20) for k in range(21))
# argv of each command, and whether it runs on large inputs
COMMANDS = [
    (["solve-median", "--lambda", "0.5"], True),
    (["solve-maxian", "--lambda", "0.3"], True),
    (["solve-maxian", "--lambda", "0.7", "--method", "cubic"], False),
    (["oracle", "median", "--lambda", "0.4"], False),
    (["oracle", "maxian", "--lambda", "0.6"], False),
    (["sweep", "median", "--lambdas", "0,0.25,0.5,0.75,1"], True),
    (["sweep", "maxian", "--lambdas", LAMBDAS], True),
    (["sweep", "maxian", "--lambdas", LAMBDAS, "--method", "cubic"], False),
    (["pareto", "median", "--grid", "11"], True),
    (["pareto", "maxian", "--grid", "21"], True),
    (["report", "median", "--lambda", "0.5"], True),
    (["report", "maxian", "--lambda", "0.35"], True),
    (["report", "maxian", "--lambda", "0.35", "--method", "cubic"], False),
]
T6 = ["--input", "../in/t6.tree"]
OPTION_ERRORS = [
    [], ["frobnicate"], ["solve-median"], ["solve-maxian", "--help"],
    ["solve-median", "--lambda", "abc", *T6], ["solve-median", "--lambda", "1.5", *T6],
    ["solve-median", "--lambda", "nan", *T6],
    ["solve-maxian", "--lambda", "0.5", "--method", "quadratic", *T6],
    ["solve-median", "--lambda", "0.5", "--format", "xml", *T6],
    ["sweep", "maxian", "--lambdas", "0.5,x", *T6], ["sweep", "median", "--lambdas", ",", *T6],
    ["sweep", "medain", "--lambdas", "0.5", *T6],
    ["sweep", "maxian", "--lambdas", "0.5", "--method", "quadratic", *T6],
    ["pareto", "maxian", "--grid", "1", *T6], ["pareto", "medain", *T6],
    ["oracle", "maxian", "--lambda", "0.5", "--cap", "2", *T6],
    ["report", "medain", "--lambda", "0.5", *T6],
]
GEN_RUNS = [["gen", "--n", "1"], ["gen", "--n", "12", "--seed", "3"],
            ["gen", "--n", "3000", "--weights", "uniform", "--services", "uniform"],
            ["gen", "--n", "70000", "--seed", "9"], ["gen", "--n", "0"],
            ["gen", "--n", "5", "--weights", "gauss"],
            ["gen", "--n", "5", "--length-min", "3", "--length-max", "1"]]


def cases(inputs: dict) -> list[list[str]]:
    """Every CLI argv, in run order; inputs maps a path, relative to a run
    directory, to its vertex count (0 for a fault)."""
    runs = []
    for path, n in inputs.items():
        for argv, large in COMMANDS:
            if n <= SMALL or large:
                argv = argv + ["--input", path]
                runs.append(argv)
                runs += [argv + ["--output", f"out.{fmt}", "--format", fmt]
                         for fmt in ("text", "json", "csv")]
    runs += OPTION_ERRORS
    for argv in GEN_RUNS:
        runs += [argv, argv + ["--output", "out.tree"]]
    return runs


def _mask(text: str | None) -> str | None:
    """text with every runtime_ms value replaced: JSON members, and the last
    column of CSV rows under a header that ends in runtime_ms."""
    if text is None:
        return None
    text = re.sub(r'("runtime_ms": )[^,\n}]+', r'\1"masked"', text)
    lines = text.split("\n")
    if lines[0].endswith(",runtime_ms"):
        lines[1:] = [ln.rsplit(",", 1)[0] + ",masked" if ln else ln for ln in lines[1:]]
    return "\n".join(lines)


def _digest(text: str | None) -> str | None:
    """Short texts as they are, long ones by length and hash."""
    if text is None or len(text) <= 2000:
        return text
    return f"<{len(text)} chars, sha256 {hashlib.sha256(text.encode()).hexdigest()}>"


def child(work: str, inputs: dict, out: str) -> None:
    """Run every case against the treeloc first on sys.path, from work, and
    write {label: result} to out as JSON."""
    import warnings

    from treeloc import GenSpec, gen_random_tree, lambda_sweep
    from treeloc.cli import run

    os.chdir(work)
    results = {}
    for argv in cases(inputs):
        target = argv[argv.index("--output") + 1] if "--output" in argv else None
        if target and os.path.exists(target):
            os.remove(target)
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            try:
                code = run(argv)
            except Exception as exc:        # a crash is one more outcome to compare
                code = f"raised {type(exc).__name__}: {exc}"
        written = Path(target).read_text() if target and os.path.exists(target) else None
        results[" ".join(argv)] = [code] + [_digest(_mask(s)) for s in
                                            (stdout.getvalue(), stderr.getvalue(), written)]
    lams = [k / 20 for k in range(21)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in range(300):
            mode = ("fixed", "uniform")[seed % 2]
            spec = GenSpec(2 + seed % 59, seed, 0.0 if seed % 5 == 0 else 0.01,
                           weight_mode=mode, service_mode=mode)
            tree = gen_random_tree(spec)
            for problem in ("median", "maxian"):
                for method in ("linear", "cubic"):
                    try:
                        recs = [{k: v for k, v in vars(r).items() if k != "runtime_ms"}
                                for r in lambda_sweep(tree, problem, lams, method)]
                    except Exception as exc:
                        recs = f"raised {type(exc).__name__}: {exc}"
                    results[f"lambda_sweep {spec} {problem} {method}"] = _digest(repr(recs))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def run_child(src: Path, work: Path, inputs: dict, out: Path) -> dict:
    work.mkdir()
    code = (f"import sys; sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]; "
            f"from same_output import child; child({str(work)!r}, {inputs!r}, {str(out)!r})")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return json.loads(out.read_text())


def write_inputs(src: Path, dest: Path) -> dict:
    """Write the inputs into dest and return {path from a run directory:
    vertex count}, 0 for the fixtures and the faults, all of them small."""
    dest.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    inputs = {}
    for name, n, opts in GENERATED:
        path = dest / f"{name}.tree"
        subprocess.run([sys.executable, "-m", "treeloc.cli", "gen", "--n", str(n), *opts,
                        "--output", str(path)], env=env, check=True, stdout=subprocess.DEVNULL)
        inputs[f"../in/{path.name}"] = n
    for fixture in sorted((src / "treeloc" / "fixtures").iterdir()):
        shutil.copy(fixture, dest / fixture.name)
        inputs[f"../in/{fixture.name}"] = 0
    for name, text in FAULTS.items():
        (dest / name).write_text(text)
        inputs[f"../in/{name}"] = 0
    inputs["../in/missing.tree"] = 0
    return inputs


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    rev = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "rev").mkdir()
        tar = str(tmp / "src.tar")
        if subprocess.run(["git", "archive", "-o", tar, rev, "src"], cwd=ROOT).returncode:
            return 2
        subprocess.run(["tar", "-x", "-f", tar, "-C", str(tmp / "rev")], check=True)
        inputs = write_inputs(tmp / "rev" / "src", tmp / "in")
        want = run_child(tmp / "rev" / "src", tmp / "run-rev", inputs, tmp / "rev.json")
        got = run_child(ROOT / "src", tmp / "run-here", inputs, tmp / "here.json")
    differ = [label for label in want if want[label] != got.get(label)]
    print(f"{len(want)} runs, {len(differ)} differ from {rev}")
    for label in differ[:5]:
        print(f"\n{label}")
        print(f"  {rev}: {repr(want[label])[:500]}\n  here: {repr(got.get(label))[:500]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
