"""Run the Tier-1 tests and give a verdict.

    python scripts/tier1.py

Runs `python -m pytest -q --continue-on-collection-errors` from the root of
the checkout with src first on PYTHONPATH, the Tier-1 command of ROADMAP.md;
nothing is skipped or deselected.  Prints the passed and failed counts and
the ACCEPT lines of the failing gates, then the verdict.

Exits 0 only when the failed tests are exactly the two gates that fail by
design, each with its known counts: the linear 2-maxian is a heuristic and
the gates measure its gap on the reference family.  Any other failure, a
collection error or a changed count exits 1.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# failing gate -> the start of its ACCEPT line; the rest is a wall time
BY_DESIGN = {
    "tests/test_acceptance.py::test_maxian_method_equivalence":
        "ACCEPT maxian-method-equivalence: FAIL (linear!=cubic in 103/2200 cases "
        "(0 of them at lambda=1), cubic!=brute in 0/2200, ",
    "tests/test_acceptance.py::test_endpoint_leaf_optimality":
        "ACCEPT endpoint-leaf-optimality: FAIL (diameter endpoints miss the optimum "
        "in 53/2200 cases, leaf pairs in 4/2200, enumeration disagrees with brute in 0)",
}


def run_pytest() -> tuple[int, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def summary(output: str) -> tuple[dict, set, list]:
    """(count per outcome, failed test ids, ACCEPT lines of failing gates)
    of a pytest -q run."""
    lines = output.splitlines()
    counts = {}
    if lines and re.search(r" in [\d.]+s", lines[-1]):
        counts = {what.rstrip("s"): int(num)
                  for num, what in re.findall(r"(\d+) (\w+)", lines[-1])}
    failed = {ln.split()[1] for ln in lines if ln.startswith("FAILED ")}
    accept = [ln for ln in lines if ln.startswith("ACCEPT ") and ": FAIL" in ln]
    return counts, failed, accept


def verdict(code: int, counts: dict, failed: set, accept: list) -> list[str]:
    """Every way the run differs from the expected one; empty when it
    matches."""
    problems = []
    if code not in (0, 1) or not counts:
        problems.append(f"pytest exited {code} without a summary line")
    if counts.get("error"):
        problems.append(f"{counts['error']} collection or set-up errors")
    for test in sorted(failed - BY_DESIGN.keys()):
        problems.append(f"unexpected failure: {test}")
    for test, prefix in BY_DESIGN.items():
        if test not in failed:
            problems.append(f"by-design gate no longer fails: {test}")
        elif not any(ln.startswith(prefix) for ln in accept):
            problems.append(f"changed counts in {test}")
    return problems


def main() -> int:
    code, output = run_pytest()
    counts, failed, accept = summary(output)
    print(f"passed {counts.get('passed', 0)} failed {counts.get('failed', 0)}")
    for line in accept:
        print(line)
    problems = verdict(code, counts, failed, accept)
    for problem in problems:
        print(f"CHANGED: {problem}")
    print("tier1: as expected" if not problems else "tier1: not as expected")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
