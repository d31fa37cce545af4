"""In-process cost of the two kernels behind a tree's traversal, by size.

    python scripts/traversal_cost.py [--k K] [--max-n N] [--seed S]

For each shape (path, star, caterpillar, broom, random) and n = 2..N
(default 128) builds one tree with relabelled ids and shuffled edges, then
times tree._walk_traversal (the Python walk) and tree._numpy_traversal (the
numpy kernel) on its arrays: the best of K calls each (default 1000),
alternating, in microseconds.  The program is imported from this
checkout's src/.

Prints one row per n, then per shape the crossover: the first n from which
the numpy kernel is faster at that n and at every larger one measured.
The last line is one JSON object: the table, the crossovers and the
dispatch constant tree._WALK_MAX.
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import treeloc.tree as tree_module  # noqa: E402

SHAPES = ("path", "star", "caterpillar", "broom", "random")


def parents(kind: str, n: int, rng: random.Random) -> list[int]:
    """The parents of vertices 1..n-1, 0-based: a caterpillar has a spine
    of about n/2 with one leg per spine vertex, a broom a handle of about
    n/2 with the bristles on its end."""
    half = n - n // 2
    if kind == "path":
        return list(range(n - 1))
    if kind == "star":
        return [0] * (n - 1)
    if kind == "caterpillar":
        return list(range(half - 1)) + list(range(n - half))
    if kind == "broom":
        return list(range(half - 1)) + [half - 1] * (n - half)
    return [rng.randrange(i) for i in range(1, n)]


def arrays(kind: str, n: int, rng: random.Random) -> tuple:
    """(n, lo, hi, length) as WeightedTree hands them to the traversal."""
    ids = np.array(rng.sample(range(n), n))
    order = np.array(rng.sample(range(n - 1), n - 1), dtype=np.int64)
    u = ids[np.array(parents(kind, n, rng), dtype=np.int64)][order]
    v = ids[np.arange(1, n)][order]
    length = np.array([rng.randint(1, 5) for _ in range(n - 1)], dtype=np.float64)
    return n, np.minimum(u, v), np.maximum(u, v), length


def best_us(kernels, args, k: int) -> list[float]:
    """Best wall time of each kernel over k alternating calls, in µs."""
    best = [float("inf")] * len(kernels)
    clock = time.perf_counter
    for _ in range(k):
        for i, kernel in enumerate(kernels):
            t0 = clock()
            kernel(*args)
            best[i] = min(best[i], clock() - t0)
    return [round(b * 1e6, 2) for b in best]


def crossover(walk: list[float], numpy: list[float], sizes: list[int]) -> int | None:
    """The first size from which numpy is faster at it and every larger one."""
    first = None
    for n, w, m in zip(sizes, walk, numpy):
        if m < w:
            first = n if first is None else first
        else:
            first = None
    return first


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=1000, help="calls per kernel and size")
    ap.add_argument("--max-n", type=int, default=128, help="largest vertex count")
    ap.add_argument("--seed", type=int, default=20, help="seed of the trees")
    args = ap.parse_args()
    if args.k < 1 or args.max_n < 2:
        ap.error("--k must be at least 1 and --max-n at least 2")
    rng = random.Random(args.seed)
    sizes = list(range(2, args.max_n + 1))
    kernels = (tree_module._walk_traversal, tree_module._numpy_traversal)
    table = {kind: {"walk_us": [], "numpy_us": []} for kind in SHAPES}
    print("n    " + "  ".join(f"{kind:>17}" for kind in SHAPES))
    print("     " + "  ".join(f"{'walk':>8} {'numpy':>8}" for _ in SHAPES))
    for n in sizes:
        row = []
        for kind in SHAPES:
            walk, numpy = best_us(kernels, arrays(kind, n, rng), args.k)
            table[kind]["walk_us"].append(walk)
            table[kind]["numpy_us"].append(numpy)
            row.append(f"{walk:8.1f} {numpy:8.1f}")
        print(f"{n:<4} " + "  ".join(row), flush=True)
    cross = {kind: crossover(t["walk_us"], t["numpy_us"], sizes) for kind, t in table.items()}
    for kind, n in cross.items():
        print(f"crossover {kind}: " + (f"numpy faster from n = {n}" if n else "none measured"))
    print(f"_WALK_MAX = {tree_module._WALK_MAX}")
    print(json.dumps({"k": args.k, "seed": args.seed, "sizes": sizes, "us": table,
                      "crossover": cross, "walk_max": tree_module._WALK_MAX}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
