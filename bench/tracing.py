"""Per-layer spans, recorded from outside the package.

Each span wraps one public name of a treeloc module.  The wrapper replaces
the name in every loaded treeloc module that bound it (modules import each
other's functions by name), so calls between layers are timed too.  Self
time is a span's duration minus the time of the spans it encloses.
"""

from __future__ import annotations

import sys
import time

# span name -> (module, attribute).  median.one_median wraps the per-side
# 1-median that the solver calls: the public one_median() is a separate
# entry point that solve_balanced_2median does not use.
SPANS = {
    "tree.parse_tree": ("tree", "parse_tree"),
    "tree.WeightedTree": ("tree", "WeightedTree"),
    "tree.render_tree": ("tree", "render_tree"),
    "tree.diameter": ("tree", "diameter"),
    "tree.compress_onto_path": ("tree", "compress_onto_path"),
    "tree.split_by_edge": ("tree", "split_by_edge"),
    "maxian.solve_linear": ("maxian", "solve_balanced_2maxian_linear"),
    "maxian.path_fpmax_sweep": ("maxian", "path_fpmax_sweep"),
    "maxian.solve_cubic": ("maxian", "solve_balanced_2maxian_cubic"),
    "median.solve": ("median", "solve_balanced_2median"),
    "median.one_median": ("median", "_one_median_swept"),
    "experiments.lambda_sweep": ("experiments", "lambda_sweep"),
    "experiments.pareto_front": ("experiments", "pareto_front"),
    "experiments.gen_random_tree": ("experiments", "gen_random_tree"),
    "experiments.allocation_report": ("experiments", "allocation_report"),
    "cli.self": ("cli", "run"),
}
# timed from child processes, not by a wrapper
STARTUP = "cli.startup"


class MissingName(RuntimeError):
    """A span's name is not in the package, so its time cannot be taken."""


class Tracer:
    """Accumulates self time and calls per span while `recording` is set."""

    def __init__(self):
        self.self_s = {name: 0.0 for name in SPANS}
        self.calls = {name: 0 for name in SPANS}
        self.recording = False
        self._stack: list[list[float]] = []   # [child time] per open span

    def _wrap(self, name: str, fn):
        def span(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self._stack.append([0.0])
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = self._stack.pop()[0]
                if self._stack:
                    self._stack[-1][0] += dur
                self.self_s[name] += dur - child
                self.calls[name] += 1
        return span

    def install(self) -> None:
        """Wrap every span's name; raise MissingName for a name not found."""
        import treeloc.cli  # noqa: F401  (loads every module a span lives in)
        mods = [m for k, m in sys.modules.items()
                if k == "treeloc" or k.startswith("treeloc.")]
        for name, (modname, attr) in SPANS.items():
            mod = sys.modules.get(f"treeloc.{modname}")
            orig = getattr(mod, attr, None)
            if orig is None:
                raise MissingName(f"traced run cannot find treeloc.{modname}.{attr} "
                                  f"for span {name}")
            if isinstance(orig, type):
                # a class: time its construction by wrapping __init__
                orig.__init__ = self._wrap(name, orig.__init__)
                continue
            wrapped = self._wrap(name, orig)
            for m in mods:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)
