"""Count the code lines of each module under src/treeloc, and in total.

    python scripts/loc.py [--functions]

With --functions, each module's row is followed by one row per top-level
function and class, as module:name, counted by the same rule from its
first decorator line to its last line.

A code line holds a token other than a comment. Blank lines, comment-only
lines and the docstrings of modules, classes and functions are left out;
every line a multi-line string or bracket spans counts. Use it to
re-measure a "less code" claim before and after a change.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "treeloc"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> set[int]:
    """Numbers of the lines of source that hold a code token."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - docstring_lines(source)


def top_level_spans(source: str) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each top-level function and class."""
    return [(node.name, min([node.lineno] + [d.lineno for d in node.decorator_list]),
             node.end_lineno)
            for node in ast.parse(source).body if isinstance(node, _SCOPES[1:])]


def main() -> int:
    parser = argparse.ArgumentParser(description="Count code lines under src/treeloc.")
    parser.add_argument("--functions", action="store_true",
                        help="also count each top-level function and class")
    args = parser.parse_args()
    rows, total = [], 0
    for path in sorted(ROOT.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = code_lines(source)
        total += len(lines)
        rows.append((path.name, len(lines)))
        if args.functions:
            rows += [(f"{path.stem}:{name}", sum(first <= ln <= last for ln in lines))
                     for name, first, last in top_level_spans(source)]
    rows.append(("total", total))
    width = max(16, max(len(name) + 1 for name, _ in rows))
    for name, count in rows:
        print(f"{name:<{width}} {count:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
