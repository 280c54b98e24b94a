"""Code lines of each module of a Python package, as JSON.

    python3 tools/code_lines.py               # src/flowgate of this checkout
    python3 tools/code_lines.py path/to/pkg   # any directory of modules
    python3 tools/code_lines.py --against ../parent/src/flowgate

A code line is a line that holds a token of code: blank lines, comment lines
and the lines of docstrings (the first statement of a module, class or
function when it is a string) are not counted, and a statement spread over
several lines counts each line that holds a token of it. Prints one JSON
object, {"<module>.py": lines, ..., "total": lines}, modules sorted by name.
With --against DIR (another directory of modules, say the parent's), each
value is instead {"against": DIR's lines, "here": lines, "delta": here -
against}, a module that only one side has counting 0 on the other. Standard
library only.
"""
from __future__ import annotations

import argparse
import ast
import io
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# tokens that hold no code: layout, comments and the ends of lines and files
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in a module's syntax tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a token of code."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def count_package(package: Path) -> dict[str, int]:
    """{"<module>.py": code lines} of each module directly in `package`, and
    their "total"."""
    counts = {path.name: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(package.glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def compare(here: dict[str, int], against: dict[str, int]) -> dict[str, dict[str, int]]:
    """Both sides' lines and their delta per module of either side, and in total."""
    names = sorted((here.keys() | against.keys()) - {"total"}) + ["total"]
    return {name: {"against": against.get(name, 0), "here": here.get(name, 0),
                   "delta": here.get(name, 0) - against.get(name, 0)} for name in names}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "flowgate",
                    help="directory of modules (default: src/flowgate)")
    ap.add_argument("--against", type=Path, metavar="DIR",
                    help="another directory of modules to compare with")
    args = ap.parse_args()
    counts = count_package(args.package)
    if args.against is not None:
        counts = compare(counts, count_package(args.against))
    print(json.dumps(counts, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
