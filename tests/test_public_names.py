"""Every public function, class and method of flowgate has a caller outside the tests."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "flowgate"
PROGRAMS = (PACKAGE, ROOT / "tools", ROOT / "perfbench")


def public_definitions(tree: ast.AST):
    """(name, first line, last line) of each def and class not starting with `_`."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.lineno, node.end_lineno


def test_every_public_name_is_used_outside_its_own_definition():
    sources = {path: path.read_text() for root in PROGRAMS for path in sorted(root.glob("*.py"))}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sources[path].splitlines()
        others = "\n".join(text for other, text in sources.items() if other != path)
        for name, first, last in public_definitions(ast.parse(sources[path])):
            rest = "\n".join(lines[:first - 1] + lines[last:]) + "\n" + others
            if not re.search(rf"\b{name}\b", rest):
                unused.append(f"{path.name}:{first} {name}")
    assert unused == []
