"""Every public library definition has a caller outside the tests.

A module-level public function or class of src/brsc stays only while code in
src/brsc or perfbench uses it outside its own definition: the CLI, `brsc
reproduce`, the catalog registry, the benchmark or another library function.
Uses are read off the parsed code, so docstrings and comments never count. A
bare name counts in a file that defines or imports it, so a local variable
that happens to share a public name does not; an attribute counts wherever it
appears.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "brsc").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "perfbench").glob("*.py"))


def _top_level_definitions(tree):
    return [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _uses(path):
    """(file, name, enclosing top-level definition or None) per use in a file."""
    tree = ast.parse(path.read_text())
    bound = {node.name for node in _top_level_definitions(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            bound |= {alias.asname or alias.name for alias in node.names}
    out = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in bound:
                out.add((path, node.id, owner))
            elif isinstance(node, ast.Attribute):
                out.add((path, node.attr, owner))
    return out


def test_every_public_definition_has_a_caller():
    uses = set().union(*map(_uses, CALLERS))
    unused = []
    for path in LIBRARY:
        for node in _top_level_definitions(ast.parse(path.read_text())):
            name = node.name
            if name.startswith("_"):
                continue
            if not any(n == name and (p, o) != (path, name) for p, n, o in uses):
                unused.append(f"{path.stem}.{name}")
    assert unused == []
