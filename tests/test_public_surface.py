"""The public surface: every name ``confshift`` exports has a caller, and
every private helper has a reader in the package. Also here, as no linter
is part of the test suite: every line of the package and the tests fits
100 columns.

A name counts as used when the package source, the README's Python
examples or the acceptance gate reads it. Its definition, an import of it,
its ``__all__`` entry and a mention in README prose or inline code do not
count, so a name that only the unit tests or the prose keep alive shows up
here. A private name (one leading underscore) counts as used only when the
package source reads it outside its own definition; reads from the tests
do not count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import confshift

ROOT = Path(__file__).resolve().parents[1]
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)


def _names_read(source: str) -> set[str]:
    """Names a piece of Python code loads (definitions, imports and string
    entries are other node kinds)."""
    return {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _readme_names(text: str) -> set[str]:
    """Names read by the README's Python blocks."""
    return {name for lang, body in _FENCE.findall(text) if lang == "python"
            for name in _names_read(body)}


def _used_names() -> set[str]:
    used = _readme_names((ROOT / "README.md").read_text(encoding="utf-8"))
    sources = [*sorted((ROOT / "src" / "confshift").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    for path in sources:
        used |= _names_read(path.read_text(encoding="utf-8"))
    return used


def test_every_exported_name_has_a_caller():
    assert sorted(set(confshift.__all__) - _used_names()) == []


def test_no_private_name_is_exported():
    assert [name for name in confshift.__all__ if name.startswith("_")] == []


def _reads(node: ast.AST) -> list[str]:
    """Every name and attribute that ``node`` loads, with repeats."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]


def _private_definitions(tree: ast.Module):
    """(name, defining statement) for each private module-level function,
    class and constant, and for each private method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            yield from ((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_private_helper_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "confshift").glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    unread = [f"{module}: {name}" for module, tree in trees.items()
              for name, node in _private_definitions(tree)
              if name.startswith("_") and not name.endswith("__")
              and reads[name] <= _reads(node).count(name)]
    assert unread == []


def test_every_source_line_fits_100_columns():
    paths = [*sorted((ROOT / "src" / "confshift").glob("*.py")),
             *sorted((ROOT / "tests").glob("*.py"))]
    long = [f"{path.relative_to(ROOT)}:{i}" for path in paths
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert long == []
