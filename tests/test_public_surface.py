"""The public surface: every name ``confshift`` exports has a caller.

A name counts as used when the package source, the README (its Python
examples and inline code) or the acceptance gate reads it. Its definition,
an import of it and its ``__all__`` entry do not count, so a name that only
the unit tests keep alive shows up here.
"""

import ast
import re
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
    """Names read by the README's Python blocks, plus every word of its
    inline code spans."""
    out = set()
    for lang, body in _FENCE.findall(text):
        if lang == "python":
            out |= _names_read(body)
    for span in re.findall(r"`([^`\n]+)`", _FENCE.sub("", text)):
        out |= set(re.findall(r"\w+", span))
    return out


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
