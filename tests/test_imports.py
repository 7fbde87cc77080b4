"""No linter is a dependency, so the package's imports are checked here with
ast: every name a module imports must be used in it or listed in its
__all__.  __init__.py, which only re-exports, is exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ccwidth"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_imported_name_is_used_or_exported(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_the_check_flags_an_unused_import_and_passes_an_exported_one():
    source = "from .errors import CCWidthError, ParseError\nimport json\n__all__ = ['ParseError']\n"
    assert unused_imports(source) == ["CCWidthError (line 1)", "json (line 2)"]
