"""Package hygiene, stdlib only: the public names resolve, and no module of
``igbs`` imports a name it never uses (a leftover from a deleted code path)."""

import ast
from pathlib import Path

import igbs


def test_public_names_resolve_once():
    assert len(igbs.__all__) == len(set(igbs.__all__))
    missing = [name for name in igbs.__all__ if not hasattr(igbs, name)]
    assert not missing


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(igbs.__all__)  # re-exports
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_an_unused_name():
    modules = sorted(Path(igbs.__file__).parent.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused
