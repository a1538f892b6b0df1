"""Package hygiene, stdlib only: the public names resolve, no module of
``igbs`` imports a name it never uses (a leftover from a deleted code path),
and the README's library example runs."""

import ast
import os
import re
import subprocess
import sys
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


def test_every_top_level_definition_is_used():
    # a def or class that no other code of the package names, and that is
    # not exported, is a leftover of a removed code path
    defined, used = [], set(igbs.__all__)
    for path in sorted(Path(igbs.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name))
                names.discard(node.name)  # a recursive call is not a use
            used |= names
    unused = [f"{module}: {name}" for module, name in defined if name not in used]
    assert not unused


def test_readme_library_example_runs(tmp_path):
    # the python block under "Library use", run as a user would run it
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    src = str(Path(igbs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 2
    assert (tmp_path / "runs" / "api" / "comparison.txt").is_file()
