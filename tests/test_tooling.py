"""Source-level guards that keep the package's self-checks alive."""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "essentia"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements; self-checks raise explicitly.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src: {found}"


def _imported_modules(tree: ast.AST) -> set[str]:
    """Dotted names a module of the package imports, relative ones
    resolved against ``essentia``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "essentia" if node.level else ""
            base = ".".join(filter(None, [base, node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_only_cli_and_init_import_the_oracle():
    # The brute-force oracle checks the solver, so no solving path may
    # share code with it.
    allowed = {"cli.py", "__init__.py"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        if "essentia.oracle" in _imported_modules(tree):
            found.append(path.name)
    assert set(found) <= allowed, f"modules importing the oracle: {found}"
