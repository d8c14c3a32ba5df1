"""Unused-import check over the package modules and the tests.

No linter ships with the toolchain, so this walks each module's syntax tree:
every name an import binds must be read somewhere in the module. An import
line marked `# noqa: F401` is exempt (the re-imports the benchmark probes
rebind). The package `__init__` is exempt: its imports are the public API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "saddleprec").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(path: Path) -> list:
    """(line, name) of every imported name the module never reads."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                unused.append((node.lineno, name))
    return unused


def test_no_unused_imports():
    found = {p.relative_to(ROOT).as_posix(): unused_imports(p) for p in MODULES}
    assert not {path: names for path, names in found.items() if names}
