"""Static checks on the package source.

No linter ships with the package's test requirements, so the dead-import
check is done here with ast: an imported name that its module never reads
costs import time and misleads the reader about what the module uses.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dtameta"
# __init__.py imports names only to re-export them
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements (from __future__ aside) that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    assert "model.py" in MODULES  # the glob found the package, so the check is not vacuous
    unused = {m: unused_imports((SRC / m).read_text()) for m in MODULES}
    assert {m: names for m, names in unused.items() if names} == {}
