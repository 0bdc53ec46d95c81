"""Static checks on the package source.

No linter ships with the package's test requirements, so the dead-code
checks are done here with ast: an imported name that its module never reads,
or a private top-level definition that no module of the package reads, costs
import time and misleads the reader about what the code uses.
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


def private_definitions(tree: ast.Module) -> list[str]:
    """Names of the module's top-level functions, classes and assignments that start with one _."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(tree: ast.Module) -> set[str]:
    """Names the module loads, attributes it reads and names it imports from a sibling module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.level:
            read.update(a.name for a in node.names)
    return read


def dead_definitions(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per module of sources (name -> text), its private top-level definitions no module reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    dead = {name: [d for d in private_definitions(tree) if d not in read] for name, tree in trees.items()}
    return {name: names for name, names in dead.items() if names}


def test_dead_definitions_finds_an_unread_helper():
    sources = {
        "a.py": "_LIMIT = 3\n_A, _B = 1, 2\ndef _used(): return _LIMIT\ndef _dead(): pass\n",
        "b.py": "from .a import _used\nfrom . import a\nclass _Gone: pass\nx = _used() + a._A\n",
    }
    assert dead_definitions(sources) == {"a.py": ["_B", "_dead"], "b.py": ["_Gone"]}


def test_no_dead_private_definitions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert sum(len(private_definitions(ast.parse(text))) for text in sources.values()) > 0
    assert dead_definitions(sources) == {}
