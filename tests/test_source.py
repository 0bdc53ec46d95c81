"""Static checks on the package source.

No linter ships with the package's test requirements, so the dead-code
checks are done here with ast: an imported name that its module never reads,
or a private top-level definition that no module of the package reads, costs
import time and misleads the reader about what the code uses. The third check
guards the public surface: a name in a module's __all__, or a public method
or property of one of its classes, must be read by another module of the
package, named in a file under bench/ or tools/, or named in the README, or
it is a promise no caller relies on.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dtameta"
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


def exports(tree: ast.Module) -> list[str]:
    """The string entries of the module's top-level __all__ assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


def public_members(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, name) of each public method and property of the module's top-level classes."""
    return [
        (cls.name, node.name) for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]


def unread_exports(sources: dict[str, str], texts: list[str]) -> dict[str, list[str]]:
    """Per module of sources, its public names that no other module reads and no text names.

    An __all__ name counts as named by any word of the texts; a class's public method or
    property, reported as Class.name, only by an attribute access .name in them.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = {name: names_read(tree) for name, tree in trees.items()}
    text = "\n".join(texts)
    words, attrs = set(re.findall(r"\w+", text)), set(re.findall(r"\.(\w+)", text))
    unread = {}
    for name, tree in trees.items():
        read = set().union(*(r for other, r in reads.items() if other != name))
        names = [e for e in exports(tree) if e not in read and e not in words]
        names += [f"{c}.{m}" for c, m in public_members(tree) if m not in read and m not in attrs]
        if names:
            unread[name] = names
    return unread


def test_unread_exports_finds_a_name_without_a_reader():
    sources = {
        "a.py": (
            '"""Module a: its docstring names mentioned(), which does not count."""\n'
            '__all__ = ["imported", "attr", "benched", "documented", "mentioned", "self_read"]\n'
            "def imported(): pass\ndef attr(): pass\ndef benched(): pass\n"
            "def documented(): pass\ndef mentioned(): pass\ndef self_read(): pass\n"
            "x = self_read()\n"
        ),
        "b.py": "from .a import imported\nfrom . import a\n__all__ = ['lone']\nlone = a.attr\n",
    }
    readme = "Call `documented(x)` for the result.\n"
    bench = "from dtameta import benched\nbenched()\n"
    assert unread_exports(sources, [readme, bench]) == {
        "a.py": ["mentioned", "self_read"], "b.py": ["lone"],
    }


def test_unread_exports_finds_a_member_without_a_reader():
    sources = {
        "a.py": (
            "class Box:\n"
            "    def _private(self): pass\n"
            "    @property\n    def size(self): return 1\n"
            "    def used(self): return self.own()\n"
            "    def own(self): pass\n"
            "    def benched(self): pass\n"
            "    def worded(self): pass\n"
            "    def dead(self): pass\n"
        ),
        "b.py": "from .a import Box\n__all__ = ['f']\ndef f(b): return b.used(), b.size\n",
    }
    readme = "`f(box)` calls worded on the box.\n"
    bench = "box.benched()\nf(box)\n"
    assert unread_exports(sources, [readme, bench]) == {
        "a.py": ["Box.own", "Box.worded", "Box.dead"],
    }


def test_every_export_has_a_reader():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert sum(len(exports(ast.parse(text))) for text in sources.values()) > 0
    assert sum(len(public_members(ast.parse(text))) for text in sources.values()) > 0
    texts = [(ROOT / "README.md").read_text()] + [
        p.read_text() for d in ("bench", "tools") for p in sorted((ROOT / d).rglob("*"))
        if p.suffix in (".py", ".md")
    ]
    assert unread_exports(sources, texts) == {}
