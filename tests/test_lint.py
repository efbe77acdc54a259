"""Static checks of the package and test sources, with the standard library
only."""

import ast
import re
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mdemap"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never uses; a name listed in ``__all__``
    is used (a package re-export)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py"))
                         + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_check_finds_unused_imports():
    tree = ast.parse("import os, sys\nfrom math import pi, tau as t\n"
                     "from .x import A\n__all__ = ['A']\nprint(sys.argv, t)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: pi"]


ROOT = SRC.parents[1]


def _defined_names(tree: ast.Module) -> list[str]:
    """The names a module binds at its top level, dunders left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _dead_names(modules: dict[str, ast.Module], text: str) -> list[str]:
    """``module.name`` of each top-level name that no module but
    ``__init__`` reads, as a name or an attribute, and no word of ``text``
    names."""
    used = set(re.findall(r"\w+", text))
    for module, tree in modules.items():
        if module != "__init__":
            used |= {getattr(n, "id", None) or n.attr for n in ast.walk(tree)
                     if isinstance(n, (ast.Name, ast.Attribute))
                     and isinstance(n.ctx, ast.Load)}
    return [f"{module}.{name}" for module, tree in sorted(modules.items())
            for name in _defined_names(tree) if name not in used]


def test_no_dead_names():
    """perfbench names what it wraps in strings, and the README's library
    example is the public API's one documented caller."""
    example = re.search(r"## Library use\n\n```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.DOTALL)[1]
    text = example + "".join(p.read_text()
                             for p in sorted(ROOT.glob("perfbench/*.py")))
    modules = {p.stem: ast.parse(p.read_text(), str(p))
               for p in SRC.glob("*.py")}
    assert _dead_names(modules, text) == []


def test_the_check_finds_dead_names():
    modules = {name: ast.parse(source) for name, source in {
        "__init__": "from .a import dead, kept, X\n__all__ = ['dead', 'X']\n",
        "a": "def dead(): pass\ndef kept(): pass\nclass X: pass\n"
             "__version__ = '1'\n_y, z = 1, 2\nw: int = 3\n",
        "b": "from . import a\nfrom .a import kept\nkept(a.z)\n"}.items()}
    assert _dead_names(modules, "X = 1") == ["a.dead", "a._y", "a.w"]
