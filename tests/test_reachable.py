"""Every module-level function, module-level constant and method of a package
class is reached by name from outside its own definition: from a module of the
package, the CLI entry point, scripts/, perfbench/ or a name the README quotes
as code.  A method counts as reached when any of them reads an attribute of
its name; dunder names, which Python reads itself, are exempt.  Code that
nothing reads is deleted; oracles that only tests call live in tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "sd2"


def _names(node, strings: bool = False) -> set[str]:
    """Names and attributes ``node`` reads, and with ``strings`` the string
    constants that are identifiers (names looked up with getattr)."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and n.value.isidentifier():
            found.add(n.value)
    return found


def _package_module(name: str | None, level: int) -> str | None:
    """The package module an import names (``.x``, ``sd2.x``), else None."""
    if level == 1:
        return name
    if name and name.startswith("sd2."):
        return name.split(".", 1)[1]
    return None


def _reads(tree: ast.Module, module: str, skip=None) -> set[tuple[str, str]]:
    """(module, name) pairs the code of ``tree`` reads, outside ``skip``: its
    own names, names imported from package modules, and attributes of
    package modules imported under an alias."""
    imported, aliases = {}, {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            source = _package_module(n.module, n.level)
            for a in n.names:
                if n.level == 1 and n.module is None:
                    aliases[a.asname or a.name] = a.name
                elif source is not None:
                    imported[a.asname or a.name] = (source, a.name)
        elif isinstance(n, ast.Import):
            for a in n.names:
                if a.name.startswith("sd2.") and a.asname:
                    aliases[a.asname] = a.name.split(".", 1)[1]
    found = set()
    for stmt in tree.body:
        if stmt is skip:
            continue
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                found.add(imported.get(n.id, (module, n.id)))
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                    and n.value.id in aliases:
                found.add((aliases[n.value.id], n.attr))
    return found


def _attributes(node, skip=None) -> set[str]:
    """Attribute names read in ``node``, outside the subtree ``skip``."""
    found = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Attribute):
            found.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return found


def _constants(stmt) -> list[str]:
    """The names a module-level assignment binds, dunder names aside."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [n.id for target in targets for n in ast.walk(target)
            if isinstance(n, ast.Name) and not n.id.startswith("__")]


def unreached(modules: dict[str, str], outside: set[str]) -> list[str]:
    """``module.name`` for each module-level function or constant of
    ``modules`` (name -> source) that no code reads, and
    ``module.Class.method`` for each method whose name no code reads as an
    attribute: none in any module outside the function's body, the
    constant's assignment or the method's body, and no name in ``outside``."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = {name: _reads(tree, name) for name, tree in trees.items()}
    attributes = {name: _attributes(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        others = set().union(*(r for other, r in reads.items() if other != name))
        other_attributes = set().union(*(a for other, a in attributes.items() if other != name))
        for fn in tree.body:
            if isinstance(fn, ast.ClassDef):
                found += [f"{name}.{fn.name}.{m.name}" for m in fn.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                          and m.name not in outside | other_attributes | _attributes(tree, m)]
            elif (isinstance(fn, ast.FunctionDef) and fn.name not in outside
                  and (name, fn.name) not in others | _reads(tree, name, skip=fn)):
                found.append(f"{name}.{fn.name}")
            else:
                found += [f"{name}.{c}" for c in _constants(fn) if c not in outside
                          and (name, c) not in others | _reads(tree, name, skip=fn)]
    return sorted(found)


def outside_callers() -> set[str]:
    """Names read by scripts/ and perfbench/, the console entry points and
    the names the README quotes as code."""
    names = set()
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        names |= _names(ast.parse(path.read_text()), strings=True)
    names |= set(re.findall(r'= "sd2\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        names |= set(re.findall(r"[A-Za-z_]\w*", span))
    return names


def test_detector_flags_unreached_functions():
    modules = {
        "a": "def used():\n    UNUSED = 1  # a store is not a read\n    return 1\n\n"
             "def unused():\n    return used()\n\n"
             "def recursive(n):\n    return recursive(n - 1)\n\n"
             "def by_table():\n    pass\n\nTABLE = {'f': by_table}\n\n"
             "def imported():\n    pass\n\ndef by_alias():\n    pass\n\n"
             "def same_name():\n    pass\n\n"
             "USED = 1\nUNUSED = 2\nLOCAL = 3\nDERIVED = LOCAL\nALIASED, QUOTED = 4, 5\n"
             "ANNOTATED: int = 6\n__dunder__ = 7\n",
        "b": "from . import a as m\nfrom .a import imported\n\n"
             "def helper():\n    pass\n\n"
             "def main():\n    helper(imported, m.by_alias, m.ALIASED)\n\n"
             "def same_name():\n    return same_name\n\n"
             "class K:\n    def __init__(self):\n        self.called()\n\n"
             "    def called(self):\n        pass\n\n"
             "    def self_only(self):\n        return self.self_only()\n\n"
             "    def elsewhere(self):\n        pass\n\n"
             "    def quoted(self):\n        pass\n",
        "c": "from .a import USED\n\ndef main(k):\n    return k.elsewhere, USED\n",
    }
    assert unreached(modules, {"main", "quoted", "QUOTED", "TABLE"}) == [
        "a.ANNOTATED", "a.DERIVED", "a.UNUSED", "a.recursive", "a.same_name", "a.unused",
        "b.K.self_only", "b.same_name"]
    assert "b.main" in unreached(modules, set())


def test_every_package_function_is_reached():
    modules = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreached(modules, outside_callers()) == []
