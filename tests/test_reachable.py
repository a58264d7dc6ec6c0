"""Every module-level function, module-level constant and method of a package
class is reached by name from outside its own definition: from a module of the
package, the CLI entry point, scripts/, perfbench/ or a name the README quotes
as code.  A method counts as reached when any of them reads an attribute of
its name; dunder names, which Python reads itself, are exempt.  Every option
(a parameter with a default) of a module-level function is passed by some
call in the package, scripts/ or perfbench/, and every attribute the package
stores, and every field its classes declare, is read there.  Code that
nothing reads is deleted, and an option that no caller sets is a constant;
oracles that only tests call live in tests/."""

import ast
import re
from collections import defaultdict
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


def _imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """What ``tree`` imports from the package: local name -> module for the
    modules it imports (``from . import a as m``, ``from sd2 import a``), and
    local name -> (module, name) for the names it imports from them."""
    aliases, imported = {}, {}
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            source = _package_module(n.module, n.level)
            for a in n.names:
                if (n.level, n.module) in ((1, None), (0, "sd2")):
                    aliases[a.asname or a.name] = a.name
                elif source is not None:
                    imported[a.asname or a.name] = (source, a.name)
        elif isinstance(n, ast.Import):
            for a in n.names:
                if a.name.startswith("sd2.") and a.asname:
                    aliases[a.asname] = a.name.split(".", 1)[1]
    return aliases, imported


def _reads(tree: ast.Module, module: str, skip=None) -> set[tuple[str, str]]:
    """(module, name) pairs the code of ``tree`` reads, outside ``skip``: its
    own names, names imported from package modules, and attributes of
    package modules imported under an alias."""
    aliases, imported = _imports(tree)
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


def _options(fn: ast.FunctionDef) -> list[str]:
    """The parameters of ``fn`` that have a default."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    return positional[len(positional) - len(fn.args.defaults):] + [
        a.arg for a, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default]


def _passed(call: ast.Call | None, fn: ast.FunctionDef) -> set[str]:
    """The parameters of ``fn`` that ``call`` passes, all of them when
    ``call`` is None (the function used as a value) or spreads a mapping."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    every = {*positional, *(a.arg for a in fn.args.kwonlyargs)}
    if call is None or any(kw.arg is None for kw in call.keywords):
        return every
    passed = {kw.arg for kw in call.keywords}
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):  # it may fill every later one
            return passed | set(positional[i:])
        passed |= set(positional[i:i + 1])
    return passed


def unpassed(modules: dict[str, str], outside: list[str]) -> list[str]:
    """``module.function.option`` for each option of a module-level function
    of ``modules`` (name -> source) that no call in ``modules`` or in the
    sources ``outside`` passes, by keyword or by position.  A call reaches the
    function by its bare name in its own module, by a from-import or as an
    attribute of an imported module; the function used as a value passes
    every parameter."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    functions = {name: {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
                 for name, tree in trees.items()}
    passed = defaultdict(set)
    for module, tree in [*trees.items(), *((None, ast.parse(s)) for s in outside)]:
        aliases, imported = _imports(tree)
        calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                target = imported.get(n.id, (module, n.id))
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                    and n.value.id in aliases:
                target = (aliases[n.value.id], n.attr)
            else:
                continue
            fn = functions.get(target[0], {}).get(target[1])
            if fn is not None:
                passed[target] |= _passed(calls.get(id(n)), fn)
    return sorted(f"{module}.{name}.{option}" for module, fns in functions.items()
                  for name, fn in fns.items() for option in _options(fn)
                  if option not in passed[(module, name)])


def unread(modules: dict[str, str], outside: list[str]) -> list[str]:
    """``module.Class.name`` for each field a class of ``modules`` declares
    and each attribute its methods store, and ``module.name`` for each
    attribute the module's other code stores, that no code of ``modules`` or
    ``outside`` reads as an attribute or as an identifier string (a name
    looked up with getattr); dunder names are exempt."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read = set()
    for tree in [*trees.values(), *map(ast.parse, outside)]:
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                    and n.value.isidentifier():
                read.add(n.value)
    found = set()
    for name, tree in trees.items():
        for stmt in tree.body:
            stored = {n.attr for n in ast.walk(stmt)
                      if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
            owner = name
            if isinstance(stmt, ast.ClassDef):
                owner = f"{name}.{stmt.name}"
                stored |= {s.target.id for s in stmt.body
                           if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
            found |= {f"{owner}.{a}" for a in stored - read if not a.startswith("__")}
    return sorted(found)


def package_modules() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}


def outside_sources() -> list[str]:
    """The sources of scripts/ and perfbench/."""
    return [path.read_text()
            for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]]


def outside_callers() -> set[str]:
    """Names read by scripts/ and perfbench/, the console entry points and
    the names the README quotes as code."""
    names = set()
    for source in outside_sources():
        names |= _names(ast.parse(source), strings=True)
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
    assert unreached(package_modules(), outside_callers()) == []


def test_detector_flags_unpassed_options():
    modules = {
        "a": "def f(x, kw=1, pos=2, unset=3, *, only=4, never=5):\n    pass\n\n"
             "def starred(x, s=1, t=2):\n    pass\n\n"
             "def spread(x, k=1):\n    pass\n\n"
             "def as_value(x, v=1):\n    pass\n\n"
             "def outside(x, o=1, p=2):\n    pass\n\n"
             "TABLE = {'v': as_value}\n",
        "b": "from . import a as m\nfrom .a import f as g\n\n"
             "def run(obj, args, kwargs):\n"
             "    m.f(0, kw=1)\n    g(0, 1, 2, only=4)\n"
             "    m.starred(0, *args)\n    m.spread(0, **kwargs)\n"
             "    obj.f(0, unset=3)  # not the package's f\n"
             "    f(0, unset=3)  # b's own f, which has no option\n\n"
             "def f(x):\n    pass\n",
    }
    outside = ["from sd2 import a\nfrom sd2.a import outside as o\n\n"
               "a.outside(0, 1)\no(0, p=2)\n"]
    assert unpassed(modules, outside) == ["a.f.never", "a.f.unset"]
    assert unpassed(modules, []) == ["a.f.never", "a.f.unset", "a.outside.o", "a.outside.p"]


def test_every_option_is_passed():
    assert unpassed(package_modules(), outside_sources()) == []


def test_detector_flags_unread_attributes():
    modules = {
        "a": "class K:\n    field: int\n    unread_field: int = 0\n    quoted_field: int = 0\n"
             "    NOT_A_FIELD = 1\n\n"
             "    def __init__(self):\n"
             "        self.kept, self.dropped = 1, 2\n        self.counter = 0\n"
             "        self.__hidden__ = 3\n\n"
             "    def bump(self):\n        self.counter += 1  # a store, not a read\n"
             "        return self.kept\n\n"
             "def stamp(k):\n    k.stamped = k.stored_elsewhere = 1\n"
             "    return k.field, getattr(k, 'quoted_field')\n",
    }
    outside = ["def read(k):\n    return k.stored_elsewhere\n"]
    assert unread(modules, outside) == ["a.K.counter", "a.K.dropped", "a.K.unread_field",
                                        "a.stamped"]
    assert "a.stored_elsewhere" in unread(modules, [])


def test_every_attribute_is_read():
    assert unread(package_modules(), outside_sources()) == []
