"""Each config and spec field's type, lower bound and closed set of names is
decided in one place, `datagen.check_fields`, from the field's declared
annotation and the bounds and sets its class's ``__post_init__`` hands it.  A
``__post_init__`` keeps only rules between fields, so the decision cannot fork
again: it calls check_fields and holds no isfinite call, no
isinstance(..., bool), no comparison of a single field with a number and no
test of a single field against a literal tuple, list or set.  Every field of
every class a config or spec sets is given the values its type, bound or set
rejects, so a field added later is covered.  Each closed set (the treatment
modes, the ablation variants, the covariate roles) is written once, and every
per-mode table names exactly the modes `family.FAMILIES` declares.

A JSON record becomes its class in one place too, `datagen.read_record`: every
class is handed an unknown key, each missing required field and a list for
each integer field, and cli, training and model build no config or spec class
from an unpacked mapping (``**``), which would skip those checks."""

import ast
import dataclasses
import inspect
import math
import textwrap
from pathlib import Path

import pytest

from sd2 import cli, losses, model, training
from sd2 import datagen as dg
from sd2 import evaluation as ev
from sd2.family import FAMILIES
from sd2.model import ArchConfig
from test_cli import CONFIG_CLASSES


def _called(node) -> str | None:
    """The name a call calls (``f(..)`` or ``x.f(..)``), else None."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def _is_self(node) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _one_field(node) -> bool:
    """A single field's value: ``self.f``, ``getattr(self, name)``, a local
    name or a min or max of fields."""
    if isinstance(node, ast.Attribute):
        return _is_self(node.value)
    if _called(node) == "getattr":
        return _is_self(node.args[0])
    return _called(node) in ("min", "max") or isinstance(node, ast.Name)


def _number(node) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def hand_checks(post_init: ast.FunctionDef) -> list[str]:
    """What a ``__post_init__`` decides about one field's type or bound
    itself, and a missing check_fields call, sorted."""
    nodes = list(ast.walk(post_init))
    found = [] if any(_called(n) == "check_fields" for n in nodes) else ["no check_fields"]
    for n in nodes:
        if _called(n) == "isfinite":
            found.append(f"line {n.lineno}: isfinite")
        elif _called(n) == "isinstance" and any(
                isinstance(m, ast.Name) and m.id == "bool" for m in ast.walk(n.args[1])):
            found.append(f"line {n.lineno}: isinstance(.., bool)")
        elif isinstance(n, ast.Compare) and len(n.comparators) == 1:
            sides = (n.left, n.comparators[0])
            if any(map(_number, sides)) and any(map(_one_field, sides)):
                found.append(f"line {n.lineno}: a field compared with a number")
            elif (isinstance(n.ops[0], (ast.In, ast.NotIn)) and _one_field(n.left)
                    and isinstance(n.comparators[0], (ast.Tuple, ast.List, ast.Set))):
                found.append(f"line {n.lineno}: a field tested against a literal set")
    return sorted(found)


def _post_init(cls) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__))).body[0]


def _check_fields_call(cls) -> ast.Call | None:
    return next((n for n in ast.walk(_post_init(cls)) if _called(n) == "check_fields"), None)


def bounds(cls) -> dict[str, int]:
    """The lower bounds ``cls.__post_init__`` hands check_fields, a dict literal."""
    call = _check_fields_call(cls)
    return ast.literal_eval(call.args[1]) if call and len(call.args) > 1 else {}


def set_fields(cls) -> list[str]:
    """The fields whose closed set ``cls.__post_init__`` hands check_fields,
    the keys of its ``one_of`` dict literal."""
    call = _check_fields_call(cls)
    sets = next((k.value for k in call.keywords if k.arg == "one_of"), None) if call else None
    return [ast.literal_eval(key) for key in sets.keys] if sets else []


def test_detector_flags_hand_written_checks():
    source = textwrap.dedent("""\
        def __post_init__(self):
            for name in ("alpha", "beta"):
                value = getattr(self, name)
                if not (np.isfinite(value) and value >= 0):
                    raise ValueError(name)
            if isinstance(self.lr, (bool, str)) or getattr(self, "n") < 1:
                raise ValueError("lr")
            if min(self.mz, self.mc) < 0 or -1 >= self.mv:
                raise ValueError("dimensions")
            if self.mz + self.mc < 1 or self.hide_count >= len(self.m_columns):
                raise ValueError("sums and lengths are rules between fields")
            if self.mode not in ("binary", "continuous") or self.role in ["z", "c"]:
                raise ValueError("a field tested against a literal set")
            if col in _RESERVED or col in self.m_columns[:j] or getattr(self.weights, "a") != 0:
                raise ValueError("so are a declared table, other fields and another object's")
        """)
    assert hand_checks(ast.parse(source).body[0]) == [
        "line 12: a field tested against a literal set",
        "line 12: a field tested against a literal set",
        "line 4: a field compared with a number", "line 4: isfinite",
        "line 6: a field compared with a number", "line 6: isinstance(.., bool)",
        "line 8: a field compared with a number", "line 8: a field compared with a number",
        "no check_fields"]


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_post_init_keeps_only_rules_between_fields(cls):
    assert hand_checks(_post_init(cls)) == []


def _rejected_values():
    """(class, field, value) for each value a field's declared type, bound or
    set rejects: a string outside the set, and a list, for a field with one."""
    for cls in CONFIG_CLASSES:
        at_least, named = bounds(cls), set_fields(cls)
        for f in dataclasses.fields(cls):
            values = {
                "int": [True, 1.5, *([at_least[f.name] - 1] if f.name in at_least else [])],
                "float": [True, "0.5", math.nan, math.inf, -1, 10 ** 400],
                "str": [0],
                "tuple[str, ...]": ["gestat", ("gestat", 0)],
            }.get(f.type, []) + (["?", ["?"]] if f.name in named else [])
            yield from (pytest.param(cls, f.name, value,
                                     id=f"{cls.__name__}.{f.name}={value!r:.12}")
                        for value in values)


VALID = {ArchConfig: lambda: ArchConfig(input_dim=1), dg.TwinsSpec: dg.fixture_spec,
         dg.DirSpec: lambda: dg.DirSpec(path="data")}


@pytest.mark.parametrize("cls, name, value", _rejected_values())
def test_field_rejects_value_its_type_does_not_allow(cls, name, value):
    valid = VALID.get(cls, cls)()
    with pytest.raises(ValueError) as raised:
        dataclasses.replace(valid, **{name: value})
    message = str(raised.value)
    assert message.startswith(f"{name} must be ") and message.endswith(f", got {value!r}")


def _record_faults():
    """(class, record, message) for each JSON record read_record rejects: one
    with an unknown key, one without each required field and one with [5] for
    each int field, all else valid."""
    for cls in CONFIG_CLASSES:
        valid = VALID.get(cls, cls)()
        required = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING
                    and f.default_factory is dataclasses.MISSING]
        base = {name: getattr(valid, name) for name in required}
        yield pytest.param(cls, {**base, "zz": 1}, "unknown field 'zz'", id=f"{cls.__name__}+zz")
        for name in required:
            yield pytest.param(cls, {k: v for k, v in base.items() if k != name},
                               f"missing field {name!r}", id=f"{cls.__name__}-{name}")
        for f in dataclasses.fields(cls):
            if f.type == "int":
                yield pytest.param(cls, {**base, f.name: [5]},
                                   f"{f.name} must be an integer, got [5]",
                                   id=f"{cls.__name__}.{f.name}=[5]")


@pytest.mark.parametrize("cls, record, message", _record_faults())
def test_read_record_names_the_field(cls, record, message):
    with pytest.raises(dg.SchemaError) as raised:
        dg.read_record(cls, record, "record")
    assert str(raised.value) == f"record: {message}"


def unpacked_calls(source: str, classes: set[str]) -> list[str]:
    """``line N: callee`` for each call in ``source`` that unpacks a mapping
    (``**``) into a class of ``classes`` or into a parameter of the function
    it is in, such as the ``cls`` a helper is handed."""
    tree = ast.parse(source)
    scopes = [(tree, set())] + [
        (fn, {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)})
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.Lambda))]
    found = set()
    for scope, params in scopes:
        for n in ast.walk(scope):
            if isinstance(n, ast.Call) and any(k.arg is None for k in n.keywords) and (
                    _called(n) in classes
                    or isinstance(n.func, ast.Name) and n.func.id in params):
                found.add((n.lineno, _called(n)))
    return [f"line {line}: {callee}" for line, callee in sorted(found)]


def test_detector_flags_unpacked_class_calls():
    source = textwrap.dedent("""\
        def build(cls, section):
            return cls(**section)
        def train(raw):
            return tr.TrainConfig(mode="binary", **raw.get("train", {}))
        def load(manifest):
            return ArchConfig(**manifest["config"])
        def other_calls(config, raw, d, f):
            ArchConfig(input_dim=1, mode="binary")
            replace(config.weights, **{"gamma": 0.0})
            parser.add_argument(*f, **d)
            return LossBreakdown(**d), read_record(ArchConfig, raw, "arch", d)
        """)
    assert unpacked_calls(source, {"ArchConfig", "TrainConfig"}) == [
        "line 2: cls", "line 4: TrainConfig", "line 6: ArchConfig"]


@pytest.mark.parametrize("module", [cli, training, model], ids=lambda m: m.__name__)
def test_no_config_class_built_from_unpacked_mapping(module):
    classes = {cls.__name__ for cls in CONFIG_CLASSES}
    assert unpacked_calls(inspect.getsource(module), classes) == []


def test_set_fields_reads_the_declared_sets():
    classes = (*CONFIG_CLASSES, dg.GeneratedDataset)
    assert {cls.__name__: set_fields(cls) for cls in classes if set_fields(cls)} == {
        "TrainConfig": ["mode", "variant"], "ArchConfig": ["mode"],
        "GeneratedDataset": ["mode", "roles"]}


def test_each_set_is_written_once():
    """No tuple, list or set literal in the package spells out the modes or
    the variants, which are dict keys (`family.FAMILIES`,
    `training._ZEROED_WEIGHTS`), and only `datagen.ROLES` spells the roles."""
    declared = [set(FAMILIES), set(training.VARIANTS), set(dg.ROLES)]
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, (ast.Tuple, ast.List, ast.Set)) and all(
                    isinstance(e, ast.Constant) for e in n.elts):
                if {e.value for e in n.elts} in declared:
                    found.append((path.name, ast.literal_eval(n)))
    assert found == [("datagen.py", dg.ROLES)]


def test_per_mode_tables_name_the_declared_modes():
    modes = set(FAMILIES)
    assert set(ev.METRICS) == set(dg.TRUTH_COLUMNS) == modes
    for table in (model.NETWORKS, losses.TERMS):
        assert all(set(entry.modes) <= modes for entry in table)
        assert set().union(*(entry.modes for entry in table)) == modes
