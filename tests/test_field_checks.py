"""Each config and spec field's type and lower bound is decided in one place,
`datagen.check_fields`, from the field's declared annotation and the bounds
its class's ``__post_init__`` hands it.  A ``__post_init__`` keeps only rules
between fields, so the decision cannot fork again: it calls check_fields and
holds no isfinite call, no isinstance(..., bool) and no comparison of a single
field with a number.  Every field of every class a config or spec sets is
given the values its type rejects, so a field added later is covered."""

import ast
import dataclasses
import inspect
import math
import textwrap

import pytest

from sd2 import datagen as dg
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
    return sorted(found)


def _post_init(cls) -> ast.FunctionDef:
    return ast.parse(textwrap.dedent(inspect.getsource(cls.__post_init__))).body[0]


def bounds(cls) -> dict[str, int]:
    """The lower bounds ``cls.__post_init__`` hands check_fields, a dict literal."""
    call = next((n for n in ast.walk(_post_init(cls)) if _called(n) == "check_fields"), None)
    return ast.literal_eval(call.args[1]) if call and len(call.args) > 1 else {}


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
            if self.mode not in ("binary", "continuous") or getattr(self.weights, "a") != 0:
                raise ValueError("so are memberships and another object's fields")
        """)
    assert hand_checks(ast.parse(source).body[0]) == [
        "line 4: a field compared with a number", "line 4: isfinite",
        "line 6: a field compared with a number", "line 6: isinstance(.., bool)",
        "line 8: a field compared with a number", "line 8: a field compared with a number",
        "no check_fields"]


@pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_post_init_keeps_only_rules_between_fields(cls):
    assert hand_checks(_post_init(cls)) == []


def _rejected_values():
    """(class, field, value) for each value a field's declared type or bound
    rejects."""
    for cls in CONFIG_CLASSES:
        at_least = bounds(cls)
        for f in dataclasses.fields(cls):
            values = {
                "int": [True, 1.5, *([at_least[f.name] - 1] if f.name in at_least else [])],
                "float": [True, "0.5", math.nan, math.inf, -1, 10 ** 400],
                "str": [0],
                "tuple[str, ...]": ["gestat", ("gestat", 0)],
            }.get(f.type, [])
            yield from (pytest.param(cls, f.name, value,
                                     id=f"{cls.__name__}.{f.name}={value!r:.12}")
                        for value in values)


VALID = {ArchConfig: lambda: ArchConfig(input_dim=1), dg.TwinsSpec: dg.fixture_spec}


@pytest.mark.parametrize("cls, name, value", _rejected_values())
def test_field_rejects_value_its_type_does_not_allow(cls, name, value):
    valid = VALID.get(cls, cls)()
    with pytest.raises(ValueError) as raised:
        dataclasses.replace(valid, **{name: value})
    message = str(raised.value)
    assert message.startswith(f"{name} must be ") and message.endswith(f", got {value!r}")
