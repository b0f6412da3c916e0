"""`foundations.record` against its standard-library twin.

On synthetic classes with every field option `src/` uses, a `@record`
class and the same class under `@dataclass(frozen=True, slots=True)` agree
on `repr`, `==`, `hash`, `__match_args__`, `__slots__`, the
`AttributeError` an assignment or deletion raises, `NotImplemented`
against another class, and `copy` and `pickle`. Every record class of the package has a slot per
annotated field and its constructor's fields as `__match_args__`, both in
annotation order."""

from __future__ import annotations

import ast
import copy
import dataclasses
import importlib
import pickle
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, strategies as st

from ascentlab import foundations
from ascentlab.foundations import record

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ascentlab"


def kinds(decorate, field) -> dict[str, type]:
    """One class per field option `src/` uses, each made by `decorate`."""

    class Plain:                # Cell, UPSet
        a: int
        b: tuple

    class Defaults:             # MEReport, PiecewiseMap
        a: int
        b: str = ""
        c: tuple = ()

    class Evidence:             # Move.bullets, AscentLevel.grafted, ZMap._whole
        a: int
        proof: Optional[int] = field(default=None, compare=False, repr=False)
        cache: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    class Derived:              # SymNode.dom, TailRule._levels
        a: tuple
        size: int = field(init=False, compare=False, repr=False)

        def __post_init__(self) -> None:
            object.__setattr__(self, "size", len(self.a))

    class Labels:               # AppendScheme
        a: tuple
        labels: dict = field(default_factory=dict, hash=False)

    class Checked:              # AP, Ramp: a validating __post_init__, an own repr
        a: int
        b: int = 0

        def __post_init__(self) -> None:
            if self.a < 0:
                raise ValueError(f"negative {self.a}")

        def __repr__(self) -> str:
            return f"Checked<{self.a}+{self.b}>"

    return {cls.__name__: decorate(cls)
            for cls in (Plain, Defaults, Evidence, Derived, Labels, Checked)}


RECORDS = kinds(record, foundations.field)
TWINS = kinds(dataclasses.dataclass(frozen=True, slots=True), dataclasses.field)

SMALL = st.integers(-2, 2) | st.tuples(st.integers(0, 2)) | st.text("ab", max_size=2)


def arguments(name: str) -> st.SearchStrategy:
    """Positional and keyword arguments for the class named `name`."""
    nat, tup = st.integers(0, 3), st.tuples(st.integers(0, 2))
    args, keywords = {
        "Plain": (st.tuples(SMALL, tup), {}),
        "Defaults": (st.tuples(nat), {"b": st.text("ab", max_size=2), "c": tup}),
        "Evidence": (st.tuples(nat), {"proof": nat}),
        "Derived": (st.tuples(tup), {}),
        "Labels": (st.tuples(tup), {"labels": st.dictionaries(nat, nat, max_size=2)}),
        "Checked": (st.tuples(st.integers(-1, 3)), {"b": nat}),
    }[name]
    return st.tuples(args, st.fixed_dictionaries({}, optional=keywords))


def all_slots(obj) -> list:
    return [getattr(obj, name) for name in type(obj).__slots__]


def built(cls: type, args: tuple, kwargs: dict):
    """The instance, or the text of the ValueError its constructor raises."""
    try:
        return cls(*args, **kwargs)
    except ValueError as e:
        return str(e)


@given(st.sampled_from(sorted(RECORDS)).flatmap(
    lambda name: st.tuples(st.just(name), arguments(name), arguments(name))))
def test_a_record_behaves_as_its_dataclass_twin(case):
    name, first, second = case
    rec, twin = RECORDS[name], TWINS[name]
    assert rec.__match_args__ == twin.__match_args__ and rec.__slots__ == twin.__slots__
    r1, r2, t1, t2 = (built(cls, *given) for cls in (rec, twin) for given in (first, second))
    refused = [x if isinstance(x, str) else None for x in (r1, r2, t1, t2)]
    assert refused[:2] == refused[2:]       # the same ValueError from __post_init__
    if any(refused):
        return
    assert repr(r1) == repr(t1) and repr(r2) == repr(t2)
    assert (r1 == r2) == (t1 == t2) and (r1 != r2) == (t1 != t2)
    assert all_slots(r1) == all_slots(t1)
    assert hash(r1) == hash(t1) and (r1 != r2 or hash(r1) == hash(r2))
    assert r1.__eq__(t1) is NotImplemented and t1.__eq__(r1) is NotImplemented
    assert r1 != t1
    for obj in (r1, t1):
        for c in (copy.copy(obj), copy.deepcopy(obj)):
            assert c is not obj and all_slots(c) == all_slots(obj)
        field_name = type(obj).__slots__[-1]
        with pytest.raises(AttributeError) as assigned:
            setattr(obj, field_name, 1)
        with pytest.raises(AttributeError) as deleted:
            delattr(obj, field_name)
        assert str(assigned.value) == f"cannot assign to field {field_name!r}"
        assert str(deleted.value) == f"cannot delete field {field_name!r}"
        assert not hasattr(obj, "__dict__")
    # a name that is no field: the twin's 3.11 __setattr__ raises TypeError there
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        r1.other = 1


def test_a_default_factory_makes_one_value_per_instance():
    a, b = RECORDS["Labels"](()), RECORDS["Labels"](())
    assert a.labels == {} and a.labels is not b.labels
    assert RECORDS["Labels"]((), labels=None).labels is None


def test_package_records_copy_and_pickle():
    """Every slot survives, the derived ones (`SymNode.dom`) included."""
    from ascentlab.fixtures import tower
    from ascentlab.foundations import AP, DEFAULT_X
    for rec in (AP(1, 2), DEFAULT_X, tower(2).top.cells[0], tower(2).top.cells[0].template):
        copies = [copy.copy(rec), copy.deepcopy(rec)] + [
            pickle.loads(pickle.dumps(rec, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for c in copies:
            assert type(c) is type(rec) and all_slots(c) == all_slots(rec)


def record_classes() -> list[tuple[str, ast.ClassDef]]:
    """(module, class) for each class decorated `record` in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d, ast.Name) and d.id == "record" for d in node.decorator_list):
                out.append((path.stem, node))
    return out


def test_every_record_class_has_its_fields_as_slots_and_match_args():
    """Slots are the annotated fields, `__match_args__` the constructor's
    parameters, both in annotation order; no instance has a `__dict__`."""
    classes = record_classes()
    assert len(classes) == 38
    for module, node in classes:
        cls = getattr(importlib.import_module(f"ascentlab.{module}"), node.name)
        names = [st.target.id for st in node.body if isinstance(st, ast.AnnAssign)]
        code = cls.__init__.__code__
        assert cls.__slots__ == tuple(names) == tuple(cls.__annotations__), node.name
        assert cls.__match_args__ == code.co_varnames[1:code.co_argcount], node.name
        assert [n for n in names if n in cls.__match_args__] == list(cls.__match_args__), node.name
        assert "__dict__" not in dir(cls), node.name
