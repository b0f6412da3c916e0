"""Code only where callers need it: three scans of `src/ascentlab`, each
with an allow-list whose entries give the reason they stay (a stale entry
fails).

- No dead options: every defaulted parameter of a function, and every
  defaulted field of a record (`foundations.record`, or a dataclass), is
  set by some call in `src/` or `perfbench/` (ALLOWED). A default no caller overrides is a mode only
  tests reach, and each such mode doubles what the tests must cover.
- No always-set defaults: none is set by every call in `src/`, `perfbench/`
  and `tests/` alike (ALWAYS_SET). Such a default is dead code that a
  reader must still check.
- No test-only code: every function and method is named in `src/` or
  `perfbench/` besides its definition, or is a package-root export
  (`ascentlab._EXPORTS`) (TEST_ONLY). Code only tests name never runs. A
  `perfbench/` module that defines a function of the same name does not
  name it.

All three match by name only: a call by the called name (`f(...)`,
`obj.f(...)`), whatever it is bound to; an `__init__` or `__new__` is called
by its class's name, and a record's fields are its constructor's
parameters. A call with `*args` or `**kwargs` sets every parameter of the
name it calls. A function is named by any `f` or `obj.f` read. Each file is
parsed once for the three."""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Iterator, NamedTuple

import ascentlab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ascentlab"
PRODUCTION = (ROOT / "src", ROOT / "perfbench")
EVERYWHERE = PRODUCTION + (ROOT / "tests",)

Modules = tuple[tuple[str, ast.Module], ...]   # (where, tree) per file

# (called name, parameter) -> why it stays although no caller above sets it
ALLOWED = {
    ("order_iso", "skip"): "tests build shifted maps of one set onto itself with it",
    ("tower", "betas"): "tests build towers grafted below the top with it",
    ("tower", "label_bases"): "tests build towers with other one-step labels with it",
    ("tower", "x"): "the X-sequence is the mathematics' input; tests build towers over others",
    ("play_game", "x"): "the X-sequence is the mathematics' input; tests play over others",
    ("upset_algebra", "b"): "the complement is unary; only the binary operations take b",
    ("GameState", "moves"): "a run starts empty; tests resume a run from a prefix of moves",
}

# (called name, parameter) -> why its default stays although every call sets it
ALWAYS_SET: dict[tuple[str, str], str] = {}

# function name -> why it stays in src/ascentlab although only tests name it
TEST_ONLY: dict[str, str] = {}


class Param(NamedTuple):
    name: str           # the name a call uses
    param: str
    index: int | None   # the position a call fills, None for keyword-only
    where: str


class Call(NamedTuple):
    npos: int           # positional arguments
    keywords: frozenset
    star: bool          # has *args or **kwargs

    def sets(self, p: Param) -> bool:
        return self.star or p.param in self.keywords \
            or (p.index is not None and self.npos > p.index)


@functools.cache
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


@functools.cache
def _modules(tops: tuple[Path, ...]) -> Modules:
    """(where, tree) of each Python file under the given directories."""
    return tuple((str(path.relative_to(ROOT)), _parse(path))
                 for top in tops for path in sorted(top.rglob("*.py")))


def _is_record(cls: ast.ClassDef) -> bool:
    """Whether the class is decorated `record` or `dataclass`, whose
    annotated fields are its constructor's parameters."""
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name in ("record", "dataclass"):
            return True
    return False


def _has_init_default(value: ast.expr | None) -> bool | None:
    """Whether a record field's value gives a default: None for a field
    with init=False, which is no parameter at all."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        kws = {k.arg: k.value for k in value.keywords}
        init = kws.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return "default" in kws or "default_factory" in kws
    return value is not None


def _fields(cls: ast.ClassDef, where: str) -> Iterator[Param]:
    index = 0
    for st in cls.body:
        if not (isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)) \
                or ast.unparse(st.annotation).startswith("ClassVar"):
            continue
        default = _has_init_default(st.value)
        if default is None:
            continue
        if default:
            yield Param(cls.name, st.target.id, index, f"{where}:{st.lineno}")
        index += 1


def _params(fn: ast.FunctionDef, cls: str | None, where: str) -> Iterator[Param]:
    args = fn.args
    pos = args.posonlyargs + args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    bound = 1 if cls and not static and pos and pos[0].arg in ("self", "cls") else 0
    name = cls if cls and fn.name in ("__init__", "__new__") else fn.name
    first = len(pos) - len(args.defaults)
    for i, arg in enumerate(pos[first:], first):
        yield Param(name, arg.arg, i - bound, f"{where}:{fn.lineno}")
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield Param(name, arg.arg, None, f"{where}:{fn.lineno}")


def defaulted(modules: Modules) -> list[Param]:
    """Every defaulted parameter and record field in the modules."""
    out: list[Param] = []

    def visit(node: ast.AST, cls: str | None, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_record(child):
                    out.extend(_fields(child, where))
                visit(child, child.name, where)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(_params(child, cls, where))
                visit(child, None, where)
            else:
                visit(child, cls, where)

    for where, tree in modules:
        visit(tree, None, where)
    return out


@functools.cache
def _uses(tree: ast.Module) -> tuple[dict[str, list[Call]], frozenset[str]]:
    """The calls in a module by called name, and every name it reads, bare
    (`f`) or as an attribute (`obj.f`)."""
    calls: dict[str, list[Call]] = {}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            star = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                Call(len(node.args), frozenset(k.arg for k in node.keywords), star))
    return calls, frozenset(names)


def calls(modules: Modules) -> dict[str, list[Call]]:
    """Called name -> each call of that name in the modules."""
    out: dict[str, list[Call]] = {}
    for _, tree in modules:
        for name, found in _uses(tree)[0].items():
            out.setdefault(name, []).extend(found)
    return out


def functions(modules: Modules) -> list[tuple[str, str]]:
    """(name, where) of each module-level function and method in the modules;
    a function nested in a function is named by its enclosing one."""
    out = []

    def visit(body: list[ast.stmt], where: str) -> None:
        for st in body:
            if isinstance(st, ast.ClassDef):
                visit(st.body, where)
            elif isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((st.name, f"{where}:{st.lineno}"))

    for where, tree in modules:
        visit(tree.body, where)
    return out


def names(modules: Modules) -> set[str]:
    """Every name the modules read, but a `perfbench/` module's read of a
    name it defines itself, which names its own function."""
    out: set[str] = set()
    for where, tree in modules:
        read = _uses(tree)[1]
        if where.startswith("perfbench/"):
            read = read - {name for name, _ in functions(((where, tree),))}
        out |= read
    return out


def unset(package, callers) -> list[Param]:
    """The defaulted parameters that no call in the callers sets."""
    seen = calls(callers)
    return [p for p in defaulted(package)
            if not any(c.sets(p) for c in seen.get(p.name, ()))]


def always_set(package, callers) -> list[Param]:
    """The defaulted parameters that some call sets and every call sets."""
    seen = calls(callers)
    return [p for p in defaulted(package)
            if seen.get(p.name) and all(c.sets(p) for c in seen[p.name])]


def named_only_by_tests(package, callers, exempt=frozenset()) -> list[tuple[str, str]]:
    """The functions that no caller names, dunders and exempt names aside."""
    named = names(callers) | exempt
    return [(name, where) for name, where in functions(package)
            if name not in named and not (name.startswith("__") and name.endswith("__"))]


def _package():
    return _modules((PACKAGE,))


def test_every_option_is_set_by_a_caller():
    dead = [f"{p.where} {p.name}({p.param}=...)" for p in unset(_package(), _modules(PRODUCTION))
            if (p.name, p.param) not in ALLOWED]
    assert not dead, "defaults that no caller in src/ or perfbench/ overrides:\n" + "\n".join(dead)


def test_the_allow_list_names_only_unset_options():
    """An entry whose parameter is gone, or now set by a caller, is stale."""
    stale = set(ALLOWED) - {(p.name, p.param) for p in unset(_package(), _modules(PRODUCTION))}
    assert not stale, f"stale ALLOWED entries: {sorted(stale)}"


def test_no_default_is_set_by_every_call():
    """Nor is an ALWAYS_SET entry gone, required, or left to its default by
    some call (stale)."""
    found = {(p.name, p.param): p.where for p in always_set(_package(), _modules(EVERYWHERE))}
    new = [f"{w} {n}({a}=...)" for (n, a), w in found.items() if (n, a) not in ALWAYS_SET]
    assert not new, "defaults that every call in src/, perfbench/ and tests/ sets:\n" \
        + "\n".join(new)
    stale = set(ALWAYS_SET) - set(found)
    assert not stale, f"stale ALWAYS_SET entries: {sorted(stale)}"


def test_no_function_is_named_only_by_tests():
    """Nor is a TEST_ONLY entry gone or named in src/ or perfbench/ (stale)."""
    found = dict(named_only_by_tests(_package(), _modules(PRODUCTION),
                                     frozenset(ascentlab._EXPORTS)))
    new = [f"{w} {n}" for n, w in found.items() if n not in TEST_ONLY]
    assert not new, "functions that no code in src/ or perfbench/ names:\n" + "\n".join(new)
    stale = set(TEST_ONLY) - set(found)
    assert not stale, f"stale TEST_ONLY entries: {sorted(stale)}"


def test_the_scan_reads_positions_keywords_and_fields():
    """The scan itself, on names whose calls are known: `tower`'s `variant`
    is set by position (`tower(1, S_THETA)`), `check_z_bullets`' `after` by
    position, a record field by keyword (`CatalogFamily(..., admitted=True)`),
    and the record field `AscentLevel.grafted` (init=False, with a default)
    is no parameter."""
    found = {(p.name, p.param): p for p in defaulted(_package())}
    assert found[("tower", "variant")].index == 1
    assert ("AscentLevel", "grafted") not in found
    dead = {(p.name, p.param) for p in unset(_package(), _modules(PRODUCTION))}
    assert ("tower", "variant") not in dead and ("check_z_bullets", "after") not in dead
    assert ("CatalogFamily", "admitted") in found and ("CatalogFamily", "admitted") not in dead


SAMPLE = (("sample.py", ast.parse('''
@dataclass
class Rec:
    a: int
    b: int = 0
@record
class Pair:
    x: int
    y: int = field(default=0, compare=False)
    z: int = field(default=0, init=False)
class Box:
    def __init__(self, size=1): pass
    def used(self, k=2): return helper(k, scale=k) + self.used(k)
    def spare(self): pass
def helper(k, *, scale=1): pass
Rec(1, 2), Rec(1, b=3), Box(4).used(5), helper(6, scale=7), helper(*[8]), Pair(1, y=2)
''')),)
# a benchmark module with its own `spare`, and a call of `used`
BENCH = (("perfbench/sample.py", ast.parse("def spare(): pass\nspare()\nused()\n")),)


def test_the_scans_on_a_sample():
    """The converse scan finds a default that every call sets, by position
    or keyword (`Rec.b`, `Pair.y`, `Box(size)`, `used(k)`, `helper(scale)`:
    the starred call sets it too), and reads a `@record` class's fields as
    a `@dataclass`'s (`Pair.z`, init=False, is no parameter); the test-only
    scan finds a method no code names (`spare`), and counts a method that
    names itself (`used`) as named; an exempt name is never found. A
    `perfbench/` module's read of a name it defines itself (`spare`) does
    not name the package's function, and its other reads (`used`) do."""
    assert {(p.name, p.param) for p in always_set(SAMPLE, SAMPLE)} \
        == {("Rec", "b"), ("Pair", "y"), ("Box", "size"), ("used", "k"), ("helper", "scale")}
    assert unset(SAMPLE, SAMPLE) == []
    assert [name for name, _ in named_only_by_tests(SAMPLE, SAMPLE)] == ["spare"]
    assert named_only_by_tests(SAMPLE, SAMPLE, frozenset({"spare"})) == []
    assert [name for name, _ in named_only_by_tests(SAMPLE, SAMPLE + BENCH)] == ["spare"]
    assert [name for name, _ in named_only_by_tests(SAMPLE, BENCH)] == ["spare", "helper"]
