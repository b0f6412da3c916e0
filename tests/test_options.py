"""No dead options: every defaulted parameter of a function in
`src/ascentlab`, and every defaulted field of a dataclass there, is set by
some call in `src/` or `perfbench/`, by keyword or by position, or is listed
in ALLOWED with the reason it stays. A default that no caller overrides is a
mode that only tests reach, and each such mode doubles what the tests must
cover.

Calls are matched by the called name alone (`f(...)`, `obj.f(...)`); an
`__init__` or `__new__` is called by its class's name, and a dataclass's
fields are its constructor's parameters. A call with `*args` or `**kwargs`
sets every parameter of the name it calls."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ascentlab"
CALLERS = (ROOT / "src", ROOT / "perfbench")

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


class Param(NamedTuple):
    name: str           # the name a call uses
    param: str
    index: int | None   # the position a call fills, None for keyword-only
    where: str


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def _has_init_default(value: ast.expr | None) -> bool | None:
    """Whether a dataclass field's value gives a default: None for a field
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


def defaulted() -> list[Param]:
    """Every defaulted parameter and dataclass field in the package."""
    out: list[Param] = []

    def visit(node: ast.AST, cls: str | None, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    out.extend(_fields(child, where))
                visit(child, child.name, where)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(_params(child, cls, where))
                visit(child, None, where)
            else:
                visit(child, cls, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), None, str(path.relative_to(ROOT)))
    return out


def calls() -> dict[str, list[tuple[int, set, bool]]]:
    """Called name -> (positional count, keywords, has a star) per call."""
    out: dict[str, list[tuple[int, set, bool]]] = {}
    for top in CALLERS:
        for path in sorted(top.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                star = any(isinstance(a, ast.Starred) for a in node.args) \
                    or any(k.arg is None for k in node.keywords)
                out.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}, star))
    return out


def unset() -> list[Param]:
    """The defaulted parameters that no call in the callers sets."""
    seen = calls()

    def is_set(p: Param) -> bool:
        return any(star or p.param in kws or (p.index is not None and npos > p.index)
                   for npos, kws, star in seen.get(p.name, ()))
    return [p for p in defaulted() if not is_set(p)]


def test_every_option_is_set_by_a_caller():
    dead = [f"{p.where} {p.name}({p.param}=...)" for p in unset()
            if (p.name, p.param) not in ALLOWED]
    assert not dead, "defaults that no caller in src/ or perfbench/ overrides:\n" + "\n".join(dead)


def test_the_allow_list_names_only_unset_options():
    """An entry whose parameter is gone, or now set by a caller, is stale."""
    stale = set(ALLOWED) - {(p.name, p.param) for p in unset()}
    assert not stale, f"stale ALLOWED entries: {sorted(stale)}"


def test_the_scan_reads_positions_keywords_and_fields():
    """The scan itself, on names whose calls are known: `tower`'s `variant`
    is set by position (`tower(1, S_THETA)`), `check_z_bullets`' `after` by
    position, a dataclass field by keyword (`CatalogFamily(..., admitted=True)`),
    and the record field `AscentLevel.grafted` (init=False, with a default)
    is no parameter."""
    found = {(p.name, p.param): p for p in defaulted()}
    assert found[("tower", "variant")].index == 1
    assert ("AscentLevel", "grafted") not in found
    dead = {(p.name, p.param) for p in unset()}
    assert ("tower", "variant") not in dead and ("check_z_bullets", "after") not in dead
    assert ("CatalogFamily", "admitted") in found and ("CatalogFamily", "admitted") not in dead
