"""Evidence records (`foundations.Proof`): a passed check's record is read
only for the very objects it names, and a refused record gets the full
check. Three kinds are carried:
- "me_family": a level's exclusivity (`AscentLevel.exclusive`), read by the
  one-step over that level, which then walks only the new coordinate;
- "graft": a level's graft link (`AscentLevel.grafted`), read by `supp`,
  which then answers everything at once;
- "z-bullets": a stage's z-bullets (`Move.bullets`), read by II's move two
  stages later, which then checks its z-map by the stage lemma."""

from __future__ import annotations

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ascentlab import ascent
from ascentlab import serialize as sz
from ascentlab.ascent import supp
from ascentlab.conditions import Condition, one_step_extension
from ascentlab.fixtures import tower
from ascentlab.foundations import EMPTY_SET, FULL_SET, Ordinal
from ascentlab.game import GameState, Move, play_game, random_opponent, strategy_ii_move
from builders import random_tower
from oracles import copy_record
from scaling import z_walks

ROOT = Path(__file__).resolve().parents[1]

# (file, function, check) of every call of `prove`
MINTS = {
    ("src/ascentlab/ascent.py", "graft_levels", "graft"),
    ("src/ascentlab/conditions.py", "_one_step", "me_family"),
    ("src/ascentlab/amalgam.py", "amalgamate", "me_family"),
    ("src/ascentlab/amalgam.py", "check_z_bullets", "z-bullets"),
}


def walked_coordinates(mp) -> list:
    """The coordinates of each value piece list built from now on."""
    calls = []
    real = ascent._value_pieces

    def counting(level, w, j):
        calls.append((w, j))
        return real(level, w, j)
    mp.setattr(ascent, "_value_pieces", counting)
    return calls


def agree_walks(mp) -> list:
    """One entry per exact support walk (`ascent._agree_set`) from now on."""
    calls = []
    real = ascent._agree_set

    def counting(*args):
        calls.append(args[:2])
        return real(*args)
    mp.setattr(ascent, "_agree_set", counting)
    return calls


def test_a_moved_record_is_refused_and_the_check_runs():
    """A record moved to another carrier names other objects: a graft link
    moved to a level that is no graft of its low level, an exclusivity
    record moved to another level, and a z-bullets record moved to a move
    with another z-map or condition. Each is refused, and the check runs."""
    c = tower(4)
    low = c.level(Ordinal(0, 3))
    top = random_tower(random.Random(0), 5).top
    assert supp(low, top) == EMPTY_SET
    object.__setattr__(top, "grafted", c.top.grafted)
    with pytest.MonkeyPatch.context() as mp:
        walks = agree_walks(mp)
        assert supp(low, top) == EMPTY_SET
    assert len(walks) == 1

    other = tower(4)
    object.__setattr__(other.top, "exclusive", c.top.exclusive)
    with pytest.MonkeyPatch.context() as mp:
        walked = walked_coordinates(mp)
        assert one_step_extension(other, other.eta) == one_step_extension(c, c.eta)
    assert walked == [(0, j) for j in range(5)] + [(0, 4)]

    t = play_game(Ordinal(0, 8), random_opponent(1), 1)
    mv2, mv4 = t.moves[2], t.moves[4]
    copies = {"z": copy_record(mv2.z),
              "cond": Condition(mv2.cond.tree, mv2.cond.path, mv2.cond.variant, mv2.cond.x)}
    for field, copy in copies.items():
        assert copy == getattr(mv2, field) and copy is not getattr(mv2, field)
        moves = list(t.moves[:4])
        moves[2] = copy_record(mv2, **{field: copy})
        assert moves[2].bullets is mv2.bullets
        state = GameState(t.mu, t.xi, moves=moves)
        with z_walks() as walks:
            mv = strategy_ii_move(state, mv4.stage)
        assert (mv.cond, mv.z) == (mv4.cond, mv4.z)
        assert walks == {"full": [mv4.stage], "lemma": []}


KINDS = ("me_family", "graft", "z-bullets")
HOWS = ("kept", "forged", "stale", "replaced", "decoded")
RUNS = st.tuples(st.sampled_from([Ordinal(0, 8), Ordinal(0, 14), Ordinal(1, 4)]),
                 st.integers(0, 10**6))


def carriers(t, kind: str) -> list[int]:
    """The indices of the moves that carry a record of the kind, where its
    reader is tried: a top of height 2 or more (so the full walk reads more
    than the new coordinate), a grafted top, or an II move whose next II
    move lies two stages on."""
    moves = t.moves
    if kind == "me_family":
        return [i for i, mv in enumerate(moves)
                if mv.cond.top.exclusive is not None and mv.cond.eta >= Ordinal(0, 2)]
    if kind == "graft":
        return [i for i, mv in enumerate(moves) if mv.cond.top.grafted is not None]
    return [i for i, mv in enumerate(moves[:-2]) if mv.bullets is not None
            and moves[i + 2].stage == Ordinal(mv.stage.w, mv.stage.n + 2)]


def record_of(mv: Move, kind: str):
    return {"me_family": mv.cond.top.exclusive, "graft": mv.cond.top.grafted,
            "z-bullets": mv.bullets}[kind]


def decoded(c: Condition) -> Condition:
    return sz.dec_condition(sz.enc_condition(c))


@settings(max_examples=60, deadline=None)
@given(RUNS, st.sampled_from(KINDS), st.sampled_from(HOWS), st.data())
def test_a_record_is_read_only_for_the_objects_it_names(run, kind, how, data):
    """On a played run, a kept record is read. A genuine record of an equal
    twin built apart (forged), another carrier's record (stale), a
    `copy_record` copy of the carrier and a decoded carrier are
    refused, and each gets the full check, with the kept reading's result.
    No record can be made by `Proof(...)` or `copy_record`."""
    from ascentlab.foundations import Proof
    mu, seed = run
    t, twin = (play_game(mu, random_opponent(seed), seed % 3) for _ in range(2))
    found = carriers(t, kind)
    i = data.draw(st.sampled_from(found))
    mv, rec = t.moves[i], record_of(t.moves[i], kind)
    with pytest.raises(TypeError):
        Proof(rec.check, rec.objects, rec.values)
    with pytest.raises(TypeError):
        copy_record(rec)
    forged = record_of(twin.moves[i], kind)
    assert twin.moves[i] == mv and forged is not rec
    stale = record_of(t.moves[next(j for j in found if j != i)], kind)
    kept = how == "kept"

    if kind == "me_family":
        want, c = one_step_extension(mv.cond, mv.cond.eta), mv.cond
        if how in ("forged", "stale"):
            object.__setattr__(c.top, "exclusive", forged if how == "forged" else stale)
        elif how == "replaced":
            c = Condition(c.tree, c.path.with_level(c.eta, copy_record(c.top)),
                          c.variant, c.x)
        elif how == "decoded":
            c = decoded(c)
        with pytest.MonkeyPatch.context() as mp:
            walked = walked_coordinates(mp)
            assert one_step_extension(c, c.eta) == want
        assert walked[-1] == (c.eta.w, c.eta.n) and (len(walked) == 1) == kept

    elif kind == "graft":
        top, low = mv.cond.top, rec.objects[0]
        if how in ("forged", "stale"):
            object.__setattr__(top, "grafted", forged if how == "forged" else stale)
        elif how == "replaced":
            top = copy_record(top)
        elif how == "decoded":
            c = decoded(mv.cond)
            top, low = c.top, c.level(low.height)
        with pytest.MonkeyPatch.context() as mp:
            walks = agree_walks(mp)
            assert supp(low, top) == FULL_SET
        assert len(walks) == (0 if kept else 1)

    else:
        moves = list(t.moves[:i + 2])
        if how in ("forged", "stale"):
            moves[i] = copy_record(mv, bullets=forged if how == "forged" else stale)
        elif how == "replaced":
            moves[i] = copy_record(mv, z=copy_record(mv.z))
        elif how == "decoded":
            moves[i] = Move(mv.stage, mv.mover, decoded(mv.cond),
                            sz.ZMAP.dec(sz.enc_zmap(mv.z)))
        nxt = t.moves[i + 2]
        with z_walks() as walks:
            got = strategy_ii_move(GameState(t.mu, t.xi, moves[0].cond.x, moves), nxt.stage)
        assert (got.cond, got.z) == (nxt.cond, nxt.z)
        assert walks == ({"full": [], "lemma": [nxt.stage]} if kept
                         else {"full": [nxt.stage], "lemma": []})


def prove_sites(source: str, rel: str) -> list[tuple[str, str, object]]:
    """(file, enclosing function, check) for each reading of the name
    `prove` in a file's source, a call or any other use; the check is the
    first argument of a call when it is a constant."""
    out = []

    def visit(node: ast.AST, fn: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and _is_prove(child.func):
                arg = child.args[0] if child.args else None
                out.append((rel, fn, arg.value if isinstance(arg, ast.Constant) else None))
                for sub in child.args + [k.value for k in child.keywords]:
                    visit(sub, fn)
                continue
            if _is_prove(child):
                out.append((rel, fn, None))
            visit(child, fn)

    visit(ast.parse(source), "<module>")
    return out


def _is_prove(node: ast.AST) -> bool:
    return (isinstance(node, ast.Name) and node.id == "prove"
            or isinstance(node, ast.Attribute) and node.attr == "prove")


def test_prove_is_called_only_by_the_checks():
    """Every reading of `prove` in src/, tests/ and perfbench/ is a call in
    one of the four minting sites, with that site's check name; and each
    site still mints."""
    sites = [s for top in ("src", "tests", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))
             for s in prove_sites(path.read_text(), str(path.relative_to(ROOT)))]
    stray = [s for s in sites if s not in MINTS]
    assert not stray, f"prove read outside the checks: {stray}"
    assert set(sites) == MINTS


def test_the_scan_finds_a_stray_prove():
    """The scan itself: a call in a test function and a bare alias are
    both found."""
    source = "def f():\n    prove('me_family', (), ())\n\ng = prove\n"
    assert prove_sites(source, "t.py") == [("t.py", "f", "me_family"),
                                           ("t.py", "<module>", None)]
