import dataclasses
import functools
import re
from collections import Counter
from typing import Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from ascentlab import amalgam, game
from ascentlab.foundations import AP, FULL_SET, OMEGA, Ordinal, proves, singleton
from ascentlab.amalgam import (
    ChainDescriptor, HypothesisViolated, NotUniformTail, ZMap, amalgamate, check_z_bullets,
)
from ascentlab.ascent import AscentLevel, Cell, me_set_concrete, supp
from ascentlab.conditions import S_X, Condition, check_condition, leq_s
from ascentlab.fixtures import uniform_chain
from ascentlab.game import check_run_invariants, onestep_opponent, play_game, random_opponent
from ascentlab.nodes import BlockWord, Ramp, SymNode, const_node, node_patch
from ascentlab.trees import BranchCatalog, SymTree, tree_contains, vanishing_levels
from oracles import (
    Z_BULLETS, probe_key_z_bullets, probe_keys, window_incoherent_key, window_z_bullets,
    zmap_value, zmap_window,
)
from test_chain_lemma import ENTRIES, nodes_of


def test_uniform_fixture_amalgam():
    ch = uniform_chain(3, Ordinal(1, 2))
    out, z = amalgamate(ch)
    assert out.eta == OMEGA
    assert out.tree.height == Ordinal(1, 1)
    # the union family is tau -> constant-2tau of domain omega
    for tau in (0, 1, 3):
        assert out.top.at(tau) == const_node(2 * tau, OMEGA)
    # z union on (omega, omega+2) = {omega+1}
    key = Ordinal(1, 1)
    assert z.in_domain(key)
    v = z.at(key)
    assert v.dom == OMEGA
    rep = check_condition(out, S_X)
    assert rep.ok, rep.violations
    assert vanishing_levels(out.tree).levels == frozenset({OMEGA})


def test_amalgam_extends_members_with_full_support():
    ch = uniform_chain(4, Ordinal(1, 2))
    out, _ = amalgamate(ch)
    for m in ch.members:
        assert leq_s(out, m.cond)
        assert supp(m.cond.top, out.top) == FULL_SET


def test_amalgam_delta_gamma_plus_one_has_empty_zmap():
    ch = uniform_chain(3, Ordinal(1, 1))
    out, z = amalgamate(ch)
    assert not z.entries
    # the vanishing branch is still recorded
    cat = out.tree.catalog_at(OMEGA)
    assert [s.tag for s in cat.singles if not s.admitted] == ["y"]
    assert vanishing_levels(out.tree).levels == frozenset({OMEGA})


def test_membership_characterization():
    ch = uniform_chain(3, Ordinal(1, 2))
    out, z = amalgamate(ch)
    # grafts of lower nodes onto admitted branches are members
    x = SymNode((), (9, 9))
    b = out.top.at(2)
    from ascentlab.nodes import graft
    assert tree_contains(out.tree, graft(x, b))
    assert tree_contains(out.tree, graft(x, z.at(Ordinal(1, 1))))
    # the skipped z-union is outside, even grafted
    cat = out.tree.catalog_at(OMEGA)
    y = next(s.node for s in cat.singles if not s.admitted)
    assert not tree_contains(out.tree, y)
    assert not tree_contains(out.tree, graft(x, y))


def test_conclusions_checked_against_the_last_member(monkeypatch):
    """The amalgam's leq_s and full support are checked against the last
    member only; the chain lemma carries them to the others, which
    test_amalgam_extends_members_with_full_support checks directly. A
    failure there is reported at the last member's stage."""
    from ascentlab.foundations import PostconditionFailed
    ch = uniform_chain(4, Ordinal(1, 2))
    seen = []
    leq, sup = amalgam.leq_s, amalgam.supp
    monkeypatch.setattr(amalgam, "leq_s", lambda a, b: seen.append(("leq", a, b)) or leq(a, b))
    monkeypatch.setattr(amalgam, "supp", lambda f, g: seen.append(("supp", f, g)) or sup(f, g))
    out, _ = amalgamate(ch)
    last = ch.members[-1].cond
    assert [(k, b) for k, a, b in seen if a is out] == [("leq", last)]
    assert [(k, f) for k, f, g in seen if g is out.top] == [("supp", last.top)]
    monkeypatch.setattr(amalgam, "leq_s", lambda a, b: not a.eta.is_limit and leq(a, b))
    with pytest.raises(PostconditionFailed, match=f"does not extend stage {ch.members[-1].beta}"):
        amalgamate(ch)


def test_chain_without_tail_rejected():
    ch = uniform_chain(3, Ordinal(1, 2))
    with pytest.raises(NotUniformTail):
        amalgamate(ChainDescriptor(ch.members, None, ch.gamma, ch.delta))


def test_bad_z_bullet_rejected():
    ch = uniform_chain(2, Ordinal(1, 2))
    # corrupt a z value: make it eventually equal to the top family at 0
    m = ch.members[1]
    zero_node = m.cond.top.at(0)
    entries = dict(m.z.entries)
    entries[Ordinal(1, 1)] = zero_node
    from ascentlab.amalgam import ChainMember, ZMap
    corrupted = ChainMember(m.beta, m.cond,
                            ZMap.make(m.z.lo, m.z.hi, m.z.closed_hi, m.z.cells, entries))
    members = (ch.members[0], corrupted)
    with pytest.raises(HypothesisViolated) as e:
        amalgamate(ChainDescriptor(members, ch.tail, ch.gamma, ch.delta))
    assert "z" in e.value.bullet


def test_incoherent_z_rejected():
    """A member's z-value that does not end-extend the previous member's at
    a shared key: `incoherent_key` names the key, validate_chain raises."""
    import dataclasses
    ch = uniform_chain(3, Ordinal(1, 2))
    m0, m1, m2 = ch.members
    k = Ordinal(1, 0)
    z = ZMap.make(m1.z.lo, m1.z.hi, m1.z.closed_hi, m1.z.cells,
                  dict(m1.z.entries) | {k: const_node(1001, m1.cond.eta)})
    assert m0.z.incoherent_key(m1.z) is None
    assert m0.z.incoherent_key(z) == k
    # read backwards, every shared key holds a shorter later value, and the
    # least of them is named
    assert m1.z.incoherent_key(m0.z) == min(key for key in zmap_window(m1.z, 2, 8)
                                            if m0.z.in_domain(key))
    bad = dataclasses.replace(ch, members=(m0, dataclasses.replace(m1, z=z), m2))
    with pytest.raises(HypothesisViolated, match=r"\(z-coherent\): z\(w\) not increasing"):
        amalgamate(bad)


def test_coherence_checked_on_adjacent_members(monkeypatch):
    """validate_chain decides z-coherence on adjacent explicit members of a
    chain whose stages increase: end-extension is transitive, and the keys
    two members share lie in every z-domain between theirs. The tail's
    members extend the last one by construction (the tail lemma), so no
    pair with a tail member is read."""
    ch = uniform_chain(3, Ordinal(1, 2))
    calls = []
    incoherent = ZMap.incoherent_key
    monkeypatch.setattr(ZMap, "incoherent_key",
                        lambda a, b: calls.append((a, b)) or incoherent(a, b))
    amalgam.validate_chain(ch)
    members = ch.members
    assert calls == [(a.z, b.z) for a, b in zip(members, members[1:])]
    assert len(calls) == 2


def test_coherence_checked_on_all_pairs_when_stages_do_not_increase():
    """Members at stages 0, 2, 1 (towers of 1, 3 and 4 levels, fixture
    z-maps, the last with z(2) set to <1001, ...>): every adjacent pair of
    the members and the tail's first member is coherent, but stage 2's
    domain leaves out key 2, which stages 0 and 1 share and disagree at, so
    the all-pairs loop runs and names it."""
    from ascentlab.amalgam import ChainMember, ChainTail
    from ascentlab.ascent import standard_append
    from ascentlab.fixtures import _fixture_zmap, tower
    delta = Ordinal(1, 2)
    z = _fixture_zmap(1, Ordinal(0, 4), delta, False, 0)
    z = ZMap.make(z.lo, z.hi, False, z.cells, dict(z.entries) | {Ordinal(0, 2): const_node(1001, Ordinal(0, 4))})
    members = (ChainMember(Ordinal(0, 0), tower(1, S_X), _fixture_zmap(0, Ordinal(0, 1), delta, False, 0)),
               ChainMember(Ordinal(0, 2), tower(3, S_X), _fixture_zmap(2, Ordinal(0, 3), delta, False, 0)),
               ChainMember(Ordinal(0, 1), tower(4, S_X), z))
    ch = ChainDescriptor(members, ChainTail(1, (standard_append(members[2].cond.top),), (("last",),)),
                         OMEGA, delta)
    chained = members + (ch.tail.next_member(members[-1]),)
    assert [a.z.incoherent_key(b.z) for a, b in zip(chained, chained[1:])] == [None] * 3
    with pytest.raises(HypothesisViolated, match=r"\(z-coherent\): z\(2\) not increasing"):
        amalgam.validate_chain(ch)


def test_chain_tail_needs_rising_stages_and_a_cycle():
    """A tail whose stages do not rise, or whose append cycle is empty, is
    refused when it is built, as the decoder refuses it. With beta_step 0
    over the standard chain, tail stages 2, 2, 2 used to pass validate_chain
    and amalgamate returned; an empty cycle reached amalgamate's rule."""
    from ascentlab.amalgam import ChainTail
    tail = uniform_chain(3, Ordinal(1, 2)).tail
    for step in (0, -1):
        with pytest.raises(HypothesisViolated, match=rf"\(tail-shape\): beta_step {step} does not"):
            ChainTail(step, tail.schemes, tail.z_tokens)
        with pytest.raises(HypothesisViolated, match=r"\(tail-shape\): beta_step"):
            dataclasses.replace(tail, beta_step=step)
    with pytest.raises(HypothesisViolated, match=r"\(tail-shape\): the append cycle is empty"):
        ChainTail(1, (), ())


def test_zmap_whole_is_built_once_per_map():
    """`ZMap.whole` builds its pieces on first use and returns that tuple
    after; a `dataclasses.replace` copy starts without them, and equality,
    hash and repr do not read them."""
    z = uniform_chain(2, Ordinal(1, 2)).members[1].z
    copy = dataclasses.replace(z)
    whole = z.whole()
    assert isinstance(whole, tuple) and z.whole() is whole
    assert copy._whole is None and copy == z and hash(copy) == hash(z) and repr(copy) == repr(z)
    assert copy.whole() == whole and copy.whole() is not whole
    assert dataclasses.replace(z, closed_hi=True)._whole is None


def test_closed_delta_interval():
    ch = uniform_chain(3, Ordinal(1, 1), closed_delta=True)
    out, z = amalgamate(ch)
    assert z.in_domain(Ordinal(1, 1))
    assert check_condition(out, S_X).ok


def test_failed_reverification_raises_postcondition(monkeypatch):
    """A conclusion that fails its re-check is a library defect, reported as
    PostconditionFailed (an explicit raise, kept under python -O)."""
    from ascentlab import amalgam
    from ascentlab.conditions import ConditionReport
    from ascentlab.foundations import PostconditionFailed
    monkeypatch.setattr(amalgam, "check_condition", lambda cond, variant: ConditionReport(
        variant, (("C1", False),), ("forced",), ()))
    with pytest.raises(PostconditionFailed, match="amalgam fails validation: forced"):
        amalgamate(uniform_chain(3, Ordinal(1, 2)))


# -- ZMap.above: the one re-base of a z-map past a new stage --------------------

@st.composite
def zmaps_and_cuts(draw):
    """A z-map on (lo, hi) and a cut new_lo above lo, with a cell straddling
    new_lo, a cell in a block below new_lo's, random extra cells and entries."""
    new_lo = Ordinal(draw(st.integers(1, 2)), draw(st.integers(0, 20)))
    lo = Ordinal(0, draw(st.integers(0, 5)))
    hi = Ordinal(3, draw(st.integers(0, 30)))
    template = nodes_of(Ordinal(1, 1), ENTRIES)
    straddle = Cell(AP(draw(st.integers(0, new_lo.n)), draw(st.integers(1, 4))), draw(template))
    below = Cell(AP(draw(st.integers(0, 5)), draw(st.integers(1, 3))), draw(template))
    cells = [(new_lo.w, straddle), (draw(st.integers(0, new_lo.w - 1)), below)]
    cells += draw(st.lists(st.tuples(st.integers(0, 3), st.builds(
        Cell, st.builds(AP, st.integers(0, 25), st.integers(1, 4)), template)), max_size=2))
    keys = st.builds(Ordinal, st.integers(0, 3), st.integers(0, 30))
    entries = draw(st.dictionaries(keys, nodes_of(Ordinal(1, 1), st.integers(0, 9)), max_size=4))
    order = draw(st.permutations(range(len(cells))))
    return ZMap.make(lo, hi, draw(st.booleans()), [cells[i] for i in order], entries), new_lo


@settings(max_examples=60, deadline=None)
@given(zmaps_and_cuts())
def test_zmap_above_matches_pointwise(case):
    z, new_lo = case
    got = z.above(new_lo)
    assert (got.lo, got.hi, got.closed_hi) == (new_lo, z.hi, z.closed_hi)
    want = {k: v for k, v in zmap_window(z, 4, 48).items() if k > new_lo}
    assert zmap_window(got, 4, 48) == want
    for k in probe_keys(got):
        assert k > new_lo and got.at(k) == z.at(k)
    # no key at or below new_lo is left, in the domain or in any cell
    assert not any(got.in_domain(k) for k in (new_lo, z.lo, Ordinal(0, 0)))
    assert all(Ordinal(w, c.ap.start) > new_lo for w, c in got.cells)


@st.composite
def zmaps_with_repeated_keys(draw):
    """A z-map built without `ZMap.make`, so that its entries keep their
    drawn order and may repeat a key, with entries at keys its cells hold."""
    lo = Ordinal(draw(st.integers(0, 1)), draw(st.integers(0, 6)))
    hi = Ordinal(draw(st.integers(0, 2)), draw(st.integers(0, 12)))
    template = nodes_of(Ordinal(1, 1), ENTRIES)
    cells = draw(st.lists(st.tuples(st.integers(0, 2), st.builds(
        Cell, st.builds(AP, st.integers(0, 8), st.integers(1, 3)), template)), max_size=3))
    keys = [Ordinal(w, c.ap.member(draw(st.integers(0, 3)))) for w, c in cells]
    keys += draw(st.lists(st.builds(Ordinal, st.integers(0, 2), st.integers(0, 12)), min_size=1, max_size=3))
    entries = draw(st.lists(st.tuples(st.sampled_from(keys), nodes_of(Ordinal(1, 1), st.integers(0, 9))),
                            max_size=6))
    return ZMap(lo, hi, draw(st.booleans()), tuple(cells), tuple(entries))


@settings(max_examples=100, deadline=None)
@given(zmaps_with_repeated_keys())
@example(ZMap(Ordinal(0, 0), Ordinal(1, 0), False,
              ((0, Cell(AP(1, 2), SymNode((BlockWord.make((), (Ramp(1, 0),)),), (0,)))),),
              ((Ordinal(0, 3), SymNode((BlockWord.make((), (7,)),), (1,))),
               (Ordinal(0, 3), SymNode((BlockWord.make((), (8,)),), (2,))))))
def test_zmap_at_matches_field_oracle(z):
    """`ZMap.at` is the oracle's reading of the map's fields at every key of
    a window: the first listed entry, else the first cell holding the key,
    and KeyError outside the domain or where neither holds it. In the
    example key (0, 3) is listed twice over a cell that holds it."""
    for w in range(3):
        for n in range(16):
            k = Ordinal(w, n)
            want = zmap_value(z, k)
            if want is None:
                with pytest.raises(KeyError):
                    z.at(k)
            else:
                assert z.at(k) == want


@settings(max_examples=60, deadline=None)
@given(zmaps_with_repeated_keys(), st.builds(Ordinal, st.integers(0, 2), st.integers(0, 12)))
def test_zmap_above_keeps_the_first_entry_of_a_repeated_key(z, new_lo):
    """`ZMap.above` passes `ZMap.make` one entry per key: of a key listed
    twice, the first, the one `at` reads, so the map above new_lo holds the
    map's values there."""
    got = z.above(new_lo)
    for w in range(3):
        for n in range(16):
            k = Ordinal(w, n)
            if k > new_lo and z.in_domain(k):
                assert zmap_value(got, k) == zmap_value(z, k)


# -- exact checks over the whole z-domain and the whole top level ---------------

def test_z_pairwise_collision_between_cells_past_the_probe_keys():
    """II's stage-2 move with its z cell replaced by two cells over the odd
    and the even keys: z(7) ends in 16*2 + 337 and z(4) in 16*0 + 369, the
    same label, though no two probe keys (3, 5, 4, 6) share one."""
    from ascentlab.amalgam import check_z_bullets
    from ascentlab.game import onestep_opponent, play_game
    move = play_game(Ordinal(0, 8), onestep_opponent(), 0).moves[2]
    z = move.z
    cells = ((0, Cell(AP(3, 2), SymNode((), (0, Ramp(16, 337))))),
             (0, Cell(AP(4, 2), SymNode((), (0, Ramp(16, 369))))))
    bad = ZMap.make(z.lo, z.hi, z.closed_hi, cells, dict(z.entries))
    assert bad.at(Ordinal(0, 7)) == bad.at(Ordinal(0, 4))
    check_z_bullets(move.stage, move.cond, z, z.hi, z.closed_hi)
    with pytest.raises(HypothesisViolated) as e:
        check_z_bullets(move.stage, move.cond, bad, z.hi, z.closed_hi)
    assert e.value.bullet == "z-pairwise"


def test_z_pairwise_collision_behind_a_shared_key():
    """II's stage-2 move with its z cell replaced by two overlapping cells
    of one template, over the keys 3, 5, 7 and 3, 4, 5, ...: whole, they
    first take one value at the one key 3 (position 0 of both), which
    `_first_collision` skips; carved, the second holds 4 and 6, and z(5)
    and z(4) share their last entry. So pieces that share a key are not
    read whole."""
    from ascentlab.amalgam import _keys_apart, check_z_bullets
    from ascentlab.game import onestep_opponent, play_game
    move = play_game(Ordinal(0, 8), onestep_opponent(), 0).moves[2]
    z = move.z
    t = SymNode((), (0, Ramp(16, 337)))
    bad = ZMap.make(z.lo, z.hi, z.closed_hi, [(0, Cell(AP(3, 2), t)), (0, Cell(AP(3, 1), t))], {})
    assert bad.at(Ordinal(0, 5)) == bad.at(Ordinal(0, 4)) and not _keys_apart(bad.whole())
    with pytest.raises(HypothesisViolated, match=r"\(z-pairwise\): z\(5\) =\* z\(4\)"):
        check_z_bullets(move.stage, move.cond, bad, z.hi, z.closed_hi)


@settings(max_examples=80, deadline=None)
@given(zmaps_and_cuts())
@example((ZMap.make(Ordinal(0, 0), Ordinal(2, 0), False,
                    [(0, Cell(AP(1, 1), SymNode((BlockWord.make((), (0,)),), (Ramp(2, 0),))))],
                    {Ordinal(1, 5): SymNode((BlockWord.make((), (0,)),), (40,))}), None))
def test_last_entry_collision_matches_window(case):
    """The collision found among a z-map's last-entry pieces names two
    distinct keys of its domain whose values share their last entry, and
    one is found whenever two keys of a window share it. In the example an
    entry of block 1 and a ramp cell of block 0 collide: z(1, 5) and
    z(0, 21) both end in 40."""
    from ascentlab.amalgam import _last_entry_pieces
    from ascentlab.ascent import _first_collision
    z, _ = case
    last = Ordinal(1, 0)
    hit = _first_collision(_last_entry_pieces(z.pieces(), last))
    values = [v.eval_at(last) for v in zmap_window(z, 4, 48).values()]
    if len(set(values)) < len(values):
        assert hit is not None
    if hit is not None:
        k1, k2 = Ordinal(*hit[0]), Ordinal(*hit[1])
        assert k1 != k2 and z.in_domain(k1) and z.in_domain(k2)
        assert z.at(k1).eval_at(last) == z.at(k2).eval_at(last)


@settings(max_examples=80, deadline=None)
@given(zmaps_and_cuts(), st.builds(Ordinal, st.integers(1, 3), st.integers(0, 30)))
@example((ZMap.make(Ordinal(0, 0), Ordinal(3, 4), False,
                    [(3, Cell(AP(0, 1), SymNode((BlockWord.make((), (0,)),), (0,))))], {}), None),
         Ordinal(3, 4))
@example((ZMap.make(Ordinal(0, 0), Ordinal(1, 0), False,
                    [(0, Cell(AP(0, 2), SymNode((BlockWord.make((), (0,)),), (Ramp(1, 0),)))),
                     (0, Cell(AP(0, 1), SymNode((BlockWord.make((), (0,)),), (Ramp(1, 0),))))], {}),
          None), Ordinal(1, 0))
def test_whole_pieces_keep_every_collision(case, hi):
    """z-pairwise is decided on a map's carved pieces only when its whole
    pieces (`ZMap.whole`) have a collision or two of them share a key.
    These hold z's keys and values and more, so when their keys lie apart
    each collision of z is one of them. In the first example the cell runs
    past the top block's end (w3+4). In the second the first cell holds the
    even keys, key 2 valued 1, and the second the odd keys, key 1 valued 1;
    whole, the two cells first meet at the one key 0, which the collision
    test skips, so whole pieces that share keys are not read."""
    import dataclasses
    from ascentlab.amalgam import _keys_apart, _last_entry_pieces
    from ascentlab.ascent import _first_collision
    z = dataclasses.replace(case[0], hi=hi)
    last = Ordinal(1, 0)
    whole = z.whole()
    if _first_collision(_last_entry_pieces(z.pieces(), last)) is not None and _keys_apart(whole):
        assert _first_collision(_last_entry_pieces(whole, last)) is not None
    keys = [(w, loc) for w, loc, _ in whole if loc.__class__ is int] + \
        [(w, loc.member(m)) for w, loc, _ in whole if loc.__class__ is not int for m in range(40)]
    if len(set(keys)) < len(keys):
        assert not _keys_apart(whole)


def test_amalgam_top_member_outside_the_tree_raises(monkeypatch):
    """The union level split by residue mod 4 with a node outside the tree
    at 11: carving leaves 3, 7 and 11 as exceptions no catalog branch
    matches, while 0, 1 and 4 stay cell members inside the tree."""
    from ascentlab.ascent import AscentLevel, TailRule
    from ascentlab.foundations import PostconditionFailed
    limit_level = TailRule.limit_level

    def split_with_stray(rule):
        top = limit_level(rule)
        (cell,) = top.cells
        word = top.at(11).blocks[-1]
        stray = SymNode((BlockWord.make([word.eval(j) for j in range(20)], (999,)),), ())
        return AscentLevel.make(top.height, [cell.on(AP(r, 4)) for r in range(4)], {11: stray})
    monkeypatch.setattr(TailRule, "limit_level", split_with_stray)
    with pytest.raises(PostconditionFailed, match="ascent union missing"):
        amalgamate(uniform_chain(3, Ordinal(1, 2)))


# -- z-bullets from pieces against the key-by-key reference ---------------------

GAME_LENGTHS = [Ordinal(0, 8), Ordinal(0, 14), Ordinal(1, 4), Ordinal(1, 6), Ordinal(2, 2)]


@functools.cache
def even_moves(mu: Ordinal, seed: int):
    """The moves with a z-map of one random-opponent run of length mu."""
    t = play_game(mu, random_opponent(seed), seed % 3)
    assert t.verdict == "II_completed"
    return [mv for mv in t.moves if mv.z is not None]


def with_last(v: SymNode, e) -> SymNode:
    """v with the entry at its last coordinate, or the tail of its last
    block at a limit height, replaced by e."""
    if v.final:
        return SymNode(v.blocks, v.final[:-1] + (e,))
    return SymNode(v.blocks[:-1] + (BlockWord.make(v.blocks[-1].prefix, (e,)),), ())


def z_outcome(check, beta, cond, z, mu):
    try:
        ev = check(beta, cond, z, mu, False)
    except HypothesisViolated as e:
        return e.bullet, str(e)
    if check is check_z_bullets:    # its record names the arguments
        assert proves(ev, "z-bullets", (cond, z), (beta, mu, False))
    return "ok"


@st.composite
def game_stage_zmaps(draw):
    """A game stage (successor or limit height) and its z-map, with one
    corruption: a cell's last entry, one constant, the tail of one block or
    the progression changed, or an entry copied from another key, set to the
    top's member 0 or given another last entry."""
    mu = draw(st.sampled_from(GAME_LENGTHS))
    mv = draw(st.sampled_from(even_moves(mu, draw(st.integers(0, 9)))))
    z, top = mv.z, mv.cond.top
    cells, entries = list(z.cells), dict(z.entries)
    keys = probe_keys(z)
    c0 = top.at(0).entry_at(top.height.pred()) if top.height.is_successor else 0
    labels = st.integers(0, 40) | st.just(c0)
    ramps = st.builds(Ramp, st.integers(1, 4), st.integers(0, 40))
    corruption = draw(st.sampled_from(
        ["none", "cell-last", "cell-const", "cell-tail", "cell-ap", "entry-copy", "entry-zero",
         "entry-last"]))
    if corruption.startswith("cell") and cells:
        i = draw(st.integers(0, len(cells) - 1))
        w, c = cells[i]
        if corruption == "cell-last":
            # a ramp through top member 0's last value at position m, if any
            hits = st.builds(lambda a, m: Ramp(a, max(c0 - a * m, 0)),
                             st.integers(1, 4), st.integers(0, 6))
            cells[i] = (w, Cell(c.ap, with_last(c.template, draw(labels | ramps | hits))))
        elif corruption == "cell-const":
            t = c.template
            coords = [Ordinal(b, j) for b in range(len(t.blocks)) for j in range(4)] + \
                [Ordinal(len(t.blocks), j) for j in range(len(t.final))]
            cells[i] = (w, Cell(c.ap, node_patch(t, {draw(st.sampled_from(coords)): draw(labels)})))
        elif corruption == "cell-tail" and c.template.blocks:
            t = c.template
            b = draw(st.integers(0, len(t.blocks) - 1))
            word = BlockWord.make(t.blocks[b].prefix, (draw(labels | ramps),))
            cells[i] = (w, Cell(c.ap, SymNode(t.blocks[:b] + (word,) + t.blocks[b + 1:], t.final)))
        elif corruption == "cell-ap":
            cells[i] = (w, Cell(AP(draw(st.integers(0, 12)), draw(st.integers(1, 3))), c.template))
    elif corruption.startswith("entry") and keys:
        k = draw(st.sampled_from(keys))
        if corruption == "entry-copy":
            entries[k] = z.at(draw(st.sampled_from(keys)))
        elif corruption == "entry-zero":
            entries[k] = top.at(0)
        else:
            entries[k] = with_last(z.at(k), draw(labels))
    return mv.stage, mv.cond, ZMap.make(z.lo, z.hi, z.closed_hi, cells, entries), z.hi


ORDINAL = re.compile(r"^(?:w(\d*)(?:\+(\d+))?|(\d+))$")


def parse_ordinal(text: str) -> Ordinal:
    """The ordinal a message prints: "5", "w", "w+3", "w2", "w2+3"."""
    w, n, finite = ORDINAL.match(text).groups()
    if finite is not None:
        return Ordinal(0, int(finite))
    return Ordinal(int(w or 1), int(n or 0))


def named(message: str) -> tuple[list[Ordinal], Optional[int]]:
    """The keys z(k) a z-bullet message names, and the index tau it names."""
    keys = [parse_ordinal(k) for k in re.findall(r"z\(([^)]*)\)", message)]
    tau = re.search(r"meets top family at (\d+)$", message)
    return keys, tau and int(tau.group(1))


def rank(outcome) -> int:
    return len(Z_BULLETS) if outcome == "ok" else Z_BULLETS.index(outcome[0])


WINDOW = 12


@settings(max_examples=60, deadline=None)
@given(game_stage_zmaps())
def test_z_bullets_against_probe_keys_and_window(case):
    """On corrupted game stages, successor and limit heights alike:
    1. when the key-by-key reference fails at a bullet that the window
       oracle confirms at or before it, the exact check fails at or before
       that bullet (the reference also fails falsely: a key listed twice
       when an entry shadows a cell member, a cell read past the domain, a
       finite collision with the exception keyed 0);
    2. an exact failure is confirmed by the oracle at the keys it names,
       and no key of the window below the named one fails that bullet;
    3. on an exact pass the window oracle passes."""
    beta, cond, z, mu = case
    got = z_outcome(check_z_bullets, beta, cond, z, mu)
    ref = z_outcome(probe_key_z_bullets, beta, cond, z, mu)
    window = window_z_bullets(cond, z, z.hi.w + 1, WINDOW)
    first = next((b for b in Z_BULLETS[1:] if window[b]), None)
    if ref != "ok" and first is not None and Z_BULLETS.index(first) <= rank(ref):
        assert rank(got) <= rank(ref)
    if got == "ok":
        assert first is None
        return
    bullet, message = got
    keys, tau = named(message)
    bound = max([k.n for k in keys] + [tau or 0]) + 1
    at_keys = window_z_bullets(cond, z, z.hi.w + 1, bound, set(keys))
    if bullet == "z-pairwise":
        assert tuple(sorted(keys)) in at_keys[bullet]
        return
    (k,) = keys
    if bullet == "z-exclusive":
        assert (k, tau) in at_keys[bullet]
        assert not any(key == k and t < tau for key, t in at_keys[bullet])
        assert all(key >= k for key, _ in window[bullet])
    else:
        assert k in at_keys[bullet] and all(key >= k for key in window[bullet])


def stage_two(mu: Ordinal):
    move = play_game(mu, onestep_opponent(), 0).moves[2]
    return move.stage, move.cond, move.z


def test_z_bullets_member_outside_the_tree_past_the_probe_keys():
    """Stage 2's tree with its top level listed explicitly as the two probe
    members z(3) and z(4): z(5), at cell position 2, lies outside it. The
    exact check names it; the key-by-key reference, which read only the
    probe keys, passed."""
    beta, cond, z = stage_two(Ordinal(0, 8))
    probes = tuple(z.at(Ordinal(0, n)) for n in (3, 4))
    tree = SymTree.make(cond.tree.height, {cond.eta: probes}, dict(cond.tree.catalogs))
    cond = Condition(tree, cond.path, cond.variant, cond.x)
    assert not tree_contains(tree, z.at(Ordinal(0, 5)))
    assert z_outcome(check_z_bullets, beta, cond, z, z.hi) == (
        "z-top-level", "chain hypothesis failed (z-top-level): z(5) outside the tree")
    assert z_outcome(probe_key_z_bullets, beta, cond, z, z.hi) == "ok"


def test_z_bullets_member_eventually_equal_to_zero_past_the_probe_keys():
    """Stage 2's top with member 0 made <0, 417>: the z cell's member at
    position 5, z(8) = <0, 16*5 + 337>, is that very node. The exact check
    names it; the key-by-key reference passed. `me_cross` already meets
    member 0 at the first coordinate for every cell member, which is
    allowed."""
    beta, cond, z = stage_two(Ordinal(0, 14))
    top = cond.top
    top = AscentLevel.make(top.height, top.cells, {0: with_last(top.at(0), 417)})
    cond = Condition(cond.tree, cond.path.with_level(cond.eta, top), cond.variant, cond.x)
    assert z.at(Ordinal(0, 8)) == top.at(0)
    assert z_outcome(check_z_bullets, beta, cond, z, z.hi) == (
        "z-vs-zero", "chain hypothesis failed (z-vs-zero): z(8) =* top family at 0")
    assert z_outcome(probe_key_z_bullets, beta, cond, z, z.hi) == "ok"


def test_z_bullets_read_only_the_keys_of_a_finite_top_block():
    """Stage 2 of an 8-stage game with top member 0 made <0, 417>: the z
    cell's member at position 5 is that node, but its key 8 lies outside
    the domain (2, 8). The map run on to w fails z-vs-zero there, and so
    do z's whole pieces, whose cell runs on past 8; z's carved pieces,
    which list the keys 3..7, decide: the stage passes."""
    beta, cond, z = stage_two(Ordinal(0, 8))
    top = cond.top
    top = AscentLevel.make(top.height, top.cells, {0: with_last(top.at(0), 417)})
    cond = Condition(cond.tree, cond.path.with_level(cond.eta, top), cond.variant, cond.x)
    wide = ZMap(z.lo, z.hi.next_limit(), False, z.cells, z.entries)
    assert wide.at(Ordinal(0, 8)) == top.at(0) and not z.in_domain(Ordinal(0, 8))
    assert z_outcome(check_z_bullets, beta, cond, wide, wide.hi)[0] == "z-vs-zero"
    assert amalgam._z_fault(cond, z, z.whole())[0] == "z-vs-zero"
    assert z_outcome(check_z_bullets, beta, cond, z, z.hi) == "ok"


def test_z_top_level_names_the_least_key_outside_the_tree_in_a_cell():
    """Stage 2 of a game of length w+6, whose z cell covers the keys 3, 4,
    ... of block 0, with the tree's top level listed as z(3), z(4) and the
    entries: the cell's members from position 2 on lie outside the tree,
    and `_template_members` names z(5)."""
    beta, cond, z = stage_two(Ordinal(1, 6))
    listed = tuple(z.at(Ordinal(0, n)) for n in (3, 4)) + tuple(v for _, v in z.entries)
    tree = SymTree.make(cond.tree.height, {cond.eta: listed}, dict(cond.tree.catalogs))
    cond = Condition(tree, cond.path, cond.variant, cond.x)
    assert [(w, c.ap) for w, c in z.cells] == [(0, AP(3, 1))]
    assert z_outcome(check_z_bullets, beta, cond, z, z.hi) == (
        "z-top-level", "chain hypothesis failed (z-top-level): z(5) outside the tree")


def test_z_exclusive_allows_a_finite_collision_with_member_zero():
    """Stage 2 with its top made <12, 1000> at 0 and <1, 2*tau> elsewhere,
    and one z cell <m + 10, 16m + 337> on the keys 3..7: z(5) meets only
    member 0 and the others meet no member, so the exact check passes.
    `me_cross` counts the collision with the exception keyed 0 as moving,
    and the reference rejected the stage."""
    beta, cond, z = stage_two(Ordinal(0, 8))
    top = AscentLevel.make(cond.top.height, [Cell(AP(1, 1), SymNode((), (1, Ramp(2, 2))))],
                           {0: SymNode((), (12, 1000))})
    cond = Condition(cond.tree, cond.path.with_level(cond.eta, top), cond.variant, cond.x)
    z = ZMap.make(z.lo, z.hi, z.closed_hi,
                  [(0, Cell(AP(3, 1), SymNode((), (Ramp(1, 10), Ramp(16, 337)))))], {})
    met = {n: set(range(64)) - set(me_set_concrete(z.at(Ordinal(0, n)), top).members(64))
           for n in range(3, 8)}
    assert met == {3: set(), 4: set(), 5: {0}, 6: set(), 7: set()}
    assert z_outcome(check_z_bullets, beta, cond, z, z.hi) == "ok"
    assert z_outcome(probe_key_z_bullets, beta, cond, z, z.hi) == (
        "z-exclusive", "chain hypothesis failed (z-exclusive): a branch cell meets the family cofinally")


def limit_stage():
    """The move at the limit stage w of a one-step game of length w2+2: its
    z has one cell over the keys w+1, w+2, ... and entries at w2, w2+1."""
    move = play_game(Ordinal(2, 2), onestep_opponent(), 0).moves[7]
    assert move.stage == OMEGA == move.cond.eta
    return move.stage, move.cond, move.z


def test_z_pairwise_at_a_limit_between_cells_past_the_probe_keys():
    """The limit stage's z cell <(0, 16m + 307)*> split into the odd keys,
    and the even keys shifted two positions on, <(0, 16m + 339)*>: both are
    members of the catalog's admitted family, and z(w+5) = z(w+2), though
    no two probe keys (w+1, w+3, w+2, w+4) are eventually equal."""
    beta, cond, z = limit_stage()
    cells = [(1, Cell(AP(1, 2), SymNode((BlockWord.make((), (0, Ramp(16, 307))),), ()))),
             (1, Cell(AP(2, 2), SymNode((BlockWord.make((), (0, Ramp(16, 339))),), ())))]
    bad = ZMap.make(z.lo, z.hi, z.closed_hi, cells, dict(z.entries))
    assert bad.at(Ordinal(1, 5)) == bad.at(Ordinal(1, 2))
    assert z_outcome(check_z_bullets, beta, cond, z, z.hi) == "ok"
    assert z_outcome(check_z_bullets, beta, cond, bad, z.hi) == (
        "z-pairwise", "chain hypothesis failed (z-pairwise): z(w+5) =* z(w+2)")
    assert z_outcome(probe_key_z_bullets, beta, cond, bad, z.hi) == "ok"


def test_z_pairwise_at_a_limit_cell_with_its_ramp_in_a_prefix():
    """A cell <16m + 307 | (307, 0)*> at the limit stage: its members differ
    only at the first coordinate, so all are eventually equal. The window of
    the top block's tails has no ramp, and the exact check names the first
    two keys; the old block-word test read the prefix too and saw a ramp."""
    beta, cond, z = limit_stage()
    cell = Cell(AP(1, 1), SymNode((BlockWord.make((Ramp(16, 307),), (307, 0)),), ()))
    bad = ZMap.make(z.lo, z.hi, z.closed_hi, [(1, cell)], dict(z.entries))
    assert z_outcome(check_z_bullets, beta, cond, bad, z.hi) == (
        "z-pairwise", "chain hypothesis failed (z-pairwise): z(w+1) =* z(w+2)")


@st.composite
def coherence_pairs(draw):
    """The z-maps of two consecutive even moves of a game, in order or
    swapped, the later one possibly corrupted: a coordinate below the
    earlier height patched, or a cell's progression moved."""
    mu = draw(st.sampled_from(GAME_LENGTHS))
    moves = even_moves(mu, draw(st.integers(0, 9)))
    i = draw(st.integers(0, len(moves) - 2))
    a, b = moves[i].z, moves[i + 1].z
    corruption = draw(st.sampled_from(["none", "swap", "patch", "cell-ap"]))
    if corruption == "swap":
        return b, a
    cells, entries = list(b.cells), dict(b.entries)
    h = moves[i].cond.eta
    coords = [Ordinal(w, j) for w in range(h.w) for j in range(4)] + \
        [Ordinal(h.w, j) for j in range(h.n)]
    if corruption == "patch" and coords:
        patch = {draw(st.sampled_from(coords)): draw(st.integers(0, 9) | st.builds(Ramp, st.integers(1, 3), st.integers(0, 9)))}
        if cells and draw(st.booleans()):
            j = draw(st.integers(0, len(cells) - 1))
            w, c = cells[j]
            cells[j] = (w, Cell(c.ap, node_patch(c.template, patch)))
        elif entries:
            k = draw(st.sampled_from(sorted(entries)))
            entries[k] = node_patch(entries[k], {e: v for e, v in patch.items() if isinstance(v, int)})
    elif corruption == "cell-ap" and cells:
        j = draw(st.integers(0, len(cells) - 1))
        w, c = cells[j]
        cells[j] = (w, Cell(AP(c.ap.start + draw(st.integers(0, 3)), draw(st.integers(1, 3))), c.template))
    return a, ZMap.make(b.lo, b.hi, b.closed_hi, cells, entries)


@settings(max_examples=60, deadline=None)
@given(coherence_pairs())
def test_incoherent_key_matches_window(case):
    """`incoherent_key` is the least key of both domains at which the later
    value does not end-extend the earlier one: the oracle, which reads each
    key of the windows on its own, finds it there, and no lesser key."""
    a, b = case
    got = a.incoherent_key(b)
    want = window_incoherent_key(a, b, WINDOW)
    if got is None:
        assert want is None
        return
    va, vb = a.at(got), b.at(got)
    assert vb.dom < va.dom or vb.restrict(va.dom) != va
    assert want is None or got <= want
    if got.n < WINDOW:
        assert want == got


# -- the z-exclusive kernel against me_set_concrete ------------------------------

EXCLUSIVE_HEIGHTS = [Ordinal(0, 3), Ordinal(1, 0), Ordinal(1, 2)]


@st.composite
def tops_and_entries(draw):
    """A top level of one of a few heights, with constant and ramp cells over
    one modulus and exceptions at 0 and elsewhere, and concrete entries of
    its height, some of them sharing their blocks."""
    height = draw(st.sampled_from(EXCLUSIVE_HEIGHTS))
    step = draw(st.integers(1, 3))
    cells = [Cell(AP(r, step), draw(nodes_of(height, ENTRIES))) for r in range(step)]
    exceptions = draw(st.dictionaries(st.sampled_from([0, 0, 1, 2, 5]),
                                      nodes_of(height, st.integers(0, 9)), max_size=2))
    top = AscentLevel.make(height, cells, exceptions)
    shared = draw(nodes_of(height, st.integers(0, 9)))
    entries = [SymNode(shared.blocks, draw(nodes_of(height, st.integers(0, 9))).final)
               if draw(st.booleans()) else draw(nodes_of(height, st.integers(0, 9)))
               for _ in range(draw(st.integers(0, 4)))]
    return top, entries


def meets_off_zero(v: SymNode, top: AscentLevel) -> bool:
    return not me_set_concrete(v, top).complement().difference(singleton(0)).is_empty


@settings(max_examples=300, deadline=None)
@given(tops_and_entries(), st.data())
def test_least_meeting_position_matches_me_set_concrete(case, data):
    """_least_meeting_position is 0 for a concrete entry whose
    me_set_concrete against the top misses an index other than 0, and None
    for any other; for a template, it is the least position whose instance
    misses one."""
    top, entries = case
    for v in entries:
        assert amalgam._least_meeting_position(v, top) == (0 if meets_off_zero(v, top) else None)
    t = data.draw(nodes_of(top.height, ENTRIES))
    got = amalgam._least_meeting_position(t, top)
    want = next((m for m in range(40) if meets_off_zero(t.instantiate(m), top)), None)
    assert got == want or want is None and (got is None or got >= 40)


# -- count guards: a passing check builds no member of z -------------------------

def z_check_counts(monkeypatch, mu: Ordinal = Ordinal(1, 6)) -> list:
    """(kind, cond, z, calls, built) for each check_z_bullets call ("check")
    and each ZMap.incoherent_key call ("coherence") in a game of length mu
    and its invariant check. calls counts the ZMap.at, AscentLevel.at and
    me_set_concrete calls made inside it, and built lists the (template,
    position) of each SymNode.instantiate; cond is None for a coherence
    call."""
    runs: list = []
    inside: list = []

    def counting(name, fn):
        def wrapped(*args, **kw):
            if inside:
                runs[-1][3][name] += 1
            return fn(*args, **kw)
        return wrapped
    for owner in (ZMap, AscentLevel):
        monkeypatch.setattr(owner, "at", counting(f"{owner.__name__}.at", owner.at))
    monkeypatch.setattr(amalgam, "me_set_concrete",
                        counting("me_set_concrete", amalgam.me_set_concrete))
    instantiate = SymNode.instantiate

    def spy_instantiate(t, m):
        if inside:
            runs[-1][4].append((t, m))
        return instantiate(t, m)
    monkeypatch.setattr(SymNode, "instantiate", spy_instantiate)

    def recording(kind, fn):
        def wrapped(*args):
            cond = args[1] if kind == "check" else None
            runs.append((kind, cond, args[2] if cond else args[0], Counter(), []))
            inside.append(True)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapped
    spy = recording("check", amalgam.check_z_bullets)
    monkeypatch.setattr(amalgam, "check_z_bullets", spy)
    monkeypatch.setattr(game, "check_z_bullets", spy)
    monkeypatch.setattr(ZMap, "incoherent_key", recording("coherence", ZMap.incoherent_key))
    t = play_game(mu, random_opponent(3), 0)
    assert t.verdict == "II_completed" and check_run_invariants(t).ok
    return runs


def builds_only_top_member_zero(cond, built) -> bool:
    """Whether the instances built are at most top member 0."""
    return len(built) <= 1 and all(
        m == 0 and any(t is c.template and c.ap.start == 0 for c in cond.top.cells)
        for t, m in built)


def test_z_bullets_successor_pass_builds_no_probe_node(monkeypatch):
    runs = [r for r in z_check_counts(monkeypatch) if r[0] == "check" and r[1].eta.is_successor]
    # five in play, five in the invariants and the tail's first member
    assert len(runs) == 11
    assert all(c["ZMap.at"] == 0 and builds_only_top_member_zero(cond, built)
               for _, cond, _, c, built in runs)


@pytest.mark.parametrize("mu", [Ordinal(1, 6), Ordinal(0, 8)], ids=["w+6", "8"])
def test_passing_z_checks_build_no_member(mu, monkeypatch):
    """No passing check_z_bullets, at a successor or a limit height, builds
    a member of z (top member 0 is the one node it builds) or a
    me_set_concrete set, and no passing incoherent_key builds any node, also
    where the z-maps' top block is finite."""
    runs = z_check_counts(monkeypatch, mu)
    checks = [r for r in runs if r[0] == "check"]
    assert mu.w == 0 or any(cond.eta.is_limit for _, cond, *_ in checks)
    assert sum(r[0] == "coherence" for r in runs) >= 2
    for kind, cond, _, c, built in runs:
        assert c["me_set_concrete"] == 0
        assert builds_only_top_member_zero(cond, built) if kind == "check" else built == []


# -- the admitted-template exit of _template_in_tree -----------------------------

def test_admitted_template_exit_on_the_amalgam_top(monkeypatch):
    """_verify_conclusions' two family_in_tree calls, on the z-unions and on
    the amalgam's top, take the admitted-template exit once for each of
    their cells and the admitted-single exit once for each in-domain z
    entry, and walk no template."""
    from ascentlab import trees
    seen = {"exits": [], "singles": [], "walks": 0, "calls": 0}
    inside: list = []
    admitted, single, walk, family = (trees._admitted_template, trees._admitted_single,
                                      trees._limit_template_members, amalgam.family_in_tree)
    verify = amalgam._verify_conclusions
    expected = []

    def spy_verify(ch, out, z_gamma, vanish):
        expected.append((len(z_gamma.cells) + len(out.top.cells),
                         sum(z_gamma.in_domain(k) for k, _ in z_gamma.entries)))
        return verify(ch, out, z_gamma, vanish)

    def spy_admitted(cat, t):
        hit = admitted(cat, t)
        if inside:
            seen["exits"].append(hit)
        return hit

    def spy_single(cat, s):
        hit = single(cat, s)
        if inside:
            seen["singles"].append(hit)
        return hit

    def spy_walk(tree, b):
        seen["walks"] += bool(inside)
        return walk(tree, b)

    def spy_family(tree, cells, exceptions):
        seen["calls"] += 1
        inside.append(True)
        try:
            return family(tree, cells, exceptions)
        finally:
            inside.pop()
    monkeypatch.setattr(trees, "_admitted_template", spy_admitted)
    monkeypatch.setattr(trees, "_admitted_single", spy_single)
    monkeypatch.setattr(trees, "_limit_template_members", spy_walk)
    monkeypatch.setattr(amalgam, "family_in_tree", spy_family)
    monkeypatch.setattr(amalgam, "_verify_conclusions", spy_verify)
    t = play_game(Ordinal(1, 6), random_opponent(3), 0)
    assert t.verdict == "II_completed"
    ((cells, entries),) = expected
    assert seen["calls"] == 2 and seen["exits"] == [True] * cells and seen["walks"] == 0
    assert seen["singles"] == [True] * entries


def test_admitted_template_exit_answers_as_the_walk(monkeypatch):
    """Every _template_members call of the game and its invariants that
    takes the exit gives the same answer with the exit disabled."""
    from ascentlab import trees
    calls, exits = [], set()
    admitted, inner = trees._admitted_template, trees._template_members

    def spy_admitted(cat, t):
        hit = admitted(cat, t)
        if hit:
            exits.add(id(t))
        return hit

    def spy(tree, t):
        got = inner(tree, t)
        calls.append((tree, t, got))
        return got
    monkeypatch.setattr(trees, "_admitted_template", spy_admitted)
    monkeypatch.setattr(trees, "_template_members", spy)
    monkeypatch.setattr(amalgam, "_template_members", spy)
    run = play_game(Ordinal(1, 6), random_opponent(3), 0)
    assert check_run_invariants(run).ok
    taken = [(tree, t, got) for tree, t, got in calls if id(t) in exits]
    assert taken
    monkeypatch.setattr(trees, "_admitted_template", lambda cat, t: False)
    assert all(inner(tree, t) == got for tree, t, got in taken)


def test_admitted_template_exit_needs_an_admitted_family_at_its_height(monkeypatch):
    """The amalgam's top template, with its family demoted to non-admitted,
    or admitted only in the catalog of another limit height, is decided by
    the walk."""
    from ascentlab import trees
    out, _ = amalgamate(uniform_chain(3, Ordinal(1, 2)))
    t = out.top.cells[0].template
    cat = out.tree.catalog_at(OMEGA)
    assert trees._admitted_template(cat, t)
    demoted = BranchCatalog((dataclasses.replace(cat.families[0], admitted=False),)
                            + cat.families[1:], cat.singles)
    walks = []
    walk = trees._limit_template_members
    monkeypatch.setattr(trees, "_limit_template_members",
                        lambda tree, b: walks.append(b) or walk(tree, b))
    for tree in (SymTree.make(out.tree.height, dict(out.tree.explicit), {OMEGA: demoted}),
                 SymTree.make(Ordinal(2, 1), dict(out.tree.explicit),
                              {OMEGA: demoted, Ordinal(2, 0): cat})):
        walks.clear()
        assert not trees._admitted_template(tree.catalog_at(OMEGA), t)
        trees._template_in_tree(tree, t)
        assert walks and walks[0] is t
