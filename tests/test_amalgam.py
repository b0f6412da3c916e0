import pytest
from hypothesis import example, given, settings, strategies as st

from ascentlab.foundations import AP, FULL_SET, OMEGA, Ordinal
from ascentlab.amalgam import (
    ChainDescriptor, HypothesisViolated, NotUniformTail, ZMap, amalgamate,
)
from ascentlab.ascent import Cell, supp
from ascentlab.conditions import S_X, check_condition, leq_s
from ascentlab.fixtures import uniform_chain
from ascentlab.nodes import BlockWord, Ramp, SymNode, const_node
from ascentlab.trees import tree_contains, vanishing_levels
from oracles import zmap_window
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
    a shared key: `incoherent_keys` names the key, validate_chain raises."""
    import dataclasses
    ch = uniform_chain(3, Ordinal(1, 2))
    m0, m1, m2 = ch.members
    k = Ordinal(1, 0)
    z = ZMap.make(m1.z.lo, m1.z.hi, m1.z.closed_hi, m1.z.cells,
                  dict(m1.z.entries) | {k: const_node(1001, m1.cond.eta)})
    assert list(m0.z.incoherent_keys(m1.z)) == []
    assert list(m0.z.incoherent_keys(z)) == [k]
    # read backwards, every shared key holds a shorter later value
    assert list(m1.z.incoherent_keys(m0.z)) == [
        key for key in m1.z.probe_keys() if m0.z.in_domain(key)]
    bad = dataclasses.replace(ch, members=(m0, dataclasses.replace(m1, z=z), m2))
    with pytest.raises(HypothesisViolated, match=r"\(z-coherent\): z\(w\) not increasing"):
        amalgamate(bad)


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
    for k in got.probe_keys():
        assert k > new_lo and got.at(k) == z.at(k)
    # no key at or below new_lo is left, in the domain or in any cell
    assert not any(got.in_domain(k) for k in (new_lo, z.lo, Ordinal(0, 0)))
    assert all(Ordinal(w, c.ap.start) > new_lo for w, c in got.cells)


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
    bad = ZMap.make(z.lo, z.hi, z.closed_hi, cells, z.entries)
    assert bad.at(Ordinal(0, 7)) == bad.at(Ordinal(0, 4))
    check_z_bullets(move.stage, move.cond, z, z.hi, z.closed_hi)
    with pytest.raises(HypothesisViolated) as e:
        check_z_bullets(move.stage, move.cond, bad, z.hi, z.closed_hi)
    assert e.value.bullet == "z-pairwise"


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
    hit = _first_collision(_last_entry_pieces(z, last))
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
                    [(3, Cell(AP(0, 1), SymNode((BlockWord.make((), (0,)),), (0,))))]), None),
         Ordinal(3, 4))
def test_domain_run_on_keeps_every_collision(case, hi):
    """z-pairwise lists the keys of a finite top block one by one only when
    the map with its domain run on to the next limit has a collision. That
    map has z's keys and more, with the same last entries, in pieces that
    keep z's keys apart, so each collision of z is one of it. In the example
    the top block has no next limit (w3+4), and z is kept as it is."""
    import dataclasses
    from ascentlab.amalgam import _last_entry_pieces, _run_on
    from ascentlab.ascent import _first_collision
    z = dataclasses.replace(case[0], hi=hi)
    last = Ordinal(1, 0)
    wide = _run_on(z)
    assert (wide.lo, wide.cells, wide.entries) == (z.lo, z.cells, z.entries)
    assert all(wide.in_domain(k) for k in zmap_window(z, 4, 48))
    if _first_collision(_last_entry_pieces(z, last)) is not None:
        assert _first_collision(_last_entry_pieces(wide, last)) is not None


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
