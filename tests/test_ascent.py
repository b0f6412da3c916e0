import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ascentlab.fixtures import tower
from ascentlab.foundations import (
    AP, EMPTY_SET, EVENS, FULL_SET, ODDS, OMEGA, ZERO, Ordinal, UPSet, finite_set, multiples,
)
from ascentlab.ascent import (
    AscentLevel, AscentPath, Cell, PiecewiseMap, TailRule, _agree_positions, constant_level,
    eq_star_set, graft_levels, identity_map, level_extensional_eq, level_reindex, me_cross, me_family,
    me_set_concrete, order_iso, restrict_level_domain, restrict_map, root_level,
    standard_append, supp,
)
from ascentlab.nodes import (
    EMPTY_NODE, Ramp, SymNode, const_node, graft, mutually_exclusive, node, node_patch,
)
from oracles import (
    agree_window, all_pairs_collision, clause, cross_collisions, eq_star_window, fragments_window,
    map_window, reindex_window, restricted_supp, scan_source, upset_window,
)
from test_chain_lemma import ENTRIES, nodes_of


def brute_supp(f: AscentLevel, g: AscentLevel, bound: int = 96) -> set[int]:
    lo = min(f.height, g.height)
    out = set()
    for tau in range(bound):
        a, b = f.at(tau).restrict(lo), g.at(tau).restrict(lo)
        if a == b:
            out.add(tau)
    return out


def level_2tau(height_n: int) -> AscentLevel:
    """f(tau) = <2tau> repeated height_n times."""
    tmpl = SymNode((), (Ramp(2, 0),) * height_n)
    return AscentLevel.make(Ordinal(0, height_n), [Cell(AP(0, 1), tmpl)])


# -- supp ---------------------------------------------------------------------

def test_supp_empty_below_everything():
    f = root_level()
    g = level_2tau(3)
    assert supp(f, g) == FULL_SET


def test_supp_const_vs_ramp_derived():
    f = constant_level(Ordinal(0, 1), node(0))
    g = AscentLevel.make(Ordinal(0, 1), [Cell(AP(0, 1), SymNode((), (Ramp(2, 0),)))])
    s = supp(f, g)
    assert upset_window(s, 64) == brute_supp(f, g, 64)
    assert s == finite_set({0})


def test_supp_initial_segment_everywhere():
    f = level_2tau(1)
    g = level_2tau(2)
    assert supp(f, g) == FULL_SET


def test_supp_symmetric_and_reflexive():
    f = level_2tau(2)
    assert supp(f, f) == FULL_SET
    g = level_2tau(4)
    assert supp(f, g) == supp(g, f)


def test_supp_with_exceptions_matches_brute():
    rng = random.Random(9)
    for _ in range(60):
        h = rng.randrange(1, 4)
        height = Ordinal(0, h)
        cells = [Cell(AP(0, 2), SymNode((), tuple(Ramp(2, 0) if rng.random() < 0.6 else rng.randrange(6) for _ in range(h)))),
                 Cell(AP(1, 2), SymNode((), tuple(Ramp(4, 1) if rng.random() < 0.6 else rng.randrange(6) for _ in range(h))))]
        f = AscentLevel.make(height, cells)
        g_cells = [Cell(AP(0, 1), SymNode((), tuple(Ramp(2, 0) for _ in range(h + 1))))]
        g = AscentLevel.make(Ordinal(0, h + 1), g_cells,
                             {3: node(*[rng.randrange(6) for _ in range(h + 1)])})
        assert upset_window(supp(f, g), 80) == brute_supp(f, g, 80)


def test_supp_transitivity_on_chains():
    f1, f2, f3 = level_2tau(1), level_2tau(2), level_2tau(3)
    s12, s23, s13 = supp(f1, f2), supp(f2, f3), supp(f1, f3)
    assert s12.intersect(s23).is_subset(s13)


def test_shared_progressions_pair_without_rebasing():
    """Adjacent levels of a one-step tower keep their cells' progressions,
    so `supp` and `graft_levels` pair each cell with the cell on its own
    progression as it is: no `Cell.on` and no `SymNode.reindex`. The levels
    are copied without their graft records, so that `supp` walks them."""
    c = tower(4)
    levels = [dataclasses.replace(c.level(Ordinal(0, k))) for k in range(5)]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((Cell, "on"), (SymNode, "reindex")):
            real = getattr(owner, name)
            mp.setattr(owner, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        for f, g in zip(levels, levels[1:]):
            assert [c.ap for c in f.cells] == [c.ap for c in g.cells]
            assert supp(f, g) == FULL_SET
            assert graft_levels(f, g).cells[0].ap == f.cells[0].ap
    assert calls == []


# -- mutual exclusivity of families --------------------------------------------

def test_me_family_ramps_pass():
    assert me_family(level_2tau(2)).ok


def test_me_family_constant_cell_fails():
    lvl = AscentLevel.make(Ordinal(0, 1), [Cell(AP(0, 1), node(3))])
    rep = me_family(lvl)
    assert not rep.ok


def test_me_family_cross_cell_collision():
    # even indices valued 4m, odd indices valued 2m: ranges overlap
    lvl = AscentLevel.make(Ordinal(0, 1), [
        Cell(AP(0, 2), SymNode((), (Ramp(4, 0),))),
        Cell(AP(1, 2), SymNode((), (Ramp(2, 0),))),
    ])
    assert not me_family(lvl).ok


def test_me_family_parity_separation_passes():
    lvl = AscentLevel.make(Ordinal(0, 1), [
        Cell(AP(0, 2), SymNode((), (Ramp(2, 0),))),   # evens -> 0,2,4,..
        Cell(AP(1, 2), SymNode((), (Ramp(2, 1),))),   # odds  -> 1,3,5,..
    ])
    assert me_family(lvl).ok


def test_me_family_exception_collision():
    lvl = AscentLevel.make(Ordinal(0, 1),
                           [Cell(AP(1, 1), SymNode((), (Ramp(2, 2),)))],
                           {0: node(4)})
    # exception value 4 collides with cell value at tau=2 (position 1)
    assert not me_family(lvl).ok


def test_me_set_concrete():
    lvl = level_2tau(1)
    t = node(6)
    s = me_set_concrete(t, lvl)
    assert upset_window(s, 64) == {k for k in range(64) if mutually_exclusive(t, lvl.at(k))}
    assert s == finite_set({3}).complement()


def test_me_cross_static_and_rows():
    probe = level_2tau(1)
    lvl = level_2tau(1)
    rep = me_cross(probe, lvl)
    # same family: every probe index collides exactly at its own tau: moving
    assert rep.has_moving
    assert rep.static_bad.is_empty


def test_me_cross_special_row_and_static_point():
    """The probe <m+3> meets the constant level <7> at probe index 4 only,
    for every tau: a special row. The constant probe <5> meets the level
    <tau+2> at tau = 3 only, for every probe index: a static point."""
    rep = me_cross(AscentLevel.make(Ordinal(0, 1), [Cell(AP(0, 1), node(Ramp(1, 3)))]),
                   constant_level(Ordinal(0, 1), node(7)))
    assert rep.special_rows == ((4, FULL_SET),)
    assert rep.static_bad.is_empty and not rep.has_moving
    rep = me_cross(constant_level(Ordinal(0, 1), node(5)),
                   AscentLevel.make(Ordinal(0, 1), [Cell(AP(0, 1), node(Ramp(1, 2)))]))
    assert rep.static_bad == finite_set({3})
    assert rep.special_rows == () and not rep.has_moving


@st.composite
def families_at(draw, height: Ordinal):
    """A level of the given height: one cell per residue of a step up to 4,
    templates with constant and ramp entries, up to three exceptions."""
    step = draw(st.integers(1, 4))
    cells = [Cell(AP(r, step), draw(nodes_of(height, ENTRIES))) for r in range(step)]
    exc = draw(st.dictionaries(st.integers(0, 12), nodes_of(height, st.integers(0, 9)),
                               max_size=3))
    return AscentLevel.make(height, cells, exc)


@st.composite
def cross_cases(draw):
    height = Ordinal(draw(st.integers(0, 1)), draw(st.integers(0, 3)))
    return draw(families_at(height)), draw(families_at(height))


def slot_classes(*levels: AscentLevel) -> int:
    """An upper bound on the coordinate classes two members of the levels
    can be compared on: per block the longest prefix plus the lcm of the
    tails, then the final stretch."""
    nodes = [c.template for f in levels for c in f.cells] + \
        [v for f in levels for _, v in f.exceptions]
    h = levels[0].height
    return h.n + sum(max(len(v.blocks[w].prefix) for v in nodes)
                     + math.lcm(*(len(v.blocks[w].tail) for v in nodes))
                     for w in range(h.w))


PROBES, TAUS = 64, 320


@settings(max_examples=150, deadline=None)
@given(cross_cases())
def test_me_cross_matches_window(case):
    """Against the window oracle: every reported row index collides with its
    whole row and every static index with some probe index; every other
    collision needs has_moving, and those number at most one per (level
    cell, slot class) plus one per level exception for each probe index
    (a slot with a ramp on the level side has one root position)."""
    probe, level = case
    rep = me_cross(probe, level)
    rows = dict(rep.special_rows)
    hits = cross_collisions(probe, level, set(range(PROBES)) | set(rows), TAUS)
    static = upset_window(rep.static_bad, TAUS)
    for i0, row in rows.items():
        assert upset_window(row, TAUS) <= hits[i0]
    for tau in static:
        assert any(tau in hits[i] for i in range(PROBES))
    moving_bound = slot_classes(probe, level) * len(level.cells) + len(level.exceptions)
    for i in range(PROBES):
        rest = hits[i] - static - upset_window(rows.get(i, EMPTY_SET), TAUS)
        assert not rest or rep.has_moving
        assert len(rest) <= moving_bound


# -- ascent paths ---------------------------------------------------------------

def bare_level(h: Ordinal) -> AscentLevel:
    """A level with no pieces: `covers` reads heights only."""
    return AscentLevel(h, (), ())


@pytest.mark.parametrize("start, covered", [(10, True), (4200, True), (4201, False)])
def test_covers_decides_from_rule_start(start, covered):
    """Explicit levels at 0..4199 and omega, with a block-0 rule from
    `start`: covered exactly when no height below the start is missing."""
    levels = {Ordinal(0, n): bare_level(Ordinal(0, n)) for n in range(4200)}
    levels[OMEGA] = bare_level(OMEGA)
    rule = TailRule(start, bare_level(Ordinal(0, start)), ())
    path = AscentPath.make(levels, {0: rule})
    assert path.covers(OMEGA) == covered
    assert path.covers(Ordinal(0, 4300)) == covered
    assert path.covers(Ordinal(0, 4199))


def test_covers_block_without_rule():
    """A block below eta's with no rule fails however many levels it lists;
    eta's own block needs only the heights up to eta."""
    levels = {Ordinal(w, n): bare_level(Ordinal(w, n)) for w, top in ((0, 5), (1, 3))
              for n in range(top)}
    path = AscentPath.make(levels)
    assert path.covers(Ordinal(0, 4))
    assert not path.covers(Ordinal(0, 5))
    assert not path.covers(OMEGA)
    with_rule = AscentPath.make(levels, {0: TailRule(5, bare_level(Ordinal(0, 5)), ())})
    assert with_rule.covers(Ordinal(1, 2))
    assert not with_rule.covers(Ordinal(1, 3))
    assert not with_rule.covers(Ordinal(2, 0))


@st.composite
def sparse_paths(draw):
    """Paths of bare levels at scattered heights below omega*3, with rules
    on some blocks."""
    heights = draw(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 8)), max_size=12))
    starts = draw(st.dictionaries(st.integers(0, 2), st.integers(0, 10), max_size=3))
    return AscentPath.make({Ordinal(*h): bare_level(Ordinal(*h)) for h in heights},
                           {w: TailRule(n, bare_level(Ordinal(w, n)), ()) for w, n in starts.items()})


@settings(max_examples=150, deadline=None)
@given(sparse_paths())
def test_source_matches_scan(path):
    """The height index answers as a scan of `levels` does, on listed heights,
    on heights a rule generates and on heights the path does not hold; a
    replaced level is found at its height, and a replaced or added level is
    listed as `make` lists it."""
    for w in range(4):
        for n in range(12):
            alpha = Ordinal(w, n)
            assert path.source(alpha) is scan_source(path, alpha)
    alpha = Ordinal(1, 5)
    lvl = bare_level(alpha)
    assert path.with_level(alpha, lvl).source(alpha) is lvl
    for alpha in [h for h, _ in path.levels] + [Ordinal(0, 0), Ordinal(1, 5), Ordinal(3, 11)]:
        lvl = bare_level(alpha)
        assert path.with_level(alpha, lvl) == AscentPath.make(path._by_height | {alpha: lvl},
                                                             dict(path.tails))


# -- graft and appends ----------------------------------------------------------

def test_graft_levels_matches_pointwise():
    low = level_2tau(1)
    high = AscentLevel.make(Ordinal(0, 2),
                            [Cell(AP(0, 1), SymNode((), (Ramp(2, 0), Ramp(2, 0))))],
                            {5: node(9, 9)})
    g = graft_levels(low, high)
    for tau in range(20):
        assert g.at(tau) == graft(low.at(tau), high.at(tau))


def test_standard_append():
    lvl = root_level()
    scheme = standard_append(lvl)
    nxt = lvl.append_entries(scheme)
    assert nxt.height == Ordinal(0, 1)
    for tau in (0, 1, 7):
        assert nxt.at(tau) == node(2 * tau)


def test_level_extensional_eq_across_decompositions():
    a = level_2tau(1)
    b = AscentLevel.make(Ordinal(0, 1), [
        Cell(AP(0, 2), SymNode((), (Ramp(4, 0),))),
        Cell(AP(1, 2), SymNode((), (Ramp(4, 2),))),
    ])
    assert level_extensional_eq(a, b)


# -- piecewise maps -------------------------------------------------------------

def test_identity_map():
    m = identity_map(EVENS)
    for k in (0, 2, 8):
        assert m.apply(k) == k
    assert m.is_injective()


def test_order_iso_evens_to_odds():
    m = order_iso(EVENS, ODDS)
    for n in range(16):
        assert m.apply(EVENS.nth(n)) == ODDS.nth(n)
    assert m.is_injective()
    inv = m.inverse()
    for n in range(16):
        assert inv.apply(ODDS.nth(n)) == EVENS.nth(n)


def test_order_iso_with_skip_and_patch():
    src = FULL_SET
    tgt = EVENS.difference(finite_set({2}))
    m = order_iso(src, tgt)
    got = [m.apply(n) for n in range(8)]
    assert got == [tgt.nth(n) for n in range(8)]


def test_level_reindex_matches_pointwise():
    lvl = AscentLevel.make(Ordinal(0, 1),
                           [Cell(AP(0, 1), SymNode((), (Ramp(2, 0),)))],
                           )
    sigma = order_iso(FULL_SET, ODDS)
    cells, exc = level_reindex(lvl, sigma)
    out = AscentLevel.make(Ordinal(0, 1), cells, exc)
    for i in range(24):
        assert out.at(i) == lvl.at(sigma.apply(i))


def test_level_reindex_routes_exceptions():
    lvl = AscentLevel.make(Ordinal(0, 1),
                           [Cell(AP(1, 1), SymNode((), (Ramp(2, 2),)))],
                           {0: node(9)})
    sigma = PiecewiseMap.from_dict({5: 0, 6: 3})
    cells, exc = level_reindex(lvl, sigma)
    assert not cells
    d = dict(exc)
    assert d[5] == node(9)
    assert d[6] == lvl.at(3)


@st.composite
def index_sets(draw, infinite: bool = False):
    """A set of indices: a period dividing 12, a threshold below 12, random
    residues (at least one when infinite) and a random patch below the
    threshold, whose members become the single points of a split."""
    p = draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    t = draw(st.integers(0, 11))
    residues = draw(st.frozensets(st.integers(0, p - 1), min_size=int(infinite)))
    low = draw(st.frozensets(st.integers(0, t - 1))) if t else frozenset()
    return UPSet.make(t, p, residues, low)


@st.composite
def index_maps(draw):
    """An injective map: order_iso between two infinite sets (points below
    the stable rank, pieces above), identity_map of a set, or an order_iso
    cut down by restrict_map (more points)."""
    kind = draw(st.sampled_from(["iso", "identity", "restricted"]))
    if kind == "identity":
        return identity_map(draw(index_sets()))
    m = order_iso(draw(index_sets(True)), draw(index_sets(True)), draw(st.integers(0, 3)))
    return m if kind == "iso" else restrict_map(m, draw(index_sets()))


WINDOW = 80
MAPS = settings(max_examples=120, deadline=None)


@MAPS
@given(index_maps(), index_sets())
def test_restrict_map_matches_window(m, dom):
    want = {k: v for k, v in map_window(m, range(WINDOW)).items() if k in dom}
    assert map_window(restrict_map(m, dom), range(WINDOW)) == want


@MAPS
@given(st.integers(0, 3).flatmap(lambda n: families_at(Ordinal(0, n))), index_sets())
def test_restrict_level_domain_matches_window(level, dom):
    full = fragments_window(level.cells, level.exceptions, range(WINDOW))
    cells, exc = restrict_level_domain(level, dom)
    assert fragments_window(cells, exc, range(WINDOW)) == {
        k: v for k, v in full.items() if k in dom}


@MAPS
@given(st.integers(0, 3).flatmap(lambda n: families_at(Ordinal(0, n))), index_maps())
def test_level_reindex_matches_window(level, sigma):
    """i -> level(sigma(i)) on random levels with exceptions."""
    cells, exc = level_reindex(level, sigma)
    assert fragments_window(cells, exc, range(WINDOW)) == reindex_window(
        level, sigma, range(WINDOW))


# -- identity fast paths --------------------------------------------------------

@MAPS
@given(st.integers(0, 3).flatmap(lambda n: families_at(Ordinal(0, n))),
       st.integers(0, 3), st.integers(1, 3), st.data())
def test_cell_on_matches_window(level, p, q, data):
    """A cell re-based onto its own progression is itself; onto a proper
    sub-progression (every q-th member from the p-th) it holds the nodes
    that reindexing the level along the identity on that progression gives."""
    c = data.draw(st.sampled_from(level.cells))
    assert c.on(c.ap) is c
    if (p, q) == (0, 1):
        p = 1
    ap = AP(c.ap.member(p), c.ap.step * q)
    sub = c.on(ap)
    assert sub.ap == ap
    assert fragments_window([sub], (), range(WINDOW)) == reindex_window(
        level, identity_map(ap.upset()), range(WINDOW))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2).flatmap(lambda w: st.integers(0, 3).map(lambda n: Ordinal(w, n)))
       .flatmap(lambda h: st.tuples(nodes_of(h, ENTRIES), nodes_of(h, ENTRIES))),
       st.booleans())
def test_agree_positions_matches_window(pair, equal):
    """The positions where two templates agree, against instantiating both
    at each position of a window: equal templates (the fast path) agree at
    all, others at all, one or none. Roots of the affine entries lie below
    10, so the window decides the verdict."""
    u, v = pair
    if equal:
        v = SymNode(u.blocks, u.final)
    got = _agree_positions(u, v)
    agree = agree_window(u, v, 32)
    if agree == set(range(32)):
        assert got == ("all", 0)
    elif len(agree) == 1:
        assert got == ("one", agree.pop())
    else:
        assert not agree and got == ("none", 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.integers(0, 20), st.integers(1, 6), st.integers(0, 20))
def test_me_family_witness_on_two_ramps(a1, b1, a2, b2):
    """Two ramp cells collide iff their value progressions meet, and the
    reported pair holds the least shared value, one index from each cell.
    That value is below max(b1, b2) + lcm(a1, a2), so the window of 128
    indices holds every position it can sit at."""
    lvl = AscentLevel.make(Ordinal(0, 1), [Cell(AP(0, 2), SymNode((), (Ramp(a1, b1),))),
                                           Cell(AP(1, 2), SymNode((), (Ramp(a2, b2),)))])
    value = {k: v.eval_at(Ordinal(0, 0)) for k, v in fragments_window(
        lvl.cells, lvl.exceptions, range(128)).items()}
    shared = {v for k, v in value.items() if k % 2 == 0} & {v for k, v in value.items() if k % 2}
    rep = me_family(lvl)
    assert rep.ok == (not shared)
    if shared:
        import re
        i1, i2 = map(int, re.search(r"indices (\d+),(\d+) share a value at \(0,0\)",
                                    rep.detail).groups())
        assert {i1 % 2, i2 % 2} == {0, 1}
        assert value[i1] == value[i2] == min(shared)


# -- the collision kernel against all pairs ----------------------------------------

@st.composite
def value_pieces(draw):
    """(block, value piece) lists of the shapes `_value_pieces` and
    `_last_entry_pieces` make, with few values so that they repeat: points
    (some on one key), constant cells (a same-piece hit), and ramps whose
    offsets often meet the constants."""
    out = []
    for _ in range(draw(st.integers(0, 9))):
        w = draw(st.integers(0, 2))
        kind = draw(st.sampled_from(["point", "point", "point", "const", "ramp", "ramp"]))
        if kind == "point":
            out.append((w, ("point", draw(st.integers(0, 6)), 0, draw(st.integers(0, 12)))))
        else:
            ap = AP(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
            a = 0 if kind == "const" else draw(st.integers(1, 4))
            out.append((w, ("cell", ap, a, draw(st.integers(0, 12)))))
    return out


@settings(max_examples=150, deadline=None)
@given(value_pieces())
def test_first_collision_matches_all_pairs(pieces):
    from ascentlab.ascent import _first_collision
    assert _first_collision(pieces) == all_pairs_collision(pieces)


@pytest.mark.parametrize("pieces, pair", [
    # repeated values: the first point meets the last one, not its neighbour
    ([(0, ("point", 0, 0, 5)), (0, ("point", 1, 0, 6)), (0, ("point", 2, 0, 5))], ((0, 0), (0, 2))),
    # a ramp b + a*m meets a constant c only when c >= b and a divides c - b
    ([(0, ("cell", AP(0, 2), 3, 4)), (0, ("point", 1, 0, 2)), (0, ("point", 3, 0, 8)),
      (0, ("point", 5, 0, 10))], ((0, 4), (0, 5))),
    # a constant before a ramp: the pair keeps the constant first
    ([(1, ("point", 7, 0, 9)), (0, ("cell", AP(1, 1), 2, 1))], ((1, 7), (0, 5))),
    # several blocks: one key value in two blocks is two keys
    ([(0, ("point", 3, 0, 1)), (1, ("point", 3, 0, 1))], ((0, 3), (1, 3))),
    # the same key listed twice is no collision
    ([(0, ("point", 3, 0, 1)), (0, ("point", 3, 0, 1))], None),
    # a constant cell meets itself before any later piece
    ([(0, ("point", 0, 0, 4)), (0, ("cell", AP(2, 3), 0, 7)), (0, ("point", 9, 0, 4))],
     ((0, 0), (0, 9))),
    ([(0, ("cell", AP(2, 3), 0, 7)), (0, ("point", 9, 0, 7))], ((0, 2), (0, 5))),
])
def test_first_collision_witness(pieces, pair):
    from ascentlab.ascent import _first_collision
    assert _first_collision(pieces) == all_pairs_collision(pieces) == pair


# -- clause C2 ------------------------------------------------------------------

def test_c2_fixture_passes_both_kinds():
    from ascentlab.conditions import S_THETA, S_X, check_condition
    c = tower(3)
    assert clause(check_condition(c, S_X), "C2")
    assert clause(check_condition(c, S_THETA), "C2")


def test_c2_bad_extension_fails_exclusivity():
    from ascentlab.conditions import S_THETA, S_X, check_condition, make_bad_extension
    bad = make_bad_extension(tower(1, "stheta"))
    rep = check_condition(bad, S_X)
    assert not clause(rep, "C2")
    assert any(v.startswith("clause C2") and "not mutually exclusive" in v
               for v in rep.violations)
    assert clause(check_condition(bad, S_THETA), "C2")


def test_c2_single_level_vacuous():
    from ascentlab.conditions import S_THETA, S_X, check_condition, root_condition
    c = root_condition()
    assert clause(check_condition(c, S_THETA), "C2")
    assert clause(check_condition(c, S_X), "C2")


def test_supp_brute_sweep_1000():
    rng = random.Random(77)
    for _ in range(1000):
        h = rng.randrange(1, 4)
        cells = [Cell(AP(0, 2), SymNode((), tuple(
            Ramp(2, 0) if rng.random() < 0.5 else rng.randrange(5) for _ in range(h)))),
            Cell(AP(1, 2), SymNode((), tuple(
                Ramp(4, 1) if rng.random() < 0.5 else rng.randrange(5) for _ in range(h))))]
        exc = {6: node(*[rng.randrange(5) for _ in range(h)])} if rng.random() < 0.4 else {}
        f = AscentLevel.make(Ordinal(0, h), cells, exc)
        g_h = h + rng.randrange(0, 2)
        g = AscentLevel.make(Ordinal(0, g_h),
                             [Cell(AP(0, 1), SymNode((), tuple(Ramp(2, 0) for _ in range(g_h))))])
        window = 4 * max(c.ap.step for c in f.cells) + 16
        assert upset_window(supp(f, g), window) == brute_supp(f, g, window)


def test_supp_limit_domain_levels():
    # levels at limit heights: comparability decided on the block words
    from ascentlab.foundations import OMEGA
    from ascentlab.nodes import BlockWord
    f = AscentLevel.make(OMEGA, [Cell(AP(0, 1), SymNode((BlockWord.make((), (Ramp(2, 0),)),), ()))])
    g = AscentLevel.make(Ordinal(1, 1),
                         [Cell(AP(0, 1), SymNode((BlockWord.make((), (Ramp(2, 0),)),), (Ramp(2, 0),)))],
                         {3: SymNode((BlockWord.make((9,), (6,)),), (77,))})
    s = supp(f, g)
    for tau in range(24):
        expected = g.at(tau).restrict(OMEGA) == f.at(tau)
        assert (tau in s) == expected, tau


HEIGHTS = [Ordinal(w, n) for w in range(3) for n in range(4)]


@st.composite
def supp_cases(draw):
    """(f, g) with f.height <= g.height, in three cases: f cuts into one of
    g's omega-blocks (f has a finite stretch in a block g completes), f at
    any lower height, or both at one height. g is a random level of its
    height with a lower level, f itself or an independent one, grafted under
    it, so that g's pieces agree with f's everywhere, at one position or
    nowhere; then up to three of g's indices get an exception node, the
    graft of f's node there or a random node."""
    case = draw(st.sampled_from(["cut", "lower", "equal"]))
    hi = Ordinal(draw(st.integers(1 if case == "cut" else 0, 2)), draw(st.integers(0, 3)))
    if case == "cut":
        lo = Ordinal(draw(st.integers(0, hi.w - 1)), draw(st.integers(1, 3)))
    elif case == "lower":
        lo = draw(st.sampled_from([h for h in HEIGHTS if h <= hi]))
    else:
        lo = hi
    f = draw(families_at(lo))
    under = f if draw(st.booleans()) else draw(families_at(lo))
    g = graft_levels(under, draw(families_at(hi)))
    patches = draw(st.dictionaries(st.integers(0, 12), st.tuples(
        st.booleans(), nodes_of(hi, st.integers(0, 9))), max_size=3))
    exc = g.exc_dict() | {k: graft(f.at(k), v) if keep else v
                          for k, (keep, v) in patches.items()}
    return f, AscentLevel.make(hi, g.cells, exc)


@settings(max_examples=200, deadline=None)
@given(supp_cases())
def test_supp_matches_restricted_formula(case):
    """supp pairs the lower level with the higher one in place; it equals
    the formula that restricts the higher level first, in either argument
    order, and the node-by-node window."""
    f, g = case
    s = supp(f, g)
    assert s == restricted_supp(f, g) == supp(g, f)
    assert upset_window(s, 64) == brute_supp(f, g, 64)


def test_me_family_periodic_slot_collision():
    from ascentlab.foundations import OMEGA
    from ascentlab.nodes import BlockWord
    # collision hides in the periodic tail: 4m on evens meets 2m' on odds
    bad = AscentLevel.make(OMEGA, [
        Cell(AP(0, 2), SymNode((BlockWord.make((Ramp(4, 0),), (7,)),), ())),
        Cell(AP(1, 2), SymNode((BlockWord.make((Ramp(2, 0),), (9,)),), ())),
    ])
    assert not me_family(bad).ok
    # range-separated ramps at every slot: exclusive
    good = AscentLevel.make(OMEGA, [
        Cell(AP(0, 2), SymNode((BlockWord.make((Ramp(4, 0),), (Ramp(8, 1),)),), ())),
        Cell(AP(1, 2), SymNode((BlockWord.make((Ramp(4, 2),), (Ramp(8, 5),)),), ())),
    ])
    assert me_family(good).ok


def test_supp_agreement_pinned_by_slot_conjunction():
    # comparability holds only where every slot's pin coincides
    f = AscentLevel.make(Ordinal(0, 2), [Cell(AP(0, 1), SymNode((), (Ramp(2, 0), 5)))])
    g = AscentLevel.make(Ordinal(0, 2), [Cell(AP(0, 1), SymNode((), (6, Ramp(1, 2))))])
    assert supp(f, g) == finite_set({3})
    g2 = AscentLevel.make(Ordinal(0, 2), [Cell(AP(0, 1), SymNode((), (6, Ramp(1, 7))))])
    assert supp(f, g2).is_empty


def test_me_family_deep_cross_cell_collision():
    # the first collision sits far out; the solver must climb to it
    lvl = AscentLevel.make(Ordinal(0, 1), [
        Cell(AP(0, 2), SymNode((), (Ramp(2, 100),))),
        Cell(AP(1, 2), SymNode((), (Ramp(3, 1),))),
    ])
    rep = me_family(lvl)
    assert not rep.ok
    import re
    i1, i2 = map(int, re.search(r"indices (\d+),(\d+)", rep.detail).groups())
    assert lvl.at(i1).eval_at(Ordinal(0, 0)) == lvl.at(i2).eval_at(Ordinal(0, 0))


# -- eventual equality ----------------------------------------------------------

SMALL = st.one_of(st.integers(0, 2), st.builds(Ramp, st.integers(1, 2), st.integers(0, 2)))


@st.composite
def eq_star_cases(draw):
    """Two levels of one successor or limit height, with exceptions. The
    second is drawn on its own, or is the first split by residue onto a
    finer step, with some cells and exceptions patched at one coordinate:
    the first (outside the deciding ones unless the height is 1) or the
    last of a successor height, or one in the top block's prefix at a
    limit."""
    h = draw(st.sampled_from([Ordinal(0, 1), Ordinal(0, 3), OMEGA, Ordinal(1, 2), Ordinal(2, 0)]))

    def level(step):
        cells = [Cell(AP(r, step), draw(nodes_of(h, SMALL))) for r in range(step)]
        exc = draw(st.dictionaries(st.integers(0, 12), nodes_of(h, st.integers(0, 2)), max_size=3))
        return AscentLevel.make(h, cells, exc)
    f = level(draw(st.integers(1, 3)))
    if draw(st.booleans()):
        return f, level(draw(st.integers(1, 3)))
    q = draw(st.integers(1, 3))
    eps = draw(st.sampled_from([Ordinal(0, 0), h.pred() if h.is_successor else Ordinal(h.w - 1, 5)]))
    cells = []
    for c in f.cells:
        for r in range(q):
            part = c.on(AP(c.ap.member(r), c.ap.step * q))
            if draw(st.booleans()):
                part = Cell(part.ap, node_patch(part.template, {eps: draw(SMALL)}))
            cells.append(part)
    exc = {k: node_patch(v, {eps: draw(st.integers(0, 2))}) if draw(st.booleans()) else v
           for k, v in f.exceptions}
    return f, AscentLevel.make(h, cells, exc)


@settings(max_examples=150, deadline=None)
@given(eq_star_cases())
def test_eq_star_set_matches_window(case):
    """eq_star_set against deciding f(tau) =* g(tau) node by node; both
    argument orders give the same set."""
    f, g = case
    got = eq_star_set(f, g)
    assert got == eq_star_set(g, f)
    assert upset_window(got, WINDOW) == eq_star_window(f, g, WINDOW)


def test_eq_star_set_of_different_heights_is_empty():
    assert eq_star_set(level_2tau(2), level_2tau(3)) == EMPTY_SET
    assert eq_star_set(root_level(), root_level()) == FULL_SET


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_slot_pairs_from_a_lower_bound(data):
    """_slot_pairs(u, v, low) yields the entry pairs of u and v at the
    coordinates from low on below u's domain, one per coordinate class: as
    a set, those read coordinate by coordinate over a window of every block
    (prefixes and tails of at most two entries repeat within 12)."""
    from ascentlab.ascent import _slot_pairs
    hv = Ordinal(data.draw(st.integers(0, 2)), data.draw(st.integers(0, 3)))
    wu = data.draw(st.integers(0, hv.w))
    hu = Ordinal(wu, data.draw(st.integers(0, hv.n if wu == hv.w else 3)))
    u, v = data.draw(nodes_of(hu, ENTRIES)), data.draw(nodes_of(hv, ENTRIES))
    low = Ordinal(data.draw(st.integers(0, hu.w + 1)), data.draw(st.integers(0, 6)))
    coords = [Ordinal(w, j) for w in range(hu.w) for j in range(12)] + \
        [Ordinal(hu.w, j) for j in range(hu.n)]
    want = {(u.entry_at(e), v.entry_at(e)) for e in coords if e >= low}
    assert set(_slot_pairs(u, v, low)) == want
    assert set(_slot_pairs(u, v, None)) == set(_slot_pairs(u, v, ZERO)) == \
        {(u.entry_at(e), v.entry_at(e)) for e in coords}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_value_at_reads_the_member(data):
    """value_at(tau, eps) is member tau's value at eps, for exception and
    cell indices alike."""
    h = Ordinal(data.draw(st.integers(0, 1)), data.draw(st.integers(1, 3)))
    f = data.draw(families_at(h))
    tau = data.draw(st.integers(0, 16))
    eps = Ordinal(data.draw(st.integers(0, h.w)), data.draw(st.integers(0, 5)))
    if eps < h:
        assert f.value_at(tau, eps) == f.at(tau).eval_at(eps)
