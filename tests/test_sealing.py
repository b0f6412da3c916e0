from itertools import product

import pytest
from hypothesis import given, settings

from ascentlab.foundations import EMPTY_SET, FULL_SET, Ordinal, ZERO, finite_set
from ascentlab.ascent import PiecewiseMap, supp
from ascentlab.conditions import S_X, check_condition, leq_s, one_step_extension
from ascentlab.fixtures import tower
from ascentlab.nodes import Ramp, graft, node
from ascentlab.sealing import (
    LimitDomainUnsupported, OracleHit, OracleMismatch, SealTriple,
    SealTripleInvalid, absorb_node, check_triple, identity_triple, seal_step,
    transposition_triple,
)
from ascentlab.trees import tree_contains
from oracles import preimage_window, upset_window
from test_ascent import index_maps, index_sets


def make_hit(mid_like, steps: int = 1, alpha=None) -> OracleHit:
    """Synthesize an oracle hit: extend by plain one-steps; the guarantee
    holds because the supports stay full."""
    sp = mid_like
    for _ in range(steps):
        sp = one_step_extension(sp, sp.eta)
    return OracleHit(sp, alpha if alpha is not None else sp.eta)


def run_seal(cond, triple, xi=1, hit_steps=1):
    """Drive seal_step with a synthesized legal hit on the intermediate step."""
    from ascentlab.sealing import build_intermediate
    mid = build_intermediate(cond, triple)
    hit = make_hit(mid, hit_steps)
    return seal_step(cond, triple, xi, hit)


# -- triples ---------------------------------------------------------------------

def test_identity_triple_checks():
    c = tower(3)
    assert check_triple(identity_triple(c), c)


def test_transposition_triple_checks():
    c = tower(2)
    t = transposition_triple(c, 1, 3)
    assert check_triple(t, c)
    # {1,3} is disjoint from X_1, so Y is in the ideal
    assert t.y == finite_set({1, 3})


def test_non_injection_rejected():
    c = tower(2)
    t = transposition_triple(c, 1, 3)
    broken = SealTriple(t.x_family, t.y, PiecewiseMap.from_dict({1: 3, 3: 3}))
    assert not check_triple(broken, c)
    # injective images, but two pieces whose domains overlap: not a function
    from ascentlab.ascent import MapPiece
    from ascentlab.foundations import AP, ODDS
    overlap = PiecewiseMap((MapPiece(AP(1, 4), 4, 1), MapPiece(AP(1, 2), 4, 3)))
    assert overlap.is_injective() and overlap.domain() == ODDS
    assert not check_triple(SealTriple(c.top, ODDS, overlap), c)


def test_triple_moving_off_y_rejected():
    c = tower(2)
    top = c.top
    from ascentlab.ascent import AscentLevel
    from ascentlab.nodes import node_patch
    # x moves coordinate 2 but Y = {1,3}
    fam = AscentLevel.make(c.eta, top.cells, {2: node_patch(top.at(3), {ZERO: 99})})
    bad = SealTriple(fam, finite_set({1, 3}), PiecewiseMap.from_dict({1: 3, 3: 1}))
    assert not check_triple(bad, c)


# -- sealing ---------------------------------------------------------------------

def test_seal_identity_triple():
    c = tower(2)
    out, alpha = run_seal(c, identity_triple(c), xi=1)
    assert leq_s(out, c)
    rep = check_condition(out, S_X)
    assert rep.ok, rep.violations
    # with Y empty the first guarantee covers the whole filter set
    assert c.x.entry(1).is_subset(supp(out.level(alpha), out.top))


def test_seal_transposition_on_odds():
    c = tower(2)
    t = transposition_triple(c, 1, 3)
    out, alpha = run_seal(c, t, xi=1)
    assert leq_s(out, c)
    assert check_condition(out, S_X).ok
    assert c.x.entry(1).difference(t.y).is_subset(supp(out.level(alpha), out.top))


def test_seal_sweep_hypothesis_decides():
    """Towers 2-6, the identity and four transpositions, hit steps 0-2, xi
    0-2: seal_step raises SealTripleInvalid exactly when pi moves a point of
    X_xi ∩ Y out of X_xi, and otherwise returns a valid extension."""
    rejected = 0
    for k in range(2, 7):
        c = tower(k)
        triples = [identity_triple(c)] + [transposition_triple(c, a, b)
                                          for a, b in ((0, 1), (2, 3), (1, 5), (1, 3))]
        for t, xi, steps in product(triples, range(3), range(3)):
            xset = c.x.entry(xi)
            if all(t.pi.apply(tau) in xset for tau in t.y.members(16) if tau in xset):
                out, _ = run_seal(c, t, xi, steps)
                assert check_condition(out, S_X).ok and leq_s(out, c)
            else:
                rejected += 1
                with pytest.raises(SealTripleInvalid):
                    run_seal(c, t, xi, steps)
    assert rejected == 30


def test_seal_transposition_inside_x0():
    # Y = {2,6} meets X_0; pi maps X_0∩Y into X_0, so the absorption
    # guarantee is non-vacuous and checked pointwise
    c = tower(2)
    t = transposition_triple(c, 2, 6)
    out, alpha = run_seal(c, t, xi=0)
    assert check_condition(out, S_X).ok
    for tau in (2, 6):
        lhs = out.level(alpha).at(tau)
        rhs = graft(t.x_family.at(tau), out.top.at(t.pi.apply(tau)))
        assert rhs.restrict(lhs.dom) == lhs


def test_forged_hit_rejected():
    from ascentlab.ascent import AscentLevel, standard_append
    from ascentlab.conditions import extend_with_top, one_step_with
    c = tower(2)
    tri = identity_triple(c)
    # the identity triple's intermediate step is a plain one-step
    mid = one_step_with(c, c.top, standard_append(c.top))
    # reroute two filter coordinates: the guarantee support misses X_1
    top = mid.top
    swapped = AscentLevel.make(mid.eta, top.cells, {4: top.at(8), 8: top.at(4)})
    forged_cond = extend_with_top(mid, swapped.append_entries(standard_append(swapped)))
    with pytest.raises(OracleMismatch):
        seal_step(c, tri, 1, OracleHit(forged_cond, forged_cond.eta))


def test_hit_must_extend_intermediate():
    c = tower(2)
    # a condition whose third level used a different label scheme does not
    # extend the intermediate one-step
    stranger = tower(4, label_bases=[0, 0, 7, 0])
    with pytest.raises(OracleMismatch):
        seal_step(c, identity_triple(c), 1, OracleHit(stranger, Ordinal(0, 4)))


# -- absorption -------------------------------------------------------------------

def test_absorb_trivial_empty_node():
    c = tower(1)
    out, alpha, tau = absorb_node(c, node(), 1)
    assert out is c and alpha == ZERO
    assert tau in c.x.entry(1)


def test_absorb_simple_node():
    c = tower(1)
    out, alpha, tau = absorb_node(c, node(5), 1)
    assert tau == 4
    assert out.top.at(4) == node(5, 8)
    assert check_condition(out, S_X).ok
    assert leq_s(out, c)


def test_absorb_with_conflict_swap():
    c = tower(1)
    out, alpha, tau = absorb_node(c, node(0), 1)
    assert tau in c.x.entry(1)
    # the witness swallows the node, the conflicting slot took the witness's value
    assert out.top.at(tau).restrict(node(0).dom) == node(0)
    assert out.top.at(0) == node(2 * tau, 0)
    assert check_condition(out, S_X).ok


def test_absorb_limit_domain_rejected():
    from ascentlab.fixtures import uniform_chain
    from ascentlab.amalgam import amalgamate
    from ascentlab.nodes import const_node
    from ascentlab.foundations import OMEGA
    out, _ = amalgamate(uniform_chain(2, Ordinal(1, 2)))
    with pytest.raises(LimitDomainUnsupported):
        absorb_node(out, const_node(2, OMEGA), 1)


def test_absorb_random_nodes_sweep():
    import random
    rng = random.Random(21)
    for _ in range(40):
        c = tower(rng.randrange(1, 4))
        d = rng.randrange(1, c.eta.n + 1)
        t = node(*[rng.randrange(0, 12) for _ in range(d)])
        assert tree_contains(c.tree, t)
        xi = rng.randrange(0, 3)
        out, alpha, tau = absorb_node(c, t, xi)
        assert tau in c.x.entry(xi)
        assert out.top.at(tau).restrict(t.dom) == t
        assert tree_contains(out.tree, t)
        rep = check_condition(out, S_X)
        assert rep.ok, rep.violations


def test_seal_infinite_y_triple():
    # Y = all odds, pi the order shift on them; x copies the pi-image family
    from ascentlab.foundations import ODDS
    from ascentlab.ascent import fill_level, level_reindex, order_iso
    from ascentlab.sealing import build_intermediate
    c = tower(2)
    pi = order_iso(ODDS, ODDS, skip=1)
    cells, exc = level_reindex(c.top, pi)
    tri = SealTriple(fill_level(c.eta, cells, exc, c.top), ODDS, pi)
    assert check_triple(tri, c)
    mid = build_intermediate(c, tri)
    hit = one_step_extension(mid, mid.eta)
    out, alpha = seal_step(c, tri, 1, OracleHit(hit, hit.eta))
    assert check_condition(out, S_X).ok and leq_s(out, c)
    from ascentlab.ascent import supp
    assert c.x.entry(1).difference(ODDS).is_subset(supp(out.level(alpha), out.top))


@settings(max_examples=150, deadline=None)
@given(index_maps(), index_sets())
def test_pi_preimage_matches_window(pi, values):
    """The indices pi sends into `values`. The maps are mostly not
    involutions (order isomorphisms between unrelated sets), so taking the
    image through pi instead of its inverse shows."""
    from ascentlab.sealing import _pi_preimage
    window = range(80)
    assert upset_window(_pi_preimage(pi, values), 80) == preimage_window(pi, values, window)


# -- exact eventual equality and grafts --------------------------------------------

def test_triple_breaking_eq_star_past_the_samples_rejected():
    """x agrees with the top below 9 and copies it on the evens, but from 9
    on its odd members end in 2k+1 where top(k) ends in 2k: x_k =* top(pi(k))
    fails at k = 9, 11, ..., above the first members of Y and of pi's piece."""
    from ascentlab.ascent import AscentLevel, Cell, identity_map
    from ascentlab.foundations import AP, ODDS
    c = tower(2)
    top = c.top
    fam = AscentLevel.make(c.eta, [top.cells[0].on(AP(0, 2)),
                                   Cell(AP(9, 2), node(Ramp(4, 18), Ramp(4, 19)))],
                           {k: top.at(k) for k in (1, 3, 5, 7)})
    assert fam.at(9) == node(18, 19) and top.at(9) == node(18, 18)
    assert not check_triple(SealTriple(fam, ODDS, identity_map(ODDS)), c)


def test_intermediate_grafts_exceptions_inside_a_pi_cell():
    """The prescribed nodes at x's exceptions 1 and 3 lie inside the one
    cell of pi (the identity on the odds); the intermediate step still
    grafts them."""
    from ascentlab.ascent import AscentLevel, identity_map
    from ascentlab.foundations import ODDS
    from ascentlab.nodes import node_patch
    from ascentlab.sealing import build_intermediate
    c = tower(2)
    top = c.top
    fam = AscentLevel.make(c.eta, top.cells,
                           {k: node_patch(top.at(k), {ZERO: 1001 + 2 * k}) for k in (1, 3)})
    mid = build_intermediate(c, SealTriple(fam, ODDS, identity_map(ODDS)))
    for k in (1, 3):
        assert mid.top.at(k).restrict(c.eta) == fam.at(k)


def test_absorption_lost_past_the_samples_raises(monkeypatch):
    """Y the indices 2 mod 4 meets the filter set X_0 in all of Y. A routed
    top whose node at 22 (the sixth member of Y) takes a fresh label at the
    first routed coordinate breaks the absorption guarantee there only."""
    from ascentlab import sealing
    from ascentlab.ascent import identity_map
    from ascentlab.foundations import PostconditionFailed, UPSet
    from ascentlab.nodes import node_patch
    c = tower(2)
    y = UPSet.make(0, 4, frozenset({2}))
    tri = SealTriple(c.top, y, identity_map(y))
    mid = sealing.build_intermediate(c, tri)
    hit = one_step_extension(mid, mid.eta)
    route = sealing._route_pieces

    def corrupted(sigma, alpha_lvl, top_lvl):
        cells, exc = route(sigma, alpha_lvl, top_lvl)
        if 22 in sigma.domain():
            cell = next(cl for cl in cells if 22 in cl.ap)
            exc = exc + [(22, node_patch(cell.at(22), {c.eta: 10 ** 6 + 1}))]
        return cells, exc
    assert seal_step(c, tri, 0, OracleHit(hit, hit.eta))
    monkeypatch.setattr(sealing, "_route_pieces", corrupted)
    with pytest.raises(PostconditionFailed, match="absorption fails at 22"):
        seal_step(c, tri, 0, OracleHit(hit, hit.eta))
