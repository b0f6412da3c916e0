import pytest

from ascentlab.foundations import DEFAULT_X, EVENS, FULL_SET, OMEGA, Ordinal, XSequence, ZERO, multiples
from ascentlab.aposet import (
    THETA, AntichainReport, IncoherentIndex, NotLinked, PathDescriptor,
    Unrepresented, check_antichain, derive_branches, is_bad, leq_a,
)
from ascentlab.conditions import S_THETA
from ascentlab.fixtures import bad_path_conditions, tower, uniform_path
from ascentlab.nodes import const_node
from oracles import per_pair_antichain


def bad_demo_path(count: int = 3, pad: int = 1):
    conds, bads = bad_path_conditions(count, pad)
    return PathDescriptor(conds[-1]), bads


# -- the order -----------------------------------------------------------------

def test_leq_a_fixture_examples():
    p = uniform_path(4)
    assert leq_a(p, 0, Ordinal(0, 2), Ordinal(0, 5))
    assert leq_a(p, THETA, Ordinal(0, 2), Ordinal(0, 5))
    assert leq_a(p, 0, Ordinal(0, 3), Ordinal(0, 3))  # reflexive
    assert not leq_a(p, 0, Ordinal(0, 5), Ordinal(0, 2))  # order respects height


def test_leq_a_unrepresented():
    p = PathDescriptor(tower(2))
    with pytest.raises(Unrepresented):
        leq_a(p, THETA, ZERO, Ordinal(0, 9))


def test_leq_a_false_through_rerouted_coordinates():
    p, bads = bad_demo_path(1, pad=0)
    beta = bads[0]
    assert not leq_a(p, THETA, beta.pred(), beta)


def test_leq_a_xi_monotone_in_xi():
    p, bads = bad_demo_path(1, pad=0)
    beta = bads[0]
    # support misses {1}: still a filter superset, so xi-orders hold
    for xi in (0, 1, 2):
        assert leq_a(p, xi, beta.pred(), beta)


def test_leq_a_transitive_on_fixture():
    p = uniform_path(5)
    hs = [Ordinal(0, k) for k in (1, 3, 5)]
    assert leq_a(p, 1, hs[0], hs[1]) and leq_a(p, 1, hs[1], hs[2])
    assert leq_a(p, 1, hs[0], hs[2])


# -- badness -------------------------------------------------------------------

def test_is_bad_after_bad_extension():
    p, bads = bad_demo_path(1, pad=0)
    assert is_bad(p, bads[0])


def test_uniform_path_not_bad():
    # the families split already at coordinate 0, so no height above 1 is bad
    p = uniform_path(4)
    for n in (2, 3, 4):
        assert not is_bad(p, Ordinal(0, n))


def test_limit_not_bad():
    p = uniform_path(3)
    with pytest.raises(Unrepresented):
        is_bad(p, OMEGA)  # limit heights are off the finite path
    assert not is_bad(PathDescriptor(tower(2)), ZERO)


# -- antichain experiments -------------------------------------------------------

def test_bad_heights_pairwise_incompatible():
    p, bads = bad_demo_path(4, pad=1)
    rep = check_antichain(p, THETA, bads, p.base.eta)
    assert rep.all_incompatible
    assert len(rep.pairs) == 6
    for v in rep.pairs:
        assert "values at" in v.certificate


def mixed_points(bads):
    """The bad heights, the heights just below them (not bad), and 0."""
    return sorted(set(bads) | {b.pred() for b in bads} | {ZERO})


@pytest.mark.parametrize("count, variant, mixed", [
    (16, THETA, False), (4, THETA, True), (4, 0, True)])
def test_antichain_matches_per_pair_computation(count, variant, mixed):
    """Every verdict equals the one worked out pair by pair, on the bad
    heights and on points that include heights that are not bad, where
    pairs fall back to the bounded search."""
    p, bads = bad_demo_path(count)
    pts = mixed_points(bads) if mixed else bads
    rep = check_antichain(p, variant, pts, p.base.eta)
    assert list(rep.pairs) == per_pair_antichain(p, variant, pts, p.base.eta)
    if mixed and variant == THETA:
        assert {v.compatible for v in rep.pairs} == {True, False}


def test_antichain_decides_badness_once_per_point(monkeypatch):
    """is_bad runs once per point (16), not twice per pair (240)."""
    import ascentlab.aposet as aposet
    p, bads = bad_demo_path(16)
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return is_bad(*args)

    monkeypatch.setattr(aposet, "is_bad", counting)
    rep = check_antichain(p, THETA, bads, p.base.eta)
    assert len(rep.pairs) == 120 and rep.all_incompatible
    assert calls == 16


def test_singleton_antichain():
    p, bads = bad_demo_path(1, pad=0)
    rep = check_antichain(p, THETA, bads[:1], p.base.eta)
    assert rep.pairs == ()
    assert rep.all_incompatible


def test_comparable_heights_compatible():
    p = uniform_path(5)
    rep = check_antichain(p, 0, [Ordinal(0, 1), Ordinal(0, 3)], Ordinal(0, 5))
    assert not rep.all_incompatible
    v = rep.pairs[0]
    assert v.compatible and v.witness is not None


# -- branch derivation -----------------------------------------------------------

def test_derive_branches_uniform_fixture():
    p = uniform_path(4)
    fam = derive_branches(p, 0)
    assert fam.height == OMEGA
    assert fam.coherent == FULL_SET
    for n in (0, 1, 4):
        assert fam.branch(n) == const_node(2 * n, OMEGA)
    assert fam.me_report().ok


def test_derive_branches_restriction_matches_path():
    p = uniform_path(4)
    fam = derive_branches(p, 0)
    for alpha in [Ordinal(0, 2), Ordinal(0, 4)]:
        for n in (0, 2, 4):
            assert fam.branch(n).restrict(alpha) == p.level_at(alpha).at(n)


def test_derive_branches_not_linked():
    # reroute a filter-set coordinate in one step: the path loses its link
    from ascentlab.ascent import AscentLevel, standard_append
    from ascentlab.conditions import extend_with_top
    c = tower(2)
    below = AscentLevel.make(c.eta, c.top.cells, {4: c.top.at(5)})
    broken = extend_with_top(c, below.append_entries(standard_append(below)))
    p = PathDescriptor(broken)
    with pytest.raises(NotLinked):
        derive_branches(p, 1)


def test_derive_branches_incoherent_index():
    conds, _ = bad_path_conditions(1, 0)
    p = PathDescriptor(conds[-1])
    fam = derive_branches(p, 1)
    assert 1 not in fam.coherent
    with pytest.raises(IncoherentIndex):
        fam.branch(1)


def test_leq_a_monotone_in_xi():
    # the index sets decrease, so a relation witnessed at some index holds
    # at every larger index; a rerouted path separates the levels
    from ascentlab.ascent import AscentLevel, standard_append
    from ascentlab.conditions import extend_with_top
    c = tower(2)
    below = AscentLevel.make(c.eta, c.top.cells, {2: c.top.at(6)})
    broken = extend_with_top(c, below.append_entries(standard_append(below)))
    pb = PathDescriptor(broken)
    a, b = Ordinal(0, 2), Ordinal(0, 3)
    # support misses 2, which lies in X_0 but in no deeper set
    assert not leq_a(pb, 0, a, b)
    assert leq_a(pb, 1, a, b) and leq_a(pb, 2, a, b)
    p = uniform_path(4)
    for xi in (0, 1, 2):
        held = leq_a(p, xi, Ordinal(0, 1), Ordinal(0, 4))
        assert held
        for higher in range(xi, 3):
            assert leq_a(p, higher, Ordinal(0, 1), Ordinal(0, 4))


# -- the path's own X-sequence ------------------------------------------------------

OTHER_X = XSequence(multiples(3), 6)


def off_evens_path(x: XSequence) -> PathDescriptor:
    """tower(4) over x whose level 4 is the constant node 7 on the odds:
    levels 3 and 4 agree exactly on the evens, which hold DEFAULT_X's X_0
    but not OTHER_X's (the multiples of 3)."""
    from ascentlab.ascent import AP, Cell, fill_level
    from ascentlab.conditions import Condition
    c = tower(4, x=x)
    h = Ordinal(0, 4)
    lvl = fill_level(h, [Cell(AP(1, 2), const_node(7, h))], [], c.level(h))
    return PathDescriptor(Condition(c.tree, c.path.with_level(h, lvl), c.variant, x))


def test_leq_a_reads_the_path_x():
    a, b = Ordinal(0, 3), Ordinal(0, 4)
    assert leq_a(off_evens_path(DEFAULT_X), 0, a, b)
    assert not leq_a(off_evens_path(OTHER_X), 0, a, b)


def test_derive_branches_reads_the_path_x():
    assert derive_branches(off_evens_path(DEFAULT_X), 0).coherent == EVENS
    with pytest.raises(NotLinked, match="heights 3,4 not linked at index 0"):
        derive_branches(off_evens_path(OTHER_X), 0)


@pytest.mark.parametrize("x, linked", [(DEFAULT_X, True), (OTHER_X, False)],
                         ids=["default-x", "other-x"])
def test_antichain_matches_per_pair_computation_over_the_path_x(x, linked):
    p = off_evens_path(x)
    pts = [Ordinal(0, k) for k in range(5)]
    rep = check_antichain(p, 0, pts, p.base.eta)
    assert list(rep.pairs) == per_pair_antichain(p, 0, pts, p.base.eta)
    top_pair = next(v for v in rep.pairs if (v.a, v.b) == (Ordinal(0, 3), Ordinal(0, 4)))
    assert top_pair.compatible is linked
