import pytest
from hypothesis import example, given, settings, strategies as st

from ascentlab.foundations import AP, OMEGA, Ordinal
from ascentlab.ascent import Cell
from ascentlab.nodes import BlockWord, EMPTY_NODE, Ramp, SymNode, const_node, node
from ascentlab.trees import (
    ROOT_TREE, BranchCatalog, CatalogFamily, CatalogSingle, NoCatalog,
    SymTree, check_tree, family_in_tree, tree_contains, vanishing_levels,
)
from oracles import brute_family_in_tree, stepwise_tree_contains

PROPERTY = settings(max_examples=200, deadline=None)


def appended_tree(levels: int) -> SymTree:
    """Root plus `levels` full append levels."""
    return SymTree.make(Ordinal(0, levels + 1))


def simple_limit_tree() -> SymTree:
    """Height omega+1 tree: appends below, top level generated by the
    constant-2tau branch family plus one admitted and one excluded odd branch."""
    fam = CatalogFamily((Cell(AP(0, 1), const_node(Ramp(2, 0), OMEGA)),))
    z = CatalogSingle("z:w+1", const_node(17, OMEGA), admitted=True)
    y = CatalogSingle("y", const_node(9, OMEGA), admitted=False)
    cat = BranchCatalog((fam,), (z, y))
    return SymTree.make(Ordinal(1, 1), catalogs={OMEGA: cat})


# -- membership ---------------------------------------------------------------

def test_root_tree_membership():
    assert tree_contains(ROOT_TREE, EMPTY_NODE)
    assert not tree_contains(ROOT_TREE, node(0))


def test_append_level_membership():
    t1 = appended_tree(1)
    assert tree_contains(t1, node(17))
    assert not tree_contains(t1, node(0, 0))
    t3 = appended_tree(3)
    assert tree_contains(t3, node(5, 0, 2))


def test_limit_membership_via_catalog():
    t = simple_limit_tree()
    # branch instances themselves
    assert tree_contains(t, const_node(4, OMEGA))       # family at tau=2
    assert tree_contains(t, const_node(17, OMEGA))      # admitted single
    assert not tree_contains(t, const_node(9, OMEGA))   # excluded branch
    # graft of a lower node onto an admitted branch
    g = SymNode((BlockWord.make((7, 7), (4,)),), ())  # 7, 7 then constant 4
    assert tree_contains(t, g)
    # eventually equal to the excluded branch only: outside
    bad = SymNode((BlockWord.make((7, 7), (9,)),), ())
    assert not tree_contains(t, bad)


def test_missing_catalog_raises():
    t = SymTree.make(Ordinal(1, 1))
    with pytest.raises(NoCatalog):
        tree_contains(t, const_node(3, OMEGA))


# -- structure checks ----------------------------------------------------------

def test_root_tree_all_flags():
    rep = check_tree(ROOT_TREE)
    assert rep.ok and rep.successor_height


def test_append_tower_all_flags():
    rep = check_tree(appended_tree(3))
    assert rep.ok


def test_normality_failure_example():
    # {∅, <0>, <0,0>} ∪ {<1>}: <1> has no extension to level 2
    t = SymTree.make(Ordinal(0, 3), explicit={
        Ordinal(0, 1): (node(0), node(1)),
        Ordinal(0, 2): (node(0, 0),),
    })
    rep = check_tree(t)
    assert not rep.normal
    assert rep.downward_closed


def test_uniform_homogeneity_failure_example():
    # levels {∅}, {<0>,<1>}, {<0,1>,<1,0>}: <0>*<1,0> = <0,0> missing
    t = SymTree.make(Ordinal(0, 3), explicit={
        Ordinal(0, 1): (node(0), node(1)),
        Ordinal(0, 2): (node(0, 1), node(1, 0)),
    })
    rep = check_tree(t)
    assert not rep.uniformly_homogeneous


def test_limit_tree_structure():
    rep = check_tree(simple_limit_tree())
    assert rep.ok


# -- vanishing levels ----------------------------------------------------------

def test_finite_tree_has_no_vanishing_levels():
    rep = vanishing_levels(appended_tree(3), "full")
    assert rep.levels == frozenset()


def test_limit_tree_vanishing_both_modes():
    t = simple_limit_tree()
    full = vanishing_levels(t, "full")
    hom = vanishing_levels(t, "homogeneous")
    assert full.levels == hom.levels == frozenset({OMEGA})
    assert full.top_limit_in is True


def test_corrupted_catalog_modes_disagree():
    # the "excluded" branch is eventually equal to an admitted one: the flag
    # says vanishing but the grafts are all inside the tree
    fam = CatalogFamily((Cell(AP(0, 1), const_node(Ramp(2, 0), OMEGA)),))
    fake = CatalogSingle("y", SymNode((BlockWord.make((1,), (6,)),), ()), admitted=False)
    t = SymTree.make(Ordinal(1, 1), catalogs={OMEGA: BranchCatalog((fam,), (fake,))})
    assert OMEGA in vanishing_levels(t, "homogeneous").levels
    assert OMEGA not in vanishing_levels(t, "full").levels


def test_tree_contains_matches_enumeration_small():
    import itertools
    # all nodes of height <= 3 with labels < 16 against an append tower and
    # an explicit fixture
    t3 = appended_tree(3)
    fixture = SymTree.make(Ordinal(0, 3), explicit={
        Ordinal(0, 1): (node(0), node(1)),
        Ordinal(0, 2): (node(0, 0), node(1, 1)),
    })
    for depth in range(4):
        for entries in itertools.product(range(16), repeat=depth):
            s = node(*entries)
            assert tree_contains(t3, s)
            expected = (depth == 0
                        or (depth == 1 and entries[0] in (0, 1))
                        or (depth == 2 and entries in ((0, 0), (1, 1))))
            assert tree_contains(fixture, s) == expected, entries


# -- one restrict per block, and exact family membership ---------------------------

LABELS = st.integers(0, 3)
ENTRIES = st.one_of(LABELS, st.builds(Ramp, st.integers(1, 2), st.integers(0, 3)))


def nodes_at(height: Ordinal, entries=LABELS):
    """Nodes of the given height (at most one complete block)."""
    words = st.builds(BlockWord.make, st.lists(entries, max_size=2),
                      st.lists(entries, min_size=1, max_size=2))
    return st.builds(SymNode, st.tuples(*[words] * height.w),
                     st.tuples(*[entries] * height.n))


@st.composite
def limit_catalogs(draw):
    fams = tuple(CatalogFamily(tuple(Cell(AP(0, 1), t) for t in draw(
        st.lists(nodes_at(OMEGA, ENTRIES), min_size=1, max_size=2))), draw(st.booleans()))
        for _ in range(draw(st.integers(0, 2))))
    singles = tuple(CatalogSingle(f"s{i}", draw(nodes_at(OMEGA)), draw(st.booleans()))
                    for i in range(draw(st.integers(0, 2))))
    return BranchCatalog(fams, singles)


@st.composite
def sparse_trees(draw):
    """Trees with explicit levels at random finite and omega+n heights and,
    past omega, a random catalog; neither normal nor homogeneous in general."""
    height = draw(st.sampled_from([Ordinal(0, k) for k in range(1, 7)]
                                  + [Ordinal(1, k) for k in range(1, 5)]))
    explicit = {}
    for h in draw(st.sets(st.sampled_from([Ordinal(0, n) for n in range(1, 6)]
                                          + [Ordinal(1, n) for n in range(1, 4)]), max_size=3)):
        if h < height:
            explicit[h] = tuple(draw(st.lists(nodes_at(h), min_size=1, max_size=4)))
    catalogs = {OMEGA: draw(limit_catalogs())} if height > OMEGA else {}
    return SymTree.make(height, explicit, catalogs)


@st.composite
def trees_and_nodes(draw):
    """A tree and a node drawn from one of its explicit levels, perturbed,
    extended, or made up."""
    tree = draw(sparse_trees())
    listed = [v for _, nodes in tree.explicit for v in nodes]
    heights = [h for h in [Ordinal(0, n) for n in range(7)] + [Ordinal(1, n) for n in range(5)]
               if h <= tree.height]
    s = draw(st.sampled_from(listed)) if listed and draw(st.booleans()) \
        else draw(nodes_at(draw(st.sampled_from(heights))))
    if s.final and draw(st.booleans()):
        j = draw(st.integers(0, len(s.final) - 1))
        s = SymNode(s.blocks, s.final[:j] + (draw(LABELS),) + s.final[j + 1:])
    for e in draw(st.lists(LABELS, max_size=2)):
        s = s.append(e)
    return tree, s


# Level 1 is {<0>} and T = [m+1, 2m | (2,0)*] an admitted omega-family: all
# instances of T are eventually equal, T(1) is a member through its own
# branch (threshold 0), and T(0)'s threshold puts <2,2> at level 2, outside.
# S = [m+1 | (0)*] is T'(m+1) for the admitted T' = [m | (0)*], whose generic
# instances put <m+1> at level 1, outside. With levels 1 = {<1>} and
# 2 = {<1,1>}, U = [1, m+1 | (0)*] is in through T''(m+1) for the admitted
# T'' = [9, m | (0)*] (threshold 1, <1>), though not through the generic
# instances of T'' (threshold 2, <1, m+1>) for m > 0.
ONE_ZERO = {Ordinal(0, 1): (node(0),)}
T_RAMPS = SymNode((BlockWord.make((Ramp(1, 1), Ramp(2, 0)), (2, 0)),), ())
T_SHIFT = SymNode((BlockWord.make((Ramp(1, 0),), (0,)),), ())
S_SHIFT = SymNode((BlockWord.make((Ramp(1, 1),), (0,)),), ())
ONE_ONE = {Ordinal(0, 1): (node(1),), Ordinal(0, 2): (node(1, 1),)}
T_NINE = SymNode((BlockWord.make((9, Ramp(1, 0)), (0,)),), ())
U_ONE = SymNode((BlockWord.make((1, Ramp(1, 1)), (0,)),), ())


def one_family_tree(t: SymNode, explicit=ONE_ZERO) -> SymTree:
    cat = BranchCatalog((CatalogFamily((Cell(AP(0, 1), t),)),))
    return SymTree.make(Ordinal(1, 1), explicit, {OMEGA: cat})


@PROPERTY
@given(trees_and_nodes())
@example((one_family_tree(T_RAMPS), T_RAMPS.instantiate(1)))
@example((one_family_tree(T_SHIFT), S_SHIFT.instantiate(3)))
@example((one_family_tree(T_NINE, ONE_ONE), U_ONE.instantiate(4)))
def test_tree_contains_matches_stepwise(case):
    tree, s = case
    assert tree_contains(tree, s) == stepwise_tree_contains(tree, s)


@st.composite
def trees_and_templates(draw):
    tree = draw(sparse_trees())
    heights = [h for h in [Ordinal(0, n) for n in range(6)] + [Ordinal(1, n) for n in range(4)]
               if h <= tree.height]
    return tree, draw(nodes_at(draw(st.sampled_from(heights)), ENTRIES))


@PROPERTY
@given(trees_and_templates())
@example((one_family_tree(T_RAMPS), T_RAMPS))
@example((one_family_tree(T_SHIFT), S_SHIFT))
@example((one_family_tree(T_NINE, ONE_ONE), U_ONE))
def test_family_in_tree_matches_members(case):
    """Labels and ramp constants below 4 keep every exceptional position and
    every class modulus of the generic argument far below 64."""
    tree, tmpl = case
    cells = [Cell(AP(0, 1), tmpl)]
    assert family_in_tree(tree, cells, ()) == brute_family_in_tree(tree, cells, ())


def test_family_member_through_its_own_branch():
    """Every instance of a family whose instances are all eventually equal
    is a member through its own branch, though the threshold against
    another instance restricts it outside the tree."""
    tree = one_family_tree(T_RAMPS)
    assert all(tree_contains(tree, T_RAMPS.instantiate(m)) for m in range(8))
    assert not tree_contains(tree, node(2, 2))
    assert family_in_tree(tree, [Cell(AP(0, 1), S_SHIFT)], ()) is False
    tree = one_family_tree(T_SHIFT)
    assert family_in_tree(tree, [Cell(AP(0, 1), S_SHIFT)], ())
    assert not tree_contains(tree, node(1))
    tree = one_family_tree(T_NINE, ONE_ONE)
    assert family_in_tree(tree, [Cell(AP(0, 1), U_ONE)], ())
    assert not tree_contains(tree, node(1, 5))


def test_reindexed_admitted_template_exit(monkeypatch):
    """A template that is an admitted family's template at the positions
    2m + 1 is in the tree without a threshold; one that differs from it at
    one constant is not taken by the exit."""
    from ascentlab import trees
    tree = one_family_tree(T_SHIFT)

    def no_thresholds(s, cat):
        raise AssertionError("threshold computed")
    monkeypatch.setattr(trees, "_admitted_thresholds", no_thresholds)
    assert family_in_tree(tree, [Cell(AP(0, 1), T_SHIFT.reindex(2, 1))], ())
    with pytest.raises(AssertionError, match="threshold computed"):
        family_in_tree(tree, [Cell(AP(0, 1), U_ONE)], ())


def test_admitted_single_exit(monkeypatch):
    """A node equal to an admitted single, the very object or an equal copy,
    is a member without a threshold; a non-admitted single and a family
    instance are not taken by the exit."""
    from ascentlab import trees
    t = simple_limit_tree()
    cat = t.catalog_at(OMEGA)
    single = cat.singles[0].node
    assert trees._admitted_single(cat, single)
    assert trees._admitted_single(cat, const_node(17, OMEGA))
    assert not trees._admitted_single(cat, const_node(9, OMEGA))
    assert not trees._admitted_single(cat, const_node(4, OMEGA))

    def no_thresholds(s, cat):
        raise AssertionError("threshold computed")
    monkeypatch.setattr(trees, "_admitted_thresholds", no_thresholds)
    assert tree_contains(t, single) and tree_contains(t, const_node(17, OMEGA))
    with pytest.raises(AssertionError, match="threshold computed"):
        tree_contains(t, const_node(4, OMEGA))


def test_family_ramp_at_explicit_height_is_outside():
    """Level 1 is {<0>}: the cell <m> has <1> outside, at the family's own
    height."""
    tree = SymTree.make(Ordinal(0, 2), explicit={Ordinal(0, 1): (node(0),)})
    assert not tree_contains(tree, node(1))
    assert not family_in_tree(tree, [Cell(AP(0, 1), node(Ramp(1, 0)))], ())


def test_family_ramp_below_explicit_height_is_outside():
    """Level 1 is {<0>,<1>,<2>,<7>}: the template <m,5> has <3,5> outside,
    which no sample of m in {0,1,2,7} meets."""
    tree = SymTree.make(Ordinal(0, 3), explicit={
        Ordinal(0, 1): (node(0), node(1), node(2), node(7))})
    assert not tree_contains(tree, node(3, 5))
    assert not family_in_tree(tree, [Cell(AP(0, 1), node(Ramp(1, 0), 5))], ())


def test_family_at_limit_follows_catalog_family():
    """Every <2m+2 repeated> is a catalog branch <2p repeated> at p = m+1;
    the odd branches <2m+1 repeated> match nothing."""
    tree = simple_limit_tree()
    assert family_in_tree(tree, [Cell(AP(0, 1), const_node(Ramp(2, 2), OMEGA))], ())
    assert not family_in_tree(tree, [Cell(AP(0, 1), const_node(Ramp(2, 1), OMEGA))], ())


def test_family_at_limit_checks_its_last_root_instance():
    """The catalog admits the constant branches 5, 6 and 7. The template
    <m+5 repeated> meets them at the roots m = 0, 1, 2 only, so the
    instances m <= 2 lie in the tree and m = 3 on do not: the instance at
    the last root is checked one by one, never taken as the generic
    instance past it."""
    cat = BranchCatalog((), tuple(CatalogSingle(f"c{v}", const_node(v, OMEGA)) for v in (5, 6, 7)))
    tree = SymTree.make(Ordinal(1, 1), catalogs={OMEGA: cat})
    cells = [Cell(AP(0, 1), const_node(Ramp(1, 5), OMEGA))]
    assert [tree_contains(tree, const_node(5 + m, OMEGA)) for m in range(4)] == [True] * 3 + [False]
    assert not family_in_tree(tree, cells, ())
    assert not brute_family_in_tree(tree, cells, ())
