import random

import pytest

from ascentlab.foundations import BadHeight, Ordinal, ZERO, OMEGA
from ascentlab import serialize as sz
from ascentlab.nodes import (
    EMPTY_NODE, BlockWord, Ramp, SymNode, const_node, delta, eq_star,
    eq_star_threshold, eval_at, graft, is_prefix, mutually_exclusive, node, node_patch, restrict,
)
from oracles import brute_delta, brute_eq_star, brute_me, walk_concrete


def rand_node(rng: random.Random, max_blocks: int = 2) -> SymNode:
    blocks = []
    for _ in range(rng.randrange(0, max_blocks + 1)):
        pre = [rng.randrange(0, 6) for _ in range(rng.randrange(0, 4))]
        tl = [rng.randrange(0, 6) for _ in range(rng.randrange(1, 4))]
        blocks.append(BlockWord.make(pre, tl))
    final = tuple(rng.randrange(0, 6) for _ in range(rng.randrange(0, 5)))
    return SymNode(tuple(blocks), final)


# -- representation ----------------------------------------------------------

def test_blockword_canonical():
    assert BlockWord.make((), (3, 3)) == BlockWord.make((), (3,))
    assert BlockWord.make((1, 2), (2,)) == BlockWord.make((1,), (2,))
    w = BlockWord.make((7,), (1, 2))
    assert [w.eval(j) for j in range(5)] == [7, 1, 2, 1, 2]


def test_node_equality_is_extensional():
    a = SymNode((BlockWord.make((3,), (3,)),), ())
    b = const_node(3, OMEGA)
    assert a == b


def test_eval_and_domains():
    s = node(4, 5, 6)
    assert s.dom == Ordinal(0, 3)
    assert eval_at(s, Ordinal(0, 1)) == 5
    assert eval_at(const_node(3, OMEGA), Ordinal(0, 1000)) == 3
    s2 = SymNode((BlockWord.make((7,), (1, 2)),), ())
    assert eval_at(s2, Ordinal(0, 4)) == 2  # unrolls to 7,1,2,1,2,...
    with pytest.raises(BadHeight):
        eval_at(s, Ordinal(0, 3))


def test_restrict():
    assert restrict(node(4, 5, 6), Ordinal(0, 2)) == node(4, 5)
    s = node(1, 2)
    assert restrict(s, s.dom) == s
    c2 = const_node(3, Ordinal(2, 0))
    assert restrict(c2, OMEGA) == const_node(3, OMEGA)
    with pytest.raises(BadHeight):
        restrict(node(1), Ordinal(0, 2))


# -- delta -------------------------------------------------------------------

def test_delta_trivial():
    assert delta(EMPTY_NODE, node(5)) == ZERO
    assert delta(node(1, 2, 3), node(1, 2, 4)) == Ordinal(0, 2)


def test_delta_derived_window():
    s = const_node(7, OMEGA)
    t = SymNode((BlockWord.make((7, 7, 8), (7,)),), ())
    expected = brute_delta(s, t)  # frozen from the window oracle
    assert expected == Ordinal(0, 2)
    assert delta(s, t) == expected


def test_delta_initial_segment():
    s = node(1, 2)
    t = node(1, 2, 9)
    assert delta(s, t) == s.dom


# -- graft -------------------------------------------------------------------

def test_graft_trivial():
    assert graft(node(9), node(1, 2, 3)) == node(9, 2, 3)
    t = node(4, 4)
    assert graft(EMPTY_NODE, t) == t
    assert graft(node(1, 2, 3), node(0)) == node(1)


def test_graft_into_block():
    s = node(9, 9)
    t = const_node(3, OMEGA)
    g = graft(s, t)
    assert g.dom == OMEGA
    assert [g.eval_at(Ordinal(0, j)) for j in range(4)] == [9, 9, 3, 3]


def test_graft_left_idempotent():
    rng = random.Random(2)
    for _ in range(200):
        s, t = rand_node(rng), rand_node(rng)
        assert graft(s, graft(s, t)) == graft(s, t)


# -- eq_star -----------------------------------------------------------------

def test_eq_star_trivial():
    assert eq_star(node(1, 2), node(9, 2))
    assert not eq_star(node(1, 2), node(1, 3))
    assert eq_star(EMPTY_NODE, EMPTY_NODE)


def test_eq_star_derived():
    s = SymNode((BlockWord.make((0, 1), (5,)),), ())
    t = const_node(5, OMEGA)
    assert brute_eq_star(s, t)
    assert eq_star(s, t)
    assert eq_star_threshold(s, t) == Ordinal(0, 2)


def test_eq_star_equivalence_relation():
    rng = random.Random(4)
    nodes = [rand_node(rng) for _ in range(60)]
    doms = {}
    for s in nodes:
        doms.setdefault(s.dom, []).append(s)
    for group in doms.values():
        for s in group:
            assert eq_star(s, s)
            for t in group:
                assert eq_star(s, t) == eq_star(t, s)
                for u in group:
                    if eq_star(s, t) and eq_star(t, u):
                        assert eq_star(s, u)


# -- mutual exclusivity -------------------------------------------------------

def test_me_trivial():
    assert mutually_exclusive(node(1, 2), node(2, 1))
    assert not mutually_exclusive(node(1, 2), node(1, 9))
    assert mutually_exclusive(EMPTY_NODE, node(3, 4))


def test_me_vs_eq_star_on_restriction():
    # exclusive nodes with a shared successor-height restriction are not
    # eventually equal there
    s, t = node(1, 2, 3), node(2, 3, 4)
    assert mutually_exclusive(s, t)
    d = min(s.dom, t.dom)
    assert not eq_star(restrict(s, d), restrict(t, d))


# -- the stored domain ----------------------------------------------------------

def rand_entry(rng: random.Random):
    return rng.randrange(0, 6) if rng.random() < 0.7 else Ramp(rng.randrange(1, 3), rng.randrange(0, 4))


def rand_template(rng: random.Random) -> SymNode:
    blocks = tuple(BlockWord.make([rand_entry(rng) for _ in range(rng.randrange(0, 3))],
                                  [rand_entry(rng) for _ in range(rng.randrange(1, 3))])
                   for _ in range(rng.randrange(0, 3)))
    return SymNode(blocks, tuple(rand_entry(rng) for _ in range(rng.randrange(0, 4))))


def rand_point(rng: random.Random, s: SymNode) -> Ordinal:
    """A point below s.dom (s must have a nonzero domain)."""
    w = rng.randrange(s.dom.w + (s.dom.n > 0))
    if w < s.dom.w:
        return Ordinal(w, rng.randrange(6))
    return Ordinal(w, rng.randrange(s.dom.n))


def test_dom_stored_on_every_route():
    """dom is set once at construction and matches the node's fields after
    every operation that builds a node."""
    def check(t: SymNode) -> None:
        assert t.dom == Ordinal(len(t.blocks), len(t.final)) and type(t.dom) is Ordinal

    rng = random.Random(9)
    for _ in range(400):
        s, t = rand_template(rng), rand_template(rng)
        out = [s, s.append(rand_entry(rng)), s.reindex(rng.randrange(1, 4), rng.randrange(3)),
               s.instantiate(rng.randrange(5)), graft(s, t), graft(t, s),
               sz.NODE.dec(sz.enc_node(s)), s.restrict(Ordinal(0, 0))]
        if not s.dom.is_zero:
            out += [s.restrict(rand_point(rng, s)),
                    node_patch(s, {rand_point(rng, s): rng.randrange(6)})]
        if len(s.blocks) < 3:
            out.append(s.extend_to_limit((rand_entry(rng),)))
        for u in out:
            check(u)


def test_equal_nodes_from_different_routes():
    """Equality and hash read only blocks and final, so nodes built by
    different routes are interchangeable as set members and dict keys."""
    pairs = [
        (node(1, 2, 3).restrict(Ordinal(0, 2)), node(1, 2)),
        (graft(node(1), node(5, 2)), node(1, 2)),
        (SymNode((BlockWord.make((3,), (3,)),), ()), const_node(3, OMEGA)),
        (const_node(3, Ordinal(1, 2)).restrict(OMEGA).append(3).append(3),
         const_node(3, Ordinal(1, 2))),
        (node(Ramp(2, 1)).reindex(1, 0).instantiate(2), node(5)),
        (node_patch(node(4, 0), {Ordinal(0, 1): 6}), node(4, 6)),
        (node(0).extend_to_limit((0,)), const_node(0, OMEGA)),
        (sz.NODE.dec(sz.enc_node(const_node(3, Ordinal(1, 2)))), const_node(3, Ordinal(1, 2))),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and a.dom == b.dom and repr(a) == repr(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1


# -- randomized agreement with the evaluation oracle --------------------------

def test_random_agreement_with_brute_force():
    rng = random.Random(6)
    for _ in range(1500):
        s, t = rand_node(rng), rand_node(rng)
        assert delta(s, t) == brute_delta(s, t), (s, t)
        assert mutually_exclusive(s, t) == brute_me(s, t), (s, t)
        if s.dom == t.dom:
            assert eq_star(s, t) == brute_eq_star(s, t), (s, t)


def test_ramp_template_instantiation():
    tmpl = SymNode((), (Ramp(2, 0), 7))
    assert tmpl.instantiate(3) == node(6, 7)
    assert not tmpl.concrete
    with pytest.raises(ValueError):
        tmpl.eval_at(ZERO)


def test_reindex_composes():
    tmpl = SymNode((), (Ramp(2, 1),))
    # m := 3m' + 2 turns 2m+1 into 6m'+5
    assert tmpl.reindex(3, 2) == SymNode((), (Ramp(6, 5),))


from hypothesis import given, strategies as st

entry_st = st.integers(0, 5)
finite_node_st = st.lists(entry_st, max_size=5).map(lambda es: node(*es))


@given(finite_node_st, finite_node_st, finite_node_st)
def test_graft_laws(s, t, u):
    # grafting keeps s where defined and is idempotent on the left
    g = graft(s, t)
    assert g.dom == t.dom
    lo = min(s.dom, t.dom)
    for j in range(lo.n):
        assert g.eval_at(Ordinal(0, j)) == s.eval_at(Ordinal(0, j))
    assert graft(s, graft(s, t)) == graft(s, t)
    # mixing is associative once the domains are ordered (otherwise the
    # left grouping truncates s and the law genuinely fails)
    if s.dom <= t.dom <= u.dom:
        assert graft(graft(s, t), u) == graft(s, graft(t, u))


@given(finite_node_st, finite_node_st)
def test_delta_bounds(s, t):
    d = delta(s, t)
    lo = min(s.dom, t.dom)
    assert d <= lo
    is_initial = all(s.eval_at(Ordinal(0, j)) == t.eval_at(Ordinal(0, j))
                     for j in range(lo.n))
    assert (d == lo) == is_initial


# -- the stored concreteness and the prefix test ---------------------------------

entry_or_ramp_st = st.one_of(st.integers(0, 5), st.builds(Ramp, st.integers(1, 3), st.integers(0, 4)))
word_st = st.builds(BlockWord.make, st.lists(entry_or_ramp_st, max_size=3),
                    st.lists(entry_or_ramp_st, min_size=1, max_size=3))
template_st = st.builds(lambda blocks, final: SymNode(tuple(blocks), tuple(final)),
                        st.lists(word_st, max_size=2), st.lists(entry_or_ramp_st, max_size=4))


def test_concrete_slot_placed_ramps():
    """A ramp in a block prefix, in a block tail or in the final stretch
    makes the node a template; the slot says so without a walk."""
    ramp = Ramp(1, 0)
    cases = [SymNode((BlockWord.make((ramp, 2), (3,)),), (1,)),
             SymNode((BlockWord.make((2,), (3,)), BlockWord.make((), (4, ramp))), ()),
             SymNode((BlockWord.make((2,), (3,)),), (1, ramp)),
             SymNode((BlockWord.make((2,), (3,)),), (1, 5))]
    assert [s.concrete for s in cases] == [False, False, False, True]
    for s in cases:
        assert s.concrete == walk_concrete(s)
        assert all(b.concrete == walk_concrete(SymNode((b,), ())) for b in s.blocks)


@given(template_st, st.integers(0, 4), st.integers(1, 3), st.integers(0, 3))
def test_concrete_slot_equals_entry_walk(s, m, a, b):
    """The slot set at construction equals the entry walk on every route
    that builds a node."""
    out = [s, s.instantiate(m), s.reindex(a, b), graft(s, s.instantiate(m)),
           sz.NODE.dec(sz.enc_node(s))]
    if not s.dom.is_zero:
        out.append(s.restrict(min(s.dom, Ordinal(0, 2))))
    for u in out:
        assert u.concrete == walk_concrete(u), u
    assert s.instantiate(m).concrete


@st.composite
def prefix_pairs(draw):
    """(u, v) with u.dom <= v.dom: u a restriction of v, possibly with one
    entry changed, or an unrelated node. Restricting inside a block makes
    u's final stretch run along v's block word (the block boundary case)."""
    v = draw(template_st.filter(lambda t: not t.dom.is_zero))
    w = draw(st.integers(0, v.dom.w))
    n = draw(st.integers(0, 6 if w < v.dom.w else v.dom.n))
    u = v.restrict(Ordinal(w, n))
    kind = draw(st.sampled_from(["restriction", "patched", "unrelated"]))
    if kind == "patched" and not u.dom.is_zero:
        eps = Ordinal(u.dom.w, u.dom.n - 1) if u.dom.n else Ordinal(u.dom.w - 1, draw(st.integers(0, 4)))
        u = node_patch(u, {eps: draw(entry_or_ramp_st)})
    elif kind == "unrelated":
        u = draw(template_st.filter(lambda t: t.dom <= v.dom))
    return u, v


@given(prefix_pairs())
def test_is_prefix_equals_restrict_compare(pair):
    u, v = pair
    assert is_prefix(u, v) == (v.restrict(u.dom) == u)
    assert is_prefix(u, u) and is_prefix(EMPTY_NODE, v)


def test_is_prefix_across_block_boundary():
    """u ends inside v's block 0: its final stretch is compared with v's
    block word, prefix and tail."""
    v = SymNode((BlockWord.make((7,), (1, 2)),), (9,))
    assert is_prefix(node(7, 1, 2, 1), v)
    assert not is_prefix(node(7, 1, 2, 2), v)
    assert is_prefix(SymNode(v.blocks, ()), v)
    assert not is_prefix(SymNode((BlockWord.make((7,), (2, 1)),), ()), v)
    with pytest.raises(BadHeight):
        is_prefix(v, node(7, 1))
    with pytest.raises(BadHeight):
        node(7, 1).restrict(v.dom)


# -- BlockWord.take: a slice of positions read at once --------------------------

@given(st.lists(st.integers(0, 9), max_size=4), st.lists(st.integers(0, 9), min_size=1, max_size=4),
       st.integers(0, 20), st.integers(0, 20))
def test_take_matches_eval(prefix, tail, start, stop):
    w = BlockWord.make(prefix, tail)
    assert w.take(stop, start) == tuple(w.eval(j) for j in range(start, stop))
    assert w.take(stop) == tuple(w.eval(j) for j in range(stop))
