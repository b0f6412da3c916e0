import functools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ascentlab.foundations import FULL_SET, OMEGA_NAT, Ordinal, ZERO, finite_set
from ascentlab.ascent import supp
from ascentlab.conditions import (
    Condition, InvalidBeta, S_F, S_THETA, S_X, WrongVariant, check_condition,
    eta_nu, leq_s, make_bad_extension, one_step_extension, root_condition,
)
from ascentlab.nodes import delta, mk_entry, node
from ascentlab.trees import SymTree

from oracles import clause


def tower(k: int, variant: str = S_X) -> Condition:
    """k one-step extensions of the root, each at the current top."""
    c = root_condition(variant)
    for _ in range(k):
        c = one_step_extension(c, c.eta)
    return c


# -- root and validation --------------------------------------------------------

def test_root_condition_valid_all_variants():
    c0 = root_condition()
    for v in (S_X, S_F, S_THETA):
        rep = check_condition(c0, v)
        assert rep.ok, rep.violations


def test_one_step_from_root_examples():
    c1 = one_step_extension(root_condition(), ZERO, 0)
    assert c1.eta == Ordinal(0, 1)
    # f1(1)(tau) = <2 tau>
    for tau in (0, 1, 5):
        assert c1.top.at(tau) == node(2 * tau)
    assert check_condition(c1).ok
    c2 = one_step_extension(c1, Ordinal(0, 1), 0)
    for tau in (0, 3):
        assert c2.top.at(tau) == node(2 * tau, 2 * tau)


def test_one_step_supp_postconditions():
    c1 = tower(1)
    c2 = one_step_extension(c1, ZERO, 0)
    assert supp(c1.level(ZERO), c2.top) == FULL_SET
    s_old = supp(c1.level(ZERO), c1.top)
    s_new = supp(c1.top, c2.top)
    assert s_old.is_subset(s_new)


def test_one_step_rejects_high_beta():
    with pytest.raises(InvalidBeta):
        one_step_extension(root_condition(), Ordinal(0, 1))


def test_leq_s_reflexive_and_constructor():
    c1 = tower(1)
    assert leq_s(c1, c1)
    c2 = one_step_extension(c1, c1.eta)
    assert leq_s(c2, c1)
    assert not leq_s(c1, c2)


def test_independent_label_schemes_incomparable():
    c1 = tower(1)
    a = one_step_extension(c1, c1.eta, label_base=0)
    b = one_step_extension(c1, c1.eta, label_base=5)
    assert not leq_s(a, b)
    assert not leq_s(b, a)


def test_eta_nu():
    assert eta_nu(root_condition()) == (ZERO, 1)
    c1 = tower(1)
    assert eta_nu(c1) == (Ordinal(0, 1), OMEGA_NAT)
    patched = Condition(
        SymTree.make(Ordinal(0, 2), explicit={Ordinal(0, 1): (node(0), node(1))}),
        c1.path, S_X)
    assert eta_nu(patched) == (Ordinal(0, 1), 2)


# -- bad extension ----------------------------------------------------------------

def test_make_bad_extension_formula():
    c1 = tower(1, S_THETA)
    bad = make_bad_extension(c1)
    assert bad.top.at(0) == node(0, 0)
    assert bad.top.at(1) == node(0, 1)
    assert bad.top.at(5) == node(10, 5)
    assert delta(bad.top.at(0), bad.top.at(1)) == Ordinal(0, 1)


def test_bad_extension_valid_theta_invalid_sx():
    c1 = tower(1, S_THETA)
    bad = make_bad_extension(c1)
    assert check_condition(bad, S_THETA).ok
    rep = check_condition(bad, S_X)
    assert not rep.ok
    assert not clause(rep, "C2")
    assert any("not mutually exclusive" in v for v in rep.violations)


def test_bad_extension_rejects_sx_input():
    with pytest.raises(WrongVariant):
        make_bad_extension(tower(1, S_X))


def test_towers_validate_sx():
    for k in (2, 4):
        rep = check_condition(tower(k))
        assert rep.ok, rep.violations


def test_failed_support_postcondition_raises(monkeypatch):
    """A below-level that drops the graft of level beta (here: the top with
    indices 0 and 1 swapped) passes the one-step checks but loses the old
    support; that is a library defect, reported as PostconditionFailed (an
    explicit raise, kept under python -O)."""
    from ascentlab import conditions
    from ascentlab.ascent import AscentLevel
    from ascentlab.foundations import PostconditionFailed

    def swapped_top(low, high):
        return AscentLevel.make(high.height, high.cells,
                                dict(high.exceptions) | {0: high.at(1), 1: high.at(0)})
    monkeypatch.setattr(conditions, "graft_levels", swapped_top)
    with pytest.raises(PostconditionFailed, match="one-step lost the old support"):
        one_step_extension(tower(2), Ordinal(0, 1))


def test_tower_exclusivity_walks_linear_coordinates(monkeypatch):
    """Each level of a tower has a full support with the level below, so by
    the append lemma clause C2 checks one coordinate per level: 64 value
    piece lists on a tower of height 64, not the 64*65/2 of a full walk of
    every level."""
    from ascentlab import ascent
    from ascentlab.fixtures import tower as fixture_tower
    rng = random.Random(64)
    k = 64
    betas = [Ordinal(0, rng.randrange(j + 1)) for j in range(k)]
    cond = fixture_tower(k, betas=betas, label_bases=[rng.randrange(3) for _ in range(k)])
    calls = 0
    real = ascent._value_pieces

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)
    monkeypatch.setattr(ascent, "_value_pieces", counting)
    assert check_condition(cond, S_X).ok
    assert calls <= 4 * k


def test_tower_builds_walk_one_coordinate_per_step(monkeypatch):
    """Each one-step of a tower walks only its new coordinate: the old top
    carries its exclusivity record, and the new top follows it by the append
    lemma. With a random beta too, since every level of a one-step tower has
    full support to the levels above it, so the old top's support to the
    new top is full. A full walk per step made k(k+1)/2 value piece lists,
    8,256 at k = 128."""
    from ascentlab.fixtures import tower as fixture_tower
    rng = random.Random(128)
    k = 128
    betas = [Ordinal(0, rng.randrange(j + 1)) for j in range(k)]
    bases = [rng.randrange(3) for _ in range(k)]
    calls = value_piece_calls(monkeypatch)
    fixture_tower(k)
    assert len(calls) == k
    calls.clear()
    fixture_tower(k, betas=betas, label_bases=bases)
    assert len(calls) == k


# -- exclusivity evidence -------------------------------------------------------

def value_piece_calls(monkeypatch) -> list:
    """The coordinates of each value piece list built from now on."""
    from ascentlab import ascent
    calls = []
    real = ascent._value_pieces

    def counting(level, w, j):
        calls.append((w, j))
        return real(level, w, j)
    monkeypatch.setattr(ascent, "_value_pieces", counting)
    return calls


def exclusive_proved(level) -> bool:
    """Whether the level's exclusivity record is accepted for it."""
    from ascentlab.foundations import proves
    return proves(level.exclusive, "me_family", (level.cells, level.exceptions), (level.height,))


def spoiled(c: Condition, how: str) -> Condition:
    """c with its top's exclusivity record made useless in one way."""
    import dataclasses
    from ascentlab import serialize as sz
    if how == "decoded":
        return sz.dec_condition(sz.enc_condition(c))
    if how == "replaced":
        return Condition(c.tree, c.path.with_level(c.eta, dataclasses.replace(c.top)), c.variant, c.x)
    if how == "forged":      # the record of an equal level built apart
        other = tower(c.eta.n).top
        assert other == c.top and exclusive_proved(other)
        object.__setattr__(c.top, "exclusive", other.exclusive)
    elif how == "stale":     # the record of the level below
        object.__setattr__(c.top, "exclusive", c.level(c.eta.pred()).exclusive)
    return c


@pytest.mark.parametrize("how", ["kept", "forged", "stale", "replaced", "decoded"])
def test_evidence_fallback_walks_every_coordinate(how, monkeypatch):
    c = spoiled(tower(5), how)
    assert c.top.exclusive is not None or how in ("replaced", "decoded")
    assert exclusive_proved(c.top) == (how == "kept")
    calls = value_piece_calls(monkeypatch)
    out = one_step_extension(c, Ordinal(0, 2))
    assert calls == ([(0, 5)] if how == "kept" else [(0, j) for j in range(6)])
    assert exclusive_proved(out.top) and check_condition(out).ok


def test_evidence_is_never_copied_by_replace():
    import dataclasses
    c = tower(3)
    assert dataclasses.replace(c.top).exclusive is None
    assert dataclasses.replace(c.top).grafted is None and c.top.grafted is not None


@pytest.mark.parametrize("how", ["kept", "forged", "stale"])
def test_evidence_non_exclusive_top_still_raises(how):
    """A new top whose appended labels collide raises NonExclusiveTop with
    the full walk's witness whether the walk is short or full; and a top
    with a collision below its new coordinate, under a record that names
    another level, is walked in full and caught at coordinate 0."""
    from ascentlab.ascent import AppendScheme, me_family, standard_append
    from ascentlab.conditions import NonExclusiveTop, extend_with_top, one_step_with
    c = spoiled(tower(3), how)
    scheme = AppendScheme(tuple(mk_entry(0, 5) for _ in c.top.cells), {})
    want = me_family(c.top.append_entries(scheme)).detail
    assert want.endswith("at (0,3)")
    with pytest.raises(NonExclusiveTop) as e:
        one_step_with(c, c.top, scheme)
    assert str(e.value) == f"one-step produced a non-exclusive family: {want}"
    below = residue_level(c.top, 2, [0, 0])     # odds repeat the evens' nodes
    bad = extend_with_top(c, below.append_entries(standard_append(below)))
    object.__setattr__(bad.top, "exclusive", c.top.exclusive)
    with pytest.raises(NonExclusiveTop, match=r"share a value at \(0,0\)"):
        one_step_extension(bad, bad.eta)


def test_evidence_graft_over_a_colliding_level_walks_in_full():
    """A top grafted over an exclusive level (its record kept) but taking
    coordinates 1 to 3 from a level whose odd indices repeat the even ones:
    its support from the old top is not full, so the append lemma does not
    apply and the full walk finds the collision at coordinate 1."""
    from ascentlab.ascent import graft_levels, standard_append
    from ascentlab.conditions import NonExclusiveTop, _one_step
    c = tower(4)
    low = c.level(Ordinal(0, 1))
    assert exclusive_proved(low) and exclusive_proved(c.top)
    twins = residue_level(c.top, 2, [0, 0])
    new_top = graft_levels(low, twins.append_entries(standard_append(twins)))
    with pytest.raises(NonExclusiveTop, match=r"share a value at \(0,1\)"):
        _one_step(c, new_top)


@functools.lru_cache(maxsize=None)
def routed_conditions() -> tuple[Condition, ...]:
    """Conditions whose top was routed, not grafted: absorptions of a random
    node into random towers, and seal steps over towers with the identity
    and a transposition triple."""
    from ascentlab import sealing
    from ascentlab.fixtures import random_tower, tower as fixture_tower
    out = []
    for seed in range(6):
        rng = random.Random(seed)
        c = random_tower(rng, max_height=4)
        t = node(*[rng.randrange(14) for _ in range(rng.randrange(1, c.eta.n + 1))])
        out.append(sealing.absorb_node(c, t, rng.randrange(3))[0])
    for h in (2, 3, 4):
        c = fixture_tower(h)
        for triple in (sealing.identity_triple(c), sealing.transposition_triple(c, 1, 3)):
            mid = sealing.build_intermediate(c, triple)
            hit = one_step_extension(mid, mid.eta)
            out.append(sealing.seal_step(c, triple, 1, sealing.OracleHit(hit, hit.eta))[0])
    return tuple(out)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_one_step_over_routed_tops_walks_in_full(data):
    """A one-step with a random beta over an absorbed or sealed condition,
    whose old top's support to the new top is not full: the append lemma
    does not apply, and the new top is walked at every coordinate. It raises
    NonExclusiveTop exactly when me_family of the new top fails, with that
    walk's detail, and its result passes check_condition otherwise. A drawn
    twin makes the level at beta repeat index 0's node at index 1, so that
    the new top collides below beta."""
    from ascentlab.ascent import AscentLevel, graft_levels, me_family, standard_append
    from ascentlab.conditions import NonExclusiveTop
    c = data.draw(st.sampled_from(routed_conditions()))
    beta = Ordinal(0, data.draw(st.integers(0, c.eta.n)))
    base = data.draw(st.integers(0, 2))
    if beta.n and data.draw(st.booleans()):
        low = c.level(beta)
        twin = AscentLevel.make(beta, low.cells, dict(low.exceptions) | {1: low.at(0)})
        c = Condition(c.tree, c.path.with_level(beta, twin), c.variant, c.x)
    top = c.top
    new_top = graft_levels(c.level(beta), top.append_entries(standard_append(top, shift=base)))
    assume(supp(top, new_top) != FULL_SET)
    rep = me_family(new_top)
    if rep.ok:
        assert check_condition(one_step_extension(c, beta, label_base=base)).ok
    else:
        with pytest.raises(NonExclusiveTop) as e:
            one_step_extension(c, beta, label_base=base)
        assert str(e.value) == f"one-step produced a non-exclusive family: {rep.detail}"


# -- one-step failures ----------------------------------------------------------

def residue_level(level, step: int, perm):
    """A one-cell level over all indices split into its residue classes mod
    step, class r carrying the nodes of class perm[r]."""
    from ascentlab.ascent import AP, AscentLevel, Cell
    (cell,) = level.cells
    assert cell.ap == AP(0, 1) and not level.exceptions
    return AscentLevel.make(level.height, [Cell(AP(r, step), cell.template.reindex(step, perm[r]))
                                           for r in range(step)], {})


def test_one_step_with_rejects_colliding_append():
    """Two exclusive cells given the same appended ramp collide at indices
    0 and 1 of the new coordinate."""
    from ascentlab.ascent import AppendScheme, me_family
    from ascentlab.conditions import NonExclusiveTop, one_step_with
    from ascentlab.nodes import mk_entry
    c = tower(2)
    below = residue_level(c.top, 2, [0, 1])
    assert me_family(below).ok
    with pytest.raises(NonExclusiveTop, match="non-exclusive family"):
        one_step_with(c, below, AppendScheme((mk_entry(2, 0), mk_entry(2, 0)), {}))


def test_one_step_with_rejects_lost_comparability():
    """Swapping the residue classes 0 and 2 mod 4 keeps the family exclusive
    but leaves the support from the previous top the odd indices, outside
    the filter generated by X."""
    from ascentlab.ascent import me_family, standard_append
    from ascentlab.conditions import LostComparability, one_step_with
    c = tower(2)
    below = residue_level(c.top, 4, [2, 1, 0, 3])
    assert me_family(below.append_entries(standard_append(below))).ok
    with pytest.raises(LostComparability, match="lost comparability"):
        one_step_with(c, below, standard_append(below))


@st.composite
def appended_levels(draw):
    """A random tower's top split into residue classes in a random order,
    some indices held as exceptions, then one appended entry per cell and
    one label per exception: each one the parity-coded standard label (exclusive on
    its own), a random ramp or a constant."""
    from ascentlab.ascent import AppendScheme, AscentLevel, standard_append
    from ascentlab.fixtures import random_tower
    cond = random_tower(random.Random(draw(st.integers(0, 10**6))), max_height=5)
    step = draw(st.sampled_from([1, 2, 3, 4]))
    split = residue_level(cond.top, step, draw(st.permutations(range(step))))
    patched = draw(st.sets(st.integers(0, 11), max_size=2))
    below = AscentLevel.make(split.height, split.cells, {k: split.at(k) for k in patched})
    std = standard_append(below, shift=draw(st.integers(0, 2)))
    ramps = st.builds(mk_entry, st.integers(1, 3), st.integers(0, 5))
    scheme = AppendScheme(
        tuple(draw(st.one_of(st.just(e), ramps, st.integers(0, 5))) for e in std.cell_entries),
        {k: draw(st.one_of(st.just(v), st.integers(0, 5))) for k, v in std.exception_labels.items()})
    return cond.x, below.append_entries(scheme)


@settings(max_examples=400, deadline=None)
@given(appended_levels())
def test_exclusive_append_passes_append_fibers(case):
    """`_one_step` checks only me_family: an exclusive level has no
    constant appended label on a cell, so clause C4's appended-coordinate
    check passes whenever me_family does."""
    from ascentlab.ascent import me_family
    from ascentlab.conditions import _append_fibers_ok
    x, level = case
    assert not me_family(level).ok or _append_fibers_ok(level, x)[0]


# -- the X-sequence and tail rules ------------------------------------------------

def test_leq_s_compares_x_sequences():
    """Conditions over another X-sequence lie in another poset."""
    from ascentlab.fixtures import tower as tower_over
    from ascentlab.foundations import XSequence, multiples
    x = XSequence(multiples(3), 6)
    assert leq_s(tower_over(3, x=x), tower_over(2, x=x))
    with pytest.raises(WrongVariant):
        leq_s(tower_over(3, x=x), tower(2))


def with_block_0_rule(cond: Condition, start: int, base) -> Condition:
    from ascentlab.ascent import AscentPath, TailRule, standard_append
    rule = TailRule(start, base, (standard_append(base),))
    return Condition(cond.tree, AscentPath.make(dict(cond.path.levels), {0: rule}), cond.variant,
                     cond.x)


def test_tail_rule_above_the_top_is_not_checked():
    """A block-0 rule starting above eta holds no level at a height <= eta:
    levels 0-3 are those of tower(3), however the rule's base reads."""
    from ascentlab.ascent import constant_level
    from ascentlab.nodes import const_node
    h = Ordinal(0, 4)
    cond = with_block_0_rule(tower(3), 4, constant_level(h, const_node(7, h)))
    rep = check_condition(cond)
    assert rep.ok, rep.violations
    assert rep.clauses == check_condition(tower(3)).clauses


def test_broken_tail_base_fails_c2_as_an_adjacent_pair():
    """A tail base at a height <= eta is the probe level right above the
    explicit level below it; a base that leaves that level fails C2 there."""
    from ascentlab.amalgam import amalgamate
    from ascentlab.ascent import constant_level
    from ascentlab.fixtures import uniform_chain
    from ascentlab.nodes import const_node
    out, _ = amalgamate(uniform_chain(3, Ordinal(1, 2)))
    (w, rule), = out.path.tails
    h = Ordinal(w, rule.start)
    broken = with_block_0_rule(out, rule.start, constant_level(h, const_node(7, h)))
    rep = check_condition(broken)
    assert not clause(rep, "C2")
    c2 = [v for v in rep.violations if v.startswith("clause C2")]
    assert c2 and all("supp(" in v or "mutually exclusive" in v for v in c2)
    assert f"clause C2 (ascent-path): supp({h.pred()},{h}) = {supp(out.level(h.pred()), broken.level(h))} unacceptable" in c2
