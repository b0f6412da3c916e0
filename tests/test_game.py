import random

import pytest
from hypothesis import given, settings, strategies as st

from ascentlab import amalgam, game
from ascentlab.foundations import OMEGA_NAT, Ordinal, Rejected, ZERO, proves
from ascentlab.amalgam import (
    ChainDescriptor, HypothesisViolated, ZMap, amalgamate, validate_chain,
)
from ascentlab.ascent import constant_level
from ascentlab.conditions import (
    Condition, S_X, check_condition, eta_nu, one_step_extension, root_condition,
)
from ascentlab.game import (
    GameState, Move, NotIIsTurn, OpponentPolicy, Transcript, check_run_invariants,
    onestep_opponent, play_game, random_opponent, strategy_ii_move, _game_tail,
)
from ascentlab.nodes import const_node
from builders import with_values
from oracles import all_pairs_validate_chain, copy_record, probe_keys, tail_members


def test_strategy_opening_and_stage2():
    st = GameState(Ordinal(0, 6), 0)
    st.moves.append(strategy_ii_move(st, st.next_stage))
    assert st.moves[0].cond.eta == ZERO
    # I plays a top one-step
    opp = onestep_opponent()
    st.moves.append(Move(Ordinal(0, 1), "I",
                         opp.explicit(st.moves[0].cond, Ordinal(0, 1), random.Random(0))))
    mv2 = strategy_ii_move(st, st.next_stage)
    assert mv2.stage == Ordinal(0, 2)
    assert eta_nu(mv2.cond)[1] == OMEGA_NAT
    assert mv2.z is not None
    # z defined on (2, mu)
    assert mv2.z.in_domain(Ordinal(0, 3))
    assert mv2.z.in_domain(Ordinal(0, 5))
    assert not mv2.z.in_domain(Ordinal(0, 6))


def test_strategy_rejects_odd_stage():
    st = GameState(Ordinal(0, 6), 0)
    st.moves.append(strategy_ii_move(st, st.next_stage))
    with pytest.raises(NotIIsTurn):
        strategy_ii_move(st, st.next_stage)


def test_finite_game_completed():
    t = play_game(Ordinal(0, 6), onestep_opponent(), 0)
    assert t.verdict == "II_completed"
    assert len(t.moves) == 6
    rep = check_run_invariants(t)
    assert rep.ok, rep.failures


def test_limit_game_completed_with_limit_move():
    t = play_game(Ordinal(1, 4), onestep_opponent(), 0)
    assert t.verdict == "II_completed"
    stages = [m.stage for m in t.moves]
    assert Ordinal(1, 0) in stages
    assert Ordinal(1, 3) in stages
    limit_move = next(m for m in t.moves if m.stage == Ordinal(1, 0))
    assert limit_move.cond.eta.is_limit
    assert check_condition(limit_move.cond, S_X).ok
    rep = check_run_invariants(t)
    assert rep.ok, rep.failures


def test_limit_move_equals_amalgamate():
    t = play_game(Ordinal(1, 2), onestep_opponent(), 0)
    limit_move = next(m for m in t.moves if m.stage == Ordinal(1, 0))
    members = tuple(
        __import__("ascentlab.amalgam", fromlist=["ChainMember"]).ChainMember(m.stage, m.cond, m.z)
        for m in t.moves if m.z is not None and m.stage < Ordinal(1, 0))
    st = GameState(Ordinal(1, 2), 0)
    st.moves.extend(m for m in t.moves if m.stage < Ordinal(1, 0))
    ch = ChainDescriptor(members, _game_tail(st), Ordinal(1, 0), Ordinal(1, 2))
    cond, z = amalgamate(ch)
    assert cond == limit_move.cond
    assert z == limit_move.z


def misbehaving_opponent(bad_stage: Ordinal) -> OpponentPolicy:
    """Returns a non-extending triple at the given stage."""
    def go(cond: Condition, stage: Ordinal, rng: random.Random) -> Condition:
        if stage == bad_stage:
            return root_condition(S_X, cond.x)
        return one_step_extension(cond, cond.eta)
    return OpponentPolicy(f"illegal@{bad_stage}", go)


def test_illegal_opponent_flagged():
    t = play_game(Ordinal(0, 6), misbehaving_opponent(Ordinal(0, 3)), 0)
    assert t.verdict == "illegal_opponent"
    assert t.illegal_stage == Ordinal(0, 3)


def test_opponent_over_another_x_forfeits():
    """A candidate over another X-sequence lies in another poset: I forfeits
    instead of the run raising WrongVariant."""
    from ascentlab.conditions import one_step_extension
    from ascentlab.foundations import XSequence, multiples
    x = XSequence(multiples(3), 6)

    def other_x(cond, stage, rng):
        return one_step_extension(copy_record(cond, x=x), cond.eta)
    t = play_game(Ordinal(0, 6), game.OpponentPolicy("other-x", other_x), 0)
    assert t.verdict == "illegal_opponent"
    assert t.illegal_stage == Ordinal(0, 1)


def test_random_opponents_small_sweep():
    for seed in range(5):
        t = play_game(Ordinal(0, 6), random_opponent(seed), 1)
        assert t.verdict == "II_completed"
        rep = check_run_invariants(t)
        assert rep.ok, rep.failures


def test_tampered_transcript_fails_invariants():
    t = play_game(Ordinal(0, 6), onestep_opponent(), 0)
    # duplicate one auxiliary branch onto another key: breaks pairwise
    mv = next(m for m in t.moves if m.z is not None)
    bad_z = with_values(mv.z, {Ordinal(0, 3): mv.z.at(Ordinal(0, 4))})
    bad_moves = tuple(Move(m.stage, m.mover, m.cond, bad_z if m is mv else m.z)
                      for m in t.moves)
    rep = check_run_invariants(Transcript(t.mu, t.xi, bad_moves, t.verdict))
    assert not rep.ok
    assert any("(ii)" in f for f in rep.failures)


def test_swapped_even_stages_fail_invariants_without_raising():
    """Stage 6 and the limit stage are consecutive II moves; swapped, the
    later stage's branches are shorter, which (iii) reports as a failure."""
    t = play_game(Ordinal(1, 4), onestep_opponent(), 0)
    moves = list(t.moves)
    i = next(i for i in range(1, len(moves))
             if moves[i - 1].z is not None and moves[i].z is not None)
    moves[i - 1], moves[i] = moves[i], moves[i - 1]
    rep = check_run_invariants(Transcript(t.mu, t.xi, tuple(moves), t.verdict))
    assert not rep.ok
    assert f"(iii) branch w+1 not increasing at stage {moves[i].stage}" in rep.failures


def test_empty_transcript_vacuous():
    rep = check_run_invariants(Transcript(Ordinal(0, 4), 0, (), "II_completed"))
    assert rep.ok


def test_two_limit_game():
    # a run length past the second limit: both limit moves amalgamate, the
    # second one stacks a new vanishing level on the first
    t = play_game(Ordinal(2, 2), onestep_opponent(), 0)
    assert t.verdict == "II_completed"
    assert check_run_invariants(t).ok
    lim2 = next(m for m in t.moves if m.stage == Ordinal(2, 0))
    from ascentlab.conditions import S_X, check_condition
    from ascentlab.trees import vanishing_levels
    assert check_condition(lim2.cond, S_X).ok
    assert vanishing_levels(lim2.cond.tree).levels == \
        frozenset({Ordinal(1, 0), Ordinal(2, 0)})


def test_two_limit_game_random_opponent():
    t = play_game(Ordinal(2, 2), random_opponent(5), 1)
    assert t.verdict == "II_completed"
    rep = check_run_invariants(t)
    assert rep.ok, rep.failures


# -- evidence: II's check of each stage's z-hypotheses is not repeated -------------

def limit_chains(mu, opponent, xi) -> list[ChainDescriptor]:
    """The chains II's limit moves hand to amalgamate in one run."""
    chains = []

    def record(ch):
        chains.append(ch)
        return amalgamate(ch)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(game, "amalgamate", record)
        assert play_game(mu, opponent, xi).verdict == "II_completed"
    return chains


def outcome(validate, ch):
    try:
        return validate(ch)
    except Rejected as e:
        return type(e).__name__, str(e)


def z_checked_stages(ch) -> list[Ordinal]:
    """Stages whose z-bullets validate_chain checks in full."""
    seen = []

    def record(beta, *args):
        seen.append(beta)
        return check_z_bullets(beta, *args)

    check_z_bullets = amalgam.check_z_bullets
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amalgam, "check_z_bullets", record)
        validate_chain(ch)
    return seen


def with_member(ch, i, **changes) -> ChainDescriptor:
    members = list(ch.members)
    members[i] = copy_record(members[i], **changes)
    return copy_record(ch, members=tuple(members))


def duplicated_z(z: ZMap) -> ZMap:
    """z with the value at its second key copied onto its least key."""
    k1, k2 = probe_keys(z)[:2]
    return with_values(z, {k1: z.at(k2)})


def relabelled(cond: Condition) -> Condition:
    """cond with its level at height 1 replaced by a constant odd label: its
    tree and top level, which the z-bullets read, are unchanged, but it no
    longer extends any member of height at least 1."""
    h = Ordinal(0, 1)
    return Condition(cond.tree, cond.path.with_level(h, constant_level(h, const_node(7, h))),
                     cond.variant, cond.x)


@st.composite
def game_chains(draw):
    mu = draw(st.sampled_from([Ordinal(1, 2), Ordinal(1, 4), Ordinal(2, 2)]))
    chains = limit_chains(mu, random_opponent(draw(st.integers(0, 10**6))),
                          draw(st.integers(0, 2)))
    ch = draw(st.sampled_from(chains))
    i = draw(st.integers(0, len(ch.members) - 1))
    m = ch.members[i]
    corruption = draw(st.sampled_from(["none", "strip", "z", "cond", "beta", "swap"]))
    if corruption == "strip":
        ch = copy_record(ch, members=tuple(
            copy_record(mb, bullets=None) for mb in ch.members))
    elif corruption == "z" and len(probe_keys(m.z)) > 1:
        ch = with_member(ch, i, z=duplicated_z(m.z))
    elif corruption == "cond":
        ch = with_member(ch, i, cond=relabelled(m.cond))
    elif corruption == "beta":
        ch = with_member(ch, i, beta=Ordinal(m.beta.w, m.beta.n + 1))
    elif corruption == "swap" and i > 0:
        members = list(ch.members)
        members[i - 1], members[i] = members[i], members[i - 1]
        ch = copy_record(ch, members=tuple(members))
    return ch


@st.composite
def fixture_chains(draw):
    """The standard amalgamation fixture over drawn shapes, its members
    swapped at one place when drawn so (validate_chain then refuses it)."""
    from ascentlab.fixtures import uniform_chain
    ch = uniform_chain(draw(st.integers(1, 4)), Ordinal(1, draw(st.integers(1, 3))),
                       draw(st.booleans()), draw(st.integers(0, 2)))
    i = draw(st.integers(0, len(ch.members) - 1))
    if i and draw(st.booleans()):
        members = list(ch.members)
        members[i - 1], members[i] = members[i], members[i - 1]
        ch = copy_record(ch, members=tuple(members))
    return ch


@st.composite
def retailed(draw, chains):
    """A chain drawn from `chains`, its tail changed when drawn so: another
    beta_step, z tokens drawn anew (of the cycle's length or one off), or a
    scheme of the cycle replaced by the standard one with shifted labels or
    with one cell entry set to a constant, or the cycle doubled."""
    from ascentlab.ascent import AppendScheme, standard_append
    ch = draw(chains)
    tail = ch.tail
    kind = draw(st.sampled_from(["none", "beta_step", "tokens", "shift", "constant", "double"]))
    n = len(tail.schemes)
    j = draw(st.integers(0, n - 1))
    schemes = list(tail.schemes)
    if kind == "beta_step":
        tail = copy_record(tail, beta_step=draw(st.integers(1, 3)))
    elif kind == "tokens":
        token = st.one_of(st.just(("last",)), st.tuples(st.just("const"), st.integers(0, 9)))
        size = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        tail = copy_record(tail, z_tokens=tuple(draw(st.lists(token, min_size=size, max_size=size))))
    elif kind == "shift":
        schemes[j] = standard_append(ch.members[-1].cond.top, shift=draw(st.integers(1, 3)))
        tail = copy_record(tail, schemes=tuple(schemes))
    elif kind == "constant":
        entries = list(schemes[j].cell_entries)
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.integers(0, 9))
        schemes[j] = AppendScheme(tuple(entries), schemes[j].exception_labels)
        tail = copy_record(tail, schemes=tuple(schemes))
    elif kind == "double":
        tail = copy_record(tail, schemes=tail.schemes * 2, z_tokens=tail.z_tokens * 2)
    return copy_record(ch, tail=tail)


@settings(max_examples=40, deadline=None)
@given(retailed(st.one_of(game_chains(), fixture_chains())))
def test_validate_chain_matches_all_pairs(ch):
    """validate_chain, which generates one tail member, has the outcome of
    the all-pairs reference over three generated members: the same pass,
    or the same error and message. The tail lemma says why one member
    decides the whole tail, under its two hypotheses: rising stages, which
    `ChainTail` demands, and tokens that repeat from their first cycle,
    which both check first."""
    calls = []
    next_member = amalgam.ChainTail.next_member
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amalgam.ChainTail, "next_member",
                   lambda tail, m: calls.append(m) or next_member(tail, m))
        got = outcome(validate_chain, ch)
    assert len(calls) <= 1 and (got is not None or len(calls) == 1)
    assert got == outcome(all_pairs_validate_chain, ch)


TOKENS = st.lists(st.one_of(st.just(("last",)), st.tuples(st.just("const"), st.integers(0, 9))),
                  min_size=1, max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.one_of(game_chains(), fixture_chains()), TOKENS)
def test_tail_shape_is_refused_exactly_when_the_closed_form_misses_the_tail(ch, tokens):
    """The tail lemma's token hypothesis is the right one: with a cycle of
    the drawn tokens (and as many copies of the chain's first scheme),
    `ZMap.limit_value`, which resolves the tokens once, extends the value
    of every key of the third tail member (`oracles.tail_members`, which
    resolves them per cycle) exactly when validate_chain does not refuse
    the tail as "tail-shape". The chains' last members have a successor
    height and infinitely many distinct last entries, so a cycle that does
    not repeat misses the closed form at some key. Other outcomes are the
    all-pairs reference's, as in `test_validate_chain_matches_all_pairs`."""
    from oracles import zmap_window
    tail = copy_record(ch.tail, schemes=(ch.tail.schemes[0],) * len(tokens),
                               z_tokens=tuple(tokens))
    ch = copy_record(ch, tail=tail)
    last, third = ch.members[-1].z, tail_members(ch, 3)[-1].z
    missed = any(last.limit_value(k, tail.z_tokens).restrict(v.dom) != v
                 for k, v in zmap_window(third, third.hi.w + 1, 24).items())
    got = outcome(validate_chain, ch)
    assert (got is not None and "(tail-shape)" in got[1]) == missed
    assert got == outcome(all_pairs_validate_chain, ch)


@settings(max_examples=30, deadline=None)
@given(st.one_of(game_chains(), fixture_chains()), st.integers(0, 4))
def test_derived_zmaps_have_no_fault(ch, n):
    """No z-map derived from a drawn chain's has a fault (`ZMap.fault`):
    neither the members' maps, nor those that `above`, `stepped` and
    `limit_map` derive from them (cut n keys above their stages), that
    `game._z_graft_step` derives from a member for the next one, or the
    amalgam's z-unions. Only `make` checks the rule; these keep it."""
    tokens = (("const", 5),)
    derived = []
    for m in ch.members:
        cut = Ordinal(m.z.lo.w, m.z.lo.n + n)
        derived += [m.z, m.z.above(cut), m.z.stepped(cut, tokens), m.z.limit_map(ch.gamma, tokens)]
    for a, b in zip(ch.members, ch.members[1:]):
        if b.beta == Ordinal(a.beta.w, a.beta.n + 2) and b.cond.eta.is_successor:
            derived.append(game._z_graft_step(a.z, b.beta, b.cond, game.Z_OFFSET))
    try:
        derived.append(amalgamate(ch)[1])
    except Rejected:
        pass
    assert [z.fault() for z in derived] == [None] * len(derived)


@settings(max_examples=40, deadline=None)
@given(st.one_of(game_chains(), fixture_chains()))
def test_a_valid_chain_stays_below_the_amalgam_height(ch):
    """When validate_chain passes, every member, and each of the tail's
    first three members (`oracles.tail_members`), lies below the amalgam's
    height, the limit after the last member's: `decreasing` holds on every
    pair and the tail stays in the last member's block. So the amalgam
    needs no check that a member reaches its height."""
    try:
        validate_chain(ch)
    except HypothesisViolated:
        return
    limit = ch.members[-1].cond.eta.next_limit()
    assert all(m.cond.eta < limit for m in ch.members + tuple(tail_members(ch, 3)))


def test_game_chain_members_carry_evidence():
    """Finite-stage members skip their z-bullets; the limit-stage member and
    the tail's first member are checked, the latter by the stage lemma."""
    chains = limit_chains(Ordinal(2, 2), onestep_opponent(), 0)
    first, second = chains
    assert all(m.bullets is not None for m in first.members)
    assert z_checked_stages(first) == [Ordinal(0, 8)]
    assert [m.beta for m in second.members if m.bullets is None] == [Ordinal(1, 0)]
    assert z_checked_stages(second) == [Ordinal(1, 0), Ordinal(1, 8)]


def test_chains_without_evidence_are_checked_in_full():
    from ascentlab import serialize as sz
    from ascentlab.fixtures import uniform_chain
    decoded = sz.dec_chain(sz.enc_chain(limit_chains(Ordinal(1, 4), onestep_opponent(), 0)[0]))
    for ch in (uniform_chain(3, Ordinal(1, 2)), decoded):
        first = ch.tail.next_member(ch.members[-1])
        assert z_checked_stages(ch) == [m.beta for m in ch.members] + [first.beta]


def test_evidence_is_bound_to_the_member_objects():
    ch = limit_chains(Ordinal(1, 4), onestep_opponent(), 0)[0]
    m = ch.members[1]
    copy_z = ZMap.make(m.z.lo, m.z.hi, m.z.closed_hi, m.z.cells, dict(m.z.entries))
    copy_cond = Condition(m.cond.tree, m.cond.path, m.cond.variant, m.cond.x)
    assert copy_z == m.z and copy_z is not m.z and copy_cond == m.cond
    tail = [Ordinal(0, 8)]
    assert z_checked_stages(ch) == tail
    assert z_checked_stages(with_member(ch, 1, z=copy_z)) == [m.beta] + tail
    assert z_checked_stages(with_member(ch, 1, cond=copy_cond)) == [m.beta] + tail
    other = ch.members[2]
    assert z_checked_stages(with_member(ch, 1, bullets=other.bullets)) == [m.beta] + tail
    closed = copy_record(ch, closed_delta=True)
    assert all(not proves(mb.bullets, "z-bullets", (mb.cond, mb.z), (mb.beta, closed.delta, True))
               for mb in closed.members)


def test_corrupted_member_with_stale_evidence_raises():
    ch = limit_chains(Ordinal(1, 4), onestep_opponent(), 0)[0]
    m = ch.members[1]
    bad = with_member(ch, 1, z=duplicated_z(m.z))
    assert bad.members[1].bullets is m.bullets
    with pytest.raises(HypothesisViolated) as e:
        validate_chain(bad)
    assert e.value.bullet == "z-pairwise"


def lemma_checks(fn, *args) -> list[Ordinal]:
    """The stages whose z-checks the stage lemma bounds below while
    fn(*args) runs."""
    from scaling import z_walks
    with z_walks() as walks:
        try:
            fn(*args)
        except HypothesisViolated:
            pass
    return walks["lemma"]


def stage_pair(mu=Ordinal(0, 8)):
    """The run of a one-step game, its stage-2 move and the arguments of
    its stage-4 z-check."""
    t = play_game(mu, onestep_opponent(), 0)
    mv2, mv4 = [mv for mv in t.moves if mv.z is not None][:2]
    return t, mv2, (mv4.stage, mv4.cond, mv4.z, t.mu, False)


def test_stage_lemma_reads_only_records_the_check_made():
    """Stage 4's z-check reads stage 2's record by the stage lemma. No record
    can be built by hand or copied by `copy_record`. The record of
    an equal stage 2 played apart (forged), or of stage 4 itself (stale),
    is no evidence for stage 2's objects: II's move checks in full with
    either, and check_z_bullets with the stale one; a decoded chain's
    members are checked in full, its tail's first member from the last
    member's record this check made."""
    from ascentlab.amalgam import check_z_bullets
    from ascentlab.foundations import Proof
    t, mv2, args = stage_pair()
    ev = mv2.bullets
    names = ((mv2.cond, mv2.z), (mv2.stage, t.mu, False))
    assert proves(ev, "z-bullets", *names)
    assert lemma_checks(check_z_bullets, *args, ev) == [args[0]]
    with pytest.raises(TypeError):
        Proof("z-bullets", *names)
    with pytest.raises(TypeError):
        copy_record(ev)
    forged, stale = stage_pair()[1].bullets, t.moves[4].bullets
    assert lemma_checks(check_z_bullets, *args, stale) == []
    # the forged record is a pass of equal objects, so check_z_bullets,
    # which cannot tell, reads it; binding it to stage 2 is II's move's part
    assert lemma_checks(check_z_bullets, *args, forged) == [args[0]]
    for rec in (forged, stale):
        assert rec is not ev and not proves(rec, "z-bullets", *names)
        state = GameState(t.mu, 0, moves=list(t.moves[:4]))
        state.moves[2] = copy_record(mv2, bullets=rec)
        assert lemma_checks(strategy_ii_move, state, args[0]) == []
        state.moves[2] = mv2
        assert lemma_checks(strategy_ii_move, state, args[0]) == [args[0]]
    from ascentlab import serialize as sz
    ch = limit_chains(Ordinal(1, 4), onestep_opponent(), 0)[0]
    decoded = sz.dec_chain(sz.enc_chain(ch))
    assert all(m.bullets is None for m in decoded.members)
    assert lemma_checks(validate_chain, decoded) == [decoded.tail.next_member(decoded.members[-1]).beta]


@pytest.mark.parametrize("height", [4, 2], ids=["top", "below"])
def test_stage_lemma_not_read_over_an_explicit_level(height):
    """Stage 4's tree with its level 4 (its top), or level 2 (stage 2's
    top), listed as the members of z(5) and z(6) there: z(7) is outside it.
    The tree's level tuples are not stage 2's, so its record is not read,
    and the check names z(7) as the full check does."""
    from ascentlab.amalgam import check_z_bullets
    from ascentlab.trees import SymTree
    t, mv2, (beta, cond, z, mu, closed) = stage_pair()
    h = Ordinal(0, height)
    listed = tuple(z.at(Ordinal(0, n)).restrict(h) for n in (5, 6))
    tree = SymTree.make(cond.tree.height, {h: listed}, dict(cond.tree.catalogs))
    cond = Condition(tree, cond.path, cond.variant, cond.x)
    assert lemma_checks(check_z_bullets, beta, cond, z, mu, closed, mv2.bullets) == []
    with pytest.raises(HypothesisViolated, match=r"\(z-top-level\): z\(7\) outside the tree"):
        check_z_bullets(beta, cond, z, mu, closed, mv2.bullets)


def test_stage_lemma_not_read_over_a_listed_level_above_a_member():
    """A chain's last member with one node listed at the height above its
    top: its own z-check and its pairs do not read that level, but its tail
    members share the tree's level tuples and grow through it, so their
    z-values fall outside the tree. The level lies between the two tops, so
    the stage lemma is not read, and validate_chain names the failure."""
    from ascentlab.trees import SymTree
    ch = limit_chains(Ordinal(1, 4), onestep_opponent(), 0)[0]
    m = ch.members[-1]
    h = m.cond.eta.succ()
    tree = SymTree.make(m.cond.tree.height, {h: (const_node(1, h),)}, dict(m.cond.tree.catalogs))
    bad = with_member(ch, len(ch.members) - 1,
                      cond=Condition(tree, m.cond.path, m.cond.variant, m.cond.x))
    with pytest.raises(HypothesisViolated, match=r"\(z-top-level\): z\(9\) outside the tree"):
        validate_chain(bad)


def test_a_level_listed_above_the_first_tail_member_fails_z_top_level():
    """The last member's tree with one node listed one height above the
    tail's first member's top: no member's check reads it, but the later
    tail members grow through it, with infinitely many distinct z-values
    (the first member's pass z-pairwise), which no finite list holds.
    validate_chain names the level; the reference over three tail members
    finds a z-value outside the tree at the member that reaches it."""
    from ascentlab.trees import SymTree
    ch = limit_chains(Ordinal(1, 4), onestep_opponent(), 0)[0]
    m = ch.members[-1]
    h = ch.tail.next_member(m).cond.eta.succ()
    tree = SymTree.make(m.cond.tree.height, {h: (const_node(1, h),)}, dict(m.cond.tree.catalogs))
    bad = with_member(ch, -1, cond=Condition(tree, m.cond.path, m.cond.variant, m.cond.x))
    with pytest.raises(HypothesisViolated, match=rf"\(z-top-level\): the tail's z-values pass level {h},"):
        validate_chain(bad)
    with pytest.raises(HypothesisViolated, match=r"\(z-top-level\): z\(11\) outside the tree"):
        all_pairs_validate_chain(bad)


def test_a_last_token_over_a_limit_height_member_is_refused():
    """A game's second chain cut after its limit-stage member: the z-values
    of that member have the limit height and no final entry, so the tail's
    ("last",) token has nothing to repeat. validate_chain refuses the tail
    (exit 2 at the CLI), where building its first member raised ValueError
    (exit 1)."""
    ch = limit_chains(Ordinal(2, 2), onestep_opponent(), 0)[1]
    i = [m.beta for m in ch.members].index(Ordinal(1, 0))
    cut = copy_record(ch, members=ch.members[:i + 1])
    for validate in (validate_chain, all_pairs_validate_chain):
        with pytest.raises(HypothesisViolated, match=r"\(tail-shape\): a 'last' token repeats a "
                           r"final entry, which no value of the limit height w has"):
            validate(cut)


def test_validate_chain_builds_one_tail_member(monkeypatch):
    """Count guard: each amalgamate, through validate_chain, builds one tail
    member, on the chains of a game past two limits and on the fixture
    chains, and no more on the chains it refuses."""
    from ascentlab.fixtures import uniform_chain
    chains = limit_chains(Ordinal(2, 2), onestep_opponent(), 0)
    chains += [uniform_chain(k, Ordinal(1, 2), closed) for k in (1, 3) for closed in (False, True)]
    calls = []
    next_member = amalgam.ChainTail.next_member
    monkeypatch.setattr(amalgam.ChainTail, "next_member",
                        lambda tail, m: calls.append(m) or next_member(tail, m))
    for ch in chains:
        amalgamate(ch)
    assert calls == [ch.members[-1] for ch in chains]
    calls.clear()
    bad = with_member(chains[0], 2, cond=relabelled(chains[0].members[2].cond))
    with pytest.raises(HypothesisViolated, match=r"\(decreasing\)"):
        validate_chain(bad)
    assert len(calls) == 1


def test_decreasing_failure_names_the_first_pair_in_order():
    """A member that extends none of its predecessors fails against the
    first member before its neighbour."""
    ch = limit_chains(Ordinal(1, 4), onestep_opponent(), 0)[0]
    bad = with_member(ch, 2, cond=relabelled(ch.members[2].cond))
    with pytest.raises(HypothesisViolated) as e:
        validate_chain(bad)
    assert str(e.value) == (f"chain hypothesis failed (decreasing): stage "
                            f"{ch.members[2].beta} does not extend {ch.members[0].beta}")


# -- near-linear games: collision counts ----------------------------------------

def test_long_game_collision_and_walk_counts(monkeypatch):
    """A game of length 256 and its invariant check try O(n) piece pairs and
    walk O(n) coordinates: 2,779,904 calls deciding a pair of value pieces
    (`_least_shared`) when every z-pairwise check compared all pairs of the
    domain's points, and 32,640 value piece lists when every one-step walked
    its whole top. By the stage lemma, each even stage's z-check after the
    first reads only the coordinates its stage adds: `_slot_pairs` yields
    O(n) entry pairs (32,766 when every z-check walked every coordinate),
    and only stage 2 is walked in full, once in play and once in the
    invariants (127 and 127 before)."""
    from ascentlab import ascent
    from scaling import counted_long_game
    counts = {"pairs": 0, "walk": 0}

    def counting(key, fn):
        def wrapped(*args, **kw):
            counts[key] += 1
            return fn(*args, **kw)
        return wrapped
    monkeypatch.setattr(ascent, "_least_shared", counting("pairs", ascent._least_shared))
    monkeypatch.setattr(ascent, "_value_pieces", counting("walk", ascent._value_pieces))
    n = 256
    t, report, calls, walks = counted_long_game(n)
    assert t.verdict == "II_completed" and report.ok
    assert counts["pairs"] <= n and counts["walk"] <= 2 * n
    assert calls["_slot_pairs"] <= 4 * n
    assert walks == {"play": [Ordinal(0, 2)], "invariants": [Ordinal(0, 2)]}


def test_game_builds_levels_and_trees_without_rechecks(monkeypatch):
    """A seeded game to omega+4 and its invariant check build almost every
    level and tree by growing a checked one, which is not checked again.
    Only the root level and the amalgam at omega go through
    `AscentLevel.make`, and only the amalgam's tree through `SymTree.make`;
    when every append and graft went through them, they made 31 partition
    checks and 14 tree builds."""
    from ascentlab import ascent, trees
    counts = {"partition": 0, "tree": 0}
    check_partition, make_tree = ascent.AscentLevel._check_partition, trees.SymTree.make

    def counting_partition(self):
        counts["partition"] += 1
        return check_partition(self)

    def counting_tree(*args, **kw):
        counts["tree"] += 1
        return make_tree(*args, **kw)
    monkeypatch.setattr(ascent.AscentLevel, "_check_partition", counting_partition)
    monkeypatch.setattr(trees.SymTree, "make", staticmethod(counting_tree))
    t = play_game(Ordinal(1, 4), random_opponent(3), 0)
    assert t.verdict == "II_completed" and check_run_invariants(t).ok
    assert counts == {"partition": 2, "tree": 1}
