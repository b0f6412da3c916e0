import random

import pytest

from ascentlab.foundations import OMEGA_NAT, Ordinal, ZERO
from ascentlab.amalgam import ChainDescriptor, amalgamate
from ascentlab.conditions import S_X, check_condition, eta_nu
from ascentlab.game import (
    GameState, Move, NotIIsTurn, Transcript, check_run_invariants,
    misbehaving_opponent, onestep_opponent, play_game, random_opponent,
    strategy_ii_move, _game_tail,
)


def test_strategy_opening_and_stage2():
    st = GameState(Ordinal(0, 6), 0)
    st.moves.append(strategy_ii_move(st))
    assert st.moves[0].cond.eta == ZERO
    # I plays a top one-step
    opp = onestep_opponent()
    st.moves.append(Move(Ordinal(0, 1), "I",
                         opp.explicit(st.moves[0].cond, Ordinal(0, 1), random.Random(0))))
    mv2 = strategy_ii_move(st)
    assert mv2.stage == Ordinal(0, 2)
    assert eta_nu(mv2.cond)[1] == OMEGA_NAT
    assert mv2.z is not None
    # z defined on (2, mu)
    assert mv2.z.in_domain(Ordinal(0, 3))
    assert mv2.z.in_domain(Ordinal(0, 5))
    assert not mv2.z.in_domain(Ordinal(0, 6))


def test_strategy_rejects_odd_stage():
    st = GameState(Ordinal(0, 6), 0)
    st.moves.append(strategy_ii_move(st))
    with pytest.raises(NotIIsTurn):
        strategy_ii_move(st)


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


def test_illegal_opponent_flagged():
    t = play_game(Ordinal(0, 6), misbehaving_opponent(Ordinal(0, 3)), 0)
    assert t.verdict == "illegal_opponent"
    assert t.illegal_stage == Ordinal(0, 3)


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
    from ascentlab.amalgam import ZMap
    k1, k2 = Ordinal(0, 3), Ordinal(0, 4)
    dup = dict(mv.z.entries)
    tampered_entries = {k1: mv.z.at(k2), k2: mv.z.at(k2)} | dup
    bad_z = ZMap.make(mv.z.lo, mv.z.hi, mv.z.closed_hi, (), tampered_entries)
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
