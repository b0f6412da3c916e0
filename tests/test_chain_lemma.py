"""The chain lemma's shortcuts against their all-pairs references.

C2 in check_condition, and requirements (order), (i) and (iii) of
check_run_invariants, check adjacent pairs and enumerate all pairs only
after one fails; by the append lemma, C2 checks only the new coordinate
of a level whose full support joins it to an exclusive level one height
below; AscentLevel.restrict, AscentLevel.append_entries, graft_levels and
TailRule.level_at skip AscentLevel.make. Each must give exactly what the
all-pairs, full-walk or make-based reference in oracles.py gives,
on valid inputs and on inputs corrupted so that an adjacent pair fails or
an appended coordinate collides.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from ascentlab import conditions
from ascentlab.ascent import (
    AP, AppendScheme, AscentLevel, Cell, ShortScheme, TailRule, constant_level, fill_level,
    graft_levels, restrict_level_domain,
)
from ascentlab.conditions import S_THETA, S_X, VARIANTS, Condition, check_condition
from ascentlab.fixtures import bad_path_conditions, random_tower
from ascentlab.foundations import (
    DEFAULT_X, ZERO, Ordinal, Proof, UPSet, XSequence, multiples, proves,
)
from ascentlab.game import check_run_invariants, play_game, random_opponent
from ascentlab.nodes import BlockWord, Ramp, SymNode, const_node, mk_entry, node_patch
from oracles import (
    all_pairs_chain_violations, all_pairs_run_invariants, append_via_make, clause,
    full_walk_me_chain, graft_via_make, probe_keys, restrict_via_make, tail_level_via_make,
)

PROPERTY = settings(max_examples=30, deadline=None)


# -- C2: check_condition ------------------------------------------------------

def corrupt_level(cond: Condition, h: Ordinal, keep: UPSet) -> Condition:
    """Level h replaced, off the index set `keep`, by a constant odd label
    that no standard (even) ascent label matches."""
    cells, exc = restrict_level_domain(cond.level(h), keep)
    bad = fill_level(h, cells, exc, constant_level(h, const_node(7, h)))
    return Condition(cond.tree, cond.path.with_level(h, bad), cond.variant, cond.x)


@st.composite
def towers(draw):
    cond = random_tower(random.Random(draw(st.integers(0, 10**6))), max_height=6)
    if draw(st.booleans()):
        k = draw(st.integers(1, cond.eta.n))
        step = draw(st.sampled_from([1, 2, 4]))
        residues = draw(st.frozensets(st.integers(0, step - 1), max_size=step - 1))
        cond = corrupt_level(cond, Ordinal(0, k), UPSet.make(0, step, residues, frozenset()))
    return cond


@PROPERTY
@given(towers())
def test_check_condition_matches_all_pairs(cond):
    for variant in VARIANTS:
        got = check_condition(cond, variant)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conditions, "supp_chain_violations", all_pairs_chain_violations)
            want = check_condition(cond, variant)
        assert got.variant == want.variant
        assert got.clauses == want.clauses
        assert got.violations == want.violations
        assert got.checked_heights == want.checked_heights


def test_corrupted_level_fails_adjacent_pair():
    cond = corrupt_level(random_tower(random.Random(3), max_height=6), Ordinal(0, 2),
                         UPSet.make(0, 2, frozenset({1}), frozenset()))
    rep = check_condition(cond, "stheta")
    assert not clause(rep, "C2")
    assert any("supp(1,2)" in v for v in rep.violations)


# -- C2 exclusivity: the append lemma against the full walk -------------------

def append_collision(cond: Condition, k: int, entries, labels) -> Condition:
    """Level k rebuilt as level k - 1 plus the given appended entries (one
    per cell of level k - 1) and exception labels, which may collide."""
    below = cond.level(Ordinal(0, k - 1))
    scheme = AppendScheme(tuple(entries[i % len(entries)] for i in range(len(below.cells))),
                          {key: labels[i % len(labels)]
                           for i, (key, _) in enumerate(below.exceptions)})
    lvl = below.append_entries(scheme)
    return Condition(cond.tree, cond.path.with_level(Ordinal(0, k), lvl), cond.variant, cond.x)


APPENDED = st.one_of(st.integers(0, 5), st.builds(mk_entry, st.integers(1, 3), st.integers(0, 5)))


@st.composite
def exclusivity_cases(draw):
    """Random towers (some with a level corrupted below the top, as in
    `towers`), or towers whose level k has a random appended coordinate:
    the top, or a level below it, so that the levels above fall back to the
    full walk."""
    cond = draw(towers())
    if draw(st.booleans()):
        k = draw(st.integers(1, cond.eta.n))
        cond = append_collision(cond, k, draw(st.lists(APPENDED, min_size=1, max_size=4)),
                                draw(st.lists(st.integers(0, 5), min_size=1, max_size=4)))
    return cond


def assert_matches_full_walk(cond: Condition) -> None:
    for variant in VARIANTS:
        got = check_condition(cond, variant)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(conditions, "_me_chain", full_walk_me_chain)
            want = check_condition(cond, variant)
        assert (got.clauses, got.violations, got.checked_heights) == (
            want.clauses, want.violations, want.checked_heights)


@PROPERTY
@given(exclusivity_cases())
def test_exclusivity_matches_full_walk(cond):
    assert_matches_full_walk(cond)


def test_exclusivity_matches_full_walk_on_bad_path():
    conds, _ = bad_path_conditions(4, pad=1)
    for cond in conds:
        assert_matches_full_walk(cond)
    assert not clause(check_condition(conds[-1], S_X), "C2")
    assert check_condition(conds[-1], S_THETA).ok


def test_appended_collision_reported_at_new_coordinate():
    """A colliding new coordinate on the top is found by the one-coordinate
    check, with the full walk's detail."""
    cond = random_tower(random.Random(5), max_height=6)
    top = cond.eta.n
    bad = append_collision(cond, top, [0], [0])
    rep = check_condition(bad, S_X)
    assert not clause(rep, "C2")
    assert [v for v in rep.violations if v.startswith("clause C2")] == [
        f"clause C2 (ascent-path): level {top} not mutually exclusive: "
        f"indices 0,1 share a value at (0,{top - 1})"]
    assert_matches_full_walk(bad)


# -- restriction --------------------------------------------------------------

ENTRIES = st.one_of(st.integers(0, 9), st.builds(Ramp, st.integers(1, 4), st.integers(0, 9)))


def nodes_of(height: Ordinal, entries):
    words = st.builds(BlockWord.make, st.lists(entries, max_size=2),
                      st.lists(entries, min_size=1, max_size=2))
    return st.builds(SymNode, st.tuples(*[words] * height.w),
                     st.tuples(*[entries] * height.n))


@st.composite
def levels_and_heights(draw):
    height = Ordinal(draw(st.integers(0, 2)), draw(st.integers(0, 3)))
    step = draw(st.integers(1, 4))
    cells = [Cell(AP(r, step), draw(nodes_of(height, ENTRIES))) for r in range(step)]
    exc = draw(st.dictionaries(st.integers(0, 12), nodes_of(height, st.integers(0, 9)),
                               max_size=3))
    level = AscentLevel.make(height, cells, exc)
    w = draw(st.integers(0, height.w))
    n = draw(st.integers(0, height.n if w == height.w else 4))
    return level, Ordinal(w, n)


@PROPERTY
@given(levels_and_heights())
def test_restrict_matches_make(case):
    level, alpha = case
    assert level.restrict(alpha) == restrict_via_make(level, alpha)
    assert level.restrict(level.height) is level


@st.composite
def schemes_for(draw, level: AscentLevel):
    """An append scheme with one entry per cell and an int label per
    exception."""
    return AppendScheme(tuple(draw(ENTRIES) for _ in level.cells),
                        {k: draw(st.integers(0, 9)) for k, _ in level.exceptions})


@PROPERTY
@given(levels_and_heights(), st.data())
def test_append_entries_matches_make(case, data):
    """The same level as `make` builds from the appended pieces: the same
    cells and exceptions in the same order, so the same hash."""
    level, _ = case
    scheme = data.draw(schemes_for(level))
    got = level.append_entries(scheme)
    want = append_via_make(level, scheme)
    assert got == want and hash(got) == hash(want)
    assert got.cells == want.cells and got.exceptions == want.exceptions


@PROPERTY
@given(levels_and_heights(), levels_and_heights())
def test_graft_levels_matches_make(low_case, high_case):
    low, high = low_case[0], high_case[0]
    got, want = graft_levels(low, high), graft_via_make(low, high)
    assert got == want and got.cells == want.cells and got.exceptions == want.exceptions
    assert proves(got.grafted, "graft", (low, got.cells, got.exceptions), ())


def append_errors(level: AscentLevel, scheme: AppendScheme) -> list:
    """The error each of `append_entries` and its make-based reference
    raises, as (type, message)."""
    out = []
    for build in (level.append_entries, lambda s: append_via_make(level, s)):
        with pytest.raises(Exception) as e:
            build(scheme)
        out.append((type(e.value), str(e.value)))
    return out


def test_append_entries_refuses_what_make_refuses():
    """A missing exception label and a label that is not an int raise what
    `make` raises. A scheme with fewer entries than cells is rejected
    (`ShortScheme`, exit 2 in the CLI), where `make` finds the level's
    pieces short of omega."""
    level = AscentLevel.make(Ordinal(0, 1), [Cell(AP(0, 2), SymNode((), (Ramp(2, 0),))),
                                             Cell(AP(1, 2), SymNode((), (3,)))], {0: SymNode((), (5,))})
    short = append_errors(level, AppendScheme((1,), {0: 1}))
    assert short == [(ShortScheme, "append scheme has fewer cell entries (1) than its level has "
                                   "cells (2)"), (ValueError, "level pieces do not cover omega")]
    missing = append_errors(level, AppendScheme((1, 2), {}))
    assert missing == [(KeyError, "0")] * 2
    ramp = append_errors(level, AppendScheme((1, 2), {0: Ramp(1, 0)}))
    assert ramp == [(ValueError, "exception nodes must be concrete")] * 2
    # a label that is not an int outranks a short scheme, as in make
    both = append_errors(level, AppendScheme((1,), {0: Ramp(1, 0)}))
    assert both == [(ValueError, "exception nodes must be concrete")] * 2


# -- tail rules keep their levels ----------------------------------------------

@st.composite
def tail_rules(draw):
    level, _ = draw(levels_and_heights())
    start = level.height.n
    schemes = tuple(draw(schemes_for(level)) for _ in range(draw(st.integers(1, 3))))
    return TailRule(start, level, schemes)


@PROPERTY
@given(tail_rules(), st.lists(st.integers(0, 7), max_size=6))
def test_tail_rule_level_at_matches_make(rule, offsets):
    """Read in any order, each level is the one rebuilt from the base, and
    one object per n."""
    for k in offsets:
        n = rule.start + k
        lvl = rule.level_at(n)
        assert lvl == tail_level_via_make(rule, n)
        assert rule.level_at(n) is lvl
    assert rule.level_at(rule.start) is rule.base
    assert rule == TailRule(rule.start, rule.base, rule.schemes)
    assert hash(rule) == hash(TailRule(rule.start, rule.base, rule.schemes))


def test_tail_rule_reads_in_order_append_once_each(monkeypatch):
    """Reading n = start .. start+k in order makes k appends, and reading
    them again makes none."""
    calls = []
    append = AscentLevel.append_entries

    def counting(self, scheme):
        calls.append(scheme)
        return append(self, scheme)
    monkeypatch.setattr(AscentLevel, "append_entries", counting)
    base = constant_level(Ordinal(0, 2), const_node(0, Ordinal(0, 2)))
    schemes = (AppendScheme((Ramp(2, 0),)), AppendScheme((Ramp(2, 1),)))
    rule = TailRule(2, base, schemes)
    k = 9
    levels = [rule.level_at(n) for n in range(2, 3 + k)]
    assert len(calls) == k
    assert calls == [schemes[i % 2] for i in range(k)]
    again = [rule.level_at(n) for n in range(2, 3 + k)]
    assert len(calls) == k and all(a is b for a, b in zip(levels, again))
    with pytest.raises(ValueError, match="below tail start"):
        rule.level_at(1)


# -- game run invariants ----------------------------------------------------------

OTHER_X = XSequence(multiples(3), 6)


@st.composite
def transcripts(draw, x: XSequence = DEFAULT_X):
    mu = draw(st.sampled_from([Ordinal(0, 8), Ordinal(0, 14), Ordinal(1, 4)]))
    t = play_game(mu, random_opponent(draw(st.integers(0, 10**6))), draw(st.integers(0, 2)), x)
    corruption = draw(st.sampled_from(["none", "stale", "swap", "retop"]))
    moves = list(t.moves)
    i = draw(st.integers(2, len(moves) - 1))
    if corruption == "stale":      # a move repeats an earlier condition
        moves[i] = dataclasses.replace(moves[i], cond=moves[i - 2].cond)
    elif corruption == "swap":     # two consecutive moves out of order
        moves[i - 1], moves[i] = moves[i], moves[i - 1]
    elif corruption == "retop":    # a top level that keeps only the multiples of 4,
        cond = moves[i].cond       # which hold DEFAULT_X's X_1 but not OTHER_X's
        moves[i] = dataclasses.replace(moves[i], cond=corrupt_level(cond, cond.eta, multiples(4)))
    return dataclasses.replace(t, moves=tuple(moves))


@settings(max_examples=20, deadline=None)
@given(transcripts())
def test_run_invariants_match_all_pairs(t):
    assert check_run_invariants(t) == all_pairs_run_invariants(t, DEFAULT_X)


@settings(max_examples=20, deadline=None)
@given(transcripts(OTHER_X))
def test_run_invariants_match_all_pairs_over_the_run_x(t):
    """Runs played over another X-sequence are checked against its sets."""
    assert check_run_invariants(t) == all_pairs_run_invariants(t, OTHER_X)


# -- the stage lemma: each z-check after the first reads what its stage adds -----

def patched_z(z, eps, value):
    """z with coordinate eps set to `value` in its first cell's template,
    or, without cells (past the last limit), in its first entry."""
    from ascentlab.amalgam import ZMap
    if z.cells:
        (w, c), *rest = z.cells
        return dataclasses.replace(z, cells=((w, Cell(c.ap, node_patch(c.template, {eps: value}))),
                                             *rest))
    (k, v), *rest = z.entries
    return ZMap.make(z.lo, z.hi, z.closed_hi, (), {k: node_patch(v, {eps: value}), **dict(rest)})


def patched_top(cond, value):
    """cond with coordinate 0 of its top's first cell template set to
    `value`; the tree and the other levels are kept."""
    top = cond.top
    (c, *rest) = top.cells
    top = AscentLevel(top.height, (Cell(c.ap, node_patch(c.template, {ZERO: value})), *rest),
                      top.exceptions)
    return Condition(cond.tree, cond.path.with_level(cond.eta, top), cond.variant, cond.x)


@st.composite
def corrupted_runs(draw):
    """A played run and a corruption of one even successor move past stage
    2: a z value or a top cell entry meeting the other at coordinate 0 (a
    collision below the move's height that a misread lemma would skip), a
    z value meeting the top at the first coordinate the move adds (which
    the lemma must read), such a z at coordinate 0 carried with a forged
    record of an equal move played apart or on a `dataclasses.replace` copy
    of the move (no record can be copied), or I's next move with a level
    below swapped.
    Returns the run, the moves before the next even stage, and that stage
    (None when the corrupted move is the run's last even move)."""
    mu = draw(st.sampled_from([Ordinal(0, 8), Ordinal(0, 14), Ordinal(1, 6), Ordinal(2, 2)]))
    seed, xi = draw(st.integers(0, 10**6)), draw(st.integers(0, 2))
    t = play_game(mu, random_opponent(seed), xi)
    moves = list(t.moves)
    evens = [i for i, mv in enumerate(moves) if mv.bullets is not None and mv.stage > Ordinal(0, 2)]
    i = draw(st.sampled_from(evens))
    mv = moves[i]
    kind = draw(st.sampled_from(["none", "z", "mid", "top", "forged", "replaced", "swap"]))
    key = probe_keys(mv.z)[0]
    low_z = patched_z(mv.z, ZERO, mv.cond.top.at(1).eval_at(ZERO))
    if kind == "z":
        moves[i] = dataclasses.replace(mv, z=low_z)
    elif kind == "mid":
        # the first coordinate this stage adds: the z-values still extend
        # the earlier stage's, so the invariants read this move by the lemma
        eps = next(m for m in moves[i - 1::-1] if m.z is not None).cond.eta
        moves[i] = dataclasses.replace(mv, z=patched_z(mv.z, eps, mv.cond.top.at(1).eval_at(eps)))
    elif kind == "top":
        moves[i] = dataclasses.replace(mv, cond=patched_top(mv.cond, mv.z.at(key).eval_at(ZERO)))
    elif kind == "forged":
        forged = play_game(mu, random_opponent(seed), xi).moves[i].bullets
        moves[i] = dataclasses.replace(mv, z=low_z, bullets=forged)
    elif kind == "replaced":
        with pytest.raises(TypeError):
            dataclasses.replace(mv.bullets)
        moves[i] = dataclasses.replace(mv, z=low_z)
    later = [j for j in range(i + 1, len(moves)) if moves[j].z is not None]
    if kind == "swap" and later and moves[later[0] - 1].mover == "I":
        # I's move before the next even stage with the members 0 and 1 of its
        # level at this move's height swapped: an exclusive level that the
        # next top is grafted over, so the z-values (which repeat member 0
        # below this height) meet member 1 there
        odd = moves[later[0] - 1]
        h = mv.cond.eta
        lvl = odd.cond.level(h)
        lvl = AscentLevel.make(h, lvl.cells, {**dict(lvl.exceptions), 0: lvl.at(1), 1: lvl.at(0)})
        moves[later[0] - 1] = dataclasses.replace(odd, cond=Condition(
            odd.cond.tree, odd.cond.path.with_level(h, lvl), odd.cond.variant, odd.cond.x))
    nxt = moves[later[0]].stage if later else None
    return dataclasses.replace(t, moves=tuple(moves)), moves[:later[0]] if later else None, nxt


@settings(max_examples=40, deadline=None)
@given(corrupted_runs())
def test_stage_lemma_gives_the_full_check(case):
    """Every z-check a site decides by the stage lemma (play, validate_chain
    inside a limit move, check_run_invariants) has the verdict, bullet and
    least key of the full check; a record is read only for the objects it
    names; and the invariants agree with the all-pairs reference."""
    from ascentlab import amalgam, game
    from ascentlab.game import GameState, strategy_ii_move
    t, prefix, nxt = case
    check = amalgam.check_z_bullets
    lemma_calls = []

    def spy(beta, cond, z, delta, closed, after=None):
        if after is not None:
            lemma_calls.append(((beta, cond, z, delta, closed), after))
        return check(beta, cond, z, delta, closed, after)

    def outcome(args, after=None):
        try:
            check(*args, after)
            return "ok"
        except amalgam.HypothesisViolated as e:
            return e.bullet, str(e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amalgam, "check_z_bullets", spy)
        mp.setattr(game, "check_z_bullets", spy)
        if nxt is not None:
            state = GameState(t.mu, t.xi, t.moves[0].cond.x, list(prefix))
            try:
                strategy_ii_move(state, nxt)
            except amalgam.HypothesisViolated:
                pass
        report = check_run_invariants(t)
    # a window of 16 keys per block holds every key of the finite runs here
    # and the least key of each corrupted move's domain
    assert report == all_pairs_run_invariants(t, DEFAULT_X, 16)
    carried = {id(mv.bullets): mv for mv in t.moves if mv.bullets is not None}
    for args, after in lemma_calls:
        assert isinstance(after, Proof) and after.check == "z-bullets"
        assert outcome(args, after) == outcome(args)
        # a record the run carries is read only for the objects of its move
        mv = carried.get(id(after))
        assert mv is None or proves(after, "z-bullets", (mv.cond, mv.z), (mv.stage, t.mu, False))
