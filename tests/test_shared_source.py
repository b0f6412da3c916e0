"""Game runs share path structure, and the checks on them decide by it.

paths_agree_below skips a probe height where both paths have the same
source object (AscentPath.source), and check_z_bullets names the least
index of the top family that a failing z value meets by me_set_concrete.
Each must decide as its
reference in oracles.py does: every probe compared, and every index below
a window tested node by node.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from ascentlab.amalgam import HypothesisViolated, ZMap, check_z_bullets
from ascentlab.ascent import (
    AP, AppendScheme, AscentLevel, AscentPath, Cell, TailRule, level_extensional_eq,
    me_set_concrete, paths_agree_below, root_level,
)
from ascentlab.foundations import ZERO, Ordinal
from ascentlab.game import onestep_opponent, play_game, random_opponent
from ascentlab.nodes import Ramp, SymNode, node_patch
from oracles import all_probes_paths_agree, brute_me_set
from test_chain_lemma import levels_and_heights, nodes_of

PROPERTY = settings(max_examples=30, deadline=None)


# -- me_set_concrete: the lemma that replaced the sampled tau loop -----------------

@st.composite
def probes_and_levels(draw):
    level, _ = draw(levels_and_heights())
    return draw(nodes_of(level.height, st.integers(0, 9))), level


@PROPERTY
@given(probes_and_levels())
def test_me_set_concrete_matches_pointwise(case):
    t, level = case
    got = me_set_concrete(t, level)
    assert {tau for tau in range(64) if tau in got} == brute_me_set(t, level)


def stage_two():
    t = play_game(Ordinal(0, 8), onestep_opponent(), 0)
    return t, t.moves[2]


def test_z_collision_off_the_old_sample_is_named():
    """A z value meeting the top family only at index 4, which the sampled
    loop never looked at, fails z-exclusive with 4 as the witness."""
    t, mv = stage_two()
    top, last = mv.cond.top, mv.cond.eta.pred()
    entries = {Ordinal(0, k): mv.z.at(Ordinal(0, k)) for k in range(3, 8)}
    key = Ordinal(0, 5)
    entries[key] = entries[key].restrict(last).append(top.at(4).eval_at(last))
    bad = set(range(1, 64)) - brute_me_set(entries[key], top)
    assert bad == {4}
    z = ZMap.make(mv.z.lo, mv.z.hi, mv.z.closed_hi, (), entries)
    with pytest.raises(HypothesisViolated, match=r"z\(5\) meets top family at 4$") as e:
        check_z_bullets(mv.stage, mv.cond, z, t.mu, False)
    assert e.value.bullet == "z-exclusive"


# -- paths_agree_below: identity shortcut against every-probe comparison ------------

def split_cells(level: AscentLevel) -> AscentLevel:
    """The same family with every cell cut into its even and odd positions: a
    different object and decomposition, extensionally equal."""
    cells = []
    for c in level.cells:
        cells.append(Cell(AP(c.ap.start, 2 * c.ap.step), c.template.reindex(2, 0)))
        cells.append(Cell(AP(c.ap.start + c.ap.step, 2 * c.ap.step), c.template.reindex(2, 1)))
    return AscentLevel.make(level.height, cells, dict(level.exceptions))


def change_label(level: AscentLevel, tau: int) -> AscentLevel:
    """The family with one coordinate of node tau moved to an unused value."""
    v = level.at(tau)
    eps = Ordinal(level.height.w, level.height.n - 1)
    return AscentLevel.make(level.height, level.cells,
                            level.exc_dict() | {tau: node_patch(v, {eps: v.eval_at(eps) + 1001})})


@st.composite
def condition_pairs(draw):
    mu = draw(st.sampled_from([Ordinal(0, 8), Ordinal(0, 14), Ordinal(1, 4)]))
    t = play_game(mu, random_opponent(draw(st.integers(0, 10**6))), draw(st.integers(0, 2)))
    conds = [mv.cond for mv in t.moves]
    i = draw(st.integers(0, len(conds) - 2))
    j = draw(st.integers(i + 1, len(conds) - 1))
    lower, upper = conds[j], conds[i]
    change = draw(st.sampled_from(["none", "copy", "label", "tail-copy"]))
    side = draw(st.sampled_from(["lower", "upper"]))
    path = lower.path if side == "lower" else upper.path
    heights = [h for h, _ in path.levels if h <= upper.eta and h.n > 0]
    if change in ("copy", "label") and heights:
        h = draw(st.sampled_from(heights))
        lvl = path.level_at(h)
        new = split_cells(lvl) if change == "copy" else change_label(lvl, draw(st.integers(0, 9)))
        path = path.with_level(h, new)
    elif change == "tail-copy" and path.tails:
        path = AscentPath.make(dict(path.levels),
                               {w: dataclasses.replace(r) for w, r in path.tails})
    if side == "lower":
        return path, upper.path, upper.eta
    return lower.path, path, upper.eta


@PROPERTY
@given(condition_pairs())
def test_paths_agree_below_matches_all_probes(case):
    p1, p2, eta = case
    assert paths_agree_below(p1, p2, eta) == all_probes_paths_agree(p1, p2, eta)


def test_extensional_copy_agrees_and_changed_label_does_not():
    t = play_game(Ordinal(0, 8), random_opponent(5), 0)
    lower, upper = t.moves[-1].cond, t.moves[-2].cond
    h = Ordinal(0, 2)
    lvl = upper.path.level_at(h)
    assert lower.path.source(h) is upper.path.source(h)
    copy = upper.path.with_level(h, split_cells(lvl))
    assert copy.source(h) is not lvl
    assert paths_agree_below(lower.path, copy, upper.eta)
    changed = upper.path.with_level(h, change_label(lvl, 3))
    assert not paths_agree_below(lower.path, changed, upper.eta)


def test_tail_rules_differing_in_exception_labels_do_not_agree():
    """Two one-scheme tail rules over one height-1 base whose labels for the
    exception at 0 are 0 and 1: the rules are unequal, their levels at
    height 3 differ, and paths_agree_below says so, as the every-probe
    comparison does. An equal copy of a rule still agrees."""
    base = AscentLevel.make(Ordinal(0, 1), [Cell(AP(1, 1), SymNode((), (Ramp(2, 2),)))],
                            {0: SymNode((), (0,))})
    r1, r2 = (TailRule(1, base, (AppendScheme((Ramp(2, 2),), {0: label}),)) for label in (0, 1))
    p1, p2 = (AscentPath.make({ZERO: root_level()}, {0: r}) for r in (r1, r2))
    assert r1 != r2 and hash(r1) == hash(dataclasses.replace(r1))
    assert not level_extensional_eq(p1.level_at(Ordinal(0, 3)), p2.level_at(Ordinal(0, 3)))
    eta = Ordinal(0, 5)
    assert not paths_agree_below(p1, p2, eta) and not all_probes_paths_agree(p1, p2, eta)
    copy = AscentPath.make({ZERO: root_level()}, {0: dataclasses.replace(r1)})
    assert paths_agree_below(p1, copy, eta) and all_probes_paths_agree(p1, copy, eta)
