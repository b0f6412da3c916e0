"""The descending game on the dense triple set and the second player's
winning strategy.

Convention: II moves at even stages including 0 and limits, I at odd
stages; II wins when the run reaches the requested length. II's recipe:
stage 0 the maximal triple, stage 2 a top one-step with a fresh injective
family of auxiliary branches, stage alpha+2 a one-step over the previous
even stage's height (its below parts then repeat that stage's values, which
is what keeps the auxiliary branches exclusive), limit stages the chain
amalgamation over the even sub-run.

Runs whose length passes a limit play an explicit prefix; the remaining
stages up to the limit follow the uniform rule, in which both players make
top one-steps with the standard labels, and the limit move consumes the
resulting described chain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from .foundations import DEFAULT_X, FULL_SET, Ordinal, Proof, XSequence, ZERO, W_LIMIT, proves
from .ascent import AP, Cell, standard_append, supp
from .nodes import Ramp, graft
from .conditions import (
    Condition, S_X, leq_s, one_step_extension, root_condition,
)
from .amalgam import (
    ChainDescriptor, ChainMember, ChainTail, HypothesisViolated, ZMap,
    amalgamate, check_z_bullets,
)
from .fixtures import odd_label


class NotIIsTurn(ValueError):
    pass


class StateCorrupt(ValueError):
    pass


EXPLICIT_STAGES = 7  # stages 0..6 are played concretely before a limit jump
Z_OFFSET = 9  # shifts II's auxiliary labels away from the opponent's


@dataclass(frozen=True, slots=True)
class Move:
    stage: Ordinal
    mover: str                      # "I" or "II"
    cond: Condition
    z: Optional[ZMap] = None
    # the "z-bullets" record of II's own check of (stage, cond, z); not part of the move
    bullets: Optional[Proof] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Transcript:
    mu: Ordinal
    xi: int
    moves: tuple[Move, ...]
    verdict: str                    # II_completed | I_stuck | illegal_opponent
    illegal_stage: Optional[Ordinal] = None
    notes: tuple[str, ...] = ()


@dataclass(slots=True)
class GameState:
    """A run in progress; mutated only by its own run."""

    mu: Ordinal
    xi: int
    x: XSequence = DEFAULT_X
    moves: list[Move] = field(default_factory=list)

    @property
    def next_stage(self) -> Ordinal:
        if not self.moves:
            return ZERO
        last = self.moves[-1].stage
        return last.succ()

    def at_stage(self, stage: Ordinal) -> Move:
        for mv in self.moves:
            if mv.stage == stage:
                return mv
        raise StateCorrupt(f"stage {stage} missing from the run")

    def even_members(self, below: Ordinal) -> list[ChainMember]:
        out = []
        for mv in self.moves:
            if mv.z is not None and ZERO < mv.stage < below:
                out.append(ChainMember(mv.stage, mv.cond, mv.z, mv.bullets))
        return out


def _fresh_z(cond: Condition, lo: Ordinal, mu: Ordinal, offset: int) -> ZMap:
    """Stage-2 style auxiliary family: below the top everything repeats the
    0-column, the appended labels are fresh odds, injectively keyed. Blocks
    strictly between the stage and the run length contribute whole cells."""
    eta = cond.eta
    base = cond.top.at(0).restrict(eta.pred())
    cells = [(lo.w, Cell(AP(lo.n + 1, 1),
                         base.append(Ramp(16, 16 * (lo.n + 1) + 1 + 32 * offset))))]
    entries = {}
    for w in range(lo.w + 1, mu.w + 1):
        if w < mu.w:
            cells.append((w, Cell(AP(0, 1),
                                  base.append(Ramp(16, 2 * w + 1 + 32 * offset)))))
        else:
            for n in range(mu.n):
                key = Ordinal(w, n)
                entries[key] = base.append(odd_label(key, offset))
    return ZMap.make(lo, mu, False, tuple(cells), entries)


def _z_graft_step(prev: ZMap, new_lo: Ordinal, cond: Condition, offset: int) -> ZMap:
    """Successor-stage auxiliary family: every branch above new_lo grows by
    the 0-column's values and one fresh odd label."""
    eta = cond.eta
    col0 = cond.top.at(0).restrict(eta.pred())
    z = prev.above(new_lo)
    cells = tuple((w, Cell(c.ap, graft(c.template, col0).append(
        Ramp(16 * c.ap.step, 16 * c.ap.start + 2 * w + 1 + 32 * offset)))) for w, c in z.cells)
    entries = tuple((k, graft(v, col0).append(odd_label(k, offset))) for k, v in z.entries)
    return replace(z, cells=cells, entries=entries)


def strategy_ii_move(state: GameState, stage: Ordinal) -> Move:
    """II's move at the given stage, the next one or a limit after a jump;
    raises NotIIsTurn off turn.

    Evidence read: at a successor stage past 2, the record of II's move two
    stages before (`Move.bullets`), for the stage lemma of its z-check (see
    `amalgam.check_z_bullets`), when `foundations.proves` accepts it for that
    move's very objects, and the new top's graft record for that move's top."""
    if stage.n % 2 == 1:
        raise NotIIsTurn(f"stage {stage} belongs to I")
    if stage.is_zero:
        return Move(stage, "II", root_condition(S_X, state.x))
    if stage.is_limit:
        return _limit_move(state, stage)
    prev = state.at_stage(stage.pred())
    after = None
    if stage == Ordinal(0, 2):
        cond = one_step_extension(prev.cond, prev.cond.eta)
        z = _fresh_z(cond, stage, state.mu, Z_OFFSET)
    else:
        alpha = state.at_stage(Ordinal(stage.w, stage.n - 2))
        cond = one_step_extension(prev.cond, alpha.cond.eta)
        if alpha.z is None:
            raise StateCorrupt(f"stage {alpha.stage} lacks its auxiliary family")
        z = _z_graft_step(alpha.z, stage, cond, Z_OFFSET)
        # the lemma's other hypotheses: the new top is grafted over alpha's
        # (full support), and each value of z is alpha's value at its key
        # grafted under the 0-column and appended (end-extension)
        top = cond.top
        if proves(alpha.bullets, "z-bullets", (alpha.cond, alpha.z), (alpha.stage, state.mu, False)) \
                and proves(top.grafted, "graft", (alpha.cond.top, top.cells, top.exceptions), ()):
            after = alpha.bullets
    return Move(stage, "II", cond, z, check_z_bullets(stage, cond, z, state.mu, False, after))


def _game_tail(state: GameState) -> ChainTail:
    """The uniform continuation: I and II each append the standard labels;
    each branch repeats the 0-column value then its own label."""
    scheme = standard_append(state.moves[-1].cond.top)
    return ChainTail(2, (scheme, scheme), (("const", 0), ("last",)))


def _limit_move(state: GameState, stage: Ordinal) -> Move:
    members = state.even_members(stage)
    if not members:
        raise StateCorrupt("limit stage reached with no even history")
    ch = ChainDescriptor(tuple(members), _game_tail(state), stage, state.mu)
    cond, z = amalgamate(ch)
    return Move(stage, "II", cond, z)


@dataclass(frozen=True, slots=True)
class OpponentPolicy:
    """I's behaviour: a free explicit phase; for runs over a limit, the
    stages after it follow the uniform rule (top one-steps with the
    standard labels, see `_game_tail`)."""

    name: str
    explicit: Callable[[Condition, Ordinal, random.Random], Condition]
    seed: int = 0


def onestep_opponent() -> OpponentPolicy:
    def go(cond: Condition, stage: Ordinal, rng: random.Random) -> Condition:
        return one_step_extension(cond, cond.eta)
    return OpponentPolicy("onestep[0]", go)


def random_opponent(seed: int) -> OpponentPolicy:
    """Random legal one-steps during the explicit phase."""
    def go(cond: Condition, stage: Ordinal, rng: random.Random) -> Condition:
        beta = Ordinal(cond.eta.w, rng.randrange(0, cond.eta.n + 1)) \
            if cond.eta.w == 0 else cond.eta
        return one_step_extension(cond, beta, label_base=rng.randrange(0, 3))
    return OpponentPolicy(f"random[{seed}]", go, seed=seed)


def _legal(prev: Condition, new: Condition, xi: int) -> bool:
    """Move legality: a strict extension in the triple order over the run's
    X-sequence. Stalling moves are rejected as a game convention, since runs
    of limit length need the heights to climb."""
    if new.variant != S_X or new.x != prev.x or not leq_s(new, prev) \
            or not (new.eta > prev.eta):
        return False
    return prev.x.entry(xi).is_subset(supp(prev.top, new.top))


def play_game(mu: Ordinal, opponent: OpponentPolicy, xi: int,
              x: XSequence = DEFAULT_X) -> Transcript:
    """Alternating run from the maximal triple; II plays the strategy, I the
    policy; illegal moves forfeit."""
    if mu.w > W_LIMIT:
        raise ValueError("game length beyond the ordinal bound")
    rng = random.Random(opponent.seed)
    state = GameState(mu, xi, x)
    notes: list[str] = []
    stage = ZERO
    while stage < mu:
        if stage.n % 2 == 0:
            state.moves.append(strategy_ii_move(state, stage))
        else:
            prev = state.moves[-1].cond
            if stage.n >= EXPLICIT_STAGES and mu.w > stage.w:
                # enter the uniform phase: everything up to the next limit is
                # generated by the rule and certified by the chain validation
                notes.append(f"stages {stage}.. follow the uniform rule")
                stage = Ordinal(stage.w + 1, 0)
                continue
            cand = opponent.explicit(prev, stage, rng)
            if not _legal(prev, cand, xi):
                return Transcript(mu, xi, tuple(state.moves), "illegal_opponent",
                                  stage, tuple(notes))
            state.moves.append(Move(stage, "I", cand))
        stage = state.next_stage
    return Transcript(mu, xi, tuple(state.moves), "II_completed", None, tuple(notes))


@dataclass(frozen=True, slots=True)
class InvariantReport:
    ok: bool
    failures: tuple[str, ...] = ()


def _chain_holds(moves, tops, xxi) -> bool:
    """(order) and (i) between consecutive moves, (iii) between consecutive
    even stages, on tops of non-decreasing height. leq_s is transitive and,
    by the chain lemma in the `ascentlab.conditions` docstring, supports of
    such a chain intersect into the support of its outer pair; so when this
    holds, every pair of moves passes all three."""
    for i in range(1, len(moves)):
        fa, fb = tops[i - 1], tops[i]
        if fa.height > fb.height or not leq_s(moves[i].cond, moves[i - 1].cond) \
                or not xxi.is_subset(supp(fa, fb)):
            return False
    even_tops = [f for mv, f in zip(moves, tops) if mv.z is not None]
    return all(supp(fa, fb) == FULL_SET for fa, fb in zip(even_tops, even_tops[1:]))


def check_run_invariants(t: Transcript) -> InvariantReport:
    """Re-verify the three strategy requirements over the whole transcript:
    filter support between all stages, the auxiliary-branch requirements at
    even stages, full support and branch coherence between even stages.
    The filter set is X_xi of the run's X-sequence, read from its first
    condition; leq_s raises WrongVariant on a move from another poset.
    All pairs of moves are enumerated only when the consecutive ones fail.

    Evidence read: only what this check computes. No record a move carries
    (`Move.bullets`) is read. An even move's z-bullets are checked with the
    "z-bullets" record of the even move before as `after` (the stage lemma,
    see `amalgam.check_z_bullets`) when this check passed that move's
    z-bullets, `_chain_holds` holds (full support between consecutive even
    tops) and the two z-maps are coherent; otherwise in full."""
    moves = t.moves
    if not moves:
        return InvariantReport(True)
    fails: list[str] = []
    xxi = moves[0].cond.x.entry(t.xi)
    tops = [mv.cond.top for mv in moves]
    holds = _chain_holds(moves, tops, xxi)
    if not holds:
        for i, a in enumerate(moves):
            for j in range(i + 1, len(moves)):
                b = moves[j]
                if not leq_s(b.cond, a.cond):
                    fails.append(f"(order) stage {b.stage} does not extend {a.stage}")
                    continue
                s = supp(tops[i], tops[j])
                if not xxi.is_subset(s):
                    fails.append(f"(i) stages {a.stage},{b.stage}: support misses the filter set")
                if a.z is not None and b.z is not None and s != FULL_SET:
                    fails.append(f"(iii) even stages {a.stage},{b.stage}: support not full")
    evens = [mv for mv in moves if mv.z is not None]
    keys = [a.z.incoherent_key(b.z) for a, b in zip(evens, evens[1:])]
    ev = None                       # this check's record of the even move before
    for i, mv in enumerate(evens):
        after = ev if holds and i and keys[i - 1] is None else None
        try:
            ev = check_z_bullets(mv.stage, mv.cond, mv.z, t.mu, False, after)
        except HypothesisViolated as e:
            ev = None
            fails.append(f"(ii) stage {mv.stage}: {e.bullet}")
    for b, k in zip(evens[1:], keys):
        if k is not None:
            fails.append(f"(iii) branch {k} not increasing at stage {b.stage}")
    return InvariantReport(not fails, tuple(fails))
