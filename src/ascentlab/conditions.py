"""Conditions of the three posets: a successor-height tree paired with an
ascent path, validation per variant, the end-extension order, and the
one-step constructors.

Paths below a limit height carry infinitely many levels; those are stored
as an explicit prefix plus a uniform tail rule (each step appends one fixed
entry per cell). Validation is exact at every explicitly represented height
and at the rule generators; between tail levels comparability propagates as
a ⊆-chain because appending never edits existing coordinates.

Chain lemma. For levels of heights α ≤ β ≤ γ and any index τ, f_α(τ) ⊑ f_β(τ)
and f_β(τ) ⊑ f_γ(τ) give f_α(τ) ⊑ f_γ(τ), so
supp(f_α, f_β) ∩ supp(f_β, f_γ) ⊆ supp(f_α, f_γ). The co-bounded sets and the
filter generated by X are both closed under finite intersection and under
supersets, so when every adjacent pair of a height-ordered chain of levels has
an acceptable support, every pair has. Clause C2 (through
`ascent.supp_chain_violations`), `game.check_run_invariants` and the
`decreasing` and `full-supp` requirements of `amalgam.validate_chain`
therefore check adjacent pairs only, and enumerate all pairs only after an
adjacent pair fails, which keeps their violation lists, and the error
`validate_chain` raises, those of the all-pairs check.

Append lemma. Let β be a height and α = β + 1. If supp(f_β, f_α) is
everything, then f_α(τ)↾β = f_β(τ) for every τ, so at every coordinate
ε < β the map τ ↦ f_α(τ)(ε) is τ ↦ f_β(τ)(ε). Mutual exclusivity is
injectivity at each coordinate, so when f_β is mutually exclusive, f_α is
exactly when it is injective at its new coordinate β. One kernel,
`ascent._me_above`, applies it: it checks only coordinate β of f_α when
f_β is known exclusive and supp(f_β, f_α) is full, and walks every
coordinate otherwise. Clause C2 (through `ascent._me_chain`) knows f_β
exclusive when β's probe comes right before α's and passed. `_one_step`
takes β the old top height η, and knows f_η exclusive when η is 0 or f_η
carries its "me_family" record (`ascent.AscentLevel.exclusive`: made by
`_one_step` and `amalgam.amalgamate` after a passed check, and accepted by
`foundations.proves` only for the very tuples it names, so a forged, stale,
copied or decoded level is walked in full).
Coordinate β is the last one `me_family` walks, so a failure there reads
as the full walk's.

Stage lemma. Let stage i's z-map z_i pass the four z-bullets of
`amalgam.check_z_bullets` against a condition whose top f_i has height η_i.
Let a later stage j have a z-map z_j whose domain lies in z_i's, and a
condition whose top f_j, of a height η_j above η_i in the same block,
extends f_i with full support, whose tree has the level tuples of stage i's
with no explicit level in (η_i, η_j], and each of whose z-values
end-extends z_i's value at its key. Then at every key k of z_j and
coordinate ε < η_i, z_j(k)(ε) = z_i(k)(ε) and f_j(τ)(ε) = f_i(τ)(ε). So
z-top-level needs only the heights: z_j(k)↾η_i = z_i(k) lies in the tree,
whose levels up to η_i are stage i's and whose levels above, up to η_j,
are append levels. z-exclusive needs only the coordinates from η_i on, as
stage i's pass covers those below (`ascent._slot_pairs` and
`ascent._level_meets` take that lower bound). z-pairwise and z-vs-zero read
only the last coordinate at a successor, which η_j is, and are checked as
usual. The record of stage i's pass is the "z-bullets" `foundations.Proof`
that only `check_z_bullets` makes, read for the objects it names (`is`). It
serves whether that pass was decided on whole or on carved pieces (below):
the lemma reads it only at z_j's keys, which lie in z_i's domain, and every
piece form holds each key of the domain with its value. The callers hold
the other hypotheses:
`game.strategy_ii_move` from II's previous move (full support from the
one-step's graft record, `ascent.AscentLevel.grafted`, and end-extension
from the graft step), `amalgam.validate_chain` for a chain's first tail
member, which the tail lemma below gives them, and
`game.check_run_invariants` from its own records, `_chain_holds` and
coherence results.

Tail lemma. Let a chain's uniform tail (`amalgam.ChainTail`) have
beta_step >= 1 and z tokens periodic from their first cycle: the last
token is ("last",), or no token is. Let t_0 be the last explicit member and
t_{k+1} the member the tail builds from t_k. Then:
- t_{k+1} extends t_k by appends only: its tree has t_k's level tuples,
  its top is t_k's with one entry appended per scheme, and each of its
  z-values is t_k's value at its key with the resolved tokens appended. So
  the stages rise, leq_s, full support and z-coherence hold between the
  two by construction.
- A ("last",) token repeats the value's final entry as it stands before
  the cycle. When the last token is ("last",), a cycle ends on that entry
  again, and when no token is, none reads it; so at every key each cycle
  appends what the first one did, and the schemes are fixed. The entries
  t_{k+1} appends, to the top and to every z-value, repeat t_1's at the
  matching coordinates of the cycle, and `ZMap.limit_value` and
  `ZMap.limit_map`, which resolve the tokens once, give the tail's unions.
  Without the hypothesis they do not: tokens ("last",), ("const", 5) on a
  value ending in 3 append 3,5 once and 5,5 after.
- t_{k+1}'s z-domain lies inside t_1's, as its stage is higher.
So every z-bullet that holds at t_1 holds at every later member: below
t_1's top the values and the top are t_1's, z-pairwise, z-vs-zero and
z-exclusive read at each later coordinate the entries t_1 reads at the
matching one, and z-top-level holds as the levels above t_1's top are
append levels, when the tree lists none there in t_1's block. When it
lists one, z-top-level fails at the member that reaches it: t_1's z-values
are infinitely many (the domain holds every stage below gamma above t_1's)
and pairwise distinct, so the later values restricted there are infinitely
many distinct nodes, and a listed level is finite. In the same way each new top level of t_{k+1} is mutually
exclusive when t_1's are, by the append lemma. `amalgam.validate_chain`
therefore builds t_1 alone, checks its new levels (the append lemma) and
its z-bullets (the stage lemma, from t_0's record), and pairs only the
explicit members: a pair (m, t_k) holds when (m, t_0) does, through t_0.

Whole pieces. Each z-bullet speaks of every key, or every pair of distinct
keys, and its value. So it holds on a z-map when it holds on pieces that
hold every key and value of the map and maybe more: the entries and the
cells uncarved (`amalgam.ZMap.whole`), the argument
`ZMap.incoherent_key` already makes for z-coherence. `check_z_bullets`
decides on them first and carves (`ZMap.pieces`) only when that fails, so
each failure and its least key come from the carved pieces.
"""

from __future__ import annotations

from typing import Optional

from .foundations import (
    DEFAULT_X, FULL_SET, OMEGA_NAT, Ordinal, PostconditionFailed, Rejected, UPSet, XSequence,
    ZERO, field, filter_classify, is_cobounded, prove, proves, record,
)
from .ascent import (
    AppendScheme, AscentLevel, AscentPath, TailRule, _me_above, _me_chain, graft_levels,
    me_cross, me_set_concrete, paths_agree_below, root_level, standard_append, supp,
    supp_chain_violations,
)
from .nodes import SymNode, delta, entry_affine, mk_entry
from .trees import ROOT_TREE, SymTree, check_tree, vanishing_levels

S_X, S_F, S_THETA = "sx", "sf", "stheta"
VARIANTS = (S_X, S_F, S_THETA)


class InvalidBeta(Rejected):
    """one-step parameter beta above the condition's top height."""


class WrongVariant(Rejected):
    """Operation applied to a condition of an unsupported variant."""


class NonExclusiveTop(Rejected):
    """A one-step's new top level of an S_X or S_F condition is not
    mutually exclusive."""


class LostComparability(Rejected):
    """A one-step's support from the previous top to the new one is not
    acceptable for the condition's variant."""


class NotSuccessorHeight(Rejected):
    """A condition's tree height is 0 or a limit, so it has no top level."""


@record
class Condition:
    """A pair (tree, ascent path) in one of the posets, tagged by variant."""

    tree: SymTree
    path: AscentPath
    variant: str
    x: XSequence = DEFAULT_X
    # the top height, set once here, and the top level, read on first use;
    # equality, hash and repr read only the fields above
    eta: Ordinal = field(init=False, compare=False, repr=False)
    _top: Optional[AscentLevel] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise WrongVariant(f"unknown variant {self.variant!r}")
        height = self.tree.height
        if not height.is_successor:
            raise NotSuccessorHeight(f"tree height {height} is not a successor")
        object.__setattr__(self, "eta", height.pred())

    def level(self, alpha: Ordinal) -> AscentLevel:
        return self.path.level_at(alpha)

    @property
    def top(self) -> AscentLevel:
        top = self._top
        if top is None:
            top = self.path.level_at(self.eta)
            object.__setattr__(self, "_top", top)
        return top

    def probe_heights(self) -> list[Ordinal]:
        return self.path.probe_heights(self.eta)


def root_condition(variant: str = S_X, x: XSequence = DEFAULT_X) -> Condition:
    return Condition(ROOT_TREE, AscentPath.make({ZERO: root_level()}), variant, x)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@record
class ConditionReport:
    """Clause-by-clause verdicts; ids C1..C4 name the artifact's condition
    clauses (structure, ascent-path, vanishing, exclusivity-filter)."""

    variant: str
    clauses: tuple[tuple[str, bool], ...]
    violations: tuple[str, ...]
    checked_heights: tuple[Ordinal, ...]

    @property
    def ok(self) -> bool:
        return all(v for _, v in self.clauses)


def _supp_ok(variant: str, s: UPSet, x: XSequence) -> bool:
    if variant == S_THETA:
        return is_cobounded(s)
    return filter_classify(s, x).in_filter


def _append_fibers_ok(level: AscentLevel, x: XSequence) -> tuple[bool, str]:
    """Clause-4 piece at the appended coordinate of a successor-height level:
    a cell whose appended labels are constant is exclusivity-bad against one
    label on the whole cell, so its complement must be a filter set."""
    eps = level.height.pred()
    for c in level.cells:
        a, _ = entry_affine(c.template.entry_at(eps))
        if a == 0 and not filter_classify(c.ap.upset().complement(), x).in_filter:
            return False, f"constant append labels on {c.ap}"
    return True, ""


def check_condition(cond: Condition, variant: Optional[str] = None) -> ConditionReport:
    """Variant-dispatched validation; the report carries all violations."""
    variant = variant or cond.variant
    x = cond.x
    bad: list[str] = []
    clauses: dict[str, bool] = {}

    # C1: successor-height normal uniformly homogeneous tree, path totality
    tree_rep = check_tree(cond.tree)
    c1 = tree_rep.ok
    if not (tree_rep.downward_closed and tree_rep.normal and tree_rep.uniformly_homogeneous):
        bad.append("clause C1 (structure): " + "; ".join(tree_rep.notes[:3]))
    if not cond.path.covers(cond.eta):
        c1 = False
        bad.append("clause C1 (structure): ascent path does not cover all heights")
    probes = cond.probe_heights()
    levels = [cond.level(alpha) for alpha in probes]
    for alpha, lvl in zip(probes, levels):
        if lvl.height != alpha:
            c1 = False
            bad.append(f"clause C1 (structure): level at {alpha} has wrong height")
    base = cond.level(ZERO) if cond.path.has(ZERO) else None
    if base is None or any(c.template.dom != ZERO for c in base.cells):
        c1 = False
        bad.append("clause C1 (structure): level 0 must be the constant empty family")
    clauses["C1"] = c1

    # C2: ascent path of the variant's kind
    c2 = True
    adjacent = [supp(f, g) for f, g in zip(levels, levels[1:])]
    for a, b, s in supp_chain_violations(probes, levels, lambda s: _supp_ok(variant, s, x), adjacent):
        c2 = False
        bad.append(f"clause C2 (ascent-path): supp({a},{b}) = {s} unacceptable")
    if variant in (S_X, S_F):
        for alpha, rep in _me_chain(probes, levels, adjacent):
            if not rep.ok:
                c2 = False
                bad.append(f"clause C2 (ascent-path): level {alpha} not mutually exclusive: {rep.detail}")
    # tail levels are pure appends of each other by construction, so the
    # pairwise checks at the sampled cycle extend to the whole tail; the join
    # of a tail base (height start, when <= eta) to the explicit level below
    # it is an adjacent probe pair, checked above
    clauses["C2"] = c2

    if variant in (S_THETA, S_F):
        return ConditionReport(variant, tuple(clauses.items()), tuple(bad), tuple(probes))

    # C3: top limit level vanishing; V(T) is always closed (trees.VanishReport)
    van = vanishing_levels(cond.tree, "full")
    c3 = not cond.eta.is_limit or van.top_limit_in is True
    if not c3:
        bad.append("clause C3 (vanishing): top limit level is not vanishing")
    clauses["C3"] = c3

    # C4: for every t in a nonzero level, {tau : t ME f(level)(tau)} in F
    c4 = True
    for alpha, lvl in zip(probes, levels):
        if alpha.is_zero:
            continue
        kind = cond.tree.level_kind(alpha) if alpha < cond.tree.height else "appends"
        if kind == "appends":
            ok, why = _append_fibers_ok(lvl, x)
            if not ok:
                c4 = False
                bad.append(f"clause C4 (exclusivity-filter): level {alpha}: {why}")
            # lower-coordinate exclusivity transports from the levels below
            # through the supp chain (C2) and the lower clause instances
        elif kind == "explicit":
            for i, t in enumerate(cond.tree.explicit_at(alpha)):
                ms = me_set_concrete(t, lvl)
                if not filter_classify(ms, x).in_filter:
                    c4 = False
                    bad.append(f"clause C4 (exclusivity-filter): fails at level {alpha}, node {i}")
        elif kind == "limit":
            cat = cond.tree.catalog_at(alpha)
            for i, single in enumerate(cat.singles):
                if not single.admitted:
                    continue
                ms = me_set_concrete(single.node, lvl)
                if not filter_classify(ms, x).in_filter:
                    c4 = False
                    bad.append(f"clause C4 (exclusivity-filter): fails at level {alpha}, branch {single.tag}")
            for i, fam in enumerate(cat.families):
                if not fam.admitted:
                    continue
                probe = AscentLevel(alpha, fam.cells, ())
                rep = me_cross(probe, lvl)
                if not rep.ok(x):
                    c4 = False
                    bad.append(f"clause C4 (exclusivity-filter): fails at level {alpha}, family {i}")
    clauses["C4"] = c4

    return ConditionReport(variant, tuple(clauses.items()), tuple(bad), tuple(probes))


def leq_s(lower: Condition, upper: Condition) -> bool:
    """lower extends upper: end-extension on both coordinates. Conditions of
    another variant or over another X-sequence lie in another poset."""
    if lower.variant != upper.variant:
        raise WrongVariant("conditions come from different posets")
    if lower.x != upper.x:
        raise WrongVariant("conditions come from posets over different X-sequences")
    if lower.tree.height < upper.tree.height:
        return False
    eta = upper.eta
    # tree coordinate: levels at heights <= eta must coincide
    low_exp = {h: ns for h, ns in lower.tree.explicit if h <= eta}
    up_exp = {h: ns for h, ns in upper.tree.explicit if h <= eta}
    if low_exp != up_exp:
        return False
    low_cat = {h: c for h, c in lower.tree.catalogs if h <= eta}
    up_cat = {h: c for h, c in upper.tree.catalogs if h <= eta}
    if low_cat != up_cat:
        return False
    return paths_agree_below(lower.path, upper.path, eta)


def eta_nu(cond: Condition) -> tuple[Ordinal, object]:
    """Top height and the size of the top level modulo eventual equality."""
    eta = cond.eta
    if eta.is_zero:
        return eta, 1
    kind = cond.tree.level_kind(eta)
    if kind == "appends":
        return eta, OMEGA_NAT
    if kind == "explicit":
        last = eta.pred()
        return eta, len({t.eval_at(last) for t in cond.tree.explicit_at(eta)})
    cat = cond.tree.catalog_at(eta)
    if any(f.admitted for f in cat.families):
        return eta, OMEGA_NAT
    reps: list[SymNode] = []
    from .nodes import eq_star
    for s in cat.singles:
        if s.admitted and not any(eq_star(s.node, r) for r in reps):
            reps.append(s.node)
    return eta, len(reps)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def raw_append(level: AscentLevel) -> AppendScheme:
    """Appended label equal to the index itself (the naive theta-poset demo)."""
    entries = [mk_entry(c.ap.step, c.ap.start) for c in level.cells]
    labels = {k: k for k, _ in level.exceptions}
    return AppendScheme(tuple(entries), labels)


def extend_with_top(cond: Condition, new_top: AscentLevel) -> Condition:
    """The condition one height up with the given top level, its new tree
    level the full append level; unchecked (`_one_step` checks). The tree is
    built without `SymTree.make`: its level tuples are the old tree's, which
    `make` sorted and checked."""
    tree = SymTree(cond.tree.height.succ(), cond.tree.explicit, cond.tree.catalogs)
    return Condition(tree, cond.path.with_level(cond.eta.succ(), new_top), cond.variant, cond.x)


def one_step_with(cond: Condition, below: AscentLevel, scheme: AppendScheme) -> Condition:
    """One more level: the below-level plus appended labels, checked by
    `_one_step`."""
    return _one_step(cond, below.append_entries(scheme))[0]


def _one_step(cond: Condition, new_top: AscentLevel) -> tuple[Condition, UPSet]:
    """The condition one height up with the given top level, and the support
    from the previous top to the new one. The one place a new top level is
    checked: an S_X or S_F top must be mutually exclusive (NonExclusiveTop
    otherwise), and the support must be acceptable, co-bounded for S_THETA
    and in the filter otherwise (LostComparability otherwise).

    The exclusivity check also decides clause C4 at the appended coordinate:
    every cell is infinite, so a constant appended label on a cell is a
    same-piece collision there, and an exclusive top has no constant label
    for `_append_fibers_ok` to reject."""
    if new_top.height != cond.eta.succ():
        raise ValueError("below-parts must live on the current top level")
    out = extend_with_top(cond, new_top)
    top_supp = supp(cond.top, new_top)
    if cond.variant in (S_X, S_F):
        top = cond.top
        known = proves(top.exclusive, "me_family", (top.cells, top.exceptions), (top.height,))
        rep = _me_above(new_top, known or top.height.is_zero, top_supp)
        if not rep.ok:
            raise NonExclusiveTop(f"one-step produced a non-exclusive family: {rep.detail}")
        object.__setattr__(new_top, "exclusive", prove(
            "me_family", (new_top.cells, new_top.exceptions), (new_top.height,)))
    if not _supp_ok(cond.variant, top_supp, cond.x):
        raise LostComparability("one-step lost comparability with the previous top")
    return out, top_supp


def one_step_extension(cond: Condition, beta: Ordinal, nu: object = 0,
                       label_base: int = 0) -> Condition:
    """One more level: graft level beta over the top, append fresh even labels.

    Guarantees, verified exactly before returning: the checks of
    `_one_step`, and two postconditions (PostconditionFailed otherwise):
    the old beta-top support is carried into the new top, and the beta
    support becomes everything.
    """
    if beta > cond.eta:
        raise InvalidBeta(f"beta {beta} above top {cond.eta}")
    if nu not in (0, OMEGA_NAT) and not (isinstance(nu, int) and nu >= 0):
        raise ValueError("nu must be a natural or omega")
    top = cond.top
    out, top_supp = _one_step(cond, graft_levels(
        cond.level(beta), top.append_entries(standard_append(top, shift=label_base))))
    if not supp(cond.level(beta), cond.top).is_subset(top_supp):
        raise PostconditionFailed("one-step lost the old support")
    if supp(cond.level(beta), out.top) != FULL_SET:
        raise PostconditionFailed("one-step beta support is not everything")
    return out


def make_bad_extension(cond: Condition) -> Condition:
    """The naive poset's defect: a top level whose first two members split
    exactly at the previous top, with raw index labels appended. The
    one-step checks that the support from the previous top is co-bounded."""
    if cond.variant != S_THETA:
        raise WrongVariant("bad extensions live in the plain theta poset")
    alpha = cond.eta
    f_a = cond.level(alpha)
    below = AscentLevel.make(alpha, f_a.cells,
                             dict(f_a.exceptions) | {0: f_a.at(0), 1: f_a.at(0)})
    out = one_step_with(cond, below, raw_append(below))
    if delta(out.top.at(0), out.top.at(1)) != alpha:
        raise ValueError("bad extension lost its splitting witness")
    return out
