"""Branch surgery: extending a limit-length path by grafted cofinal
branches, deliberately omitting one so the new top level vanishes.

The derived branches b_n live over the head set of the sequence; a bijection
pi of omega onto that set minus the omitted index, fixing the deeper filter
sets pointwise, reindexes them into the new top ascent level. The new tree
level consists of the grafts onto the kept branches, so the omitted branch
witnesses vanishing and the construction adds exactly one vanishing level.
"""

from __future__ import annotations

from typing import NoReturn

from .foundations import (
    FULL_SET, PostconditionFailed, ProfileViolation, Rejected, XSequence, singleton,
)
from .ascent import (
    AscentLevel, PiecewiseMap, identity_map, level_reindex, me_family,
    order_iso, restrict_level_domain, restrict_map,
)
from .aposet import NotLinked, PathDescriptor, derive_branches
from .conditions import Condition, S_X, check_condition, leq_s
from .trees import (
    BranchCatalog, CatalogFamily, CatalogSingle, SymTree, tree_contains,
    vanishing_levels,
)


class BadPi(Rejected):
    """The reindexing map is not a bijection onto the kept head set fixing
    the deeper filter set."""


class NonExclusiveBranches(Rejected):
    """The derived branches the surgery keeps are not mutually exclusive."""


def canonical_pi(x: XSequence, n0: int) -> PiecewiseMap:
    """Identity on X_1, order isomorphism of the rest onto the kept part of
    X_0; deterministic."""
    x1 = x.entry(1)
    target = x.x0.difference(x1).difference(singleton(n0))
    iso = order_iso(x1.complement(), target)
    ident = identity_map(x1)
    return PiecewiseMap(ident.pieces + iso.pieces, ident.points + iso.points)


def validate_pi(pi: PiecewiseMap, x: XSequence, n0: int) -> None:
    if not pi.is_injective():
        raise BadPi("map is not injective")
    if pi.domain() != FULL_SET:
        raise BadPi("map must be defined on every index")
    if pi.image() != x.x0.difference(singleton(n0)):
        raise BadPi("image must be the head set minus the omitted index")
    x1 = x.entry(1)
    fixed = restrict_map(pi, x1)
    for p in fixed.pieces:
        if p.values != p.ap:
            raise BadPi("map moves a point of the deeper filter set")
    for k, v in fixed.points:
        if k != v:
            raise BadPi("map moves a point of the deeper filter set")


def branch_surgery(path: PathDescriptor, n0: int) -> Condition:
    """The new condition of limit-plus-one height, reindexed by
    `canonical_pi`. Hypothesis
    (NonExclusiveBranches otherwise): the derived branches over the head set
    minus n0 are mutually exclusive. Every stated consequence is re-verified
    before returning: the result extends path.base under leq_s and passes
    check_condition. A failure raises InvalidPathBase when path.base itself
    fails check_condition (`PathDescriptor.check_base`), and
    PostconditionFailed otherwise."""
    x = path.base.x
    x.validate("s4")
    if n0 not in x.x0 or n0 in x.entry(1):
        raise ProfileViolation(f"omitted index {n0} must come from the head set "
                               "outside the deeper filter set")
    if path.rule is None:
        raise NotLinked("surgery needs a path cofinal below a limit")
    pi = canonical_pi(x, n0)
    validate_pi(pi, x, n0)

    fam = derive_branches(path, 0)
    lam = fam.height
    if not x.x0.is_subset(fam.coherent):
        raise NotLinked("head-set branches are not coherent along the path")

    kept_cells, kept_exc = restrict_level_domain(fam.level, x.x0.difference(singleton(n0)))
    merep = me_family(AscentLevel(lam, tuple(kept_cells), tuple(kept_exc)))
    if not merep.ok:
        raise NonExclusiveBranches(f"kept branches are not mutually exclusive: {merep.detail}")

    cells, exc = level_reindex(fam.level, pi)
    top = AscentLevel.make(lam, cells, dict(exc))
    catalog = BranchCatalog(
        (CatalogFamily(tuple(kept_cells), admitted=True),),
        tuple(CatalogSingle(f"b:{k}", v, admitted=True) for k, v in kept_exc)
        + (CatalogSingle(f"b:{n0}", fam.branch(n0), admitted=False),))

    base = path.base
    tree = SymTree.make(lam.succ(), dict(base.tree.explicit),
                        dict(base.tree.catalogs) | {lam: catalog})
    from .conditions import AscentPath
    levels = dict(base.path.levels)
    levels[lam] = top
    tails = dict(base.path.tails) | {base.eta.w: path.rule}
    out = Condition(tree, AscentPath.make(levels, tails), S_X, x)

    # consequences, re-verified; the base is checked only when one fails,
    # so that an invalid input is told apart from a defect of the surgery
    def fail(msg: str) -> NoReturn:
        path.check_base()
        raise PostconditionFailed(msg)
    if tree_contains(out.tree, fam.branch(n0)):
        fail("the omitted branch is in the tree")
    van = vanishing_levels(out.tree, "full")
    expected = vanishing_levels(base.tree, "full").levels | {lam}
    if van.levels != expected:
        fail(f"vanishing levels {set(van.levels)} != {set(expected)}")
    if not leq_s(out, base):
        fail("surgery does not extend the path")
    rep = check_condition(out, S_X)
    if not rep.ok:
        fail("surgery output invalid: " + "; ".join(rep.violations))
    return out
