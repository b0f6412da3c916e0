"""Derived orderings on level heights over a described generic path: the
full-support order and its filter-set relatives, badness of successor
heights, bounded antichain experiments with structural incompatibility
certificates, and cofinal-branch derivation.

A path stands in for a generic descending sequence: one deepest condition
holds every represented level, and an optional uniform rule continues the
heights cofinally below the supremum.
"""

from __future__ import annotations

from typing import Optional, Union

from .foundations import FULL_SET, Ordinal, Rejected, UPSet, record
from .ascent import AscentLevel, MEReport, me_family, supp
from .nodes import SymNode, delta
from .conditions import Condition, TailRule, check_condition

THETA = "theta"
Variant = Union[str, int]  # THETA or the filter index xi
WITNESS_PAIR = (0, 1)  # the two indices whose split marks a bad height


class Unrepresented(ValueError):
    """Height outside the described part of the path."""


class NotLinked(Rejected):
    """The height set is not pairwise linked at the requested index."""


class IncoherentIndex(ValueError):
    """No well-defined branch at this family index."""


class InvalidPathBase(Rejected):
    """A path's base condition fails check_condition, so no condition built
    on the path (a branch surgery's output) can pass it either."""


@record
class PathDescriptor:
    """Deepest explicit condition plus an optional uniform continuation."""

    base: Condition
    rule: Optional[TailRule] = None

    def represented(self, alpha: Ordinal) -> bool:
        if alpha <= self.base.eta and self.base.path.has(alpha):
            return True
        return (self.rule is not None and alpha.w == self.base.eta.w
                and alpha.n >= self.rule.start)

    def level_at(self, alpha: Ordinal) -> AscentLevel:
        if alpha <= self.base.eta:
            return self.base.path.level_at(alpha)
        if self.rule is not None and alpha.w == self.base.eta.w and alpha.n >= self.rule.start:
            return self.rule.level_at(alpha.n)
        raise Unrepresented(f"height {alpha} not on the path")

    def check_base(self) -> None:
        """InvalidPathBase, naming the base's violations, when the base
        condition fails check_condition."""
        rep = check_condition(self.base, self.base.variant)
        if not rep.ok:
            raise InvalidPathBase("the path's base condition is invalid: " + "; ".join(rep.violations))

    def heights(self, bound: Optional[Ordinal] = None) -> list[Ordinal]:
        out = list(self.base.path.probe_heights(self.base.eta))
        if bound is not None:
            out = [h for h in out if h <= bound]
            cur = self.base.eta
            while self.rule is not None and cur < bound:
                cur = cur.succ()
                if self.represented(cur):
                    out.append(cur)
        return sorted(set(out))


def leq_a(path: PathDescriptor, variant: Variant, alpha: Ordinal, beta: Ordinal) -> bool:
    """beta lies below alpha in the derived order: the heights are ordered
    and the supports of their ascent levels are comparable everywhere (the
    full-support order) or on the chosen set of the path's X-sequence."""
    for h in (alpha, beta):
        if not path.represented(h):
            raise Unrepresented(f"height {h} not on the path")
    if not alpha <= beta:
        return False
    s = supp(path.level_at(alpha), path.level_at(beta))
    if variant == THETA:
        return s == FULL_SET
    return path.base.x.entry(int(variant)).is_subset(s)


def is_bad(path: PathDescriptor, beta: Ordinal) -> bool:
    """beta = alpha+1 whose level splits the witness pair exactly at alpha."""
    if not path.represented(beta):
        raise Unrepresented(f"height {beta} not on the path")
    if not beta.is_successor:
        return False
    alpha = beta.pred()
    lvl = path.level_at(beta)
    return delta(lvl.at(WITNESS_PAIR[0]), lvl.at(WITNESS_PAIR[1])) == alpha


@record
class PairVerdict:
    a: Ordinal
    b: Ordinal
    compatible: bool
    witness: Optional[Ordinal]        # common lower bound when compatible
    certificate: str                  # structural reason when incompatible


@record
class AntichainReport:
    variant: Variant
    pairs: tuple[PairVerdict, ...]

    @property
    def all_incompatible(self) -> bool:
        return all(not p.compatible for p in self.pairs)


def check_antichain(path: PathDescriptor, variant: Variant,
                    points, search_bound: Ordinal) -> AntichainReport:
    """Pairwise compatibility verdicts: an exhaustive bounded search for a
    common lower bound, upgraded to a structural certificate whenever the
    split-transport argument applies.

    The argument (full-support order only): for bad heights a < b with a
    shared witness pair, a common lower bound with full support to both
    would copy a's split at alpha = a - 1 into b's level, where the pair
    still agrees at alpha; both facts are checked concretely. Whether a
    point is bad, its level's witness pair and whether that pair splits at
    the point's predecessor are found once per point; a pair then reads the
    two values of b's pair at alpha."""
    pts = sorted(points)
    if not path.represented(search_bound):
        raise Unrepresented(f"search bound {search_bound} not on the path")
    candidates = path.heights(search_bound)
    split: dict[Ordinal, Optional[tuple[SymNode, SymNode, bool]]] = {}

    def bad_split(h: Ordinal) -> Optional[tuple[SymNode, SymNode, bool]]:
        """(pair nodes at h, whether they differ at h - 1) if the successor
        height h is bad, else None; computed on the first call for h."""
        if h not in split:
            out = None
            if is_bad(path, h):
                lvl, alpha = path.level_at(h), h.pred()
                u, v = lvl.at(WITNESS_PAIR[0]), lvl.at(WITNESS_PAIR[1])
                out = (u, v, u.eval_at(alpha) != v.eval_at(alpha))
            split[h] = out
        return split[h]

    verdicts = []
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            cert = ""
            if variant == THETA and a.is_successor and b.is_successor:
                sa = bad_split(a)
                sb = sa and bad_split(b)
                alpha = a.pred()
                if sb and sa[2] and sb[0].eval_at(alpha) == sb[1].eval_at(alpha):
                    cert = (f"any common bound needs full support to both, forcing values at "
                            f"{alpha} to differ (from {a}) and agree (from {b})")
            witness = None
            if not cert:
                for gamma in candidates:
                    if gamma >= b and leq_a(path, variant, a, gamma) \
                            and leq_a(path, variant, b, gamma):
                        witness = gamma
                        break
            compatible = witness is not None
            if not compatible and not cert:
                cert = f"no common lower bound at heights <= {search_bound}"
            verdicts.append(PairVerdict(a, b, compatible, witness, cert))
    return AntichainReport(variant, tuple(verdicts))


@record
class BranchFamily:
    """Cofinal branches b_n derived from a linked height set, defined at the
    coherent indices."""

    height: Ordinal
    coherent: UPSet
    level: AscentLevel

    def branch(self, n: int) -> SymNode:
        if n not in self.coherent:
            raise IncoherentIndex(f"index {n} has no coherent branch")
        return self.level.at(n)

    def me_report(self) -> MEReport:
        return me_family(self.level)


def derive_branches(path: PathDescriptor, xi: int) -> BranchFamily:
    """Unions b_n of the ascent values along the whole path; requires its
    heights pairwise linked at the path's X_xi, and returns the family over
    the coherent index set. The probe heights reach the path's top, and a
    tail is cofinal below its limit, so the heights are cofinal."""
    hs = path.heights()
    xset = path.base.x.entry(xi)
    coherent = FULL_SET
    for a, b in zip(hs, hs[1:]):
        s = supp(path.level_at(a), path.level_at(b))
        if not xset.is_subset(s):
            raise NotLinked(f"heights {a},{b} not linked at index {xi}")
        coherent = coherent.intersect(s)
    if path.rule is not None:
        level = path.rule.limit_level()
    else:
        level = path.level_at(hs[-1])
    return BranchFamily(level.height, coherent, level)
