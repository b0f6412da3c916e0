"""Streamlined trees with finitely-described levels.

Levels are intensional. Height 0 is the root {empty}; a successor level is
by default the full append level {t + <label> : t below, label natural} that
every constructor produces, or an explicit finite list of nodes (fixtures);
a limit level is characterized by its branch catalog: the level's members
are exactly the grafts x*b of lower nodes onto admitted catalog branches.
Vanishing levels are read off the catalogs: a branch no admitted branch
matches eventually is a vanishing witness, and grafting it through any
lower node keeps it outside the tree.

Membership at a limit follows that reading: s is a member iff some
admitted branch b with s =* b has s|thr in the tree, thr the least height
from which s and b agree (`eq_star_threshold`). The root's restriction is
the root, so thr = 0 puts s in at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .foundations import (
    AP, EMPTY_SET, FULL_SET, Ordinal, Rejected, UPSet, ZERO, _root, finite_set, meet,
)
from .nodes import SymNode, entry_affine, eq_star_threshold, graft, is_prefix
from .ascent import Cell, _agree_positions, _eq_star_pairs, _slot_pairs


class NoCatalog(Rejected):
    """A limit level below the tree height has no branch catalog."""


@dataclass(frozen=True, slots=True)
class CatalogFamily:
    """Indexed family of branch templates at a limit level."""

    cells: tuple[Cell, ...]
    admitted: bool = True


@dataclass(frozen=True, slots=True)
class CatalogSingle:
    """One explicitly named branch; `tag` records its provenance."""

    tag: str
    node: SymNode
    admitted: bool = True


@dataclass(frozen=True, slots=True)
class BranchCatalog:
    families: tuple[CatalogFamily, ...]
    singles: tuple[CatalogSingle, ...] = ()

    def has_admitted(self) -> bool:
        return any(f.admitted for f in self.families) or any(s.admitted for s in self.singles)

    def non_admitted(self) -> list[CatalogSingle]:
        return [s for s in self.singles if not s.admitted]


@dataclass(frozen=True, slots=True)
class SymTree:
    """Tree of some height <= omega*W + n, with sparse level overrides."""

    height: Ordinal
    explicit: tuple[tuple[Ordinal, tuple[SymNode, ...]], ...]
    catalogs: tuple[tuple[Ordinal, BranchCatalog], ...]

    @staticmethod
    def make(height: Ordinal, explicit: Mapping[Ordinal, tuple[SymNode, ...]] = {},
             catalogs: Mapping[Ordinal, BranchCatalog] = {}) -> "SymTree":
        explicit = tuple(sorted(explicit.items()))
        catalogs = tuple(sorted(catalogs.items()))
        for h, _ in explicit:
            if h.is_limit or h.is_zero:
                raise ValueError("explicit levels only at successor heights")
        for h, _ in catalogs:
            if not h.is_limit:
                raise ValueError("catalogs only at limit heights")
        return SymTree(height, explicit, catalogs)

    def explicit_at(self, beta: Ordinal) -> Optional[tuple[SymNode, ...]]:
        for h, nodes in self.explicit:
            if h == beta:
                return nodes
        return None

    def catalog_at(self, lam: Ordinal) -> BranchCatalog:
        for h, cat in self.catalogs:
            if h == lam:
                return cat
        raise NoCatalog(f"limit level {lam} has no branch catalog")

    def level_kind(self, beta: Ordinal) -> str:
        if beta >= self.height:
            raise ValueError(f"level {beta} at or above height {self.height}")
        if beta.is_zero:
            return "root"
        if beta.is_limit:
            return "limit"
        return "explicit" if self.explicit_at(beta) is not None else "appends"

    def limit_levels(self) -> list[Ordinal]:
        return [Ordinal(w, 0) for w in range(1, self.height.w + 1)
                if Ordinal(w, 0) < self.height]

    def probe_heights(self) -> list[Ordinal]:
        """Heights whose membership determines all others: the non-append
        levels plus one height above the deepest one in each block."""
        special = [ZERO] + [h for h, _ in self.explicit] + [h for h, _ in self.catalogs]
        out = set(special)
        for w in range(self.height.w + 1):
            tops = [h.n for h in special if h.w == w]
            nxt = Ordinal(w, (max(tops) if tops else 0) + 1)
            if nxt < self.height:
                out.add(nxt)
        return sorted(out)


ROOT_TREE = SymTree.make(Ordinal(0, 1))


def _admitted_thresholds(s: SymNode, cat: BranchCatalog) -> Iterator[Ordinal]:
    """eq_star_threshold(s, b) for the admitted catalog branches b with
    s =* b, for a concrete s at the catalog's height: each single, and the
    instances of each family that can differ in their threshold.

    s =* T(p) holds at every position p of a template T (then at p = 0), at
    one p, or at none. When it holds at every p, s and T(p) agree at a
    coordinate where T has a ramp c*p + d for at most one p (the root of
    c*p + d = s's entry), and a coordinate where T is constant does not
    depend on p; so every p that is no root gives one threshold, and the
    roots plus the position past them give every threshold."""
    for single in cat.singles:
        if single.admitted:
            thr = eq_star_threshold(s, single.node)
            if thr is not None:
                yield thr
    for fam in cat.families:
        if not fam.admitted:
            continue
        for cell in fam.cells:
            t = cell.template
            verdict, m = _agree_positions(s, t, _eq_star_pairs)
            if verdict == "none":
                continue
            positions = [m]
            if verdict == "all" and not t.concrete:
                roots = {pin[0] for es, et in _slot_pairs(s, t)
                         if (pin := meet(*entry_affine(es), *entry_affine(et)).second()) and not pin[1]}
                positions = [*roots, max(roots, default=-1) + 1]
            for p in positions:
                thr = eq_star_threshold(s, t.instantiate(p))
                if thr is not None:
                    yield thr


def tree_contains(tree: SymTree, s: SymNode) -> bool:
    """Exact membership test against the level representations."""
    if not s.concrete:
        raise ValueError("membership is for concrete nodes")
    if s.dom >= tree.height:
        return False
    return _level_contains(tree, s)


def family_in_tree(tree: SymTree, cells, exceptions) -> bool:
    """Membership of every member of a templated family: the exceptions one
    by one, and every instance of each cell's template."""
    return (all(tree_contains(tree, v) for _, v in exceptions)
            and all(_template_in_tree(tree, c.template) for c in cells))


def _template_in_tree(tree: SymTree, t: SymNode) -> bool:
    """Whether every instance t(m), m >= 0, of a template lies in the tree."""
    return _template_members(tree, t) == FULL_SET


def _template_members(tree: SymTree, t: SymNode) -> UPSet:
    """The positions m >= 0 whose instance t(m) lies in the tree.

    Let a be the deepest height at or below dom(t) whose level is not an
    append level: the root, an explicit level or a limit. The levels above a
    up to dom(t) are full append levels, so t(m) is in the tree iff t(m)|a
    is, and:
    - when t|a is concrete, one tree_contains decides every instance;
    - when a is explicit, t|a has a ramp (slope >= 1), so its instances are
      pairwise distinct, and those in the finite level are the positions at
      which t|a equals a listed node (`_agree_positions`);
    - when a is a limit, `_limit_template_members` decides.
    A template at a limit height equal to a template of an admitted family
    in that height's catalog is in the tree at once (`_admitted_template`):
    each of its instances is an admitted branch, and the limit level's
    members are the grafts x*b of lower nodes x onto admitted branches b,
    the root among the x, whose graft onto b is b itself."""
    d = t.dom
    if d >= tree.height:
        return EMPTY_SET
    if t.concrete:
        return FULL_SET if tree_contains(tree, t) else EMPTY_SET
    if d.is_limit and _admitted_template(tree.catalog_at(d), t):
        return FULL_SET
    anchor = Ordinal(d.w, 0)
    for h, _ in tree.explicit:
        if h > d:
            break
        if h > anchor:
            anchor = h
    base = t.restrict(anchor)
    if base.concrete:
        return FULL_SET if tree_contains(tree, base) else EMPTY_SET
    if anchor.is_limit:
        return _limit_template_members(tree, base)
    agree = [_agree_positions(base, v) for v in tree.explicit_at(anchor) if v.dom == anchor]
    return finite_set(m for verdict, m in agree if verdict == "one")


def _admitted_template(cat: BranchCatalog, t: SymNode) -> bool:
    """Whether t is a template of an admitted family of the catalog: the
    very object first, then by value."""
    cells = [c for f in cat.families if f.admitted for c in f.cells]
    return any(c.template is t for c in cells) or any(c.template == t for c in cells)


def _admitted_single(cat: BranchCatalog, s: SymNode) -> bool:
    """Whether s is an admitted single of the catalog: the very object first,
    then by value. Such an s is in the level at once, for the reason
    `_admitted_template` gives: an admitted branch b is the graft of the root
    onto b."""
    nodes = [x.node for x in cat.singles if x.admitted]
    return any(v is s for v in nodes) or s in nodes


def _limit_template_members(tree: SymTree, b: SymNode) -> UPSet:
    """The positions m whose instance b(m) lies in the tree, for b a template
    at a limit height with a ramp.

    Exact by a generic-position argument. b(m) is in the tree iff b(m)|thr
    is for one of its thresholds thr (`_admitted_thresholds`), and each entry
    of b(m) is affine in m. A family branch T(p) gives b(m) a threshold only
    at a position p solving c*p + d = a*m + e at a coordinate where T has a
    ramp: the first such coordinate of the tail window (the pivot), as every
    T(p) eventually equal to b(m) solves it, or, when the window has none,
    each such coordinate, and then every other p gives one more threshold.
    Each such p is affine in m on each class of m modulo c / gcd(a, c), so
    those classes are split off first. Within a class, two entries affine in
    m agree for every m or for at most one m (a root), and p >= 0 holds from
    a bound on. Past every root and bound, M, every m has the thresholds of
    M: the instances below M are checked one by one, and b(M + m) is in the
    tree iff b(M + m)|thr is for one of them. When some such p = slope*m +
    shift, shift >= 0, makes b the template T(slope*m + shift) itself, every
    instance of b is an admitted branch, in the tree at once."""
    cat = tree.catalog_at(b.dom)
    sources = [s.node for s in cat.singles if s.admitted] + \
        [c.template for f in cat.families if f.admitted for c in f.cells]
    modulus, bound = 1, 0
    for t in sources:
        if t.dom != b.dom:
            continue
        pairs = list(_slot_pairs(b, t))
        pivot = next((pair for pair in _eq_star_pairs(b, t) if not isinstance(pair[1], int)), None)
        choices = [pivot] if pivot is not None else \
            [None] + [pair for pair in pairs if not isinstance(pair[1], int)]
        for choice in choices:
            slope, shift = 0, 0                      # T's position p = slope*m + shift
            if choice is not None:
                (a, e), (c, dd) = map(entry_affine, choice)
                if a % c:
                    modulus = math.lcm(modulus, c // math.gcd(a, c))
                    continue
                if (e - dd) % c:
                    continue
                slope, shift = a // c, (e - dd) // c
                if shift < 0:
                    if slope == 0:
                        continue
                    bound = max(bound, -(shift // slope))
                elif t.reindex(slope, shift) == b:
                    return FULL_SET
            for eb, et in pairs:
                (a, e), (c, dd) = entry_affine(eb), entry_affine(et)
                root = _root(a - c * slope, c * shift + dd - e)
                if root is not None:
                    bound = max(bound, root + 1)
    if modulus > 1:
        out = EMPTY_SET
        for r in range(modulus):
            out = out.union(_affine_image(
                _limit_template_members(tree, b.reindex(modulus, r)), modulus, r))
        return out
    low = finite_set(m for m in range(bound) if tree_contains(tree, b.instantiate(m)))
    tail = b.reindex(1, bound) if bound else b
    high = EMPTY_SET
    for thr in set(_admitted_thresholds(tail.instantiate(0), cat)):
        high = high.union(_template_members(tree, tail.restrict(thr)))
    return low.union(_affine_image(high, 1, bound))


def _affine_image(u: UPSet, a: int, r: int) -> UPSet:
    """{a*m + r : m in u}, for a >= 1 and r >= 0."""
    if a == 1 and r == 0:
        return u
    aps, singles = u.to_aps()
    out = finite_set(a * k + r for k in singles)
    for ap in aps:
        out = out.union(AP(a * ap.start + r, a * ap.step).upset())
    return out


def _level_contains(tree: SymTree, s: SymNode) -> bool:
    """Membership of s at its own height d. A limit level is decided by its
    catalog: an admitted single at once (`_admitted_single`), else through
    the thresholds of the admitted branches eventually equal to s. An
    explicit level is decided by its list. Every other successor level is a
    full append level, and so is every level between it and the deepest
    explicit height h below d in d's block (or the block's start when there
    is none): s is in the tree iff s.restrict(h) is, so one restrict jumps
    the whole run of append levels. When the height it would restrict to is
    the root, s is in the tree at once and nothing is restricted."""
    d = s.dom
    if d.is_zero:
        return True
    if d.is_limit:
        cat = tree.catalog_at(d)
        return _admitted_single(cat, s) or any(
            thr == ZERO or _level_contains(tree, s.restrict(thr))
            for thr in _admitted_thresholds(s, cat))
    floor = Ordinal(d.w, 0)
    for h, nodes in tree.explicit:
        if h >= d:
            if h == d:
                return s in nodes
            break
        if h > floor:
            floor = h
    return floor == ZERO or _level_contains(tree, s.restrict(floor))


@dataclass(frozen=True, slots=True)
class StructReport:
    downward_closed: bool
    normal: bool
    uniformly_homogeneous: bool
    successor_height: bool
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (self.downward_closed and self.normal
                and self.uniformly_homogeneous and self.successor_height)


def _explicit_below_finite(tree: SymTree, beta: Ordinal) -> Optional[list[SymNode]]:
    """All nodes strictly below beta when that set is finite, else None."""
    from .nodes import EMPTY_NODE
    if beta.w > 0:
        return None
    out = [EMPTY_NODE]
    for n in range(1, beta.n):
        h = Ordinal(0, n)
        nodes = tree.explicit_at(h)
        if nodes is None:
            return None
        out.extend(nodes)
    return out


def check_tree(tree: SymTree) -> StructReport:
    """Structural report: downward closure, normality, uniform homogeneity,
    successor height. Downward closure skips height 0, where every
    restriction is the root, which every tree holds."""
    notes: list[str] = []
    down = True
    normal = True
    homog = True

    probes = tree.probe_heights()

    # downward closure and per-kind checks
    for beta in probes:
        kind = tree.level_kind(beta)
        if kind == "explicit":
            nodes = tree.explicit_at(beta)
            for s in nodes:
                if s.dom != beta:
                    down = False
                    notes.append(f"node of height {s.dom} listed at level {beta}")
                    continue
                for alpha in [h for h in probes if ZERO < h < beta]:
                    if not _level_contains(tree, s.restrict(alpha)):
                        down = False
                        notes.append(f"restriction of a level-{beta} node missing at {alpha}")
        elif kind == "limit":
            cat = tree.catalog_at(beta)
            if not cat.has_admitted():
                normal = False
                notes.append(f"limit level {beta} has no admitted branch")
            for single in cat.singles:
                if single.node.dom != beta:
                    down = False
                    notes.append(f"catalog branch {single.tag} has wrong domain")
            for alpha in [h for h in probes if ZERO < h < beta]:
                restricted_cells = [Cell(c.ap, c.template.restrict(alpha))
                                    for f in cat.families if f.admitted for c in f.cells]
                restricted_singles = [(0, s.node.restrict(alpha))
                                      for s in cat.singles if s.admitted]
                if not family_in_tree(tree, restricted_cells, restricted_singles):
                    down = False
                    notes.append(f"branch restriction missing at {alpha}")

    # normality: upward extension into every explicit level; other kinds are
    # extension-complete by construction
    for beta, nodes in tree.explicit:
        below = _explicit_below_finite(tree, beta)
        if below is None:
            normal = False
            notes.append(f"explicit level {beta} above an infinite level")
            continue
        for x in below:
            if not any(is_prefix(x, t) for t in nodes):
                normal = False
                notes.append(f"node {x} has no extension to level {beta}")

    # uniform homogeneity: appends and catalog levels are closed under
    # grafting structurally; explicit levels are checked by enumeration
    for beta, nodes in tree.explicit:
        below = _explicit_below_finite(tree, beta)
        if below is None:
            homog = False
            notes.append(f"explicit level {beta} cannot absorb grafts from an infinite level")
            continue
        for s in below + list(nodes):
            for t in nodes:
                if graft(s, t) not in nodes:
                    homog = False
                    notes.append(f"graft of {s} over {t} escapes level {beta}")

    return StructReport(down, normal, homog, tree.height.is_successor, tuple(notes))


@dataclass(frozen=True, slots=True)
class VanishReport:
    """V(T) holds only limit ordinals and there are at most W of those below
    the height bound, so every nonempty subset has a maximum and each sup of
    members is itself a member: V(T) is always closed."""

    levels: frozenset[Ordinal]
    top_limit_in: Optional[bool]

    def __contains__(self, lam: Ordinal) -> bool:
        return lam in self.levels


def vanishing_levels(tree: SymTree, mode: str = "full") -> VanishReport:
    """Limit levels at which a vanishing branch exists (homogeneous mode) or
    every lower node rides one (full mode, via grafted catalog branches).

    The homogeneous reading presupposes a uniformly homogeneous tree (the
    caller's obligation, checked by check_tree); the full mode quantifies
    over the grafted catalog branches directly and needs no such hypothesis.
    """
    if mode not in ("full", "homogeneous"):
        raise ValueError(f"unknown mode {mode!r}")
    levels: set[Ordinal] = set()
    for lam in tree.limit_levels():
        cat = tree.catalog_at(lam)
        if mode == "homogeneous":
            if cat.non_admitted():
                levels.add(lam)
            continue
        # full mode: a non-admitted branch no admitted branch matches
        # eventually stays outside the level under every graft x*b, and
        # every lower x rides the branch of x*b
        for single in cat.non_admitted():
            if next(_admitted_thresholds(single.node, cat), None) is None:
                levels.add(lam)
                break
    top_in = (tree.height.pred() in levels) if tree.height.is_successor and \
        tree.height.pred().is_limit else None
    return VanishReport(frozenset(levels), top_in)
