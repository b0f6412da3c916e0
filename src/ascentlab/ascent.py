"""Theta-indexed node families, the supp computation, and ascent-path checks.

A level f: omega -> T_h is stored intensionally: finitely many cells, each
an infinite arithmetic progression of indices sharing one template whose
Ramp entries are affine in the cell position, plus finitely many explicit
exceptions. This grammar is closed under everything the constructors need:
grafting, appending labels, restriction, and reindexing along piecewise
affine injections (the routing and surgery maps).

supp(f, g) = {tau : f(tau) and g(tau) are comparable} is computed exactly
in one pass, `_agree_set`: each exception key of either level is decided
on its two nodes, and each pair of cells whose progressions meet on their
common progression, where each coordinate slot pins agreement to all
positions, one position, or none, so the result is again ultimately
periodic. The lower level's entries are paired with the higher level's at
the same coordinates, so the higher level is never restricted.
eq_star_set(f, g) = {tau : f(tau) =* g(tau)} is the same kernel on the
coordinates that decide =*. Family mutual exclusivity is per-coordinate
injectivity of tau -> f(tau)(eps), decided by solving the affine collision
equations.

The index arithmetic is written once, in `foundations.Meet`, the positions
(m, s) at which entries a*m + b and c*s + d agree: each position question
folds `meet` over the entry pairs of its window (`_slot_pairs`,
`_eq_star_pairs`). A `Cell` (index -> node) and a `MapPiece` (index ->
value) share two primitives: `at(k)` evaluates at an index, and `on(ap)`
re-bases onto a sub-progression of the own domain (`on` of a cell's own
progression is the cell itself); a map piece also has its image `values`
and its `inverse`. Built on these: `_overlaps` pairs two cell lists on
their progression intersections, two cells on one progression as they are
(`_agree_set`, `graft_levels` and the sealing routing); `_split` cuts cells
or map pieces to an index set (`restrict_level_domain`, `restrict_map`);
`_routed` pairs each map piece with each level cell its values meet
(`level_reindex` and the sealing routing).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Iterator, Mapping, Optional

from .foundations import (
    ALL_MEET, AP, DIAGONAL, EMPTY_SET, FULL_SET, ZERO, BadHeight, Meet, Ordinal, Proof, Rejected,
    UPSet, XSequence, field, filter_classify, finite_set, meet, prove, proves, record,
)
from .nodes import Entry, SymNode, entry_affine, eq_star, graft, is_prefix, mk_entry


@record
class Cell:
    """One progression of family indices with a shared template."""

    ap: AP
    template: SymNode

    def at(self, tau: int) -> SymNode:
        return self.template.instantiate(self.ap.position(tau))

    def on(self, ap: AP) -> "Cell":
        """The cell restricted to a sub-progression ap of its own, re-based so
        that position m of the result is index ap.member(m). On its own
        progression (re-base factor 1, offset 0) that is the cell itself."""
        if ap == self.ap:
            return self
        return Cell(ap, self.template.reindex(ap.step // self.ap.step, self.ap.position(ap.start)))

    def drop(self, p: int) -> "Cell":
        """The cell without its first p positions, re-based to position 0."""
        return self.on(AP(self.ap.member(p), self.ap.step))


def _cell_order(c: Cell) -> tuple[int, int]:
    """The order of a level's cells."""
    return c.ap.start, c.ap.step


def _overlaps(xs, ys) -> list[tuple[AP, SymNode, SymNode]]:
    """(ap, u, v) for each pair of cells, one from each list, whose
    progressions meet: ap is their intersection, and u and v are the two
    templates re-based onto it, so position m is one index on both. Two
    cells on one progression pair as they are, with no `intersect` and no
    `Cell.on`."""
    out = []
    for x in xs:
        for y in ys:
            if x.ap == y.ap:
                out.append((x.ap, x.template, y.template))
                continue
            inter = x.ap.intersect(y.ap)
            if inter is not None:
                out.append((inter, x.on(inter).template, y.on(inter).template))
    return out


@record
class AscentLevel:
    """A family omega -> T_height given by cells plus explicit exceptions."""

    height: Ordinal
    cells: tuple[Cell, ...]
    exceptions: tuple[tuple[int, SymNode], ...]
    # Records (`foundations.Proof`) set after construction, never by a
    # decoder, and no constructor parameters, so a copy built from the
    # fields above starts without them: "graft" by `graft_levels`, and
    # "me_family" by `conditions._one_step` and `amalgam.amalgamate` but
    # never on a tail level (`TailRule.level_at` keeps the levels it
    # returns, so a record on one would reach every later reader of the
    # rule). Each names the level's cells and exceptions, not
    # the level, so that the two form no reference cycle. Equality, hash and
    # repr read only the fields above.
    grafted: Optional[Proof] = field(default=None, init=False, compare=False, repr=False)
    exclusive: Optional[Proof] = field(default=None, init=False, compare=False, repr=False)

    @staticmethod
    def make(height: Ordinal, cells, exceptions: Mapping[int, SymNode] = {}) -> "AscentLevel":
        exc = dict(exceptions)
        carved = []
        for c in cells:
            hole = min((k for k in exc if k in c.ap), default=None)
            while hole is not None:
                hm = c.ap.position(hole)
                for m in range(hm):
                    exc[c.ap.member(m)] = c.template.instantiate(m)
                c = c.drop(hm + 1)
                hole = min((k for k in exc if k in c.ap), default=None)
            carved.append(c)
        lvl = AscentLevel(height, tuple(sorted(carved, key=_cell_order)),
                          tuple(sorted((int(k), v) for k, v in exc.items())))
        lvl._check_partition()
        return lvl

    def _check_partition(self) -> None:
        cover = finite_set([k for k, _ in self.exceptions])
        for c in self.cells:
            cu = c.ap.upset()
            if not cover.intersect(cu).is_empty:
                raise ValueError("level pieces overlap")
            cover = cover.union(cu)
            if c.template.dom != self.height:
                raise ValueError(f"template domain {c.template.dom} != height {self.height}")
        for _, v in self.exceptions:
            if v.dom != self.height:
                raise ValueError(f"exception domain {v.dom} != height {self.height}")
            if not v.concrete:
                raise ValueError("exception nodes must be concrete")
        if cover != FULL_SET:
            raise ValueError("level pieces do not cover omega")

    def exc_dict(self) -> dict[int, SymNode]:
        return dict(self.exceptions)

    def piece(self, tau: int) -> "SymNode | Cell":
        """The piece holding index tau: the exception keyed tau, or else
        the cell whose progression holds it."""
        for k, v in self.exceptions:
            if k == tau:
                return v
        for c in self.cells:
            if tau in c.ap:
                return c
        raise ValueError(f"index {tau} not covered")

    def at(self, tau: int) -> SymNode:
        p = self.piece(tau)
        return p.at(tau) if p.__class__ is Cell else p

    def value_at(self, tau: int, eps: Ordinal) -> int:
        """at(tau).eval_at(eps), read off tau's piece: one entry, where the
        member has an entry for every coordinate below the height."""
        p = self.piece(tau)
        if p.__class__ is not Cell:
            return p.eval_at(eps)
        e = p.template.entry_at(eps)
        return e if e.__class__ is int else e.at(p.ap.position(tau))

    def restrict(self, alpha: Ordinal) -> "AscentLevel":
        """The family tau -> f(tau)|alpha. Restriction keeps every cell's
        progression and every exception key, so the partition that `make`
        checked still holds and is not checked again.

        `append_entries` and `graft_levels` build their levels directly on
        the same invariant: appending keeps every progression and exception
        key, and a graft's pieces are those `_agree_set` walks, which
        partition omega. All three keep `make`'s order (cells by
        `_cell_order`, exceptions by key), so equality, hash and the
        encodings are those of `make`."""
        if alpha == self.height:
            return self
        return AscentLevel(
            alpha,
            tuple(Cell(c.ap, c.template.restrict(alpha)) for c in self.cells),
            tuple((k, v.restrict(alpha)) for k, v in self.exceptions))

    def append_entries(self, per_cell: "AppendScheme") -> "AscentLevel":
        """One more coordinate: cell templates gain their scheme entry, each
        exception its own label, which must be an int (a KeyError when it is
        missing). Built without `make` (see `restrict`)."""
        exc = []
        for k, v in self.exceptions:
            label = per_cell.exception_labels[k]
            if not isinstance(label, int):
                raise ValueError("exception nodes must be concrete")
            exc.append((k, v.append(label)))
        _check_scheme(per_cell, self)
        return AscentLevel(self.height.succ(),
                           tuple(Cell(c.ap, c.template.append(e))
                                 for c, e in zip(self.cells, per_cell.cell_entries)),
                           tuple(exc))


@record
class AppendScheme:
    """Entries appended per cell (affine in the cell position) and per exception."""

    cell_entries: tuple[Entry, ...]
    exception_labels: dict[int, int] = field(default_factory=dict, hash=False)


class ShortScheme(Rejected):
    """An append scheme with fewer cell entries than its level has cells."""


def _check_scheme(scheme: AppendScheme, level: AscentLevel) -> None:
    if len(scheme.cell_entries) < len(level.cells):
        raise ShortScheme(f"append scheme has fewer cell entries ({len(scheme.cell_entries)}) "
                          f"than its level has cells ({len(level.cells)})")


def standard_append(level: AscentLevel, shift: int = 0) -> AppendScheme:
    """The parity-coded ascent label 2*(tau+shift) at every index."""
    entries = []
    for c in level.cells:
        entries.append(mk_entry(2 * c.ap.step, 2 * (c.ap.start + shift)))
    labels = {k: 2 * (k + shift) for k, _ in level.exceptions}
    return AppendScheme(tuple(entries), labels)


def constant_level(height: Ordinal, node_: SymNode) -> AscentLevel:
    return AscentLevel.make(height, [Cell(AP(0, 1), node_)])


def root_level() -> AscentLevel:
    from .nodes import EMPTY_NODE
    return constant_level(Ordinal(0, 0), EMPTY_NODE)


def _slot_pairs(u: SymNode, v: SymNode,
                low: Optional[Ordinal] = None) -> Iterator[tuple[Entry, Entry]]:
    """Entry pairs covering every coordinate class of u's domain, u's entry
    beside v's at the same coordinate; needs u.dom <= v.dom, so the pairs
    are those of u and v restricted to u.dom, without building the
    restriction. u's complete blocks pair with v's blocks of the same
    index, and the words are periodic from their window on. u's finite
    stretch pairs with v's finite stretch when both end in the same block,
    and otherwise with the start of v's word for that block (a cut into one
    of v's omega-blocks).

    With a lower bound `low`, only the classes of the coordinates from low
    on: the blocks before low.w are skipped, and block low.w pairs from
    position low.n on, in a complete block up to the window or one common
    period past low.n, whichever ends later."""
    lw, start = low or ZERO
    w = len(u.blocks)
    for k in range(lw, w):
        wu, wv = u.blocks[k], v.blocks[k]
        first = start if k == lw else 0
        stop = wu.window(wv)
        if first:
            stop = max(stop, first + math.lcm(len(wu.tail), len(wv.tail)))
        yield from zip(wu.take(stop, first), wv.take(stop, first))
    if lw > w:
        return
    if lw < w:
        start = 0
    if w < len(v.blocks):
        yield from zip(u.final[start:], v.blocks[w].take(len(u.final), start))
    else:
        yield from zip(u.final[start:], v.final[start:])


def _eq_star_pairs(u: SymNode, v: SymNode) -> Iterator[tuple[Entry, Entry]]:
    """Entry pairs deciding u =* v (one domain): the last coordinate at a
    successor, one common period of the top block's tails at a limit."""
    if u.final:
        yield u.final[-1], v.final[-1]
    elif u.blocks:
        wu, wv = u.blocks[-1], v.blocks[-1]
        base = max(len(wu.prefix), len(wv.prefix))
        stop = base + math.lcm(len(wu.tail), len(wv.tail))
        yield from zip(wu.take(stop, base), wv.take(stop, base))


def _agree_positions(u: SymNode, v: SymNode, pairs=_slot_pairs) -> tuple[str, int]:
    """Where the entry pairs `pairs` draws from two templates with u.dom <=
    v.dom all agree, at one piece position m = s of their `meet`s: ('all',
    0), ('one', m0) or ('none', 0). A prefix, or an equal entry, agrees at
    every position."""
    if is_prefix(u, v):
        return ("all", 0)
    hit = DIAGONAL
    for eu, ev in pairs(u, v):
        if eu != ev:
            a, b = (0, eu) if eu.__class__ is int else (eu.a, eu.b)
            c, d = (0, ev) if ev.__class__ is int else (ev.a, ev.b)
            hit = hit.intersect(meet(a, b, c, d))
            if hit.m is None:
                return ("none", 0)
    return ("all", 0) if hit.dm else ("one", hit.m)


def _exception_pairs(f: AscentLevel, g: AscentLevel) -> list[tuple[int, SymNode, SymNode]]:
    """(tau, f(tau), g(tau)) for each exception key tau of either level, by
    key; a key of one level only is read off the other level's cell."""
    if not (f.exceptions or g.exceptions):
        return []
    fe, ge = f.exc_dict(), g.exc_dict()
    return [(k, fe[k] if k in fe else f.at(k), ge[k] if k in ge else g.at(k))
            for k in sorted(fe.keys() | ge.keys())]


def _agree_set(f: AscentLevel, g: AscentLevel, pairs, same) -> UPSet:
    """Exact set of indices tau at which f(tau) and g(tau) agree, for levels
    with f.height <= g.height: `same` decides two concrete nodes, and the
    entry pairs `pairs` draws decide two templates.

    One pass over a common refinement of the two index partitions, exact and
    finite. Both levels satisfy the partition invariant that
    `AscentLevel.make` checks and `restrict` keeps: the cells and the
    exception keys of a level are pairwise disjoint and cover omega. An
    exception key of f lies in no cell of f, so in no intersection of an f
    cell with a g cell, and likewise for g. So every index lies in exactly
    one exception key of either level (`_exception_pairs`) or in one
    cell-cell intersection (`_overlaps`), and the agreeing progressions and
    points are unioned without overlap."""
    singles = [k for k, u, v in _exception_pairs(f, g) if same(u, v)]
    out = EMPTY_SET
    for ap, u, v in _overlaps(f.cells, g.cells):
        verdict, m0 = _agree_positions(u, v, pairs)
        if verdict == "all":
            out = out.union(ap.upset())
        elif verdict == "one":
            singles.append(ap.member(m0))
    if singles:
        out = out.union(finite_set(singles))
    return out


def supp(f: AscentLevel, g: AscentLevel) -> UPSet:
    """Exact set of indices where f(tau) and g(tau) are comparable under
    end-extension: where they agree at every coordinate of the lower height.

    With f the lower level, each piece pairs f's node or template with g's
    unrestricted one: `_slot_pairs` reads g's entries at f's coordinates
    (u.dom <= v.dom), and `is_prefix` compares two point nodes, so no
    restricted copy of g is built. A level g = graft_levels(f, h), its
    graft record (`AscentLevel.grafted`) accepted, keeps f's nodes below
    f's height, so their support is everything at once. Only the higher
    level's record is read; a pair it does not answer is computed, to the
    same verdict."""
    if f.height > g.height:
        f, g = g, f
    if g.grafted and proves(g.grafted, "graft", (f, g.cells, g.exceptions), ()):
        return FULL_SET
    return _agree_set(f, g, _slot_pairs, is_prefix)


def eq_star_set(f: AscentLevel, g: AscentLevel) -> UPSet:
    """Exact set of indices where f(tau) =* g(tau): same height and agreement
    on a final segment. Levels of different heights agree nowhere."""
    if f.height != g.height:
        return EMPTY_SET
    return _agree_set(f, g, _eq_star_pairs, eq_star)


def level_extensional_eq(f: AscentLevel, g: AscentLevel) -> bool:
    """Same family regardless of cell decomposition: nodes of one height are
    comparable only when equal, so a full support decides it."""
    return f.height == g.height and supp(f, g) == FULL_SET


def graft_levels(low: AscentLevel, high: AscentLevel) -> AscentLevel:
    """Index-wise graft: tau -> low(tau) * high(tau); height of `high`, with
    its graft record (`AscentLevel.grafted`). Built without `make` (see
    `AscentLevel.restrict`) on the pieces that `_agree_set` walks, which
    partition omega: the exception keys of either level, by key, and the
    cell-cell intersections."""
    cells = [Cell(ap, graft(u, v)) for ap, u, v in _overlaps(low.cells, high.cells)]
    exc = tuple((k, graft(u, v)) for k, u, v in _exception_pairs(low, high))
    out = AscentLevel(high.height, tuple(sorted(cells, key=_cell_order)), exc)
    object.__setattr__(out, "grafted", prove("graft", (low, out.cells, out.exceptions), ()))
    return out


@record
class TailRule:
    """level_at(n) = base plus (n - start) uniform appends, n >= start; the
    appended schemes cycle (one entry per chain step, several steps per
    member for the game tails)."""

    start: int
    base: AscentLevel
    schemes: tuple[AppendScheme, ...]
    # n -> the level at n, for each n read so far; equality, hash and repr
    # read only the fields above
    _levels: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for scheme in self.schemes:
            _check_scheme(scheme, self.base)
        object.__setattr__(self, "_levels", {self.start: self.base})

    def level_at(self, n: int) -> AscentLevel:
        """The level at n, one object per n: the highest kept level below n
        extended by the appends up to n."""
        lvl = self._levels.get(n)
        if lvl is not None:
            return lvl
        if n < self.start:
            raise ValueError(f"{n} below tail start {self.start}")
        below = max(m for m in self._levels if m < n)
        lvl = self._levels[below]
        for k in range(below - self.start, n - self.start):
            lvl = lvl.append_entries(self.schemes[k % len(self.schemes)])
        self._levels[n] = lvl
        return lvl

    def limit_level(self) -> AscentLevel:
        """Pointwise union of the tail levels: one more omega block."""
        cells = [Cell(c.ap, c.template.extend_to_limit(
            tuple(s.cell_entries[i] for s in self.schemes)))
            for i, c in enumerate(self.base.cells)]
        exc = {k: v.extend_to_limit(tuple(s.exception_labels[k] for s in self.schemes))
               for k, v in self.base.exceptions}
        return AscentLevel.make(self.base.height.next_limit(), cells, exc)


@record
class AscentPath:
    """Explicit levels plus per-block uniform tails; total on every height
    up to the owning condition's top."""

    levels: tuple[tuple[Ordinal, AscentLevel], ...]
    tails: tuple[tuple[int, TailRule], ...]
    # height -> level, built once; the first listed level wins, as in a scan
    _by_height: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_height", dict(reversed(self.levels)))

    @staticmethod
    def make(levels: Mapping[Ordinal, AscentLevel],
             tails: Mapping[int, TailRule] = {}) -> "AscentPath":
        levels = tuple(sorted(levels.items()))
        tails = tuple(sorted(tails.items()))
        for h, lvl in levels:
            if lvl.height != h:
                raise ValueError(f"level at {h} has height {lvl.height}")
        return AscentPath(levels, tails)

    def tail_for(self, w: int) -> Optional[TailRule]:
        for bw, rule in self.tails:
            if bw == w:
                return rule
        return None

    def source(self, alpha: Ordinal) -> AscentLevel | TailRule | None:
        """The explicit level at alpha, else the tail rule generating it, else
        None. The level at alpha depends only on its source and alpha (a rule
        is deterministic in n), so two paths whose source at alpha is one
        object hold the same level there and need no comparison."""
        lvl = self._by_height.get(alpha)
        if lvl is not None:
            return lvl
        rule = self.tail_for(alpha.w)
        return rule if rule is not None and alpha.n >= rule.start else None

    def has(self, alpha: Ordinal) -> bool:
        return self.source(alpha) is not None

    def level_at(self, alpha: Ordinal) -> AscentLevel:
        src = self.source(alpha)
        if src is None:
            raise KeyError(f"height {alpha} not represented")
        return src.level_at(alpha.n) if isinstance(src, TailRule) else src

    def with_level(self, alpha: Ordinal, lvl: AscentLevel) -> "AscentPath":
        """The path with lvl at alpha, in place of the level listed there if
        any; the other listed levels keep their order and are not checked
        again."""
        if lvl.height != alpha:
            raise ValueError(f"level at {alpha} has height {lvl.height}")
        i = bisect_left(self.levels, alpha, key=itemgetter(0))
        j = i + (i < len(self.levels) and self.levels[i][0] == alpha)
        return AscentPath(self.levels[:i] + ((alpha, lvl),) + self.levels[j:], self.tails)

    def probe_heights(self, eta: Ordinal) -> list[Ordinal]:
        """Heights checked exactly: explicit ones plus one scheme cycle and
        change per tail (the appended slots repeat beyond that)."""
        out = {h for h, _ in self.levels if h <= eta}
        for w, rule in self.tails:
            for n in range(rule.start, rule.start + len(rule.schemes) + 2):
                h = Ordinal(w, n)
                if h <= eta:
                    out.add(h)
        return sorted(out)

    def covers(self, eta: Ordinal) -> bool:
        """Every height <= eta is represented. A block's rule represents every
        n from its start on, so block w is covered iff every n below the
        rule's start (capped at eta.n + 1 in eta's own block) is explicit; a
        block below eta.w without a rule holds infinitely many heights, which
        finitely many explicit levels cannot cover."""
        for w in range(eta.w + 1):
            rule = self.tail_for(w)
            if rule is None and w < eta.w:
                return False
            end = rule.start if rule is not None else eta.n + 1
            if w == eta.w:
                end = min(end, eta.n + 1)
            if len({h.n for h, _ in self.levels if h.w == w and h.n < end}) < end:
                return False
        return True


def paths_agree_below(p1: AscentPath, p2: AscentPath, eta: Ordinal) -> bool:
    """f2 restricted to eta+1 equals f1, decided exactly: all explicitly
    represented heights are compared extensionally, except where both paths
    share the source (see `AscentPath.source`), and tail rules beyond the
    comparison window are pure appends of compared levels. When one path
    lists the other's levels first, equal pair by pair (shared objects
    compare at once), then only levels above eta, and both have the same
    tail rules, every source at or below eta holds one level on both, and
    nothing is compared."""
    short, long = sorted((p1, p2), key=lambda p: len(p.levels))
    n = len(short.levels)
    if short.tails == long.tails and long.levels[:n] == short.levels and all(
            h > eta for h, _ in long.levels[n:]):
        return True
    probes = sorted(set(p1.probe_heights(eta)) | set(p2.probe_heights(eta)))
    for alpha in probes:
        s1, s2 = p1.source(alpha), p2.source(alpha)
        if s1 is None or s2 is None:
            return False
        if s1 is not s2 and not level_extensional_eq(p1.level_at(alpha), p2.level_at(alpha)):
            return False
    for w in range(eta.w + 1):
        r1, r2 = p1.tail_for(w), p2.tail_for(w)
        if (r1 is None) != (r2 is None):
            # one side lists the block explicitly: fine only for the finite
            # stretch below eta within this block
            if w < eta.w:
                return False
            continue
        if r1 is not None and r1 != r2:
            # two pure-append rules agree everywhere iff they agree on one
            # shared cycle
            span = math.lcm(len(r1.schemes), len(r2.schemes))
            base = max(r1.start, r2.start)
            for k in range(span + 1):
                if not level_extensional_eq(r1.level_at(base + k), r2.level_at(base + k)):
                    return False
    return True



def supp_chain_violations(heights, levels, acceptable, adjacent) -> list[tuple[Ordinal, Ordinal, UPSet]]:
    """(a, b, supp) for every pair of the chain's levels whose support is
    not acceptable, in all-pairs order; `adjacent[i]` is
    supp(levels[i], levels[i + 1]), which no pair computes again.

    `acceptable` must be closed under finite intersection and supersets (the
    co-bounded sets, the filter generated by X). By the chain lemma in the
    `ascentlab.conditions` docstring, adjacent pairs of a chain whose level
    heights do not decrease decide all pairs, so all pairs are enumerated
    only when an adjacent pair fails or the heights decrease."""
    if all(f.height <= g.height for f, g in zip(levels, levels[1:])) and all(
            acceptable(s) for s in adjacent):
        return []
    out = []
    for i, a in enumerate(heights):
        for j in range(i + 1, len(heights)):
            s = adjacent[i] if j == i + 1 else supp(levels[i], levels[j])
            if not acceptable(s):
                out.append((a, heights[j], s))
    return out


def _me_chain(heights, levels, adjacent) -> Iterator[tuple[Ordinal, MEReport]]:
    """(alpha, me_family(level)) for each nonzero level of a height-ordered
    chain, in order; `adjacent` as in `supp_chain_violations`. A level one
    height above the level before it is decided by `_me_above`."""
    known = False   # the level before has its height and is mutually exclusive
    for i, (alpha, lvl) in enumerate(zip(heights, levels)):
        if alpha.is_zero:
            known = lvl.height == alpha
            continue
        below = known and lvl.height == alpha == heights[i - 1].succ()
        rep = _me_above(lvl, below, adjacent[i - 1] if below else None)
        known = rep.ok and lvl.height == alpha
        yield alpha, rep


# ---------------------------------------------------------------------------
# mutual exclusivity: per-coordinate injectivity
# ---------------------------------------------------------------------------


@record
class MEReport:
    ok: bool
    detail: str = ""


def _value_pieces(level: AscentLevel, w: int, j: int):
    """Per-piece affine description of tau -> f(tau)(coordinate (w,j))."""
    eps = Ordinal(w, j)
    out = []
    for c in level.cells:
        a, b = entry_affine(c.template.entry_at(eps))
        out.append(("cell", c.ap, a, b))
    for k, v in level.exceptions:
        out.append(("point", k, 0, v.eval_at(eps)))
    return out


def _coordinate_classes(level: AscentLevel) -> Iterator[tuple[int, int]]:
    """Representative coordinates covering every slot class of the level."""
    h = level.height
    words = [[c.template.blocks[w] for c in level.cells] +
             [v.blocks[w] for _, v in level.exceptions] for w in range(h.w)]
    for w in range(h.w):
        span = max(len(b.prefix) for b in words[w]) + math.lcm(*[len(b.tail) for b in words[w]])
        for j in range(span):
            yield (w, j)
    for j in range(h.n):
        yield (h.w, j)


def _least_shared(p1, p2) -> Optional[tuple[int, int]]:
    """The indices (of p1, of p2) at the least positions at which two value
    pieces take one value, or None; a point's index is at every position."""
    hit = meet(p1[2], p1[3], p2[2], p2[3]).least()
    return hit and tuple(loc if kind == "point" else loc.member(m)
                         for (kind, loc, _, _), m in zip((p1, p2), hit))


def _first_collision(pieces) -> Optional[tuple[tuple, tuple]]:
    """Two distinct keys (block, index) taking a common value, if any; each
    piece is a pair (block, value piece).

    The pair reported is the first in all-pairs order: piece i against
    itself, then against each later piece j in turn (`all_pairs_collision`
    in `tests/oracles.py`). Only the pieces whose `meet` with piece i is not
    empty are tried, and the others would give no hit: a constant of value
    c (a point or a slope-0 cell) meets the constants of value c, found by
    value, and a ramp, at most one per cell, is tested against each piece by
    its meet. So the work is about linear in the constants, times the ramps;
    points only, of distinct values, return at once."""
    values = {p[3] for _, p in pieces if p[0] == "point"}
    if len(values) == len(pieces):
        return None     # points only, of distinct values
    consts: dict[int, list[int]] = {}   # value -> positions, ascending
    ramps: list[int] = []
    for i, (_, (_, _, a, b)) in enumerate(pieces):
        if a:
            ramps.append(i)
        else:
            consts.setdefault(b, []).append(i)
    for i, (w1, p1) in enumerate(pieces):
        kind, loc, a, b = p1
        if kind == "cell" and not a:
            return (w1, loc.member(0)), (w1, loc.member(1))
        same = [] if a else consts[b]
        later = same[bisect_right(same, i):] if len(same) > 1 else []
        for j in ramps:
            if j > i and meet(a, b, pieces[j][1][2], pieces[j][1][3]).m is not None:
                later.append(j)
        for c, js in consts.items() if a else ():
            if meet(a, b, 0, c).m is not None:
                later.extend(j for j in js if j > i)
        later.sort()
        for j in later:
            w2, p2 = pieces[j]
            hit = _least_shared(p1, p2)
            if hit and (w1, hit[0]) != (w2, hit[1]):
                return (w1, hit[0]), (w2, hit[1])
    return None


def _me_walk(level: AscentLevel, coords) -> MEReport:
    """Injectivity of tau -> f(tau)(eps) at each coordinate (w, j) in turn,
    decided exactly; the first collision found is the report's detail."""
    for (w, j) in coords:
        hit = _first_collision([(0, p) for p in _value_pieces(level, w, j)])
        if hit:
            return MEReport(False, f"indices {hit[0][1]},{hit[1][1]} share a value at ({w},{j})")
    return MEReport(True)


def me_family(level: AscentLevel) -> MEReport:
    """Pairwise mutual exclusivity of the whole family, decided exactly."""
    return _me_walk(level, _coordinate_classes(level))


def _me_above(level: AscentLevel, below_exclusive: bool, support: Optional[UPSet]) -> MEReport:
    """me_family(level) for a level of successor height, where
    `below_exclusive` says that the level one height below is known mutually
    exclusive, and `support` (read only then) is its support with this one.
    By the append lemma in the `ascentlab.conditions` docstring, a full
    support leaves only the new coordinate to walk: the last one `me_family`
    walks, after coordinates that all pass, so the report is the full walk's."""
    if below_exclusive and support == FULL_SET:
        beta = level.height.pred()
        return _me_walk(level, [(beta.w, beta.n)])
    return me_family(level)


_AT_ZERO = Meet(0, 0, 1, 0)     # the column s = 0


def _level_meets(t: SymNode, level: AscentLevel, skip_zero: bool = False,
                 low: Optional[Ordinal] = None) -> Iterator[tuple[AP, Meet]]:
    """(ap, meet) for each piece of the level and each coordinate class
    (`_slot_pairs`, from the coordinate `low` on when it is given): the
    positions (m, s) at which t(m), for t of the level's height, and the
    member at index ap.member(s) share a value there. An exception keyed k
    is AP(k, 1) at position 0, and a coordinate meeting it at every m is its
    only meet. With skip_zero, index 0 is left out: a cell from 0 is read
    from its position 1 on (intercept d + c), and the exception keyed 0
    yields nothing."""
    for cell in level.cells:
        lift = skip_zero and not cell.ap.start
        ap = AP(cell.ap.step, cell.ap.step) if lift else cell.ap
        for et, ec in _slot_pairs(t, cell.template, low):
            a, b = (0, et) if et.__class__ is int else (et.a, et.b)
            c, d = (0, ec) if ec.__class__ is int else (ec.a, ec.b)
            yield ap, meet(a, b, c, d + c * lift)
    for k, v in level.exceptions:
        if k or not skip_zero:
            hits = [meet(*entry_affine(et), 0, ev) for et, ev in _slot_pairs(t, v, low)]
            for hit in [ALL_MEET] if ALL_MEET in hits else hits:
                yield AP(k, 1), hit.intersect(_AT_ZERO)


def me_set_concrete(t: SymNode, level: AscentLevel) -> UPSet:
    """{tau : t and f(tau) are mutually exclusive}, exactly, for a concrete
    node of the level's height: its meets with the level's pieces
    (`_level_meets`) are all of ℕ² (the whole piece) or a column (one index)."""
    if t.dom != level.height:
        raise BadHeight("probe must live at the level height")
    bad, bad_pts = EMPTY_SET, set()
    for ap, hit in _level_meets(t, level):
        if hit.dm is None:
            bad = bad.union(ap.upset())
        elif hit.m is not None:
            bad_pts.add(ap.member(hit.s))
    return bad.union(finite_set(bad_pts)).complement()


@record
class CrossMEReport:
    """Exclusivity of a probe family against an ascent level for clause-4
    style checks: the index-independent bad part, special probe rows with
    their own bad parts, and whether finitely many moving collisions occur
    per probe index (absorbed by any valid filter)."""

    static_bad: UPSet
    special_rows: tuple[tuple[int, UPSet], ...]
    has_moving: bool

    def ok(self, x: XSequence) -> bool:
        if not filter_classify(self.static_bad.complement(), x).in_filter:
            return False
        for _, row in self.special_rows:
            if not filter_classify(self.static_bad.union(row).complement(), x).in_filter:
                return False
        return True


def me_cross(probe: AscentLevel, level: AscentLevel) -> CrossMEReport:
    """Analyze ME(probe(i), level(tau)) for all i, tau at a shared height by
    the shape of each probe cell's meet with each level piece: all of ℕ² or
    a column meets every probe index (static), a row one probe index at
    each index of the piece (a special row), a point or line finitely many."""
    if probe.height != level.height:
        raise BadHeight("families must share a height")
    static, static_pts, rows, moving = EMPTY_SET, set(), {}, False
    for pc in probe.cells:
        for ap, hit in _level_meets(pc.template, level):
            shape = hit.shape
            if shape == "all":
                static = static.union(ap.upset())
            elif shape == "column":
                static_pts.add(ap.member(hit.s))
            elif shape == "row":
                i0 = pc.ap.member(hit.m)
                rows[i0] = rows.get(i0, EMPTY_SET).union(ap.upset())
            elif shape != "empty":
                moving = True
    for i0, v in probe.exceptions:
        bad_i = me_set_concrete(v, level).complement()
        if not bad_i.is_finite:
            rows[i0] = rows.get(i0, EMPTY_SET).union(bad_i)
        elif not bad_i.is_empty:
            moving = True
    static = static.union(finite_set(static_pts))
    return CrossMEReport(static, tuple(sorted(rows.items())), moving)


# ---------------------------------------------------------------------------
# piecewise affine index maps (order isomorphisms, pi, psi)
# ---------------------------------------------------------------------------


@record
class MapPiece:
    """Index ap.member(m) maps to value a*m + b."""

    ap: AP       # domain indices
    a: int
    b: int

    @property
    def values(self) -> AP:
        """The image progression {b + a*m}; needs a >= 1."""
        return AP(self.b, self.a)

    def at(self, k: int) -> int:
        return self.a * self.ap.position(k) + self.b

    def on(self, ap: AP) -> "MapPiece":
        """The piece restricted to a sub-progression ap of its domain, re-based
        so that position m of the result is index ap.member(m)."""
        return MapPiece(ap, self.a * (ap.step // self.ap.step), self.at(ap.start))

    def inverse(self) -> "MapPiece":
        return MapPiece(self.values, self.ap.step, self.ap.start)


@record
class PiecewiseMap:
    """Injective map between sets of naturals, affine on finitely many
    progressions plus finitely many explicit points."""

    pieces: tuple[MapPiece, ...]
    points: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def from_dict(d: dict[int, int]) -> "PiecewiseMap":
        return PiecewiseMap((), tuple(sorted(d.items())))

    def domain(self) -> UPSet:
        out = finite_set([k for k, _ in self.points])
        for p in self.pieces:
            out = out.union(p.ap.upset())
        return out

    def image(self) -> UPSet:
        out = finite_set([v for _, v in self.points])
        for p in self.pieces:
            out = out.union(p.values.upset() if p.a >= 1 else finite_set([p.b]))
        return out

    def apply(self, tau: int) -> int:
        for k, v in self.points:
            if k == tau:
                return v
        for p in self.pieces:
            if tau in p.ap:
                return p.at(tau)
        raise ValueError(f"{tau} outside map domain")

    def inverse(self) -> "PiecewiseMap":
        return PiecewiseMap(tuple(p.inverse() for p in self.pieces),
                            tuple((v, k) for k, v in self.points))

    def is_injective(self) -> bool:
        vals = [v for _, v in self.points]
        if len(vals) != len(set(vals)):
            return False
        imgs = [finite_set(vals)]
        for p in self.pieces:
            if p.a < 1:
                return False
            imgs.append(p.values.upset())
        for i, u in enumerate(imgs):
            for v in imgs[i + 1:]:
                if not u.disjoint(v):
                    return False
        return True


def identity_map(dom: UPSet) -> PiecewiseMap:
    aps, singles = dom.to_aps()
    return PiecewiseMap(tuple(MapPiece(ap, ap.step, ap.start) for ap in aps),
                        tuple((k, k) for k in singles))


def _split(parts, dom: UPSet) -> tuple[list, list]:
    """Each part (a `Cell` or a `MapPiece`) on the indices of its progression
    inside dom: the infinite progressions of that set re-based with `on`, its
    finitely many other indices k as points (k, part.at(k))."""
    pieces, points = [], []
    for p in parts:
        aps, singles = dom.intersect(p.ap.upset()).to_aps()
        pieces.extend(p.on(ap) for ap in aps)
        points.extend((k, p.at(k)) for k in singles)
    return pieces, points


def restrict_map(m: PiecewiseMap, dom: UPSet) -> PiecewiseMap:
    """The map on the part of its domain inside dom."""
    pieces, points = _split(m.pieces, dom)
    points.extend((k, v) for k, v in m.points if k in dom)
    return PiecewiseMap(tuple(pieces), tuple(sorted(points)))


def restrict_level_domain(level: AscentLevel, dom: UPSet):
    """(cells, exceptions) fragments of the family on the given index set."""
    cells, exc = _split(level.cells, dom)
    return cells, [(k, v) for k, v in level.exceptions if k in dom] + exc


def fill_level(height: Ordinal, cells, exceptions, filler: AscentLevel) -> AscentLevel:
    """Total family: the given fragments where defined, the filler elsewhere."""
    covered = finite_set([k for k, _ in exceptions])
    for c in cells:
        covered = covered.union(c.ap.upset())
    f_cells, f_exc = restrict_level_domain(filler, covered.complement())
    return AscentLevel.make(height, tuple(cells) + tuple(f_cells),
                            dict(exceptions) | dict(f_exc))


def _member_stable(u: UPSet) -> tuple[int, int]:
    """(first stable rank, members per period)."""
    return u.lmask.bit_count(), u.rmask.bit_count()


def order_iso(source: UPSet, target: UPSet, skip: int = 0) -> PiecewiseMap:
    """The order isomorphism of source onto target's members from rank
    `skip` on; both sets must be infinite."""
    if source.is_finite or target.is_finite:
        raise ValueError("order_iso needs infinite sets")
    rs, ks = _member_stable(source)
    rt, kt = _member_stable(target)
    n0 = max(rs, rt - skip if rt > skip else 0)
    span = math.lcm(ks, kt)
    points = tuple((source.nth(n), target.nth(n + skip)) for n in range(n0))
    pieces = []
    for c in range(span):
        b_dom = source.nth(n0 + c)
        a_dom = source.period * (span // ks)
        b_val = target.nth(n0 + c + skip)
        a_val = target.period * (span // kt)
        # domain piece: members n0+c, n0+c+span, ... of source
        pieces.append(MapPiece(AP(b_dom, a_dom), a_val, b_val))
    return PiecewiseMap(tuple(pieces), points)


def _routed(sigma: PiecewiseMap, level: AscentLevel) -> Iterator[tuple[MapPiece, Cell]]:
    """Each sigma piece paired with each level cell its values meet: the piece
    restricted to the indices it sends into the cell, and the cell pulled
    back onto those indices, so position m of both is one index i, whose
    cell node is level(sigma(i))."""
    for mp in sigma.pieces:
        for c in level.cells:
            inter = mp.values.intersect(c.ap)
            if inter is not None:
                sig = mp.inverse().on(inter).inverse()
                yield sig, Cell(sig.ap, c.on(inter).template)


def _routed_points(sigma: PiecewiseMap, level: AscentLevel) -> tuple[tuple[int, SymNode], ...]:
    """(i, level(sigma(i))) for each point i of sigma and each i that a sigma
    piece sends to a level exception; the indices no `_routed` cell holds,
    because level cells exclude exception keys."""
    exc = [(i0, level.at(v)) for i0, v in sigma.points]
    for mp in sigma.pieces:
        inv = mp.inverse()
        exc.extend((inv.at(k), v) for k, v in level.exceptions if k in inv.ap)
    seen: dict[int, SymNode] = {}
    for k, v in exc:
        if k in seen and seen[k] != v:
            raise ValueError(f"conflicting reindex at {k}")
        seen[k] = v
    return tuple(sorted(seen.items()))


def level_reindex(level: AscentLevel, sigma: PiecewiseMap):
    """Pieces of the family i -> level(sigma(i)), for i in sigma's domain.

    Returns (cells, exceptions) fragments to be assembled into a level by
    the caller (who may combine several routed fragments)."""
    return [c for _, c in _routed(sigma, level)], _routed_points(sigma, level)
