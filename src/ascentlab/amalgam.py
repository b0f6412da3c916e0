"""Limit-stage amalgamation of described decreasing chains.

A chain is an explicit prefix of (stage, condition, z-map) members plus an
optional uniform tail: every further member extends the previous one by a
fixed cycle of top appends, and its z-values gain one fixed token per append
("their own last entry again" or a constant). The amalgam's top ascent level
and z-unions then exist in closed form: each cell's template closes its
finite stretch into an omega-block whose repeating tail is the resolved
append cycle.

The auxiliary z-branches make the new limit level vanish: the union of the
z-values at the chain's own limit stage is eventually different from every
admitted branch, so no graft of it lands in the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Iterator, Mapping, Optional

from .foundations import (
    ALL_MEET, AP, EMPTY_SET, FULL_SET, Ordinal, PostconditionFailed, Proof, Rejected, UPSet,
    finite_set, meet, multiples, prove, proves, singleton,
)
from .ascent import (
    AppendScheme, AscentLevel, AscentPath, Cell, _agree_positions, _eq_star_pairs,
    _first_collision, _level_meets, _me_above, _split, me_set_concrete, supp,
)
from .nodes import Entry, SymNode, entry_affine
from .conditions import (
    Condition, S_X, TailRule, check_condition, extend_with_top, leq_s,
)
from .trees import (
    BranchCatalog, CatalogFamily, CatalogSingle, SymTree, _template_members, family_in_tree,
    tree_contains,
)


class HypothesisViolated(Rejected):
    def __init__(self, bullet: str, detail: str) -> None:
        self.bullet = bullet
        super().__init__(f"chain hypothesis failed ({bullet}): {detail}")


class NotUniformTail(Rejected):
    """The chain has no closed-form continuation."""


# z-append tokens: ("const", v) appends the label v, ("last",) repeats the
# node's final entry.
ZToken = tuple
LAST: ZToken = ("last",)


def resolve_tokens(tokens: tuple[ZToken, ...], tmpl: SymNode) -> tuple[Entry, ...]:
    out: list[Entry] = []
    for tok in tokens:
        if tok[0] == "const":
            out.append(tok[1])
        elif tok == LAST:
            if not tmpl.final:
                raise ValueError("'last' token needs a nonempty final stretch")
            out.append(tmpl.final[-1])
        else:
            raise ValueError(f"unknown z token {tok!r}")
    return tuple(out)


@dataclass(frozen=True, slots=True)
class ZMap:
    """Auxiliary branch enumerator on an ordinal interval (lo, hi) or
    (lo, hi]: cells over the finite-part keys of a block plus explicit
    entries for the sparse high keys."""

    lo: Ordinal
    hi: Ordinal
    closed_hi: bool
    cells: tuple[tuple[int, Cell], ...]    # (block w, indices over n)
    entries: tuple[tuple[Ordinal, SymNode], ...]
    # the whole pieces, built on first use (`whole`); equality, hash and
    # repr read only the fields above, and a copy starts without them
    _whole: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    @staticmethod
    def make(lo: Ordinal, hi: Ordinal, closed_hi: bool, cells,
             entries: Mapping[Ordinal, SymNode]) -> "ZMap":
        """The map with the entries of a mapping, listed by key."""
        return ZMap(lo, hi, closed_hi, tuple(cells), tuple(sorted(entries.items())))

    def in_domain(self, i: Ordinal) -> bool:
        if i <= self.lo:
            return False
        return i <= self.hi if self.closed_hi else i < self.hi

    def at(self, i: Ordinal) -> SymNode:
        """The first listed entry keyed i, else the first cell holding i."""
        if not self.in_domain(i):
            raise KeyError(f"{i} outside z domain ({self.lo}, {self.hi}{']' if self.closed_hi else ')'}")
        for k, v in self.entries:
            if k == i:
                return v
        for w, cell in self.cells:
            if w == i.w and i.n in cell.ap:
                return cell.at(i.n)
        raise KeyError(f"z map has no value at {i}")

    def block_keys(self, w: int) -> UPSet:
        """The n with (w, n) in the domain."""
        if not self.lo.w <= w <= self.hi.w:
            return EMPTY_SET
        start = self.lo.n + 1 if w == self.lo.w else 0
        return finite_set(range(start, self.hi.n + self.closed_hi)) if w == self.hi.w else multiples(1, start)

    def pieces(self) -> list[tuple[int, int | AP, SymNode]]:
        """The map cut by `at`'s rule into pieces (w, loc, t): a point (w, n,
        node) holds the key (w, n), a cell piece (w, ap, template) the keys
        (w, ap.member(m)) with values template(m). The entries in the domain
        are points, the first entry of a key listed twice only; each cell
        then holds its block's keys in the domain that no entry or earlier
        cell holds: cells (`Cell.on`) on that set's infinite progressions,
        points (instantiated) at its others."""
        out = [(k.w, k.n, v) for k, v in self._points().items()]
        held = {w: finite_set(k.n for k, _ in self.entries if k.w == w) for w, _ in self.cells}
        for w, cell in self.cells:
            parts, points = _split((cell,), self.block_keys(w).difference(held[w]))
            held[w] = held[w].union(cell.ap.upset())
            out.extend((w, c.ap, c.template) for c in parts)
            out.extend((w, n, v) for n, v in points)
        return out

    def _points(self) -> dict[Ordinal, SymNode]:
        """The entries in the domain, the first of a key listed twice."""
        out: dict[Ordinal, SymNode] = {}
        for k, v in self.entries:
            if k not in out and self.in_domain(k):
                out[k] = v
        return out

    def whole(self) -> tuple[tuple[int, int | AP, SymNode], ...]:
        """The map uncarved, in the form of `pieces`: the entries in the
        domain as points and every cell whole. These hold every key and
        value of the map and maybe more: keys past the domain, keys an entry
        or an earlier cell holds, so two pieces may share a key. A statement
        about every key, or every pair of distinct keys, and its value holds
        on the map when it holds on these pieces; `incoherent_key` and
        `check_z_bullets` decide on them first and carve (`pieces`) only
        when that fails (for z-pairwise, also when two share a key,
        `_keys_apart`)."""
        whole = self._whole
        if whole is None:
            whole = tuple((k.w, k.n, v) for k, v in self._points().items()) + \
                tuple((w, c.ap, c.template) for w, c in self.cells)
            object.__setattr__(self, "_whole", whole)
        return whole

    def incoherent_key(self, later: "ZMap") -> Optional[Ordinal]:
        """The least key of both domains at which `later`'s value does not
        end-extend this map's value (z-coherence fails there), or None, over
        the pairs of pieces that share keys (`_incoherent`): decided first on
        the whole pieces (`whole`)."""
        if not any(_incoherent(self.whole(), later.whole())):
            return None
        return min(_incoherent(self.pieces(), later.pieces()), default=None)

    def above(self, new_lo: Ordinal) -> "ZMap":
        """The map on the keys above new_lo: lower keys and lower blocks drop
        out, and a cell straddling new_lo is re-based past it."""
        cells = []
        for w, cell in self.cells:
            if w < new_lo.w:
                continue
            if w == new_lo.w and cell.ap.start <= new_lo.n:
                cell = cell.drop((new_lo.n - cell.ap.start) // cell.ap.step + 1)
            cells.append((w, cell))
        # read backwards, so that a key listed twice keeps its first entry, as in `at`
        entries = {k: v for k, v in reversed(self.entries) if k > new_lo}
        return ZMap.make(new_lo, self.hi, self.closed_hi, cells, entries)

    def stepped(self, new_lo: Ordinal, tokens: tuple[ZToken, ...]) -> "ZMap":
        """The next member's z-map: the map above new_lo, every value gaining
        the resolved token entries."""
        def grow(v: SymNode) -> SymNode:
            for e in resolve_tokens(tokens, v):
                v = v.append(e)
            return v
        return self._above_each(new_lo, grow)

    def limit_value(self, i: Ordinal, tokens: tuple[ZToken, ...]) -> SymNode:
        """Union of this key's values along the uniform tail."""
        base = self.at(i)
        return base.extend_to_limit(resolve_tokens(tokens, base))

    def limit_map(self, new_lo: Ordinal, tokens: tuple[ZToken, ...]) -> "ZMap":
        """The whole map's unions along the tail, on the keys above the new
        limit stage; full-block key ranges stay cells."""
        return self._above_each(new_lo, lambda v: v.extend_to_limit(resolve_tokens(tokens, v)))

    def _above_each(self, new_lo: Ordinal, f) -> "ZMap":
        """The map above new_lo with f applied to every cell template and entry."""
        z = self.above(new_lo)
        return replace(z, cells=tuple((w, Cell(c.ap, f(c.template))) for w, c in z.cells),
                       entries=tuple((k, f(v)) for k, v in z.entries))


@dataclass(frozen=True, slots=True)
class ChainMember:
    beta: Ordinal
    cond: Condition
    z: ZMap
    bullets: Optional[Proof] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class ChainTail:
    """Uniform continuation: each further member is the previous one plus the
    append cycle at the top, stage label advanced by beta_step, z-values
    extended by the tokens (one per append), each ("last",) resolved against
    the value as it stands before the cycle. The cycle is nonempty and the
    stages rise (HypothesisViolated "tail-shape" otherwise), as the tail
    lemma in the `ascentlab.conditions` docstring asks; `validate_chain`
    checks its other hypothesis, the tokens'."""

    beta_step: int
    schemes: tuple[AppendScheme, ...]
    z_tokens: tuple[ZToken, ...]

    def __post_init__(self) -> None:
        if self.beta_step < 1:
            raise HypothesisViolated("tail-shape", f"beta_step {self.beta_step} does not raise the stages")
        if not self.schemes:
            raise HypothesisViolated("tail-shape", "the append cycle is empty")

    def next_member(self, m: ChainMember) -> ChainMember:
        cond = m.cond
        for scheme in self.schemes:
            cond = extend_with_top(cond, cond.top.append_entries(scheme))
        beta = Ordinal(m.beta.w, m.beta.n + self.beta_step)
        return ChainMember(beta, cond, m.z.stepped(beta, self.z_tokens))


@dataclass(frozen=True, slots=True)
class ChainDescriptor:
    """Explicit prefix, optional uniform tail, the limit stage gamma the
    member stages approach, and the z-domain endpoint delta."""

    members: tuple[ChainMember, ...]
    tail: Optional[ChainTail]
    gamma: Ordinal
    delta: Ordinal
    closed_delta: bool = False


def _key(piece, m: int) -> Ordinal:
    """The key of a piece (see `ZMap.pieces`) at its position m."""
    w, loc, _ = piece
    return Ordinal(w, loc if loc.__class__ is int else loc.member(m))


def _least_key(pieces, position) -> Optional[tuple[Ordinal, tuple, int]]:
    """(key, piece, m) with the least key over the pieces at which
    `position(piece)` gives a position m, or None when it gives none."""
    hits = [(_key(p, m), p, m) for p in pieces if (m := position(p)) is not None]
    return min(hits, key=itemgetter(0), default=None)


def _last_entry_pieces(pieces, last: Ordinal) -> list:
    """The pieces of key -> z(key)(last), in the form `_first_collision` reads."""
    return [(w, ("point" if loc.__class__ is int else "cell", loc,
                 *entry_affine(t.entry_at(last)))) for w, loc, t in pieces]


def check_z_bullets(beta: Ordinal, cond: Condition, z: ZMap, delta: Ordinal,
                    closed: bool, after: Optional[Proof] = None) -> Proof:
    """The four per-stage z requirements, decided exactly. Raises
    HypothesisViolated with the first failing bullet, in the order below,
    and the least key that breaks it (the first pair for z-pairwise); on
    success returns its "z-bullets" record of (cond, z) and (beta, delta,
    closed), which `validate_chain` accepts in place of a second check and
    the next stage may pass as `after`.
    - z-top-level: heights, then membership: `tree_contains` for a point,
      `_template_members` (exact) for a cell.
    - z-pairwise: at a successor, equal last entries (`_first_collision` on
      the last-entry pieces); at a limit, `_eq_star_collision`.
    - z-vs-zero: at a successor, the `meet` of each piece's last entry
      with top member 0's value there (`AscentLevel.value_at`); at a
      limit, `_agree_positions` of top member 0 against each piece on the
      `_eq_star_pairs` window.
    - z-exclusive: `_least_meeting_position`; only on a failure is the
      member built and `me_set_concrete` read for the least tau != 0.
    Each bullet speaks of every key, or pair of distinct keys, and its
    value, so it is decided first on the map's whole pieces (`ZMap.whole`)
    when no two of them share a key (`_keys_apart`), and on its carved
    pieces (`ZMap.pieces`) only when that fails: every failure, its bullet
    and its least key come from the carved pieces.

    The evidence read is `after` alone, the record of the stage before, by
    the stage lemma in the `ascentlab.conditions` docstring. The caller
    passes it only when it holds the lemma's other hypotheses for the
    condition c and z-map y it names: cond's top extends c's with full
    support, and each value of z end-extends y's value at its key. The
    record is read when it is a "z-bullets" record (made on whole or carved
    pieces alike), it names delta, closed and an earlier stage, and cond's
    tree has the level tuples of c's (identity) with the two top heights in
    one block and no explicit level between them (`_follows`). Then
    membership is not read, z-exclusive reads the coordinates from c's
    height on, and z-pairwise and z-vs-zero run as above; when that finds a
    fault, or the record is not read, the check runs as without it. A pass
    builds no member of z, and top member 0 only at a limit height."""
    if (z.lo, z.hi, z.closed_hi) != (beta, delta, closed):
        raise HypothesisViolated("z-domain", f"z of stage {beta} has domain "
                                 f"({z.lo},{z.hi}{']' if z.closed_hi else ')'}")
    if not _whole_pass(beta, cond, z, delta, closed, after):
        fault = _z_fault(cond, z, z.pieces())
        if fault:
            raise HypothesisViolated(*fault)
    return prove("z-bullets", (cond, z), (beta, delta, closed))


def _whole_pass(beta: Ordinal, cond: Condition, z: ZMap, delta: Ordinal, closed: bool,
                after: Optional[Proof]) -> bool:
    """Whether z's whole pieces, when their keys lie apart, pass the four
    bullets: by the stage lemma from `after` when its record is read
    (`_follows`), and otherwise, or when that finds a fault, in full."""
    whole = z.whole()
    if not _keys_apart(whole):
        return False
    if after is not None and _follows(after, beta, cond, delta, closed) \
            and _z_fault(cond, z, whole, after.objects[0].eta) is None:
        return True
    return _z_fault(cond, z, whole) is None


def _keys_apart(pieces) -> bool:
    """Whether no two of the pieces share a key. z-pairwise at a successor
    (`_first_collision`) skips a common value at one key, which two pieces
    sharing a key may hide a collision behind, so whole pieces are read
    only when their keys lie apart, as in every map the game builds."""
    points = {(w, loc) for w, loc, _ in pieces if loc.__class__ is int}
    cells = [(w, loc) for w, loc, _ in pieces if loc.__class__ is not int]
    for i, (w, ap) in enumerate(cells):
        if any(pw == w and n in ap for pw, n in points):
            return False
        if any(w2 == w and ap.intersect(ap2) is not None for w2, ap2 in cells[i + 1:]):
            return False
    return True


def _follows(after: Proof, beta: Ordinal, cond: Condition, delta: Ordinal,
             closed: bool) -> bool:
    """The hypotheses of the stage lemma that `check_z_bullets` reads from
    the record of the stage before and the two conditions: a "z-bullets"
    record of an earlier stage on the same z-domain end; top heights in one
    block, rising, each its top level's; and one tree's level tuples, with
    no explicit level above the earlier top up to the later one, so the
    levels between are append levels."""
    if after.check != "z-bullets":
        return False
    (prev, _), (before, end, shut) = after.objects, after.values
    lo, hi = prev.eta, cond.eta
    return (before < beta and end == delta and shut == closed and lo.w == hi.w and lo < hi
            and prev.top.height == lo and cond.top.height == hi
            and cond.tree.explicit is prev.tree.explicit
            and cond.tree.catalogs is prev.tree.catalogs
            and not any(lo < h <= hi for h, _ in cond.tree.explicit))


def _z_fault(cond: Condition, z: ZMap, pieces, low: Optional[Ordinal] = None
             ) -> Optional[tuple[str, str]]:
    """(bullet, detail) for the first z requirement failing on the pieces
    of z (`ZMap.whole` or `ZMap.pieces`), or None (see `check_z_bullets`).
    Heights come first, as the later bullets read the pieces at the top's
    coordinates; a cell holding no key needs the top's height too, as later
    members and the z-unions keep it (`stepped`, `limit_map`) and the
    amalgam's catalog admits it. With `low`, the stage lemma's earlier top
    height, membership is not read and z-exclusive reads the coordinates
    from low on."""
    eta, top, tree = cond.eta, cond.top, cond.tree

    def top_level(p) -> Optional[int]:
        _, loc, t = p
        if t.dom != eta:
            return 0
        if low is not None:
            return None
        if loc.__class__ is int:
            return None if tree_contains(tree, t) else 0
        members = _template_members(tree, t)
        return None if members == FULL_SET else members.complement().min_member()
    hit = _least_key(pieces, top_level)
    if hit:
        k, (_, _, t), _ = hit
        return "z-top-level", f"z({k}) has height {t.dom}" if t.dom != eta else f"z({k}) outside the tree"
    for w, cell in z.cells:
        if cell.template.dom != eta:
            return "z-top-level", f"a cell of block {w} has height {cell.template.dom}"
    if eta.is_successor:
        last = eta.pred()
        pair = _first_collision(_last_entry_pieces(pieces, last))
        pair = pair and (Ordinal(*pair[0]), Ordinal(*pair[1]))
        c = top.value_at(0, last)

        def zero(p) -> Optional[int]:
            # =* at a successor is equality at the last coordinate
            return meet(*entry_affine(p[2].entry_at(last)), 0, c).m
    else:
        pair = _eq_star_collision(pieces)
        f0 = top.at(0)

        def zero(p) -> Optional[int]:
            verdict, m = _agree_positions(f0, p[2], _eq_star_pairs)
            return None if verdict == "none" else m
    if pair:
        return "z-pairwise", f"z({pair[0]}) =* z({pair[1]})"
    hit = _least_key(pieces, zero)
    if hit:
        return "z-vs-zero", f"z({hit[0]}) =* top family at 0"
    hit = _least_key(pieces, lambda p: _least_meeting_position(p[2], top, low))
    if hit:
        k, (_, _, t), m = hit
        tau = me_set_concrete(t.instantiate(m), top).complement().difference(singleton(0))
        return "z-exclusive", f"z({k}) meets top family at {tau.min_member()}"
    return None


def _eq_star_collision(pieces) -> Optional[tuple[Ordinal, Ordinal]]:
    """Two distinct keys with eventually equal values, the first pair in
    all-pairs order, for pieces of one limit height. A cell piece meets
    itself iff its `_eq_star_pairs` window, one period of the top block's
    tails, has no ramp, which would tell two positions apart on a final
    segment; two pieces meet at the least positions (m1, m2) at which every
    pair of that window agrees, the `meet`s of the pairs intersected."""
    for i, p in enumerate(pieces):
        if p[1].__class__ is not int and all(e.__class__ is int for e, _ in _eq_star_pairs(p[2], p[2])):
            return _key(p, 0), _key(p, 1)
        for q in pieces[i + 1:]:
            hit = ALL_MEET
            for e1, e2 in _eq_star_pairs(p[2], q[2]):
                hit = hit.intersect(meet(*entry_affine(e1), *entry_affine(e2)))
            if hit.m is not None:
                return _key(p, hit.m), _key(q, hit.s)
    return None


def _least_meeting_position(t: SymNode, top: AscentLevel,
                            low: Optional[Ordinal] = None) -> Optional[int]:
    """The least position m at which t(m), for a template (or node) of the
    top's height, shares a coordinate value with top(tau), tau != 0, or
    None: the least m of its meets with the top's pieces other than index 0
    (`_level_meets`), at the coordinates from `low` on when it is given.
    The index 0 may be met (`me_cross` counts that as moving, for clause
    C4)."""
    least = None
    for _, hit in _level_meets(t, top, skip_zero=True, low=low):
        if hit.m is not None and (least is None or hit.m < least):
            least = hit.m
    return least


def _incoherent(earlier: list, later: list) -> Iterator[Ordinal]:
    """For each pair of pieces, one of each list (see `ZMap.pieces`), that
    share keys, the least shared key where the later value does not
    end-extend the earlier one, if any. A point shares at most one key with
    a piece, where `_agree_positions` decides; two cells share the meet of
    their progressions, on which both are re-based (`Cell.on`) so that
    `_agree_positions` reads them at one position: all, one or none."""
    for w, loc1, t1 in earlier:
        for w2, loc2, t2 in later:
            if w2 != w:
                continue
            if loc1.__class__ is int or loc2.__class__ is int:
                n, other = (loc1, loc2) if loc1.__class__ is int else (loc2, loc1)
                if n != other if other.__class__ is int else n not in other:
                    continue
                verdict, m0 = ("none", 0) if t1.dom > t2.dom else _agree_positions(t1, t2)
                if verdict == "none" or verdict == "one" and m0 != other.position(n):
                    yield Ordinal(w, n)
                continue
            inter = loc1.intersect(loc2)
            if inter is None:
                continue
            u1, u2 = Cell(loc1, t1).on(inter).template, Cell(loc2, t2).on(inter).template
            verdict, m0 = ("none", 0) if u1.dom > u2.dom else _agree_positions(u1, u2)
            if verdict != "all":
                yield Ordinal(w, inter.member(1 if verdict == "one" and m0 == 0 else 0))


def validate_chain(ch: ChainDescriptor) -> None:
    """Check every amalgamation hypothesis exactly: on the explicit members
    and on the tail's first member t_1, which decides the whole tail by the
    tail lemma in the `ascentlab.conditions` docstring.

    Order: the chain's shape; the tail's z tokens, which must match the
    append cycle and repeat from their first cycle (the lemma's hypothesis,
    "tail-shape"); each explicit member's variant, stage and z-bullets; no
    ("last",) token over a last member of limit height, whose z-values have
    no final entry to repeat ("tail-shape"); t_1's stage, the mutual
    exclusivity of its new top levels ("tail-exclusive", naming the level)
    and its z-bullets; then the pairs.
    A tree that lists a level above t_1's top fails z-top-level: the tail's
    members pass through that level with infinitely many distinct z-values,
    which no finite list holds.

    Evidence read: each member's own record, and the last member's. A
    member skips the z-bullets only when `foundations.proves` accepts its
    record as the "z-bullets" one of its own cond and z objects (`is`), its
    own stage and the chain's z-domain end. Members decoded from JSON,
    built by fixtures, and limit-stage moves carry no record and are
    checked. t_1 extends the last member by appends only, so its new levels
    are checked by the append lemma (`ascent._me_above`), from the last
    top's "me_family" record when it carries one, and its z-bullets by the
    stage lemma with the last member's record as `after` (see
    `check_z_bullets`).

    Pairs: `decreasing`, `full-supp` and `z-coherent` hold by construction
    between the last member and t_1 and between later tail members, and a
    pair (m, t_k) holds when (m, last) does, by transitivity through the
    last member: leq_s and end-extension are transitive, FULL ∩ FULL ⊆ supp
    of the outer pair by the chain lemma, and t_k's z-domain lies in the
    last member's. So only the explicit members are paired, adjacent ones
    first: when the stages increase, the keys two members share lie in
    every z-domain between theirs. Otherwise, or after an adjacent
    failure, the all-pairs loop runs over the explicit members, and the
    raised error is the first one in the pair order of all members.

    A pass also puts every height below the amalgam's: `decreasing` holds
    on every pair, so heights never fall along the members, and the tail
    members extend the last member's top within its block, below
    `next_limit()` of its height, which is the amalgam's."""
    if not ch.members:
        raise HypothesisViolated("nonempty", "chain has no members")
    if not ch.gamma.is_limit:
        raise HypothesisViolated("gamma-limit", f"{ch.gamma} is not a limit")
    if not (ch.delta > ch.gamma):
        raise HypothesisViolated("delta-range", f"delta {ch.delta} not above gamma {ch.gamma}")
    if ch.tail is None:
        raise NotUniformTail("a cofinal chain below a limit needs a uniform tail")
    tokens = ch.tail.z_tokens
    if len(tokens) != len(ch.tail.schemes):
        raise HypothesisViolated("tail-shape", "z tokens must match the append cycle")
    if LAST in tokens and tokens[-1] != LAST:
        raise HypothesisViolated("tail-shape", "z tokens with a 'last' token must end with "
                                 "one, or the cycles after the first append other entries")
    ev = None           # once the loop ends, the last member's z-bullets record
    for m in ch.members:
        if m.cond.variant != S_X:
            raise HypothesisViolated("variant", "chain members must be S_X conditions")
        if not (m.beta < ch.gamma):
            raise HypothesisViolated("gamma-cofinal", f"stage {m.beta} at or above gamma")
        ev = m.bullets
        if not proves(ev, "z-bullets", (m.cond, m.z), (m.beta, ch.delta, ch.closed_delta)):
            ev = check_z_bullets(m.beta, m.cond, m.z, ch.delta, ch.closed_delta)
    last = ch.members[-1]
    if LAST in tokens and last.cond.eta.is_limit:
        raise HypothesisViolated("tail-shape", f"a 'last' token repeats a final entry, which no "
                                 f"value of the limit height {last.cond.eta} has")
    first = ch.tail.next_member(last)
    if not (first.beta < ch.gamma):
        raise HypothesisViolated("gamma-cofinal", f"stage {first.beta} at or above gamma")
    top = last.cond.top
    known = proves(top.exclusive, "me_family", (top.cells, top.exceptions), (top.height,))
    h = last.cond.eta
    while h < first.cond.eta:
        h = h.succ()
        rep = _me_above(first.cond.level(h), known, FULL_SET)
        if not rep.ok:
            raise HypothesisViolated("tail-exclusive", f"level {h} not mutually exclusive: {rep.detail}")
        known = True
    check_z_bullets(first.beta, first.cond, first.z, ch.delta, ch.closed_delta, ev)
    for h, _ in first.cond.tree.explicit:
        if h.w == first.cond.eta.w and h > first.cond.eta:
            raise HypothesisViolated("z-top-level", f"the tail's z-values pass level {h}, "
                                     "which lists finitely many nodes")
    members = ch.members
    if all(_adjacent(a, b) for a, b in zip(members, members[1:])):
        return
    for i, m1 in enumerate(members):
        for m2 in members[i + 1:]:
            if not leq_s(m2.cond, m1.cond):
                raise HypothesisViolated("decreasing", f"stage {m2.beta} does not extend {m1.beta}")
            if supp(m1.cond.top, m2.cond.top) != FULL_SET:
                raise HypothesisViolated("full-supp", f"stages {m1.beta},{m2.beta}")
            k = m1.z.incoherent_key(m2.z)
            if k is not None:
                raise HypothesisViolated("z-coherent", f"z({k}) not increasing")


def _adjacent(a: ChainMember, b: ChainMember) -> bool:
    """The chain hypotheses between two S_X members, b the later: stages
    increasing, `decreasing`, `full-supp` and `z-coherent`. Members over
    different X-sequences give False, not leq_s's WrongVariant: the
    all-pairs loop raises it at the first such pair."""
    return (a.beta < b.beta and a.cond.x == b.cond.x and leq_s(b.cond, a.cond)
            and supp(a.cond.top, b.cond.top) == FULL_SET and a.z.incoherent_key(b.z) is None)


def amalgamate(ch: ChainDescriptor) -> tuple[Condition, ZMap]:
    """The limit lower bound: closed-form unions for the ascent top and the
    z-branches, a branch catalog making the new level's members exactly the
    grafts of lower nodes onto admitted branches, and the skipped z-branch
    recorded vanishing. The conclusions are verified before returning
    (PostconditionFailed otherwise, see `_verify_conclusions`): the result
    extends the last member with full support, and so, by the chain lemma,
    every member; its z-unions extend every member's z-values and lie in
    the tree with the union level; and it passes check_condition, whose
    clause C3 puts the new limit among its vanishing levels."""
    validate_chain(ch)
    last = ch.members[-1]
    tail = ch.tail

    eta = last.cond.eta.next_limit()
    # path: explicit levels from the last member, tail rule for the block,
    # and the union level on top; the rule starts one height up, so its
    # base absorbs the first scheme and the cycle rotates
    start_n = last.cond.eta.n + 1
    rule = TailRule(start_n, last.cond.top.append_entries(tail.schemes[0]),
                    tail.schemes[1:] + tail.schemes[:1])
    top = rule.limit_level()

    # z-unions and the vanishing branch
    z_gamma = last.z.limit_map(ch.gamma, tail.z_tokens)
    vanish = last.z.limit_value(ch.gamma, tail.z_tokens)

    fams = [CatalogFamily(top.cells, admitted=True)]
    fams.extend(CatalogFamily((c,), admitted=True) for _, c in z_gamma.cells)
    singles = [CatalogSingle(f"z:{i}", v, admitted=True) for i, v in z_gamma.entries]
    singles.append(CatalogSingle("y", vanish, admitted=False))
    catalog = BranchCatalog(tuple(fams), tuple(singles))

    tree = SymTree.make(eta.succ(), dict(last.cond.tree.explicit),
                        dict(last.cond.tree.catalogs) | {eta: catalog})
    levels = {h: lvl for h, lvl in last.cond.path.levels if h.n < start_n or h.w != eta.w - 1}
    levels[eta] = top
    path_tails = dict(last.cond.path.tails) | {eta.w - 1: rule}
    out = Condition(tree, AscentPath.make(levels, path_tails), S_X, last.cond.x)

    _verify_conclusions(ch, out, z_gamma, vanish)
    # clause C2 of check_condition(out) walked it
    object.__setattr__(top, "exclusive", prove("me_family", (top.cells, top.exceptions), (top.height,)))
    return out, z_gamma


def _verify_conclusions(ch: ChainDescriptor, out: Condition, z_gamma: ZMap,
                        vanish: SymNode) -> None:
    """The amalgam's conclusions, checked. No member reaches the amalgam's
    height, as a passing `validate_chain` shows. `leq_s` and full support are
    checked against the last member only: `validate_chain` has established
    that every member extends each earlier one with full support, leq_s is
    transitive, and by the chain lemma in the `ascentlab.conditions`
    docstring, supp(f, g) and supp(g, h) full give supp(f, h) full for the
    tops' heights f <= g <= h. Z-coherence is checked against the last member
    only, by transitivity: each key of the z-unions' domain lies in every
    member's, where `validate_chain` found the last value end-extending the
    others. The z-unions are checked in the tree exactly: every cell's
    template and every in-domain entry (`family_in_tree`), which the
    admitted-template and admitted-single exits in `trees` answer for the
    catalog's own branches."""
    last = ch.members[-1]
    if not leq_s(out, last.cond):
        raise PostconditionFailed(f"amalgam does not extend stage {last.beta}")
    if supp(last.cond.top, out.top) != FULL_SET:
        raise PostconditionFailed(f"amalgam lost full support to stage {last.beta}")
    k = last.z.incoherent_key(z_gamma)
    if k is not None:
        raise PostconditionFailed(f"z union at {k} does not extend stage {last.beta}")
    # membership characterization: admitted branches and their grafts are in,
    # the vanishing union is out
    if not family_in_tree(out.tree, [c for _, c in z_gamma.cells],
                          [(k, v) for k, v in z_gamma.entries if z_gamma.in_domain(k)]):
        raise PostconditionFailed("z union missing from the top level")
    if not family_in_tree(out.tree, out.top.cells, out.top.exceptions):
        raise PostconditionFailed("ascent union missing from the top level")
    if tree_contains(out.tree, vanish):
        raise PostconditionFailed("the skipped z-branch is in the tree")
    # out.eta is a limit, so clause C3 decides that it is a vanishing level
    rep = check_condition(out, S_X)
    if not rep.ok:
        raise PostconditionFailed("amalgam fails validation: " + "; ".join(rep.violations))
