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
from typing import Iterator, Optional

from .foundations import (
    EMPTY_SET, FULL_SET, W_LIMIT, Ordinal, PostconditionFailed, Rejected, UPSet, _root,
    finite_set, multiples, singleton,
)
from .ascent import (
    AppendScheme, AscentLevel, Cell, MapPiece, _first_collision, _split, me_cross, me_set_concrete,
    record_exclusive, supp,
)
from .nodes import Entry, SymNode, _window_pairs, entry_affine, eq_star, is_prefix
from .conditions import (
    Condition, S_X, TailRule, check_condition, extend_with_top, leq_s,
)
from .trees import (
    BranchCatalog, CatalogFamily, CatalogSingle, SymTree, _template_in_tree, family_in_tree,
    tree_contains,
)


class HypothesisViolated(Rejected):
    def __init__(self, bullet: str, detail: str = "") -> None:
        self.bullet = bullet
        super().__init__(f"chain hypothesis failed ({bullet})" + (f": {detail}" if detail else ""))


class NotUniformTail(Rejected):
    """The chain has no closed-form continuation."""


# z-append tokens: ("const", v) appends the label v, ("last",) repeats the
# node's final entry.
ZToken = tuple


def resolve_tokens(tokens: tuple[ZToken, ...], tmpl: SymNode) -> tuple[Entry, ...]:
    out: list[Entry] = []
    for tok in tokens:
        if tok[0] == "const":
            out.append(tok[1])
        elif tok[0] == "last":
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
    closed_hi: bool = False
    cells: tuple[tuple[int, Cell], ...] = ()    # (block w, indices over n)
    entries: tuple[tuple[Ordinal, SymNode], ...] = ()
    # key -> entry value, built once; the first listed entry wins, as in a scan
    _by_key: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_key", dict(reversed(self.entries)))

    @staticmethod
    def make(lo, hi, closed_hi=False, cells=(), entries=()) -> "ZMap":
        return ZMap(lo, hi, closed_hi,
                    tuple(cells), tuple(sorted(entries.items() if isinstance(entries, dict) else entries)))

    def in_domain(self, i: Ordinal) -> bool:
        if i <= self.lo:
            return False
        return i <= self.hi if self.closed_hi else i < self.hi

    def at(self, i: Ordinal) -> SymNode:
        if not self.in_domain(i):
            raise KeyError(f"{i} outside z domain ({self.lo}, {self.hi}{']' if self.closed_hi else ')'}")
        v = self._by_key.get(i)
        if v is not None:
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

    def probe_keys(self) -> list[Ordinal]:
        out = [k for k, _ in self.entries if self.in_domain(k)]
        for w, cell in self.cells:
            for m in range(2):
                key = Ordinal(w, cell.ap.member(m))
                if self.in_domain(key):
                    out.append(key)
        return sorted(out)

    def incoherent_keys(self, later: "ZMap") -> Iterator[Ordinal]:
        """The probe keys in `later`'s domain whose value there does not
        end-extend this map's value (z-coherence fails at them)."""
        for k in self.probe_keys():
            if later.in_domain(k):
                v, w = self.at(k), later.at(k)
                if w.dom < v.dom or not is_prefix(v, w):
                    yield k

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
        entries = [(k, v) for k, v in self.entries if k > new_lo]
        return ZMap.make(new_lo, self.hi, self.closed_hi, cells, entries)

    def stepped(self, new_lo: Ordinal, tokens: tuple[ZToken, ...]) -> "ZMap":
        """The next member's z-map: the map above new_lo, every value gaining
        the resolved token entries."""
        def grow(v: SymNode) -> SymNode:
            for e in resolve_tokens(tokens, v):
                v = v.append(e)
            return v
        z = self.above(new_lo)
        return replace(z, cells=tuple((w, Cell(c.ap, grow(c.template))) for w, c in z.cells),
                       entries=tuple((k, grow(v)) for k, v in z.entries))

    def limit_value(self, i: Ordinal, tokens: tuple[ZToken, ...]) -> SymNode:
        """Union of this key's values along the uniform tail."""
        base = self.at(i)
        return base.extend_to_limit(resolve_tokens(tokens, base))

    def limit_map(self, new_lo: Ordinal, tokens: tuple[ZToken, ...]) -> "ZMap":
        """The whole map's unions along the tail, on the keys above the new
        limit stage; full-block key ranges stay cells."""
        def close(v: SymNode) -> SymNode:
            return v.extend_to_limit(resolve_tokens(tokens, v))
        z = self.above(new_lo)
        return replace(z, cells=tuple((w, Cell(c.ap, close(c.template))) for w, c in z.cells),
                       entries=tuple((k, close(v)) for k, v in z.entries))


@dataclass(frozen=True, slots=True)
class ZBullets:
    """Evidence that `check_z_bullets(beta, cond, z, delta, closed)` passed.
    The check is a function of these five immutable values, so it certifies
    a chain member whose cond and z are these very objects."""

    beta: Ordinal
    cond: Condition
    z: ZMap
    delta: Ordinal
    closed: bool


@dataclass(frozen=True, slots=True)
class ChainMember:
    beta: Ordinal
    cond: Condition
    z: ZMap
    bullets: Optional[ZBullets] = field(default=None, compare=False, repr=False)

    def proved(self, delta: Ordinal, closed: bool) -> bool:
        """Whether the carried evidence covers this member on the z-domain
        (beta, delta): its cond and z by identity, the rest by value."""
        ev = self.bullets
        return (ev is not None and ev.cond is self.cond and ev.z is self.z
                and ev.beta == self.beta and ev.delta == delta and ev.closed == closed)


@dataclass(frozen=True, slots=True)
class ChainTail:
    """Uniform continuation: each further member is the previous one plus the
    append cycle at the top, stage label advanced by beta_step, z-values
    extended by the tokens (one per append)."""

    beta_step: int
    schemes: tuple[AppendScheme, ...]
    z_tokens: tuple[ZToken, ...]

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

    def sample_members(self) -> list[ChainMember]:
        """The explicit members, then two members generated by the tail."""
        out = list(self.members)
        if self.tail is not None:
            cur = out[-1]
            for _ in range(2):
                cur = self.tail.next_member(cur)
                out.append(cur)
        return out


def _last_entry_pieces(z: ZMap, last: Ordinal) -> list:
    """(block, value piece) pairs describing key -> z(key)(last) on the
    z-domain: the entries, and each cell on the keys of its block in the
    domain that no entry and no earlier cell of the block holds."""
    pieces = [(k.w, ("point", k.n, 0, v.eval_at(last))) for k, v in z.entries if z.in_domain(k)]
    held = {w: finite_set(k.n for k, _ in z.entries if k.w == w) for w, _ in z.cells}
    for w, cell in z.cells:
        value = MapPiece(cell.ap, *entry_affine(cell.template.entry_at(last)))
        parts, points = _split((value,), z.block_keys(w).difference(held[w]))
        held[w] = held[w].union(cell.ap.upset())
        pieces.extend((w, ("cell", p.ap, p.a, p.b)) for p in parts)
        pieces.extend((w, ("point", n, 0, v)) for n, v in points)
    return pieces


def _run_on(z: ZMap) -> ZMap:
    """z with a finite top block run on to the next limit, where there is
    one. Its last-entry pieces hold z's and more keys, each of z's pieces
    inside one of its own with the same value at each key, so it has a
    collision whenever z has one; and it lists its top block as one piece."""
    if z.hi.n and z.hi.w < W_LIMIT:
        return replace(z, hi=z.hi.next_limit(), closed_hi=False)
    return z


def check_z_bullets(beta: Ordinal, cond: Condition, z: ZMap,
                    delta: Ordinal, closed: bool) -> ZBullets:
    """The four per-stage z requirements. Raises HypothesisViolated with the
    failing bullet; on success returns the ZBullets record of the five
    arguments, which `validate_chain` accepts in place of a second check of
    the same objects.

    At a successor height eta with last coordinate lam, the pass case is
    proved piece by piece (`_z_pieces_pass`): each cell once and each entry
    in the domain once, with no probe node built. Each piece check is a
    sufficient condition for its bullet on every member the piece holds:
    - z-top-level: a cell template of height eta that `_template_in_tree`
      accepts has every instance at height eta and in the tree. Entries are
      checked by height and `tree_contains`.
    - z-vs-zero: two nodes of successor height eta are eventually equal iff
      their entries at lam are equal, so no member of a cell whose entry
      a*m + b at lam never takes top member 0's value there is eventually
      equal to that member. The value is read off the top's piece that
      holds index 0.
    - z-exclusive: `me_cross` lists, for the cells against the top, every
      (cell member, top index) pair sharing a value at some coordinate:
      over a whole top cell (static or row), at one top index for every
      member (static point), or finitely often per member (moving). When
      there is no moving collision and no static or row index other than 0,
      no cell member meets the top off index 0. The entries are decided in
      one pass per top piece (`_entries_meet_top`): an entry v meets top(tau)
      for some tau != 0 iff at some coordinate v's value e equals the
      piece's entry there, a constant (every index of a cell, or the key of
      an exception other than 0) or a ramp a*m + b at the position
      m = (e - b) / a >= 0 of an index other than 0; that is, iff
      `me_set_concrete(v, top)` leaves out an index other than 0, and no
      set is built. Entries with the same blocks share every pair on the
      block coordinates, so each distinct blocks tuple is read once.
    - z-pairwise is decided on the last-entry pieces already.
    When a piece check does not pass, and at limit heights, the key-by-key
    check (`_z_bullets_by_key`) decides, so every verdict, bullet and
    message is the one it gives."""
    if (z.lo, z.hi, z.closed_hi) != (beta, delta, closed):
        raise HypothesisViolated("z-domain", f"z of stage {beta} has domain "
                                 f"({z.lo},{z.hi}{']' if z.closed_hi else ')'}")
    if not (cond.eta.is_successor and _z_pieces_pass(cond, z)):
        _z_bullets_by_key(cond, z)
    return ZBullets(beta, cond, z, delta, closed)


def _z_pieces_pass(cond: Condition, z: ZMap) -> bool:
    """The piece checks of `check_z_bullets` at a successor height: True
    only when every bullet holds. A piece is read at a coordinate only after
    its height is checked, so a piece of another height sends the check to
    the key-by-key path instead of raising."""
    eta, top, tree = cond.eta, cond.top, cond.tree
    if any(c.template.dom != eta for _, c in z.cells):
        return False
    zero_value = _value_at_zero(top)
    if zero_value is None:
        return False
    entries = [v for k, v in z.entries if z.in_domain(k)]
    for v in entries:
        if v.dom != eta or not v.concrete or v.final[-1] == zero_value \
                or not tree_contains(tree, v):
            return False
    for _, c in z.cells:
        a, b = entry_affine(c.template.final[-1])
        if (b == zero_value if a == 0 else _root(a, zero_value - b) is not None) \
                or not _template_in_tree(tree, c.template):
            return False
    if _last_entry_collision(z, eta.pred()) or _entries_meet_top(entries, top):
        return False
    return not z.cells or _cross_fault(eta, z, top) is None


def _entries_meet_top(entries: list[SymNode], top: AscentLevel) -> bool:
    """Whether some entry, a concrete node of the top's height, shares a
    coordinate value with top(tau) for some tau != 0: one pass per top piece,
    the block coordinates once per distinct blocks tuple of the entries."""
    groups: dict[tuple, list] = {}
    for v in entries:
        groups.setdefault(v.blocks, []).append(v.final)
    pieces = [(c.template, c.ap.start) for c in top.cells] + \
        [(u, k) for k, u in top.exceptions if k]
    for t, start in pieces:
        for blocks, finals in groups.items():
            for wv, wt in zip(blocks, t.blocks):
                if _meets_off_zero(_window_pairs(wv, wt), start):
                    return True
            for final in finals:
                if _meets_off_zero(zip(final, t.final), start):
                    return True
    return False


def _meets_off_zero(pairs, start: int) -> bool:
    """Whether some (value, piece entry) pair is equal at an index other than
    0 of a top piece whose first index is `start`: a constant entry holds at
    every index of the piece (a cell, or an exception keyed off 0), a ramp
    a*m + b at position m = (value - b) / a, index 0 only when m = 0 and
    start = 0."""
    for e, et in pairs:
        if et.__class__ is int:
            if e == et:
                return True
        else:
            d = e - et.b
            if d >= 0 and not d % et.a and (d or start):
                return True
    return False


def _value_at_zero(top: AscentLevel) -> Optional[int]:
    """Top member 0's last entry (a successor height), read off the exception
    or cell holding index 0, in `AscentLevel.at`'s order; None when no piece
    holds it."""
    for k, v in top.exceptions:
        if k == 0:
            return v.final[-1]
    for c in top.cells:
        if c.ap.start == 0:
            return entry_affine(c.template.final[-1])[1]
    return None


def _last_entry_collision(z: ZMap, last: Ordinal):
    """Two keys of z's domain whose values share their entry at `last`, if
    any: the one-coordinate collision analysis of the exclusivity walk. A
    finite top block is listed key by key only when `_run_on(z)` has a
    collision."""
    return _first_collision(_last_entry_pieces(_run_on(z), last)) and \
        _first_collision(_last_entry_pieces(z, last))


def _cross_fault(eta: Ordinal, z: ZMap, top: AscentLevel) -> Optional[str]:
    """Why some member of z's cells, read at height eta, meets the top
    family off index 0, by `me_cross`, or None."""
    zero = singleton(0)
    rep = me_cross(AscentLevel(eta, tuple(c for _, c in z.cells), ()), top)
    if rep.has_moving:
        return "a branch cell meets the family cofinally"
    if not rep.static_bad.difference(zero).is_empty:
        return "a branch cell meets the family off 0"
    for i0, row in rep.special_rows:
        if not row.difference(zero).is_empty:
            return f"branch {i0} meets the family off 0"
    return None


def _z_bullets_by_key(cond: Condition, z: ZMap) -> None:
    """The z requirements on the probe keys plus the cell structure; at
    successor heights, pairwise difference over the whole domain. Once the
    probe nodes pass, every cell's template height is checked, because the
    checks after it read each cell's template at the top's coordinates."""
    eta = cond.eta
    top = cond.top
    keys = z.probe_keys()
    nodes = [(k, z.at(k)) for k in keys]
    for k, v in nodes:
        if v.dom != eta:
            raise HypothesisViolated("z-top-level", f"z({k}) has height {v.dom}")
        if not tree_contains(cond.tree, v):
            raise HypothesisViolated("z-top-level", f"z({k}) outside the tree")
    for w, cell in z.cells:
        if cell.template.dom != eta:
            raise HypothesisViolated("z-top-level",
                                     f"a cell of block {w} has height {cell.template.dom}")
    # pairwise eventual difference: at successor heights this is distinct
    # last entries over the whole domain
    if eta.is_successor:
        hit = _last_entry_collision(z, eta.pred())
        if hit:
            raise HypothesisViolated("z-pairwise", f"z({Ordinal(*hit[0])}) =* z({Ordinal(*hit[1])})")
    else:
        for i, (k1, v1) in enumerate(nodes):
            for k2, v2 in nodes[i + 1:]:
                if eq_star(v1, v2):
                    raise HypothesisViolated("z-pairwise", f"z({k1}) =* z({k2})")
        for w, cell in z.cells:
            word = cell.template.blocks[-1]
            if all(isinstance(e, int) for e in word.prefix + word.tail):
                raise HypothesisViolated("z-pairwise",
                                         f"block {w} cell instances eventually coincide")
    # exclusivity against the whole nonzero family, decided exactly by
    # me_set_concrete: any collision away from index 0 is fatal, and the
    # least such index is the witness
    f0, zero = top.at(0), singleton(0)
    for k, v in nodes:
        if eq_star(v, f0):
            raise HypothesisViolated("z-vs-zero", f"z({k}) =* top family at 0")
        bad = me_set_concrete(v, top).complement().difference(zero)
        if not bad.is_empty:
            raise HypothesisViolated("z-exclusive", f"z({k}) meets top family at {bad.min_member()}")
    if z.cells:
        fault = _cross_fault(eta, z, top)
        if fault:
            raise HypothesisViolated("z-exclusive", fault)


def validate_chain(ch: ChainDescriptor) -> list[ChainMember]:
    """Check every amalgamation hypothesis; returns the members extended by
    two generated tail members for the rule-level checks.

    A member skips the z-bullets only when it carries the ZBullets record
    of a passed check of its own cond and z objects (`is`), its own stage
    and the chain's z-domain endpoint (`ChainMember.proved`). Members decoded
    from JSON, built by fixtures or by the tail rule, and limit-stage moves
    carry no record and are checked in full. `decreasing` and `full-supp`
    are decided on adjacent members: leq_s is transitive, and by the chain
    lemma in the `ascentlab.conditions` docstring FULL ∩ FULL ⊆ supp of the
    outer pair. After an adjacent failure the all-pairs loop runs, so the
    raised error is the first one in pair order. `z-coherent` keeps all
    pairs."""
    if not ch.members:
        raise HypothesisViolated("nonempty", "chain has no members")
    if not ch.gamma.is_limit:
        raise HypothesisViolated("gamma-limit", f"{ch.gamma} is not a limit")
    if not (ch.delta > ch.gamma):
        raise HypothesisViolated("delta-range", f"delta {ch.delta} not above gamma {ch.gamma}")
    if ch.tail is None:
        raise NotUniformTail("a cofinal chain below a limit needs a uniform tail")
    if len(ch.tail.z_tokens) != len(ch.tail.schemes):
        raise HypothesisViolated("tail-shape", "z tokens must match the append cycle")
    sample = ch.sample_members()
    for m in sample:
        if m.cond.variant != S_X:
            raise HypothesisViolated("variant", "chain members must be S_X conditions")
        if not (m.beta < ch.gamma):
            raise HypothesisViolated("gamma-cofinal", f"stage {m.beta} at or above gamma")
        if not m.proved(ch.delta, ch.closed_delta):
            check_z_bullets(m.beta, m.cond, m.z, ch.delta, ch.closed_delta)
    adjacent_ok = all(leq_s(b.cond, a.cond) and supp(a.cond.top, b.cond.top) == FULL_SET
                      for a, b in zip(sample, sample[1:]))
    for i, m1 in enumerate(sample):
        for m2 in sample[i + 1:]:
            if not adjacent_ok:
                if not leq_s(m2.cond, m1.cond):
                    raise HypothesisViolated("decreasing", f"stage {m2.beta} does not extend {m1.beta}")
                if supp(m1.cond.top, m2.cond.top) != FULL_SET:
                    raise HypothesisViolated("full-supp", f"stages {m1.beta},{m2.beta}")
            k = next(m1.z.incoherent_keys(m2.z), None)
            if k is not None:
                raise HypothesisViolated("z-coherent", f"z({k}) not increasing")
    return sample


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
    sample = validate_chain(ch)
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

    tree = SymTree.make(eta.succ(), last.cond.tree.explicit,
                        dict(last.cond.tree.catalogs) | {eta: catalog})
    levels = {h: lvl for h, lvl in last.cond.path.levels if h.n < start_n or h.w != eta.w - 1}
    levels[eta] = top
    path_tails = dict(last.cond.path.tails) | {eta.w - 1: rule}
    from .conditions import AscentPath
    out = Condition(tree, AscentPath.make(levels, path_tails), S_X, last.cond.x)

    _verify_conclusions(ch, sample, out, z_gamma, vanish)
    record_exclusive(top)   # clause C2 of check_condition(out) walked it
    return out, z_gamma


def _verify_conclusions(ch: ChainDescriptor, sample: list[ChainMember],
                        out: Condition, z_gamma: ZMap, vanish: SymNode) -> None:
    """The amalgam's conclusions, checked. `leq_s` and full support are
    checked against the last member only: `validate_chain` has established
    that every member extends each earlier one with full support, leq_s is
    transitive, and by the chain lemma in the `ascentlab.conditions`
    docstring, supp(f, g) and supp(g, h) full give supp(f, h) full for the
    tops' heights f <= g <= h. Z-coherence is checked per member, because it
    is read on each member's probe keys, which another member's check does
    not cover. The z-unions are checked in the tree exactly: every cell's
    template and every in-domain entry (`family_in_tree`), which the
    admitted-template and admitted-single exits in `trees` answer for the
    catalog's own branches."""
    eta = out.eta
    if any(m.cond.eta >= eta for m in sample):
        raise HypothesisViolated("height-sup", "a member reaches the limit height")
    last = ch.members[-1]
    if not leq_s(out, last.cond):
        raise PostconditionFailed(f"amalgam does not extend stage {last.beta}")
    if supp(last.cond.top, out.top) != FULL_SET:
        raise PostconditionFailed(f"amalgam lost full support to stage {last.beta}")
    for m in ch.members:
        k = next(m.z.incoherent_keys(z_gamma), None)
        if k is not None:
            raise PostconditionFailed(f"z union at {k} does not extend stage {m.beta}")
    # membership characterization: admitted branches and their grafts are in,
    # the vanishing union is out
    if not family_in_tree(out.tree, [c for _, c in z_gamma.cells],
                          [(k, v) for k, v in z_gamma.entries if z_gamma.in_domain(k)]):
        raise PostconditionFailed("z union missing from the top level")
    if not family_in_tree(out.tree, out.top.cells, out.top.exceptions):
        raise PostconditionFailed("ascent union missing from the top level")
    if tree_contains(out.tree, vanish):
        raise PostconditionFailed("the skipped z-branch is in the tree")
    # eta is a limit, so clause C3 decides that it is a vanishing level
    rep = check_condition(out, S_X)
    if not rep.ok:
        raise PostconditionFailed("amalgam fails validation: " + "; ".join(rep.violations))
