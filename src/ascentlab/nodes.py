"""Calculus of streamlined-tree nodes.

A node is a function from an ordinal below omega*W into the naturals,
described finitely: one eventually periodic word per complete omega-block
followed by an explicit finite stretch. Entries are either concrete labels
(ints) or Ramp(a, b) placeholders whose value at the owning family's cell
position m is a*m + b; standalone nodes must be concrete.

All words are kept in canonical form (minimal period, shortest prefix), so
structural equality of nodes coincides with extensional equality.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from .foundations import BadHeight, Ordinal, ZERO, field, record


@record
class Ramp:
    """Index-affine entry: value a*m + b at cell position m (a >= 1)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 0:
            raise ValueError(f"bad ramp ({self.a}, {self.b})")

    def at(self, m: int) -> int:
        return self.a * m + self.b


Entry = Union[int, Ramp]


def mk_entry(a: int, b: int) -> Entry:
    """Affine entry, collapsed to a constant when the slope vanishes."""
    return b if a == 0 else Ramp(a, b)


def entry_affine(e: Entry) -> tuple[int, int]:
    """(slope, intercept) view of an entry."""
    return (0, e) if isinstance(e, int) else (e.a, e.b)


def entries_at(es, m: int) -> list[int]:
    """The entries' values at cell position m."""
    return [e if isinstance(e, int) else e.a * m + e.b for e in es]


def entries_compose(es, a: int, b: int) -> list[Entry]:
    """The entries after substituting position m := a*m' + b."""
    return [e if isinstance(e, int) else mk_entry(e.a * a, e.a * b + e.b) for e in es]


@record
class BlockWord:
    """Eventually periodic omega-word: explicit prefix then a repeating tail."""

    prefix: tuple[Entry, ...]
    tail: tuple[Entry, ...]
    # whether every entry is an int, set once here; equality, hash and repr
    # read only the fields above
    concrete: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "concrete", _all_int(self.prefix) and _all_int(self.tail))

    @staticmethod
    def make(prefix, tail) -> "BlockWord":
        prefix, tail = tuple(prefix), tuple(tail)
        if not tail:
            raise ValueError("tail must be nonempty")
        # minimal period
        n = len(tail)
        for d in range(1, n + 1):
            if n % d == 0 and tail == tail[:d] * (n // d):
                tail = tail[:d]
                break
        # absorb prefix elements that already match the cycle
        prefix = list(prefix)
        tail = list(tail)
        while prefix and prefix[-1] == tail[-1]:
            tail = [tail[-1]] + tail[:-1]
            prefix.pop()
        return BlockWord(tuple(prefix), tuple(tail))

    def eval(self, j: int) -> Entry:
        if j < len(self.prefix):
            return self.prefix[j]
        return self.tail[(j - len(self.prefix)) % len(self.tail)]

    def take(self, stop: int, start: int = 0) -> tuple[Entry, ...]:
        """The entries at positions [start, stop), as one tuple slice:
        tuple(self.eval(j) for j in range(start, stop))."""
        prefix = self.prefix
        if stop <= len(prefix):
            return prefix[start:stop]
        tail = self.tail
        return (prefix + tail * ((stop - len(prefix)) // len(tail) + 1))[start:stop]

    def window(self, other: "BlockWord") -> int:
        """Positions [0, window) determine all comparisons with `other`."""
        return max(len(self.prefix), len(other.prefix)) + math.lcm(len(self.tail), len(other.tail))

    def shifted(self, k: int) -> "BlockWord":
        """The word j -> self.eval(k + j)."""
        if k <= len(self.prefix):
            return BlockWord.make(self.prefix[k:], self.tail)
        s = (k - len(self.prefix)) % len(self.tail)
        return BlockWord.make((), self.tail[s:] + self.tail[:s])


@record
class SymNode:
    """Finitely-described node of the full tree of natural-valued sequences."""

    blocks: tuple[BlockWord, ...]
    final: tuple[Entry, ...]
    # the domain and whether every entry is an int (no Ramp in a block or the
    # final stretch), set once here; equality, hash and repr read only the
    # fields above
    dom: Ordinal = field(init=False, compare=False, repr=False)
    concrete: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dom", Ordinal(len(self.blocks), len(self.final)))
        object.__setattr__(self, "concrete",
                           _all_int(self.final) and all(b.concrete for b in self.blocks))

    def eval_at(self, eps: Ordinal) -> int:
        e = self.entry_at(eps)
        if not isinstance(e, int):
            raise ValueError("template node has no concrete value; instantiate first")
        return e

    def entry_at(self, eps: Ordinal) -> Entry:
        if eps >= self.dom:
            raise BadHeight(f"{eps} outside domain {self.dom}")
        if eps.w < len(self.blocks):
            return self.blocks[eps.w].eval(eps.n)
        return self.final[eps.n]

    def restrict(self, alpha: Ordinal) -> "SymNode":
        if alpha > self.dom:
            raise BadHeight(f"cannot restrict {self.dom}-node to {alpha}")
        if alpha == self.dom:
            return self
        if alpha.w < len(self.blocks):
            word = self.blocks[alpha.w]
            return SymNode(self.blocks[:alpha.w], word.take(alpha.n))
        return SymNode(self.blocks, self.final[:alpha.n])

    def instantiate(self, m: int) -> "SymNode":
        """Substitute the cell position m into every ramp entry."""
        if self.concrete:
            return self
        blocks = tuple(BlockWord.make(entries_at(b.prefix, m), entries_at(b.tail, m))
                       for b in self.blocks)
        return SymNode(blocks, tuple(entries_at(self.final, m)))

    def reindex(self, a: int, b: int) -> "SymNode":
        """Template after the position substitution m := a*m' + b; a concrete
        node is its own, as for `instantiate`."""
        if self.concrete:
            return self
        blocks = tuple(BlockWord.make(entries_compose(w.prefix, a, b), entries_compose(w.tail, a, b))
                       for w in self.blocks)
        return SymNode(blocks, tuple(entries_compose(self.final, a, b)))

    def append(self, e: Entry) -> "SymNode":
        return SymNode(self.blocks, self.final + (e,))

    def extend_to_limit(self, repeat: tuple[Entry, ...]) -> "SymNode":
        """Close the current finite stretch into an omega-block with the given
        repeating tail: the union of self, self+repeat, self+repeat^2, ..."""
        if not repeat:
            raise ValueError("repeat must be nonempty")
        return SymNode(self.blocks + (BlockWord.make(self.final, repeat),), ())

    def __repr__(self) -> str:
        parts = []
        for bw in self.blocks:
            pre = ",".join(map(_entry_repr, bw.prefix))
            tl = ",".join(map(_entry_repr, bw.tail))
            parts.append(f"[{pre}|({tl})*]" if pre else f"[({tl})*]")
        if self.final or not self.blocks:
            parts.append("<" + ",".join(map(_entry_repr, self.final)) + ">")
        return "Node" + "".join(parts)


def _all_int(entries: tuple[Entry, ...]) -> bool:
    """isinstance(e, int) for every entry, looped in C."""
    return all(map(int.__instancecheck__, entries))


def _entry_repr(e: Entry) -> str:
    return str(e) if isinstance(e, int) else f"{e.a}m+{e.b}"


EMPTY_NODE = SymNode((), ())


def node(*entries: Entry) -> SymNode:
    """Finite node from explicit entries."""
    return SymNode((), tuple(entries))


def const_node(value: Entry, dom: Ordinal) -> SymNode:
    """Constant node of the given domain."""
    word = BlockWord.make((), (value,))
    return SymNode((word,) * dom.w, (value,) * dom.n)


def _require_concrete(*nodes: SymNode) -> None:
    for s in nodes:
        if not s.concrete:
            raise ValueError("operation needs concrete nodes; instantiate templates first")


def _window_pairs(w1: BlockWord, w2: BlockWord):
    """The entry pairs of the two words at the positions [0, window)."""
    n = w1.window(w2)
    return zip(w1.take(n), w2.take(n))


def _word_first_diff(w1: BlockWord, w2: BlockWord) -> Optional[int]:
    for j, (e1, e2) in enumerate(_window_pairs(w1, w2)):
        if e1 != e2:
            return j
    return None


def _word_last_diff(w1: BlockWord, w2: BlockWord) -> Optional[int]:
    """Last disagreement position, or None if equal; requires the words to be
    eventually equal (call only when the aligned tails coincide)."""
    diffs = [j for j, (e1, e2) in enumerate(_window_pairs(w1, w2)) if e1 != e2]
    return max(diffs) if diffs else None


def _words_eventually_equal(w1: BlockWord, w2: BlockWord) -> bool:
    base = max(len(w1.prefix), len(w2.prefix))
    stop = base + math.lcm(len(w1.tail), len(w2.tail))
    return w1.take(stop, base) == w2.take(stop, base)


def _word_all_diff(w1: BlockWord, w2: BlockWord) -> bool:
    return all(e1 != e2 for e1, e2 in _window_pairs(w1, w2))


def node_patch(s: SymNode, patches: dict[Ordinal, Entry]) -> SymNode:
    """s with finitely many coordinate values replaced."""
    blocks = list(s.blocks)
    final = list(s.final)
    for eps, val in patches.items():
        if eps >= s.dom:
            raise BadHeight(f"patch point {eps} outside domain {s.dom}")
        if eps.w < len(blocks):
            word = blocks[eps.w]
            width = max(eps.n + 1, len(word.prefix))
            pre = list(word.take(width))
            pre[eps.n] = val
            blocks[eps.w] = BlockWord.make(pre, word.shifted(width).tail)
        else:
            final[eps.n] = val
    return SymNode(tuple(blocks), tuple(final))


def delta(s: SymNode, t: SymNode) -> Ordinal:
    """Least disagreement coordinate, or min(dom) when one end-extends the other."""
    _require_concrete(s, t)
    lo = min(s.dom, t.dom)
    for w in range(lo.w):
        d = _word_first_diff(s.blocks[w], t.blocks[w])
        if d is not None:
            return Ordinal(w, d)
    for j in range(lo.n):
        eps = Ordinal(lo.w, j)
        if s.entry_at(eps) != t.entry_at(eps):
            return eps
    return lo


def graft(s: SymNode, t: SymNode) -> SymNode:
    """s*t: domain of t, values from s where defined, from t elsewhere."""
    if t.dom <= s.dom:
        return s.restrict(t.dom)
    ws, ns = len(s.blocks), len(s.final)
    blocks = list(s.blocks)
    if ws < len(t.blocks):
        sh = t.blocks[ws].shifted(ns)
        blocks.append(BlockWord.make(tuple(s.final) + sh.prefix, sh.tail))
        blocks.extend(t.blocks[ws + 1:])
        final = t.final
    else:
        final = tuple(s.final) + tuple(t.final[ns:])
    return SymNode(tuple(blocks), tuple(final))


def restrict(s: SymNode, alpha: Ordinal) -> SymNode:
    return s.restrict(alpha)


def is_prefix(u: SymNode, v: SymNode) -> bool:
    """v.restrict(u.dom) == u, compared on the entry tuples without building
    the restriction. Like restrict, raises BadHeight when u.dom > v.dom. For
    nodes of one domain it is u == v."""
    if u.dom > v.dom:
        raise BadHeight(f"cannot restrict {v.dom}-node to {u.dom}")
    w = len(u.blocks)
    if u.blocks != v.blocks[:w]:
        return False
    if w == len(v.blocks):
        return u.final == v.final[:len(u.final)]
    return u.final == v.blocks[w].take(len(u.final))


def eval_at(s: SymNode, eps: Ordinal) -> int:
    return s.eval_at(eps)


def eq_star_threshold(s: SymNode, t: SymNode) -> Optional[Ordinal]:
    """Least alpha with s == t on [alpha, dom), or None when domains differ
    or no such alpha exists below the domain."""
    _require_concrete(s, t)
    if s.dom != t.dom:
        return None
    d = s.dom
    if d.is_zero:
        return ZERO
    for j in reversed(range(len(s.final))):
        if s.final[j] != t.final[j]:
            thr = Ordinal(d.w, j + 1)
            return thr if thr < d else None
    for b in reversed(range(len(s.blocks))):
        w1, w2 = s.blocks[b], t.blocks[b]
        if _words_eventually_equal(w1, w2):
            last = _word_last_diff(w1, w2)
            if last is None:
                continue
            return Ordinal(b, last + 1)
        thr = Ordinal(b + 1, 0)
        return thr if thr < d else None
    return ZERO


def eq_star(s: SymNode, t: SymNode) -> bool:
    """Same domain and agreement on a final segment; domain 0 counts as equal."""
    if s.dom != t.dom:
        return False
    if s.dom.is_zero:
        return True
    return eq_star_threshold(s, t) is not None


def mutually_exclusive(s: SymNode, t: SymNode) -> bool:
    """Entries differ at every coordinate of the shared domain."""
    _require_concrete(s, t)
    lo = min(s.dom, t.dom)
    for w in range(lo.w):
        if not _word_all_diff(s.blocks[w], t.blocks[w]):
            return False
    for j in range(lo.n):
        eps = Ordinal(lo.w, j)
        if s.entry_at(eps) == t.entry_at(eps):
            return False
    return True
