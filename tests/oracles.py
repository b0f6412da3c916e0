"""Independent brute-force oracles shared by the test suite.

These deliberately avoid the library's symbolic paths: sets are checked
pointwise on explicit windows, nodes by direct evaluation at every
coordinate of an unrolled window. Expected values frozen into tests were
computed with these helpers.
"""

from __future__ import annotations

import math

from ascentlab.foundations import UPSet, XSequence
from ascentlab.nodes import SymNode
from ascentlab.foundations import Ordinal


def upset_window(y: UPSet, bound: int) -> set[int]:
    return {k for k in range(bound) if k in y}


def brute_op(kind: str, a: UPSet, b: UPSet | None, bound: int) -> set[int]:
    wa = upset_window(a, bound)
    if kind == "complement":
        return set(range(bound)) - wa
    wb = upset_window(b, bound)
    if kind == "union":
        return wa | wb
    if kind == "intersect":
        return wa & wb
    if kind == "difference":
        return wa - wb
    raise ValueError(kind)


def clause(rep, cid: str) -> bool:
    """A `ConditionReport`'s verdict on the clause named cid ("C1".."C4")."""
    return dict(rep.clauses)[cid]


def brute_classify(y: UPSet, x: XSequence, max_n: int, window: int) -> tuple[str, int | None]:
    """Scan witnesses n <= max_n pointwise on [0, window)."""
    for n in range(max_n + 1):
        xn = x.entry(n)
        if all(k in y for k in range(window) if k in xn):
            return "in_filter", n
    for n in range(max_n + 1):
        xn = x.entry(n)
        if not any(k in y and k in xn for k in range(window)):
            return "in_ideal", n
    return "neither", None


# -- raw descriptions of ultimately periodic sets --------------------------------
# A raw set is a tuple (t, p, residues, low): k < t is a member iff k is in
# low, and k >= t iff k mod p is in residues. Nothing here calls UPSet.make
# or reads a UPSet, so these are the reference for its normal form.


def raw_member(raw, k: int) -> bool:
    t, p, residues, low = raw
    return k in low if k < t else k % p in residues


def raw_window(raw, bound: int) -> set[int]:
    return {k for k in range(bound) if raw_member(raw, k)}


def enc_from_window(t: int, p: int, member) -> dict:
    """serialize.enc_upset's dict for the set decided pointwise by `member`,
    written with threshold t and period p."""
    residues = sorted(r for r in range(p) if member(t + (r - t) % p))
    periodic = {k for k in range(t) if k % p in residues}
    low = {k for k in range(t) if member(k)}
    return {"threshold": t, "period": p, "residues": residues,
            "patch_add": sorted(low - periodic), "patch_remove": sorted(periodic - low)}


def unroll_positions(node: SymNode, per_block: int) -> list[Ordinal]:
    """Coordinate sample covering every periodic class of every block."""
    out: list[Ordinal] = []
    for w, word in enumerate(node.blocks):
        depth = min(per_block, len(word.prefix) + 4 * len(word.tail))
        out.extend(Ordinal(w, j) for j in range(depth))
    out.extend(Ordinal(len(node.blocks), j) for j in range(len(node.final)))
    return out


def eval_window(node: SymNode, per_block: int = 64) -> dict[tuple[int, int], int]:
    vals = {}
    for eps in unroll_positions(node, per_block):
        vals[(eps.w, eps.n)] = node.eval_at(eps)
    return vals


def walk_concrete(node: SymNode, per_block: int = 64) -> bool:
    """Every coordinate's entry is an int, read through entry_at over a
    sample that covers every periodic class of every block."""
    return all(isinstance(node.entry_at(eps), int)
               for eps in unroll_positions(node, per_block))


def brute_delta(s: SymNode, t: SymNode, per_block: int = 64) -> Ordinal:
    """min of domains and first pointwise disagreement on the sample window."""
    lo = min(s.dom, t.dom)
    for w in range(lo.w + 1):
        width = lo.n if w == lo.w else per_block
        for j in range(width):
            eps = Ordinal(w, j)
            if eps >= lo:
                break
            if s.eval_at(eps) != t.eval_at(eps):
                return eps
    return lo


def brute_eq_star(s: SymNode, t: SymNode, per_block: int = 64) -> bool:
    if s.dom != t.dom:
        return False
    if s.dom.is_zero:
        return True
    d = s.dom
    if d.is_successor:
        last = d.pred()
        return s.eval_at(last) == t.eval_at(last)
    # limit domain: agreement on a final segment == top block eventually equal
    w = d.w - 1
    diffs = [j for j in range(per_block) if s.eval_at(Ordinal(w, j)) != t.eval_at(Ordinal(w, j))]
    # with canonical periodic words, disagreement beyond the window implies
    # disagreement inside it, so an empty tail-window means eventual equality
    tailwin = [j for j in diffs if j >= per_block // 2]
    return not tailwin


def brute_me(s: SymNode, t: SymNode, per_block: int = 64) -> bool:
    lo = min(s.dom, t.dom)
    for w in range(lo.w + 1):
        width = lo.n if w == lo.w else per_block
        for j in range(width):
            eps = Ordinal(w, j)
            if eps >= lo:
                break
            if s.eval_at(eps) == t.eval_at(eps):
                return False
    return True


# -- all-pairs references for the chain checks ----------------------------------
# These keep the pairwise loops that the chain lemma (ascentlab.conditions)
# lets the library replace by adjacent pairs, and the full exclusivity walk
# that the append lemma lets it cut to one coordinate; they reuse the
# library's supp, leq_s and me_family, which have their own oracles above
# and in the test modules.


def all_pairs_chain_violations(heights, levels, acceptable, adjacent=None):
    """Every pair of the chain with an unacceptable support, in pair order;
    the adjacent supports are computed again rather than read from `adjacent`."""
    from ascentlab.ascent import supp
    out = []
    for i, a in enumerate(heights):
        for j in range(i + 1, len(heights)):
            s = supp(levels[i], levels[j])
            if not acceptable(s):
                out.append((a, heights[j], s))
    return out


def full_walk_me_chain(heights, levels, adjacent=None):
    """(alpha, me_family(level)) for every nonzero level of the chain, each
    level's coordinates all walked; `adjacent` is not read."""
    from ascentlab.ascent import me_family
    for alpha, lvl in zip(heights, levels):
        if not alpha.is_zero:
            yield alpha, me_family(lvl)


def all_pairs_collision(pieces, window: int = 32):
    """The first colliding pair of (block, value piece) pairs in all-pairs
    order: each piece against itself, then against every later piece; the
    reference for `ascent._first_collision`, which tries fewer pairs.

    Each pair is decided on the values the two pieces take at their
    positions below `window` (a point has the one position 0), listed one
    by one. Its witness is the least common value at the least positions,
    two distinct positions when a piece meets itself; a witness with one
    key on both sides is no collision. The window holds every witness for
    slopes up to 4 and values up to 12: the least value two ramps share is
    below 12 + lcm(4, 3) = 24, and a ramp meets a constant c <= 12 below
    position 13."""
    def values(piece):
        kind, loc, a, b = piece
        if kind == "point":
            return [(b, 0, loc)]
        return [(a * m + b, m, loc.start + m * loc.step) for m in range(window)]
    for i, (w1, p1) in enumerate(pieces):
        for j in range(i, len(pieces)):
            w2, p2 = pieces[j]
            by_value = {}
            for v, m, k in values(p2):
                by_value.setdefault(v, []).append((m, k))
            hits = [(v, m1, m2, k1, k2) for v, m1, k1 in values(p1)
                    for m2, k2 in by_value.get(v, ()) if j > i or m1 != m2]
            if hits:
                _, _, _, k1, k2 = min(hits)
                if (w1, k1) != (w2, k2):
                    return (w1, k1), (w2, k2)
    return None


def agree_window(u: SymNode, v: SymNode, bound: int) -> set[int]:
    """The cell positions m < bound at which two templates instantiate to
    one node."""
    return {m for m in range(bound) if u.instantiate(m) == v.instantiate(m)}


def eq_star_window(f, g, bound: int) -> set[int]:
    """The indices tau < bound with f(tau) =* g(tau), decided node by node
    on the unrolled coordinates of `brute_eq_star`."""
    return {tau for tau in range(bound) if brute_eq_star(f.at(tau), g.at(tau))}


def restricted_supp(f, g):
    """supp by restricting the higher level to the lower height first and
    then comparing two levels of one height, with SymNode equality on point
    pieces: the reference for `supp`, which pairs the two levels in place."""
    from ascentlab.ascent import _agree_set, _slot_pairs
    if f.height > g.height:
        f, g = g, f
    return _agree_set(f, g.restrict(f.height), _slot_pairs, SymNode.__eq__)


def preimage_classify(y: UPSet, x: XSequence) -> tuple[str, int | None]:
    """filter_classify's (kind, witness) through the scaled preimage
    z = {k : base*k in y}, built member by member on one period past its
    threshold: y is in the filter iff z is cobounded, in the ideal iff z is
    finite, and the witness is the least n >= 1 from which z is all in or
    all out."""
    base = x.base
    period = y.period // math.gcd(base, y.period)
    threshold = -(-y.threshold // base)
    members = [k for k in range(threshold + period) if base * k in y]
    z = UPSet.make(threshold, period, [k for k in members if k >= threshold], members)
    if z.is_cobounded():
        n = max(1, z.threshold)
        while n > 1 and (n - 1) in z:
            n -= 1
        return "in_filter", n
    if z.is_finite:
        return "in_ideal", max(members, default=0) + 1
    return "neither", None


def per_pair_antichain(path, variant, points, search_bound: Ordinal):
    """check_antichain's verdicts with the transport certificate worked out
    from scratch for every pair: both heights' badness and both levels'
    values at the witness pair, each read again per pair; the order reads
    the path's own X-sequence."""
    from ascentlab.aposet import THETA, WITNESS_PAIR as pair, PairVerdict, is_bad, leq_a

    def certificate(a, b):
        if not (a.is_successor and b.is_successor):
            return None
        if not (is_bad(path, a) and is_bad(path, b)):
            return None
        alpha = a.pred()
        lb = path.level_at(b)
        if lb.at(pair[0]).eval_at(alpha) != lb.at(pair[1]).eval_at(alpha):
            return None
        la = path.level_at(a)
        if la.at(pair[0]).eval_at(alpha) == la.at(pair[1]).eval_at(alpha):
            return None
        return (f"any common bound needs full support to both, forcing values at "
                f"{alpha} to differ (from {a}) and agree (from {b})")

    pts = sorted(points)
    candidates = path.heights(search_bound)
    out = []
    for i, a in enumerate(pts):
        for b in pts[i + 1:]:
            cert = (certificate(a, b) or "") if variant == THETA else ""
            witness = None
            if not cert:
                witness = next((g for g in candidates if g >= b
                                and leq_a(path, variant, a, g)
                                and leq_a(path, variant, b, g)), None)
            if witness is None and not cert:
                cert = f"no common lower bound at heights <= {search_bound}"
            out.append(PairVerdict(a, b, witness is not None, witness, cert))
    return out


def restrict_via_make(level, alpha: Ordinal):
    """Restriction rebuilt through AscentLevel.make, which re-carves and
    re-checks the partition."""
    from ascentlab.ascent import AscentLevel, Cell
    return AscentLevel.make(
        alpha,
        [Cell(c.ap, c.template.restrict(alpha)) for c in level.cells],
        {k: v.restrict(alpha) for k, v in level.exceptions})


def append_via_make(level, scheme):
    """`append_entries` rebuilt through AscentLevel.make."""
    from ascentlab.ascent import AscentLevel, Cell
    return AscentLevel.make(
        level.height.succ(),
        [Cell(c.ap, c.template.append(e)) for c, e in zip(level.cells, scheme.cell_entries)],
        {k: v.append(scheme.exception_labels[k]) for k, v in level.exceptions})


def graft_via_make(low, high):
    """`graft_levels` rebuilt through AscentLevel.make, from the pointwise
    graft on each piece of the common refinement: a point at each exception
    key of either level, and each intersection of a low cell with a high
    cell, both re-based onto it."""
    from ascentlab.ascent import AscentLevel, Cell
    from ascentlab.nodes import graft
    keys = {k for k, _ in low.exceptions} | {k for k, _ in high.exceptions}
    cells = []
    for x in low.cells:
        for y in high.cells:
            inter = x.ap.intersect(y.ap)
            if inter is not None:
                cells.append(Cell(inter, graft(x.on(inter).template, y.on(inter).template)))
    return AscentLevel.make(high.height, cells,
                            {k: graft(low.at(k), high.at(k)) for k in keys})


def tail_level_via_make(rule, n: int):
    """`TailRule.level_at(n)`, each of its appends rebuilt through
    AscentLevel.make from the base."""
    lvl = rule.base
    for k in range(n - rule.start):
        lvl = append_via_make(lvl, rule.schemes[k % len(rule.schemes)])
    return lvl


def all_pairs_run_invariants(t, x: XSequence, bound: int = 32):
    """check_run_invariants with requirements (order), (i) and (iii)
    checked on every pair of moves, each even move's z-bullets on a window
    (`window_z_outcome`), and coherence between consecutive even moves at
    the least key of their windows whose later value does not end-extend
    the earlier one."""
    from ascentlab.ascent import supp
    from ascentlab.conditions import leq_s
    from ascentlab.foundations import FULL_SET
    from ascentlab.game import InvariantReport
    fails: list[str] = []
    moves = t.moves
    xxi = x.entry(t.xi)
    for i, a in enumerate(moves):
        for b in moves[i + 1:]:
            if not leq_s(b.cond, a.cond):
                fails.append(f"(order) stage {b.stage} does not extend {a.stage}")
                continue
            s = supp(a.cond.top, b.cond.top)
            if not xxi.is_subset(s):
                fails.append(f"(i) stages {a.stage},{b.stage}: support misses the filter set")
            if a.z is not None and b.z is not None and s != FULL_SET:
                fails.append(f"(iii) even stages {a.stage},{b.stage}: support not full")
    for mv in moves:
        if mv.z is None:
            continue
        bullet = window_z_outcome(mv.stage, mv.cond, mv.z, t.mu, False, bound)
        if bullet != "ok":
            fails.append(f"(ii) stage {mv.stage}: {bullet}")
    evens = [mv for mv in moves if mv.z is not None]
    for a, b in zip(evens, evens[1:]):
        k = window_incoherent_key(a.z, b.z, bound)
        if k is not None:
            fails.append(f"(iii) branch {k} not increasing at stage {b.stage}")
    return InvariantReport(not fails, tuple(fails))


def window_incoherent_key(earlier, later, bound: int):
    """The least key of both maps' windows (`zmap_window`, every block up to
    the later map's top) whose later value does not end-extend the earlier
    one, or None."""
    blocks = max(earlier.hi.w, later.hi.w) + 1
    values = zmap_window(later, blocks, bound)
    for k, v in sorted(zmap_window(earlier, blocks, bound).items()):
        if k in values and (values[k].dom < v.dom or values[k].restrict(v.dom) != v):
            return k
    return None


def probe_keys(z) -> list[Ordinal]:
    """The keys the per-stage z-checks once read: each entry's key in the
    domain, and the first two members of each cell's progression that lie
    in it."""
    out = [k for k, _ in z.entries if z.in_domain(k)]
    for w, cell in z.cells:
        for m in range(2):
            key = Ordinal(w, cell.ap.member(m))
            if z.in_domain(key):
                out.append(key)
    return sorted(out)


def probe_key_z_bullets(beta, cond, z, delta, closed):
    """check_z_bullets as it was decided key by key: the probe nodes
    (`probe_keys`) built and checked one by one, then the cell structure; at
    successor heights, pairwise difference over the whole domain. Raises
    HypothesisViolated with the failing bullet, and returns None on a pass:
    only `check_z_bullets` makes its record."""
    from ascentlab.amalgam import HypothesisViolated, _first_collision, _last_entry_pieces
    from ascentlab.ascent import AscentLevel, me_cross, me_set_concrete
    from ascentlab.foundations import singleton
    from ascentlab.nodes import eq_star
    from ascentlab.trees import tree_contains
    if (z.lo, z.hi, z.closed_hi) != (beta, delta, closed):
        raise HypothesisViolated("z-domain", f"z of stage {beta} has domain "
                                 f"({z.lo},{z.hi}{']' if z.closed_hi else ')'}")
    eta = cond.eta
    top = cond.top
    nodes = [(k, z.at(k)) for k in probe_keys(z)]
    for k, v in nodes:
        if v.dom != eta:
            raise HypothesisViolated("z-top-level", f"z({k}) has height {v.dom}")
        if not tree_contains(cond.tree, v):
            raise HypothesisViolated("z-top-level", f"z({k}) outside the tree")
    # pairwise eventual difference: at successor heights this is distinct
    # last entries over the whole domain, decided by the one-coordinate
    # collision analysis of the exclusivity walk
    if eta.is_successor:
        hit = _first_collision(_last_entry_pieces(z.pieces(), eta.pred()))
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
        probe = AscentLevel(eta, tuple(c for _, c in z.cells), ())
        rep = me_cross(probe, top)
        if rep.has_moving:
            raise HypothesisViolated("z-exclusive", "a branch cell meets the family cofinally")
        if not rep.static_bad.difference(zero).is_empty:
            raise HypothesisViolated("z-exclusive", "a branch cell meets the family off 0")
        for i0, row in rep.special_rows:
            if not row.difference(zero).is_empty:
                raise HypothesisViolated("z-exclusive", f"branch {i0} meets the family off 0")


# -- reference for me_cross ---------------------------------------------------------


def cross_collisions(probe, level, indices, bound: int, per_block: int = 16) -> dict[int, set[int]]:
    """{i: {tau < bound : probe(i) and level(tau) share a value}} for each
    probe index i, node by node on the coordinates j < per_block of every
    complete block and every coordinate of the final stretch."""
    h = level.height
    coords = [Ordinal(w, j) for w in range(h.w) for j in range(per_block)] + \
        [Ordinal(h.w, j) for j in range(h.n)]
    holders: dict[tuple[Ordinal, int], set[int]] = {}   # (coordinate, value) -> taus
    for tau in range(bound):
        node = level.at(tau)
        for eps in coords:
            holders.setdefault((eps, node.eval_at(eps)), set()).add(tau)
    out = {}
    for i in indices:
        node = probe.at(i)
        out[i] = set().union(*(holders.get((eps, node.eval_at(eps)), ()) for eps in coords))
    return out


# -- references for the shared-structure shortcuts ------------------------------


def brute_me_set(t: SymNode, level, bound: int = 64) -> set[int]:
    """Indices tau < bound whose level node is mutually exclusive with t,
    one node at a time."""
    from ascentlab.nodes import mutually_exclusive
    return {tau for tau in range(bound) if mutually_exclusive(t, level.at(tau))}


def levels_equal(f, g) -> bool:
    """Extensional equality with the explicit points compared one by one."""
    from ascentlab.ascent import supp
    from ascentlab.foundations import FULL_SET
    if f.height != g.height:
        return False
    return supp(f, g) == FULL_SET and all(
        f.at(t) == g.at(t) for t in list(f.exc_dict()) + list(g.exc_dict()))


def scan_source(path, alpha: Ordinal):
    """`AscentPath.source` by a linear scan of the raw fields: the first
    listed level at alpha, else the first rule of alpha's block when alpha.n
    is at or past its start, else None."""
    for h, lvl in path.levels:
        if h == alpha:
            return lvl
    for w, rule in path.tails:
        if w == alpha.w:
            return rule if alpha.n >= rule.start else None
    return None


def all_probes_paths_agree(p1, p2, eta: Ordinal) -> bool:
    """paths_agree_below comparing the levels at every probe height, shared
    or not."""
    probes = sorted(set(p1.probe_heights(eta)) | set(p2.probe_heights(eta)))
    for alpha in probes:
        if not (p1.has(alpha) and p2.has(alpha)):
            return False
        if not levels_equal(p1.level_at(alpha), p2.level_at(alpha)):
            return False
    for w in range(eta.w + 1):
        r1, r2 = p1.tail_for(w), p2.tail_for(w)
        if (r1 is None) != (r2 is None):
            if w < eta.w:
                return False
            continue
        if r1 is not None:
            span = math.lcm(len(r1.schemes), len(r2.schemes))
            base = max(r1.start, r2.start)
            for k in range(span + 1):
                if not levels_equal(r1.level_at(base + k), r2.level_at(base + k)):
                    return False
    return True


def zmap_value(z, k: Ordinal):
    """The value of the z-map at key k read from its fields, not through
    `ZMap.at`: None outside the interval (lo, hi) or (lo, hi]; else the first
    listed entry keyed k; else the first cell of k's block whose progression
    holds k.n, its template instantiated at k.n's position; else None."""
    if not (z.lo < k and (k <= z.hi if z.closed_hi else k < z.hi)):
        return None
    for key, v in z.entries:
        if key == k:
            return v
    for w, cell in z.cells:
        start, step = cell.ap.start, cell.ap.step
        if w == k.w and k.n >= start and (k.n - start) % step == 0:
            return cell.template.instantiate((k.n - start) // step)
    return None


def zmap_window(z, blocks: int, bound: int) -> dict:
    """Every key (w, n) with w < blocks and n < bound that the map defines,
    with its value, each key read on its own (`zmap_value`)."""
    out = {}
    for w in range(blocks):
        for n in range(bound):
            v = zmap_value(z, Ordinal(w, n))
            if v is not None:
                out[Ordinal(w, n)] = v
    return out


Z_BULLETS = ("z-domain", "z-top-level", "z-pairwise", "z-vs-zero", "z-exclusive")


def window_z_bullets(cond, z, blocks: int, bound: int, keys=None) -> dict[str, set]:
    """The failures of the z requirements on the keys of `zmap_window(z,
    blocks, bound)`, or on those of them in `keys`, one key or one pair at a
    time: "z-top-level" the keys whose value has another height than the
    top or lies outside the tree (`stepwise_tree_contains`), and when there
    are none, "z-pairwise" the pairs (k1, k2), k1 < k2, of eventually equal
    values (`brute_eq_star`), "z-vs-zero" the keys whose value is eventually
    equal to top member 0, and "z-exclusive" the pairs (k, tau), 0 < tau <
    bound, at which the value and top(tau) share a coordinate value
    (`brute_me_set`)."""
    values = zmap_window(z, blocks, bound)
    items = sorted((k, v) for k, v in values.items() if keys is None or k in keys)
    out = {b: set() for b in Z_BULLETS[1:]}
    out["z-top-level"] = {k for k, v in items if v.dom != cond.eta
                          or not stepwise_tree_contains(cond.tree, v)}
    if out["z-top-level"]:
        return out
    out["z-pairwise"] = {(k1, k2) for i, (k1, v1) in enumerate(items)
                         for k2, v2 in items[i + 1:] if brute_eq_star(v1, v2)}
    f0 = cond.top.at(0)
    for k, v in items:
        if brute_eq_star(v, f0):
            out["z-vs-zero"].add(k)
        apart = brute_me_set(v, cond.top, bound)
        out["z-exclusive"].update((k, tau) for tau in range(1, bound) if tau not in apart)
    return out


def window_z_outcome(beta, cond, z, delta, closed, bound: int) -> str:
    """The first z requirement, in `Z_BULLETS` order, that fails on the
    window of every block of the domain and the keys below `bound`, or "ok"."""
    if (z.lo, z.hi, z.closed_hi) != (beta, delta, closed):
        return "z-domain"
    fails = window_z_bullets(cond, z, z.hi.w + 1, bound)
    return next((b for b in Z_BULLETS[1:] if fails[b]), "ok")


# -- references for the game-run shortcuts ----------------------------------------


def admitted_branches(cat, bound: int):
    """The admitted branches of a catalog, listed: each single, and each
    family cell's instances at the positions below `bound`."""
    for single in cat.singles:
        if single.admitted:
            yield single.node
    for fam in cat.families:
        if fam.admitted:
            for cell in fam.cells:
                for p in range(bound):
                    yield cell.template.instantiate(p)


def stepwise_tree_contains(tree, s: SymNode) -> bool:
    """tree_contains stepping down one successor level at a time: a limit
    level through its catalog's admitted branches b, listed (s is a member
    iff s|thr is for the threshold thr of some b with s =* b), an explicit
    level through its list, any other level through the level below it.
    A family instance T(p) agrees with s at a coordinate where T has a ramp
    c*p + d only if p is at most s's entry there, so the positions up to
    s's largest entry plus one give every threshold."""
    from ascentlab.nodes import eq_star_threshold
    if s.dom >= tree.height:
        return False
    while True:
        d = s.dom
        if d.is_zero:
            return True
        if d.is_limit:
            top = max(e for w in s.blocks for e in w.prefix + w.tail)
            thresholds = {eq_star_threshold(s, b)
                          for b in admitted_branches(tree.catalog_at(d), top + 2) if b.dom == d}
            thresholds.discard(None)
            return any(stepwise_tree_contains(tree, s.restrict(thr)) for thr in sorted(thresholds))
        nodes = tree.explicit_at(d)
        if nodes is not None:
            return s in nodes
        s = s.restrict(d.pred())


def brute_family_in_tree(tree, cells, exceptions, bound: int = 64) -> bool:
    """family_in_tree on the members at cell positions below `bound`, each
    through stepwise_tree_contains."""
    return (all(stepwise_tree_contains(tree, v) for _, v in exceptions)
            and all(stepwise_tree_contains(tree, c.template.instantiate(m))
                    for c in cells for m in range(bound)))


def tail_members(ch, count: int) -> list:
    """The first `count` members of the chain's uniform tail, each built
    from the one before by the tail's definition: the cycle of top appends,
    the stage advanced by beta_step, and each z-value extended by the
    tokens, a "last" token repeating the value's final entry as it stands
    before the cycle. Cells keep their positions and entries their keys: the
    new lower end of the domain alone leaves out the keys at or below the
    stage."""
    from ascentlab.amalgam import ChainMember, ZMap
    from ascentlab.ascent import Cell
    from ascentlab.conditions import extend_with_top
    tail, cur, out = ch.tail, ch.members[-1], []

    def grow(v):
        base = v
        for tok in tail.z_tokens:
            v = v.append(base.final[-1] if tok == ("last",) else tok[1])
        return v
    for _ in range(count):
        cond = cur.cond
        for scheme in tail.schemes:
            cond = extend_with_top(cond, cond.top.append_entries(scheme))
        beta = Ordinal(cur.beta.w, cur.beta.n + tail.beta_step)
        z = cur.z
        cur = ChainMember(beta, cond, ZMap(
            beta, z.hi, z.closed_hi, tuple((w, Cell(c.ap, grow(c.template))) for w, c in z.cells),
            tuple((k, grow(v)) for k, v in z.entries)))
        out.append(cur)
    return out


def all_pairs_validate_chain(ch):
    """validate_chain on the explicit members and the first three tail
    members (`tail_members`): every member's z-bullets checked,
    whatever evidence it carries, every new top level of a tail member
    walked in full, and every requirement on every pair of members,
    z-coherence on the members' windows (`window_incoherent_key`). The
    tail's tokens must match its cycle and repeat from the first one, as
    the closed-form unions read them."""
    from ascentlab.amalgam import HypothesisViolated, NotUniformTail, check_z_bullets
    from ascentlab.ascent import me_family, supp
    from ascentlab.conditions import S_X, leq_s
    from ascentlab.foundations import FULL_SET
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
    if ("last",) in tokens and tokens[-1] != ("last",):
        raise HypothesisViolated("tail-shape", "z tokens with a 'last' token must end with "
                                 "one, or the cycles after the first append other entries")
    for m in ch.members:
        if m.cond.variant != S_X:
            raise HypothesisViolated("variant", "chain members must be S_X conditions")
        if not (m.beta < ch.gamma):
            raise HypothesisViolated("gamma-cofinal", f"stage {m.beta} at or above gamma")
        check_z_bullets(m.beta, m.cond, m.z, ch.delta, ch.closed_delta)
    if ("last",) in tokens and ch.members[-1].cond.eta.is_limit:
        raise HypothesisViolated("tail-shape", f"a 'last' token repeats a final entry, which no "
                                 f"value of the limit height {ch.members[-1].cond.eta} has")
    tail = tail_members(ch, 3)
    before = ch.members[-1]
    for m in tail:
        if not (m.beta < ch.gamma):
            raise HypothesisViolated("gamma-cofinal", f"stage {m.beta} at or above gamma")
        h = before.cond.eta
        while h < m.cond.eta:
            h = h.succ()
            rep = me_family(m.cond.level(h))
            if not rep.ok:
                raise HypothesisViolated("tail-exclusive",
                                         f"level {h} not mutually exclusive: {rep.detail}")
        check_z_bullets(m.beta, m.cond, m.z, ch.delta, ch.closed_delta)
        before = m
    members = list(ch.members) + tail
    for i, m1 in enumerate(members):
        for m2 in members[i + 1:]:
            if not leq_s(m2.cond, m1.cond):
                raise HypothesisViolated("decreasing", f"stage {m2.beta} does not extend {m1.beta}")
            if supp(m1.cond.top, m2.cond.top) != FULL_SET:
                raise HypothesisViolated("full-supp", f"stages {m1.beta},{m2.beta}")
            k = window_incoherent_key(m1.z, m2.z, 32)
            if k is not None:
                raise HypothesisViolated("z-coherent", f"z({k}) not increasing")


# -- references for piecewise maps and reindexed families ---------------------------
# Maps and level fragments are read off their raw fields one index at a time:
# k lies in the progression (start, step) iff k >= start and step divides
# k - start, and its position there is (k - start) // step.


def _raw_position(start: int, step: int, k: int) -> int | None:
    if k >= start and (k - start) % step == 0:
        return (k - start) // step
    return None


def map_window(m, indices) -> dict[int, int]:
    """{k: m(k)} for each k of `indices` in the map's domain, from its raw
    points and pieces; an index held by two of them fails."""
    out: dict[int, int] = {}
    for k in indices:
        hits = [v for i, v in m.points if i == k]
        for p in m.pieces:
            pos = _raw_position(p.ap.start, p.ap.step, k)
            if pos is not None:
                hits.append(p.a * pos + p.b)
        if len(hits) > 1:
            raise AssertionError(f"index {k} lies in {len(hits)} parts of the map")
        if hits:
            out[k] = hits[0]
    return out


def fragments_window(cells, exceptions, indices) -> dict[int, SymNode]:
    """{k: node} for each k of `indices` that the cells and exceptions cover,
    a cell's node instantiated at k's raw position; an index covered twice
    fails."""
    out: dict[int, SymNode] = {}
    for k in indices:
        hits = [v for i, v in exceptions if i == k]
        for c in cells:
            pos = _raw_position(c.ap.start, c.ap.step, k)
            if pos is not None:
                hits.append(c.template.instantiate(pos))
        if len(hits) > 1:
            raise AssertionError(f"index {k} covered {len(hits)} times")
        if hits:
            out[k] = hits[0]
    return out


def reindex_window(level, sigma, indices) -> dict[int, SymNode]:
    """{i: level(sigma(i))} for each i of `indices` in sigma's domain."""
    sig = map_window(sigma, indices)
    nodes = fragments_window(level.cells, level.exceptions, set(sig.values()))
    return {i: nodes[v] for i, v in sig.items()}


def preimage_window(m, values: UPSet, indices) -> set[int]:
    """The i of `indices` in the map's domain with m(i) in values."""
    return {i for i, v in map_window(m, indices).items() if v in values}
