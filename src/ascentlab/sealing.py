"""The sealing step and density absorption.

A seal triple prescribes a near-copy of the current top family: off an
ideal set Y nothing moves, on Y the members are eventually equal to the
family along an injection pi: eq_star_set(x, moved) is full, where `moved`
(`_pulled`) is tau -> top(pi(tau)) on Y and x elsewhere. The sealing step
first grafts graft_levels(x, moved) into a one-step extension, consults an
oracle hit standing in for the antichain argument, and then routes a
further one-step through three index cells (the untouched filter part, the
pi-image pulled back, the rest pushed by a canonical injection away from
the filter set) so that both prescribed support guarantees hold afterwards;
both are re-verified before returning, exactly, as index sets.

Density absorption swallows one finite node into a prescribed filter-set
coordinate of the next level, repairing the finitely many per-coordinate
label collisions by swapping values with the chosen coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .foundations import (
    EMPTY_SET, FULL_SET, Ordinal, PostconditionFailed, Rejected, UPSet, ZERO,
    filter_classify, finite_set, meet,
)
from .ascent import (
    AscentLevel, Cell, PiecewiseMap, _overlaps, _routed, _routed_points, eq_star_set, fill_level,
    graft_levels, identity_map, level_reindex, me_family, order_iso, restrict_map,
    standard_append, supp,
)
from .nodes import SymNode, entry_affine, graft, is_prefix, mk_entry, node_patch
from .conditions import (
    Condition, S_X, WrongVariant, _one_step, leq_s, one_step_extension, one_step_with,
)
from .trees import family_in_tree, tree_contains


class SealTripleInvalid(Rejected):
    pass


class OracleMismatch(Rejected):
    pass


class UnsupportedTriple(ValueError):
    """The canonical routing injection cannot avoid the conflict zone."""


class LimitDomainUnsupported(ValueError):
    pass


class NodeNotInTree(Rejected):
    """The node to absorb is not in the condition's tree."""


@dataclass(frozen=True, slots=True)
class SealTriple:
    """Prescribed family x, ideal set Y, injection pi: Y -> Y."""

    x_family: AscentLevel
    y: UPSet
    pi: PiecewiseMap


@dataclass(frozen=True, slots=True)
class OracleHit:
    """Stand-in for the antichain argument: an extension of the intermediate
    one-step together with a height whose support guarantee covers the
    filter set. The guarantee is re-validated on use."""

    cond: Condition
    alpha: Ordinal


def identity_triple(cond: Condition) -> SealTriple:
    return SealTriple(cond.top, EMPTY_SET, PiecewiseMap((), ()))


def transposition_triple(cond: Condition, a: int, b: int) -> SealTriple:
    """Swap two coordinates modulo bounded difference: x_a is the b-node with
    a fresh label at coordinate 0, and vice versa."""
    if cond.eta < Ordinal(0, 2):
        raise SealTripleInvalid("transposition triples need height at least 2")
    top = cond.top
    fresh = 2 * max(a, b) + 101
    x_a = node_patch(top.at(b), {ZERO: fresh})
    x_b = node_patch(top.at(a), {ZERO: fresh + 2})
    fam = AscentLevel.make(cond.eta, top.cells, dict(top.exceptions) | {a: x_a, b: x_b})
    return SealTriple(fam, finite_set({a, b}),
                      PiecewiseMap.from_dict({a: b, b: a}))


def check_triple(triple: SealTriple, cond: Condition) -> bool:
    """The two triple requirements: a mutually exclusive family of top-level
    nodes; an ideal set with an injection matching the family off/on it."""
    top = cond.top
    xf = triple.x_family
    if xf.height != cond.eta:
        return False
    if not me_family(xf).ok:
        return False
    if not family_in_tree(cond.tree, xf.cells, xf.exceptions):
        return False
    if not filter_classify(triple.y, cond.x).in_ideal:
        return False
    pi = triple.pi
    if not (pi.is_injective() and pi.inverse().is_injective()):
        return False
    if pi.domain() != triple.y or not pi.image().is_subset(triple.y):
        return False
    # x == top off Y: same-height comparability is equality
    if not FULL_SET.difference(supp(xf, top)).is_subset(triple.y):
        return False
    return eq_star_set(xf, _pulled(top, pi, xf)) == FULL_SET


def _pulled(level: AscentLevel, pi: PiecewiseMap, filler: AscentLevel) -> AscentLevel:
    """The family tau -> level(pi(tau)) on pi's domain, filler elsewhere."""
    return fill_level(level.height, *level_reindex(level, pi), filler)


def _route_pieces(sigma: PiecewiseMap, alpha_lvl: AscentLevel, top_lvl: AscentLevel):
    """Pieces of tau -> graft(alpha_lvl(sigma(tau)), top_lvl(tau)) + <2*sigma(tau)>
    over sigma's domain."""
    cells_out: list[Cell] = []
    exc_out: list[tuple[int, SymNode]] = []
    for k, lnode in _routed_points(sigma, alpha_lvl):
        merged = graft(lnode, top_lvl.at(k)).append(2 * sigma.apply(k))
        exc_out.append((k, merged))
    for sig, lc in _routed(sigma, alpha_lvl):
        for ap, u, v in _overlaps((lc,), top_lvl.cells):
            s = sig.on(ap)
            label = mk_entry(2 * s.a, 2 * s.b)
            cells_out.append(Cell(ap, graft(u, v).append(label)))
        for k, tnode in top_lvl.exceptions:
            if k in lc.ap:
                merged = graft(lc.at(k), tnode).append(2 * sig.at(k))
                exc_out.append((k, merged))
    return cells_out, exc_out


def build_intermediate(cond: Condition, triple: SealTriple) -> Condition:
    """The first sealing move: a one-step that keeps the family off Y and
    grafts the prescribed nodes over their pi-targets on Y."""
    if not check_triple(triple, cond):
        raise SealTripleInvalid("triple fails its requirements against the condition")
    top = cond.top
    below = graft_levels(triple.x_family, _pulled(top, triple.pi, triple.x_family))
    mid = one_step_with(cond, below, standard_append(below))
    if not triple.y.complement().is_subset(supp(top, mid.top)):
        raise PostconditionFailed("intermediate step lost the off-Y support")
    return mid


def seal_step(cond: Condition, triple: SealTriple, xi: int,
              hit: OracleHit) -> tuple[Condition, Ordinal]:
    """One sealing round for the given triple. Returns the routed extension
    and the height whose guarantees were re-verified.

    Hypothesis (SealTripleInvalid otherwise): pi maps X_xi ∩ Y into X_xi.
    The routing fills new_top(pi(tau)) from g_alpha(tau) only when pi(tau)
    lies in X_xi, and the absorption guarantee needs that at every tau in
    X_xi ∩ Y. The new top is checked by `_one_step`."""
    _check_seal_hypothesis(cond, triple, xi)
    return _route(cond, triple, xi, build_intermediate(cond, triple), hit)


def seal_by_one_steps(cond: Condition, triple: SealTriple, xi: int,
                      hit_steps: int) -> tuple[Condition, Ordinal]:
    """`seal_step` with a synthesized oracle hit: the intermediate one-step
    extended by `hit_steps` plain top one-steps, whose full supports satisfy
    any filter guarantee. The intermediate step is built once and serves as
    both the hit's base and the step the hit is checked against. Raises as
    building the hit and then `seal_step` would, in that order."""
    mid = build_intermediate(cond, triple)
    hit = mid
    for _ in range(hit_steps):
        hit = one_step_extension(hit, hit.eta)
    _check_seal_hypothesis(cond, triple, xi)
    return _route(cond, triple, xi, mid, OracleHit(hit, hit.eta))


def _check_seal_hypothesis(cond: Condition, triple: SealTriple, xi: int) -> None:
    if cond.variant != S_X:
        raise WrongVariant("sealing lives in the filter-sequence poset")
    xset = cond.x.entry(xi)
    stray = xset.intersect(triple.y).difference(_pi_preimage(triple.pi, xset))
    if not stray.is_empty:
        raise SealTripleInvalid(f"pi maps {stray.min_member()}, in X_{xi} and in Y, outside X_{xi}")


def _route(cond: Condition, triple: SealTriple, xi: int, mid: Condition,
           hit: OracleHit) -> tuple[Condition, Ordinal]:
    """The rest of `seal_step`, given `build_intermediate(cond, triple)`."""
    x = cond.x
    xset = x.entry(xi)
    y = triple.y

    # oracle hit: an extension of the intermediate step with the guarantee
    if not leq_s(hit.cond, mid):
        raise OracleMismatch("hit does not extend the intermediate one-step")
    if hit.alpha > hit.cond.eta or not hit.cond.path.has(hit.alpha):
        raise OracleMismatch("hit height is not represented")
    if not xset.is_subset(supp(mid.top, hit.cond.level(hit.alpha))):
        raise OracleMismatch("hit support guarantee fails re-validation")

    sp = hit.cond
    alpha = hit.alpha
    alpha_prime = max(mid.eta, alpha)
    g_alpha = sp.level(alpha_prime)

    # routing cells
    a_set = xset.difference(y)
    b_set = xset.intersect(triple.pi.image())
    c_set = a_set.union(b_set).complement()
    conflict = _pi_preimage(triple.pi, b_set)
    target = x.x0.complement().difference(conflict)
    if target.is_finite:
        target = xset.complement().difference(conflict)
    if target.is_finite:
        raise UnsupportedTriple("no room for the routing injection off the filter set")
    psi = order_iso(c_set, target)

    pieces = []
    for sigma in (identity_map(a_set), restrict_map(triple.pi.inverse(), b_set), psi):
        pieces.append(_route_pieces(sigma, g_alpha, sp.top))
    cells = [c for cs, _ in pieces for c in cs]
    exc = [e for _, es in pieces for e in es]
    new_top = AscentLevel.make(sp.eta.succ(), cells, dict(exc))
    out, _ = _one_step(sp, new_top)

    # the two routing guarantees, re-verified exactly
    g_alpha_level = sp.level(alpha)
    if not a_set.is_subset(supp(g_alpha_level, new_top)):
        raise PostconditionFailed("guarantee lost: the off-Y filter part is unsupported")
    absorbed = graft_levels(triple.x_family, _pulled(new_top, triple.pi, new_top))
    lost = xset.intersect(y).difference(supp(g_alpha_level, absorbed))
    if not lost.is_empty:
        raise PostconditionFailed(f"guarantee lost: absorption fails at {lost.min_member()}")
    return out, alpha


def _pi_preimage(pi: PiecewiseMap, values: UPSet) -> UPSet:
    return restrict_map(pi.inverse(), values).image()


# ---------------------------------------------------------------------------
# density absorption
# ---------------------------------------------------------------------------


def absorb_node(cond: Condition, t: SymNode, xi: int) -> tuple[Condition, Ordinal, int]:
    """A one-step extension whose top family swallows t at a filter-set
    coordinate; per-coordinate label collisions are swapped onto the chosen
    coordinate so the family stays exclusive and the support co-finite."""
    if cond.variant != S_X:
        raise WrongVariant("absorption lives in the filter-sequence poset")
    if not t.dom.is_finite:
        raise LimitDomainUnsupported(f"node of height {t.dom} cannot be absorbed")
    if not tree_contains(cond.tree, t):
        raise NodeNotInTree("node to absorb is not in the tree")
    xset = cond.x.entry(xi)
    if t.dom.is_zero:
        return cond, ZERO, xset.min_member()
    top = cond.top
    eta = cond.eta

    conflicts: dict[int, dict[Ordinal, int]] = {}
    for j in range(t.dom.n):
        eps = Ordinal(0, j)
        val = t.eval_at(eps)
        sigma = _value_owner(top, eps, val)
        if sigma is not None:
            conflicts.setdefault(sigma, {})[eps] = val
    tau0 = xset.min_member()
    while tau0 in conflicts:
        tau0 = next(k for k in xset.iter_members() if k > tau0)

    absorbed = graft(t, top.at(tau0))
    patches: dict[int, SymNode] = {tau0: absorbed}
    for sigma, coords in conflicts.items():
        repl = {eps: top.at(tau0).eval_at(eps) for eps in coords}
        patches[sigma] = node_patch(top.at(sigma), repl)
    for sigma, v in patches.items():
        if not tree_contains(cond.tree, v):
            raise ValueError(f"patched node at {sigma} escapes the tree")
    below = AscentLevel.make(eta, top.cells, dict(top.exceptions) | patches)
    out = one_step_with(cond, below, standard_append(below))
    alpha = out.eta
    if not is_prefix(t, out.top.at(tau0)):
        raise PostconditionFailed("absorption failed to swallow the node")
    return out, alpha, tau0


def _value_owner(level: AscentLevel, eps: Ordinal, val: int) -> Optional[int]:
    """The unique family index whose node takes the value at the coordinate,
    if any (the family is exclusive, so fibers have at most one index)."""
    for k, v in level.exceptions:
        if v.eval_at(eps) == val:
            return k
    for c in level.cells:
        hit = meet(*entry_affine(c.template.entry_at(eps)), 0, val)
        if hit.m is not None:
            return c.ap.member(hit.m)
    return None
