"""Every pair of small levels against the pointwise window oracles.

The scope (small-scope hypothesis: Jackson, *Software Abstractions*, 2006):
every partition of omega into at most 2 cells of step at most 2 and at most
1 exception key (`PARTITIONS`, all five of them), at each height 0, 1, 2,
omega and omega+1, with each cell template drawn from two per height and
each exception node from two per height (`TEMPLATES`, `EXCEPTION_NODES`).
The templates mix constants and the ramp m, so that on a cell, and on a
cell re-based onto half of it, a pair of templates agrees at every
position, at one, or at none; the exception nodes agree with some cell
nodes and with each other across heights, and not with others.

On every ordered pair (f, g), `supp` must equal `brute_supp`,
`eq_star_set` must equal `eq_star_window`, and `graft_levels` must match
the pointwise `graft(f.at(tau), g.at(tau))`, all for tau < WINDOW.
"""

from itertools import product

from ascentlab.ascent import AscentLevel, Cell, eq_star_set, graft_levels, supp
from ascentlab.foundations import AP, OMEGA, ZERO, Ordinal
from ascentlab.nodes import EMPTY_NODE, BlockWord, Ramp, SymNode, graft, node
from oracles import brute_eq_star, upset_window

WINDOW = 64
M = Ramp(1, 0)   # the cell position m

# (cell progressions, exception keys) of every partition of omega into at
# most 2 progressions of step <= 2 and at most 1 point: with no point, one
# step-1 cell or the two residues mod 2; with the point k, the cell from 1
# (k = 0) or the residues mod 2 without their first member k (k = 0, 1)
PARTITIONS = (
    ((AP(0, 1),), ()),
    ((AP(1, 1),), (0,)),
    ((AP(0, 2), AP(1, 2)), ()),
    ((AP(2, 2), AP(1, 2)), (0,)),
    ((AP(0, 2), AP(3, 2)), (1,)),
)


def _omega(prefix, tail, *final) -> SymNode:
    return SymNode((BlockWord.make(prefix, tail),), final)


TEMPLATES = {
    ZERO: (EMPTY_NODE,),
    Ordinal(0, 1): (node(0), node(M)),
    Ordinal(0, 2): (node(0, M), node(M, 1)),
    OMEGA: (_omega((), (M,)), _omega((0,), (1,))),
    Ordinal(1, 1): (_omega((), (M,), 0), _omega((0,), (1,), M)),
}
EXCEPTION_NODES = {
    ZERO: (EMPTY_NODE,),
    Ordinal(0, 1): (node(0), node(1)),
    Ordinal(0, 2): (node(0, 0), node(1, 1)),
    OMEGA: (_omega((), (0,)), _omega((), (1,))),
    Ordinal(1, 1): (_omega((), (0,), 0), _omega((), (1,), 1)),
}


def small_levels() -> list[AscentLevel]:
    """Every level of the scope, through `AscentLevel.make`."""
    out = []
    for h, templates in TEMPLATES.items():
        for aps, keys in PARTITIONS:
            for ts in product(templates, repeat=len(aps)):
                for vs in product(EXCEPTION_NODES[h], repeat=len(keys)):
                    out.append(AscentLevel.make(
                        h, [Cell(ap, t) for ap, t in zip(aps, ts)], dict(zip(keys, vs))))
    return out


def test_small_scope_level_pairs():
    """Each level is unrolled once to the ids of its nodes below WINDOW, and
    each pair of nodes met at one index is decided once, as the oracles
    decide it: `brute_supp` compares the two nodes restricted to the lower
    height, `eq_star_window` asks `brute_eq_star`, and the graft is
    `graft`. Then every level pair is checked index by index."""
    ids: dict[SymNode, int] = {}
    nodes: list[SymNode] = []
    instances: dict[tuple[SymNode, int], int] = {}

    def intern(v: SymNode) -> int:
        if v not in ids:
            ids[v] = len(nodes)
            nodes.append(v)
        return ids[v]

    def unrolled(f: AscentLevel) -> tuple[int, ...]:
        """f.at(t) for t < WINDOW, a cell's template instantiated once per
        position."""
        out = []
        for t in range(WINDOW):
            p = f.piece(t)
            if p.__class__ is Cell:
                key = p.template, p.ap.position(t)
                if key not in instances:
                    instances[key] = intern(p.at(t))
                out.append(instances[key])
            else:
                out.append(intern(p))
        return tuple(out)

    def decide(a: int, b: int) -> tuple[bool, bool, int]:
        u, v = nodes[a], nodes[b]
        lo = min(u.dom, v.dom)
        return u.restrict(lo) == v.restrict(lo), brute_eq_star(u, v), intern(graft(u, v))

    levels = small_levels()
    windows = [unrolled(f) for f in levels]
    decided: dict[tuple[int, int], tuple[bool, bool, int]] = {}
    grafts: dict[AscentLevel, tuple[int, ...]] = {}
    for f, wf in zip(levels, windows):
        for g, wg in zip(levels, windows):
            for key in zip(wf, wg):
                if key not in decided:
                    decided[key] = decide(*key)
            want = [decided[key] for key in zip(wf, wg)]
            assert upset_window(supp(f, g), WINDOW) == {t for t, w in enumerate(want) if w[0]}, (f, g)
            assert upset_window(eq_star_set(f, g), WINDOW) == {t for t, w in enumerate(want) if w[1]}, (f, g)
            out = graft_levels(f, g)
            if out not in grafts:
                grafts[out] = unrolled(out)
            assert grafts[out] == tuple(w[2] for w in want), (f, g)
    print(f"{len(levels) ** 2} level pairs checked ({len(levels)} levels, {len(decided)} node pairs)")
    assert len(levels) == 109
