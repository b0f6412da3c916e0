"""Canonical construction fixtures: one-step towers, the uniform chain
feeding amalgamation, and randomized variants for the property sweeps."""

from __future__ import annotations

import random
from typing import Optional

from .foundations import AP, DEFAULT_X, Ordinal, XSequence
from .ascent import Cell
from .nodes import Ramp, const_node
from .conditions import Condition, S_THETA, S_X, one_step_extension, root_condition
from .amalgam import ChainDescriptor, ChainMember, ChainTail, ZMap
from .conditions import make_bad_extension
from .ascent import standard_append


def odd_label(i: Ordinal, offset: int) -> int:
    """Injective odd labels for auxiliary branches, one per ordinal key."""
    return 16 * i.n + 2 * i.w + 1 + 32 * offset


def tower(k: int, variant: str = S_X, x: XSequence = DEFAULT_X,
          betas: Optional[list[Ordinal]] = None, label_bases: Optional[list[int]] = None) -> Condition:
    """k one-step extensions of the root; by default each at the current top."""
    c = root_condition(variant, x)
    for j in range(k):
        beta = betas[j] if betas else c.eta
        base = label_bases[j] if label_bases else 0
        c = one_step_extension(c, beta, label_base=base)
    return c


def random_tower(rng: random.Random, max_height: int) -> Condition:
    c = root_condition()
    for _ in range(rng.randrange(1, max_height + 1)):
        beta = Ordinal(0, rng.randrange(0, c.eta.n + 1))
        c = one_step_extension(c, beta, label_base=rng.randrange(0, 3))
    return c


def _fixture_zmap(stage: int, height: Ordinal, delta: Ordinal, closed: bool,
                  offset: int) -> ZMap:
    """z(i) = the constant word of the key's odd label, at the given height."""
    if delta.w != 1:
        raise ValueError("fixture z-maps support delta within the first limit block")
    cell = Cell(AP(stage + 1, 1),
                const_node(Ramp(16, 16 * (stage + 1) + 1 + 32 * offset), height))
    entries = {}
    for n in range(delta.n + (1 if closed else 0)):
        key = Ordinal(1, n)
        entries[key] = const_node(odd_label(key, offset), height)
    return ZMap.make(Ordinal(0, stage), delta, closed, ((0, cell),), entries)


def uniform_chain(prefix: int, delta: Ordinal, closed_delta: bool = False,
                  offset: int = 0) -> ChainDescriptor:
    """The standard amalgamation fixture: member k is the (k+1)-level tower
    with f(n)(tau) = <2 tau> repeated, and z-values constant odd words."""
    if prefix < 1:
        raise ValueError("need at least one explicit member")
    members = []
    for k in range(prefix):
        cond = tower(k + 1)
        z = _fixture_zmap(k, cond.eta, delta, closed_delta, offset)
        members.append(ChainMember(Ordinal(0, k), cond, z))
    scheme = standard_append(members[-1].cond.top)
    tail = ChainTail(1, (scheme,), (("last",),))
    return ChainDescriptor(tuple(members), tail, Ordinal(1, 0), delta, closed_delta)


def uniform_path(prefix: int = 4):
    """The standard generic-path stand-in: an explicit tower continued by
    standard one-steps cofinally below omega."""
    from .aposet import PathDescriptor
    from .conditions import TailRule
    base = tower(prefix)
    scheme = standard_append(base.top)
    rule = TailRule(prefix + 1, base.top.append_entries(scheme), (scheme,))
    return PathDescriptor(base, rule)


def bad_path_conditions(count: int, pad: int) -> tuple[list[Condition], list[Ordinal]]:
    """count interleaved bad extensions over the plain theta poset; returns
    the full decreasing sequence and the bad heights (witness pair (0,1))."""
    c = tower(1, S_THETA)
    conds = [c]
    bads: list[Ordinal] = []
    for _ in range(count):
        for _ in range(pad):
            c = one_step_extension(c, c.eta)
            conds.append(c)
        c = make_bad_extension(c)
        conds.append(c)
        bads.append(c.eta)
    return conds, bads
