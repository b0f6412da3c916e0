"""Inputs the tests build with the library: random towers, and z-maps with
some values replaced."""

from __future__ import annotations

import random

from ascentlab.amalgam import ZMap
from ascentlab.ascent import _split
from ascentlab.conditions import Condition, one_step_extension, root_condition
from ascentlab.foundations import Ordinal, finite_set


def random_tower(rng: random.Random, max_height: int) -> Condition:
    c = root_condition()
    for _ in range(rng.randrange(1, max_height + 1)):
        beta = Ordinal(0, rng.randrange(0, c.eta.n + 1))
        c = one_step_extension(c, beta, label_base=rng.randrange(0, 3))
    return c


def with_values(z: ZMap, values: dict) -> ZMap:
    """z with the values at the given keys of its domain replaced. A key that
    a cell holds is carved out of it: the cell's other keys stay on its
    infinite progressions (`Cell.on`) or become entries."""
    cells, entries = [], dict(z.entries)
    for w, cell in z.cells:
        carved = finite_set(k.n for k in values if k.w == w)
        parts, points = _split((cell,), cell.ap.upset().difference(carved))
        cells.extend((w, c) for c in parts)
        entries.update((Ordinal(w, n), v) for n, v in points if z.in_domain(Ordinal(w, n)))
    return ZMap.make(z.lo, z.hi, z.closed_hi, cells, entries | values)
