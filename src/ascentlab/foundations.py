"""Ordinal scale, exact algebra of ultimately periodic subsets of omega,
and decreasing set sequences with their generated filter and dual ideal.

Everything here is immutable and every operation is a pure function, so
values can be shared freely. Heights live below omega*W for a small
configurable block bound W; sets of naturals are restricted to the
ultimately periodic class, where boolean algebra and filter membership
are exactly decidable.

A height is an `Ordinal`, a tuple (w, n) that CPython compares and hashes
in C; it equals the plain pair. Its constructor validates the range and is
the path for every height that comes from outside; `succ` and `pred`
cannot leave the range and skip the check (see `Ordinal`).

A `UPSet` is two int bitmasks, its residues mod the period and its
members below the threshold, kept in a normal form with the least period
and then the least threshold, so equality is structural. A boolean
operation restates both sides at the common period (the lcm) and the
larger threshold and is then one bit operation per mask.
"""

from __future__ import annotations

import math
import operator
from typing import Iterator, NamedTuple, Optional

# Comparison verdicts for ord_compare.
LT, EQ, GT = -1, 0, 1

# Block bound W: ordinals are omega*w + n with w <= W_LIMIT.
W_LIMIT = 3


class Rejected(ValueError):
    """Input that a stated check refuses: the caller's to mend, not a defect
    in the library. Each error class declares where it is defined whether
    it is one; the CLI reports these with exit code 2."""


class OrdinalBoundError(Rejected):
    """Height exceeds the configured omega*W bound."""


class BadHeight(ValueError):
    """An evaluation or restriction point lies outside a node's domain."""


class PostconditionFailed(AssertionError):
    """A decision procedure's result failed its own re-check: a defect in
    the library, not in its input. Raised explicitly, so `python -O` keeps
    the check."""


_MISSING = object()    # a field with no default
_FACTORY = object()    # the default of an __init__ parameter whose field has a factory


class _Field:
    __slots__ = ("default", "default_factory", "init", "compare", "repr", "hash")

    def __init__(self, default, default_factory, init, compare, repr, hash) -> None:
        self.default, self.default_factory = default, default_factory
        self.init, self.compare, self.repr, self.hash = init, compare, repr, hash


def field(*, default=_MISSING, default_factory=_MISSING, init: bool = True,
          compare: bool = True, repr: bool = True, hash: Optional[bool] = None) -> _Field:
    """A record field's options, as the standard library's `field` takes
    them: an `init=False` field is no `__init__` parameter and is set by its
    default, its factory or `__post_init__`; `compare=False` leaves it out
    of `==` and `hash`, `hash=False` out of `hash` alone, `repr=False` out
    of the repr."""
    return _Field(default, default_factory, init, compare, repr, hash)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _getstate(self) -> list:
    return [getattr(self, name) for name in self.__slots__]


def _setstate(self, state: list) -> None:
    for name, value in zip(self.__slots__, state):
        object.__setattr__(self, name, value)


def record(cls: type) -> type:
    """The class rebuilt as an immutable record with a slot per annotated
    field: `@dataclass(frozen=True, slots=True)` in what it makes, byte for
    byte in `repr`, and in `==`, `hash`, `__match_args__`, the
    `AttributeError` an assignment or deletion raises, and `copy` and
    `pickle`, which read and set every slot.

    `__init__`, `__repr__`, `__eq__` and `__hash__` are generated from one
    source text per class, compiled once under the file name `<record
    QUALNAME>`; a method the class defines itself is kept. `__init__` sets
    the fields in order through `object.__setattr__` and then calls
    `__post_init__`, if the class has one. A record class is not subclassed.

    It is here for the start-up of a CLI process, which makes 24 record
    classes. On Python 3.11 (shared 2-vCPU Linux box) a five-field class
    took 0.19 ms, against 0.63-0.70 ms under the standard library's
    decorator, which compiles six sources per class and imports `inspect`."""
    body = dict(cls.__dict__)
    fields = [(name, _as_field(body.pop(name, _MISSING)))
              for name in body.get("__annotations__", {})]
    ns = {"_setattr": object.__setattr__, "_FACTORY": _FACTORY}
    params, sets = [], []
    for name, f in fields:
        if f.default_factory is not _MISSING:
            ns[f"_f_{name}"] = f.default_factory
            default, value = "_FACTORY", f"_f_{name}()"
        elif f.default is not _MISSING:
            ns[f"_d_{name}"] = f.default
            default = value = f"_d_{name}"
        else:
            default = value = None      # a parameter, or set by __post_init__
        if f.init:
            params.append(name if default is None else f"{name}={default}")
            value = name if default != "_FACTORY" else f"{name} if {name} is not _FACTORY else {value}"
        if value is not None:
            sets.append(f"    _setattr(self, {name!r}, {value})\n")
    if "__post_init__" in body:
        sets.append("    self.__post_init__()\n")
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name, f in fields if f.repr)
    compared = [name for name, f in fields if f.compare]
    hashed = [name for name, f in fields if (f.compare if f.hash is None else f.hash)]
    source = (
        f"def __init__(self, {', '.join(params)}):\n{''.join(sets) or '    pass'}\n"
        f"def __repr__(self):\n"
        f"    return self.__class__.__qualname__ + f\"({shown})\"\n"
        f"def __eq__(self, other):\n"
        f"    if other.__class__ is self.__class__:\n"
        f"        return {_tuple('self', compared)}=={_tuple('other', compared)}\n"
        f"    return NotImplemented\n"
        f"def __hash__(self):\n"
        f"    return hash({_tuple('self', hashed)})\n")
    exec(compile(source, f"<record {cls.__qualname__}>", "exec"), ns)
    for method in ("__init__", "__repr__", "__eq__", "__hash__"):
        body.setdefault(method, ns[method])
    body.pop("__dict__", None)
    body.pop("__weakref__", None)
    body.update(__slots__=tuple(name for name, _ in fields), __qualname__=cls.__qualname__,
                __match_args__=tuple(name for name, f in fields if f.init),
                __setattr__=_frozen_setattr, __delattr__=_frozen_delattr,
                __getstate__=_getstate, __setstate__=_setstate)
    return type(cls)(cls.__name__, cls.__bases__, body)


def _as_field(value) -> _Field:
    """A class body's value for a field as its options: a `field(...)` as
    it is, a plain value as the default."""
    return value if isinstance(value, _Field) else field(default=value)


def _tuple(obj: str, names: list[str]) -> str:
    """Source of the tuple of these attributes of obj, as the standard
    library's decorator spells it: `(obj.a,obj.b,)`, or `()`."""
    return f"({''.join(f'{obj}.{name},' for name in names)})"


class Proof:
    """A passed check as a value: its name and the objects and values it
    read. Only `prove` makes one, in a check that passed; `Proof(...)`
    raises TypeError, and a Proof has no `__match_args__` to copy it by (the LCF
    discipline: Gordon, Milner and Wadsworth, *Edinburgh LCF*, 1979). The
    one reader, `proves`, accepts it only for the very objects it names, so
    one moved to other objects, or of equal objects built apart, is refused
    and the check runs. The objects are immutable, so the verdict holds while
    they live, and the record keeps them alive, so no identity is reused."""

    __slots__ = ("check", "objects", "values")

    def __new__(cls, *args, **kwargs):
        raise TypeError("a Proof is made only by prove()")

    def __setattr__(self, name, value):
        raise AttributeError("a Proof is immutable")


def prove(check: str, objects: tuple, values: tuple) -> Proof:
    """The record that `check` passed on these objects and values."""
    out = object.__new__(Proof)
    object.__setattr__(out, "check", check)
    object.__setattr__(out, "objects", objects)
    object.__setattr__(out, "values", values)
    return out


def proves(record: Optional[Proof], check: str, objects: tuple, values: tuple) -> bool:
    """Whether `record` is the proof that `check` passed on these very
    objects (`is`, compared first) and on values equal to these."""
    return (record is not None and len(record.objects) == len(objects)
            and all(map(operator.is_, record.objects, objects))
            and record.check == check and record.values == values)


class Ordinal(tuple):
    """Ordinal below omega*W in normal form omega*w + n, held as the pair
    (w, n).

    An `Ordinal` is a tuple, so order, `==` and `hash` are the tuple's own,
    computed in C: lexicographic on (w, n), which is the ordinal order in
    normal form. It equals the plain pair, `Ordinal(1, 2) == (1, 2)`, and
    hashes as it. `json` would write it as a list, so
    `serialize.enc_ordinal` stays the only encoder.

    The constructor validates: a negative part raises `ValueError` and
    w > W_LIMIT raises `OrdinalBoundError`. It is the path for every height
    that comes from outside (decoders, the CLI) or from arithmetic that can
    leave the range (`next_limit`). `succ` and `pred` (after its successor
    check) keep w and leave n >= 0, so from a valid ordinal they cannot
    leave the range; they build the pair directly and skip the check.
    """

    __slots__ = ()

    def __new__(cls, w: int, n: int) -> "Ordinal":
        if w < 0 or n < 0:
            raise ValueError(f"negative ordinal parts ({w}, {n})")
        if w > W_LIMIT:
            raise OrdinalBoundError(f"omega*{w}+{n} exceeds omega*{W_LIMIT}")
        return tuple.__new__(cls, (w, n))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    w = property(operator.itemgetter(0), doc="The block index: omega*w + n.")
    n = property(operator.itemgetter(1), doc="The offset in the block.")

    @property
    def is_zero(self) -> bool:
        return self.w == 0 and self.n == 0

    @property
    def is_limit(self) -> bool:
        return self.n == 0 and self.w >= 1

    @property
    def is_successor(self) -> bool:
        return self.n > 0

    @property
    def is_finite(self) -> bool:
        return self.w == 0

    def succ(self) -> "Ordinal":
        return tuple.__new__(Ordinal, (self.w, self.n + 1))

    def pred(self) -> "Ordinal":
        if self.n == 0:
            raise ValueError(f"{self} is not a successor")
        return tuple.__new__(Ordinal, (self.w, self.n - 1))

    def next_limit(self) -> "Ordinal":
        """The least limit ordinal strictly above self."""
        return Ordinal(self.w + 1, 0)

    def __repr__(self) -> str:
        if self.w == 0:
            return str(self.n)
        head = "w" if self.w == 1 else f"w{self.w}"
        return head if self.n == 0 else f"{head}+{self.n}"


ZERO = Ordinal(0, 0)
OMEGA = Ordinal(1, 0)

# Extended natural for level sizes / quotient cardinalities: int or OMEGA_NAT.
OMEGA_NAT = math.inf


def ord_compare(a: Ordinal, b: Ordinal) -> int:
    """Lexicographic comparison on (w, n); returns LT, EQ or GT."""
    return (a > b) - (a < b)


def _root(a: int, c: int) -> Optional[int]:
    """The m >= 0 with a*m = c, or None when there is none or a = 0. Exact
    for either sign of a: Python's % and // floor consistently."""
    if a and c % a == 0 and c // a >= 0:
        return c // a
    return None


@record
class AP:
    """Infinite arithmetic progression {start + m*step : m >= 0}."""

    start: int
    step: int

    def __post_init__(self) -> None:
        if self.step < 1 or self.start < 0:
            raise ValueError(f"bad progression ({self.start}, {self.step})")

    def __contains__(self, k: int) -> bool:
        return k >= self.start and (k - self.start) % self.step == 0

    def position(self, k: int) -> int:
        if k not in self:
            raise ValueError(f"{k} not in {self}")
        return (k - self.start) // self.step

    def member(self, m: int) -> int:
        return self.start + m * self.step

    def intersect(self, other: "AP") -> Optional["AP"]:
        """The common members: self's at the positions m of the pairs (m, s)
        with self.member(m) = other.member(s) (`Meet.first`), or self when
        the two are one."""
        if self.start == other.start and self.step == other.step:
            return self
        m = meet(self.step, self.start, other.step, other.start).first()
        return None if m is None else AP(self.member(m[0]), self.step * m[1])

    def upset(self) -> "UPSet":
        """The progression as a `UPSet`, built in normal form: period step,
        the one residue start mod step, no low members, and threshold
        max(0, start - step + 1). That threshold is least: below start the
        periodic rule first errs at start - step, the one member of the
        residue class left out, when start >= step; when start < step no
        member of the class is left out and the rule holds from 0. The
        period is least because a single residue has no shorter period
        unless step is 1."""
        return UPSet(max(0, self.start - self.step + 1), self.step, 1 << self.start % self.step, 0)

    def __repr__(self) -> str:
        return f"AP({self.start}+{self.step}m)"


class Meet(NamedTuple):
    """The pairs (m, s) in ℕ² that solve a*m + b = c*s + d, a, c >= 0
    (`meet`), or several such equations (`intersect`): every pair of ℕ² on
    one carrier, (m + t*dm, s + t*ds) for t >= 0 from the least one, the
    base (m, s). It has one of five shapes (`shape`):
    - empty (`NO_MEET`, base None);
    - a point, step (0, 0), left by intersections;
    - a row, step (0, 1), when c = 0 < a: m is the root of a*m = d - b and
      s is free; a column, step (1, 0), when a = 0 < c;
    - a lattice line when a, c > 0: by Bézout the common values of b + a*ℕ
      and d + c*ℕ step by lcm(a, c), so m steps by c/g and s by a/g, g =
      gcd(a, c) (Niven, Zuckerman and Montgomery, *An Introduction to the
      Theory of Numbers*, §5.1);
    - all of ℕ² (`ALL_MEET`, step None) when a = c = 0 and b = d.
    The step is primitive and the base is least in both coordinates
    (`least`). Two carriers cross in at most one point, and parallel ones
    coincide or miss, so the shapes are closed under `intersect` and the
    equations of several coordinates fold into one set.
    """

    m: Optional[int]
    s: int
    dm: Optional[int]
    ds: Optional[int]

    @property
    def shape(self) -> str:
        if self.m is None:
            return "empty"
        if self.dm is None:
            return "all"
        return ("point", "row", "column", "line")[2 * bool(self.dm) + bool(self.ds)]

    def intersect(self, other: "Meet") -> "Meet":
        """The pairs in both sets."""
        if self.dm is None or other.m is None:
            return other
        if other.dm is None or self.m is None:
            return self
        cross = self.dm * other.ds - self.ds * other.dm
        if cross:
            # two carriers that cross, at self's t >= 0 with cross * t =
            # (other.base - self.base) x other.step
            t = _root(cross, (other.m - self.m) * other.ds - (other.s - self.s) * other.dm)
            return NO_MEET if t is None else Meet(self.m + t * self.dm, self.s + t * self.ds, 0, 0)
        # parallel, or a point (then x): x if it lies on y's carrier
        x, y = (other, self) if not (other.dm or other.ds) else (self, other)
        on = (x.m - y.m) * y.ds == (x.s - y.s) * y.dm if y.dm or y.ds else x == y
        return x if on else NO_MEET

    def least(self) -> Optional[tuple[int, int]]:
        """The least pair of the set in both coordinates, or None."""
        return None if self.m is None else (self.m, self.s)

    def first(self) -> Optional[tuple[int, int]]:
        """The projection onto m, as (start, step): start + t*step, t >= 0."""
        return None if self.m is None else (self.m, 1 if self.dm is None else self.dm)

    def second(self) -> Optional[tuple[int, int]]:
        """The projection onto s, as in `first`."""
        return None if self.m is None else (self.s, 1 if self.ds is None else self.ds)


NO_MEET = Meet(None, 0, 0, 0)
ALL_MEET = Meet(0, 0, None, None)
DIAGONAL = Meet(0, 0, 1, 1)


def meet(a: int, b: int, c: int, d: int) -> Meet:
    """The solutions (m, s) in ℕ² of a*m + b = c*s + d, a, c >= 0 (see `Meet`)."""
    if not c:
        if not a:
            return ALL_MEET if b == d else NO_MEET
        m = _root(a, d - b)
        return NO_MEET if m is None else Meet(m, 0, 0, 1)
    if not a:
        s = _root(c, b - d)
        return NO_MEET if s is None else Meet(0, s, 1, 0)
    if a == c and b == d:
        return DIAGONAL
    g = math.gcd(a, c)
    if (d - b) % g:
        return NO_MEET
    q = c // g      # a*m = d - b (mod c) holds for the m = m0 (mod q)
    m0 = (d - b) // g * pow(a // g, -1, q) % q
    m = m0 + max(0, -((b - d + a * m0) // (a * q))) * q     # the least with a*m + b >= d
    return Meet(m, (a * m + b - d) // c, q, a // g)


@record
class UPSet:
    """Ultimately periodic subset of omega in canonical normal form.

    A set is two ints beside its threshold t and period p. Bit k of
    `lmask` is set iff k < t is a member; for k >= t, k is a member iff
    bit k mod p of `rmask` is set. `residues` and `low` give the same bits
    as frozensets.

    Normal form: p is the least period of the tail, and t the least point
    from which that period holds, so if t > 0 the membership of t-1
    differs from the periodic rule at t-1. `make` and every operation
    return this form, so structural equality and the hash coincide with
    extensional equality.

    The short-cuts keep that form, so equality stays extensional. When one
    operand of `union`, `intersect` or `difference` is empty or
    everything, the result is an operand, `EMPTY_SET` or a complement,
    each already normal, and no `_normal` pass runs. `is_subset` and
    `disjoint` build no set: they read the two masks restated at the
    common threshold and period (`_aligned`, shared with `_combine`), where
    a ⊆ b iff each mask of a lies in that of b.
    """

    threshold: int
    period: int
    rmask: int
    lmask: int

    @staticmethod
    def make(threshold: int, period: int, residues: frozenset[int] | set[int],
             low: frozenset[int] | set[int] = frozenset()) -> "UPSet":
        if period < 1 or threshold < 0:
            raise ValueError("period must be >= 1 and threshold >= 0")
        rmask = lmask = 0
        for r in residues:
            rmask |= 1 << (r % period)
        for k in low:
            if 0 <= k < threshold:
                lmask |= 1 << k
        return _normal(threshold, period, rmask, lmask)

    @property
    def residues(self) -> frozenset[int]:
        return frozenset(_bits(self.rmask))

    @property
    def low(self) -> frozenset[int]:
        return frozenset(_bits(self.lmask))

    def __contains__(self, k: int) -> bool:
        if k < 0:
            return False
        if k < self.threshold:
            return bool(self.lmask >> k & 1)
        return bool(self.rmask >> (k % self.period) & 1)

    def _tail(self) -> int:
        """rmask rotated so that bit i is the membership of threshold + i."""
        p, s = self.period, self.threshold % self.period
        return (self.rmask >> s | self.rmask << (p - s)) & ((1 << p) - 1)

    # -- algebra ---------------------------------------------------------

    def _masks_at(self, t: int, p: int) -> tuple[int, int]:
        """(rmask, lmask) of self restated with threshold t >= its own and
        period p, a multiple of its own."""
        rmask = self.rmask if p == self.period else self.rmask * _repunit(p, self.period)
        lmask = self.lmask
        if t > self.threshold:
            lmask |= _tile(self.rmask, self.period, t) >> self.threshold << self.threshold
        return rmask, lmask

    def _aligned(self, other: "UPSet") -> tuple[int, int, int, int, int, int]:
        """(t, p, ra, la, rb, lb): both sets restated at the larger threshold
        t and the common period p."""
        p = math.lcm(self.period, other.period)
        t = max(self.threshold, other.threshold)
        return (t, p) + self._masks_at(t, p) + other._masks_at(t, p)

    def _combine(self, other: "UPSet", op) -> "UPSet":
        t, p, ra, la, rb, lb = self._aligned(other)
        return _normal(t, p, op(ra, rb), op(la, lb))

    def union(self, other: "UPSet") -> "UPSet":
        if not (other.rmask or other.lmask) or _is_full(self):
            return self
        if not (self.rmask or self.lmask) or _is_full(other):
            return other
        return self._combine(other, operator.or_)

    def intersect(self, other: "UPSet") -> "UPSet":
        if not (self.rmask or self.lmask) or _is_full(other):
            return self
        if not (other.rmask or other.lmask) or _is_full(self):
            return other
        return self._combine(other, operator.and_)

    def difference(self, other: "UPSet") -> "UPSet":
        if not (self.rmask or self.lmask) or not (other.rmask or other.lmask):
            return self
        if _is_full(other):
            return EMPTY_SET
        if _is_full(self):
            return other.complement()
        return self._combine(other, _and_not)

    def complement(self) -> "UPSet":
        # flipping every bit keeps both minimality conditions, so the
        # result is already in normal form
        return UPSet(self.threshold, self.period, self.rmask ^ ((1 << self.period) - 1),
                     self.lmask ^ ((1 << self.threshold) - 1))

    # -- queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.rmask and not self.lmask

    @property
    def is_finite(self) -> bool:
        return not self.rmask

    def is_cobounded(self) -> bool:
        return self.rmask == (1 << self.period) - 1

    def is_subset(self, other: "UPSet") -> bool:
        if not (self.rmask or self.lmask) or _is_full(other):
            return True
        _, _, ra, la, rb, lb = self._aligned(other)
        return not (ra & ~rb or la & ~lb)

    def disjoint(self, other: "UPSet") -> bool:
        if not (self.rmask or self.lmask) or not (other.rmask or other.lmask):
            return True
        _, _, ra, la, rb, lb = self._aligned(other)
        return not (ra & rb or la & lb)

    def members(self, bound: int) -> list[int]:
        return [k for k in range(bound) if k in self]

    def iter_members(self) -> Iterator[int]:
        k = 0
        while True:
            if k in self:
                yield k
            k += 1

    def min_member(self) -> int:
        if self.lmask:
            return _lowest_bit(self.lmask)
        if not self.rmask:
            raise ValueError("empty set has no minimum")
        return self.threshold + _lowest_bit(self._tail())

    def nth(self, n: int) -> int:
        """The n-th member (0-based)."""
        lows = _bits(self.lmask)
        if n < len(lows):
            return lows[n]
        if not self.rmask:
            raise ValueError(f"set has only {len(lows)} members")
        n -= len(lows)
        offs = _bits(self._tail())
        q, r = divmod(n, len(offs))
        return self.threshold + q * self.period + offs[r]

    def to_aps(self) -> tuple[list[AP], list[int]]:
        """Decompose into infinite arithmetic progressions plus a finite patch."""
        aps = [AP(self.threshold + r, self.period) for r in _bits(self._tail())]
        return aps, _bits(self.lmask)

    def __repr__(self) -> str:
        if self.is_empty:
            return "UPSet{}"
        shown = self.members(min(self.threshold + 2 * self.period, 24))
        tail = "" if self.is_finite else ",..."
        return "UPSet{" + ",".join(map(str, shown)) + tail + "}"


def _is_full(a: UPSet) -> bool:
    """a is omega: in normal form that is threshold 0, period 1, residue 0."""
    return a.rmask == 1 and a.period == 1 and not a.threshold


def _normal(t: int, p: int, rmask: int, lmask: int) -> UPSet:
    """The normal form of the set with threshold t, period p, residue mask
    rmask < 2**p and low mask lmask < 2**t."""
    # Least period. The periods of the tail that divide p are the multiples
    # of its least period d, so while some prime q leaves p/q a period, d
    # divides p/q; at the end no p/q is a period, so p == d. The word has
    # period p/q iff shifting it by p/q matches its first p - p/q bits.
    if p > 1:
        for q in _prime_factors(p):
            while p % q == 0:
                d = p // q
                if rmask >> d != rmask & ((1 << (p - d)) - 1):
                    break
                p, rmask = d, rmask & ((1 << d) - 1)
    # Least threshold: one past the highest low bit that differs from the
    # periodic rule.
    t = (lmask ^ _tile(rmask, p, t)).bit_length()
    return UPSet(t, p, rmask, lmask & ((1 << t) - 1))


def _prime_factors(n: int) -> list[int]:
    out = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _repunit(n: int, p: int) -> int:
    """The mask with bits 0, p, 2p, ... below n; p divides n."""
    return ((1 << n) - 1) // ((1 << p) - 1)


def _tile(rmask: int, p: int, n: int) -> int:
    """Bits [0, n) of the period-p word rmask repeated."""
    whole = -(-n // p) * p
    return rmask * _repunit(whole, p) & ((1 << n) - 1)


def _and_not(a: int, b: int) -> int:
    return a & ~b


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


EMPTY_SET = UPSet.make(0, 1, frozenset())
FULL_SET = UPSet.make(0, 1, frozenset({0}))
EVENS = UPSet.make(0, 2, frozenset({0}))
ODDS = UPSet.make(0, 2, frozenset({1}))


def multiples(k: int, start: int = 0) -> UPSet:
    """Multiples of k that are >= start: the progression from the least of
    them, built in normal form by `AP.upset`."""
    if k < 1 or start < 0:
        raise ValueError("period must be >= 1 and threshold >= 0")
    return AP(-(-start // k) * k, k).upset()


def singleton(k: int) -> UPSet:
    return finite_set((k,))


def finite_set(ks) -> UPSet:
    """The finite set ks, built in normal form: threshold the largest member
    plus one, period 1, no residues (the bit below the threshold is a member
    and the periodic rule says no, so the threshold is least). As in `make`
    with that threshold, negative members are dropped, so {-1} is empty, and
    a largest member below -1 is a negative threshold (ValueError)."""
    lmask, top = 0, None
    for k in ks:
        if top is None or k > top:
            top = k
        if k >= 0:
            lmask |= 1 << k
    if top is None:
        return EMPTY_SET
    if top < -1:
        raise ValueError("period must be >= 1 and threshold >= 0")
    return UPSet(top + 1, 1, 0, lmask)


def upset_algebra(kind: str, a: UPSet, b: Optional[UPSet] = None) -> UPSet:
    """Exact boolean algebra dispatcher; `b` is required unless kind=complement."""
    if kind == "complement":
        return a.complement()
    if b is None:
        raise ValueError(f"operation {kind} needs a second operand")
    if kind == "union":
        return a.union(b)
    if kind == "intersect":
        return a.intersect(b)
    if kind == "difference":
        return a.difference(b)
    raise ValueError(f"unknown operation {kind!r}")


def is_cobounded(y: UPSet) -> bool:
    """True iff omega minus y is finite."""
    return y.is_cobounded()


# ---------------------------------------------------------------------------
# X-sequences, the generated filter F and its dual ideal I
# ---------------------------------------------------------------------------


class UndecidableRepresentation(ValueError):
    """A set outside the ultimately periodic class reached the filter
    decision procedure. Library-produced sets are always in the class, so
    this can only be raised for foreign implementations of the interface."""


class ProfileViolation(Rejected):
    """The X-sequence fails a required structural profile."""


@record
class XSequence:
    """Decreasing sequence X_0 ⊇ X_1 ⊇ ... of nonempty subsets of omega
    with empty intersection, given by a head set and a scaled tail:
    X_n = {base*k : k >= n} for n >= 1.

    The generated filter is F = {Y : some X_n ⊆ Y}; the dual ideal is
    I = {Y : some X_n ∩ Y = empty}. Both are decided exactly.
    """

    x0: UPSet
    base: int

    def entry(self, n: int) -> UPSet:
        if n < 0:
            raise ValueError("index must be a natural")
        if n == 0:
            return self.x0
        return multiples(self.base, self.base * n)

    def validate(self, profile: str = "s3") -> None:
        """Raise ProfileViolation unless the sequence satisfies the profile.

        profile s3: decreasing, nonempty entries, co-infinite X_0, empty
        intersection. profile s4 additionally: X_0 minus X_1 infinite.
        """
        if self.base < 2:
            raise ProfileViolation("tail base must be >= 2")
        if self.x0.is_empty:
            raise ProfileViolation("X_0 is empty")
        if not self.entry(1).is_subset(self.x0):
            raise ProfileViolation("X_1 is not a subset of X_0")
        if self.x0.is_cobounded():
            raise ProfileViolation("omega minus X_0 must be infinite")
        # empty intersection: every k eventually leaves (k not in X_n once base*n > k)
        if profile == "s4":
            if self.x0.difference(self.entry(1)).is_finite:
                raise ProfileViolation("X_0 minus X_1 must be infinite")
        elif profile != "s3":
            raise ValueError(f"unknown profile {profile!r}")


DEFAULT_X = XSequence(EVENS, 4)


@record
class FilterVerdict:
    """Outcome of filter_classify: exactly one of the three kinds holds."""

    kind: str  # "in_filter" | "in_ideal" | "neither"
    witness: Optional[int] = None

    @property
    def in_filter(self) -> bool:
        return self.kind == "in_filter"

    @property
    def in_ideal(self) -> bool:
        return self.kind == "in_ideal"


# (y, x) -> the verdict of filter_classify, for at most _VERDICTS_MAX pairs
_VERDICTS: dict[tuple[UPSet, XSequence], FilterVerdict] = {}
_VERDICTS_MAX = 1024


def filter_classify(y: UPSet, x: XSequence = DEFAULT_X) -> FilterVerdict:
    """Decide membership of y in the filter F generated by x, the dual
    ideal I, or neither. Returned witnesses re-validate: in_filter(n)
    means X_n ⊆ y, in_ideal(n) means X_n ∩ y = empty.

    Both arguments are immutable and the verdict depends on them alone, so
    it is decided once per pair (`_classify`) and kept in a table of fixed
    size, emptied when full. A verdict is kept only after its witness
    re-check has passed.
    """
    if not isinstance(y, UPSet):
        raise UndecidableRepresentation(f"cannot classify {type(y).__name__}")
    key = (y, x)
    verdict = _VERDICTS.get(key)
    if verdict is None:
        verdict = _classify(y, x)
        if len(_VERDICTS) >= _VERDICTS_MAX:
            _VERDICTS.clear()
        _VERDICTS[key] = verdict
    return verdict


def _classify(y: UPSet, x: XSequence) -> FilterVerdict:
    """`filter_classify`, decided.

    Decided on y's residue mask. For n >= 1, X_n ⊆ y iff base*k is in y for
    every k >= n, and X_n misses y iff base*k is in y for none. Let t and p
    be y's threshold and period. For k >= ⌈t/base⌉, base*k >= t is a member
    iff bit base*k mod p of `rmask` is set, and those residues run over
    exactly the multiples of gcd(base, p) below p. So from ⌈t/base⌉ on every
    base*k is in y iff `rmask` holds all of those multiples, and none is iff
    it holds none of them; otherwise y is in neither. The least witness n
    >= 1 comes from walking down from max(1, ⌈t/base⌉) while base*(n-1),
    which lies below t, has the same membership in the low mask.

    The witness is re-checked through `x.entry(n)` and the set algebra, a
    route that shares nothing with the mask arithmetic above, so a slip
    there raises PostconditionFailed instead of returning a wrong verdict.
    """
    base, p = x.base, y.period
    multiples_mask = _repunit(p, math.gcd(base, p))
    tail = y.rmask & multiples_mask
    if tail and tail != multiples_mask:
        return FilterVerdict("neither")
    inside = bool(tail)
    n = max(1, -(-y.threshold // base))
    while n > 1 and bool(y.lmask >> (base * (n - 1)) & 1) == inside:
        n -= 1
    if inside:
        if not x.entry(n).is_subset(y):
            raise PostconditionFailed(f"filter witness {n}: X_{n} is not a subset of {y}")
        return FilterVerdict("in_filter", n)
    if not x.entry(n).disjoint(y):
        raise PostconditionFailed(f"ideal witness {n}: X_{n} meets {y}")
    return FilterVerdict("in_ideal", n)
