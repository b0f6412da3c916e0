import copy
import dataclasses
import math
import operator
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ascentlab import foundations
from ascentlab.foundations import (
    ALL_MEET, AP, DEFAULT_X, EVENS, ODDS, FULL_SET, EMPTY_SET, GT, LT, EQ, _and_not, _normal,
    W_LIMIT, Ordinal, OrdinalBoundError, PostconditionFailed, ProfileViolation,
    UndecidableRepresentation, UPSet, XSequence, filter_classify, finite_set, is_cobounded, multiples,
    meet, ord_compare, singleton, upset_algebra,
)
from ascentlab.serialize import dec_upset, enc_upset
from oracles import (
    brute_classify, brute_op, enc_from_window, preimage_classify, raw_member, raw_window,
    upset_window,
)


def rand_upset(rng: random.Random) -> UPSet:
    p = rng.choice([1, 2, 3, 4, 6, 8, 12])
    t = rng.randrange(0, 12)
    residues = frozenset(r for r in range(p) if rng.random() < 0.5)
    low = frozenset(k for k in range(t) if rng.random() < 0.5)
    return UPSet.make(t, p, residues, low)


# -- ordinals ---------------------------------------------------------------

def test_ord_compare_examples():
    assert ord_compare(Ordinal(1, 0), Ordinal(0, 5)) == GT
    assert ord_compare(Ordinal(0, 3), Ordinal(0, 3)) == EQ
    assert ord_compare(Ordinal(1, 2), Ordinal(2, 0)) == LT


def test_ordinal_structure():
    assert Ordinal(1, 0).is_limit
    assert not Ordinal(1, 1).is_limit
    assert Ordinal(0, 0).succ() == Ordinal(0, 1)
    assert Ordinal(2, 5).pred() == Ordinal(2, 4)
    with pytest.raises(ValueError):
        Ordinal(1, 0).pred()


def test_ordinal_bound_rejected():
    with pytest.raises(OrdinalBoundError):
        Ordinal(4, 0)


PAIRS = st.tuples(st.integers(0, W_LIMIT), st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(PAIRS, PAIRS)
def test_ordinal_agrees_with_pair(p, q):
    """Order, equality and hash are those of the plain pair (w, n)."""
    a, b = Ordinal(*p), Ordinal(*q)
    assert (a.w, a.n) == tuple(a) == p
    assert a == p and hash(a) == hash(p)
    assert (a < b, a <= b, a == b, a != b, a > b, a >= b) == (
        p < q, p <= q, p == q, p != q, p > q, p >= q)
    assert (hash(a) == hash(b)) == (hash(p) == hash(q))
    assert ord_compare(a, b) == (LT if p < q else GT if p > q else EQ)


@settings(max_examples=300, deadline=None)
@given(PAIRS)
def test_trusted_arithmetic_matches_constructor(p):
    """succ and pred skip the check; they give what the validating
    constructor gives. next_limit validates."""
    w, n = p
    a = Ordinal(w, n)
    assert type(a.succ()) is Ordinal and a.succ() == Ordinal(w, n + 1)
    if n > 0:
        assert type(a.pred()) is Ordinal and a.pred() == Ordinal(w, n - 1)
    else:
        with pytest.raises(ValueError, match="not a successor"):
            a.pred()
    if w < W_LIMIT:
        assert a.next_limit() == Ordinal(w + 1, 0)
    else:
        with pytest.raises(OrdinalBoundError):
            a.next_limit()


@settings(max_examples=200, deadline=None)
@given(st.integers(-3, W_LIMIT + 3), st.integers(-3, 5))
def test_ordinal_constructor_validates(w, n):
    if w < 0 or n < 0:
        with pytest.raises(ValueError, match="negative"):
            Ordinal(w, n)
    elif w > W_LIMIT:
        with pytest.raises(OrdinalBoundError):
            Ordinal(w, n)
    else:
        assert Ordinal(w, n) == Ordinal(w=w, n=n) == (w, n)


@settings(max_examples=50, deadline=None)
@given(PAIRS)
def test_ordinal_copy_and_pickle(p):
    a = Ordinal(*p)
    copies = [copy.copy(a), copy.deepcopy(a)]
    copies += [pickle.loads(pickle.dumps(a, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is Ordinal and c == a and repr(c) == repr(a)


# -- upset algebra ----------------------------------------------------------

def test_algebra_trivial_examples():
    assert upset_algebra("intersect", EVENS, multiples(3)) == multiples(6)
    assert upset_algebra("complement", EVENS) == ODDS


def test_difference_default_x_derived():
    # difference(X0, X1) on the default sequence; oracle: pointwise on [0, 256)
    x0, x1 = DEFAULT_X.entry(0), DEFAULT_X.entry(1)
    d = upset_algebra("difference", x0, x1)
    assert upset_window(d, 256) == brute_op("difference", x0, x1, 256)
    assert d.members(16) == [0, 2, 6, 10, 14]


def test_canonical_form_is_extensional():
    a = UPSet.make(7, 4, frozenset({0, 2}), frozenset({0, 2, 4, 6}))
    b = EVENS
    assert a == b
    assert UPSet.make(0, 8, frozenset({0, 2, 4, 6})) == EVENS


def test_algebra_agrees_with_brute_force():
    rng = random.Random(7)
    for _ in range(400):
        a, b = rand_upset(rng), rand_upset(rng)
        bound = 4 * (a.period * b.period) + a.threshold + b.threshold + 8
        for kind in ("union", "intersect", "difference"):
            got = upset_algebra(kind, a, b)
            assert upset_window(got, bound) == brute_op(kind, a, b, bound), (kind, a, b)
        got = upset_algebra("complement", a)
        assert upset_window(got, bound) == brute_op("complement", a, None, bound)


def test_rank_nth_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        a = rand_upset(rng)
        if a.is_finite:
            continue
        for n in range(20):
            k = a.nth(n)
            assert k in a
            assert sum(j in a for j in range(k)) == n


def test_to_aps_partition():
    rng = random.Random(5)
    for _ in range(50):
        a = rand_upset(rng)
        aps, singles = a.to_aps()
        got = set(singles)
        for ap in aps:
            m = 0
            while ap.member(m) < 64:
                got.add(ap.member(m))
                m += 1
        assert {k for k in got if k < 64} == upset_window(a, 64)


def test_is_cobounded():
    assert is_cobounded(finite_set({0, 1, 2}).complement())
    assert not is_cobounded(EVENS)
    assert is_cobounded(FULL_SET)


# -- filter / ideal ---------------------------------------------------------

def test_filter_classify_examples():
    assert filter_classify(EVENS) == filter_classify(EVENS, DEFAULT_X)
    v = filter_classify(EVENS)
    assert v.kind == "in_filter" and v.witness == 1
    v = filter_classify(ODDS)
    assert v.kind == "in_ideal" and v.witness == 1
    v = filter_classify(multiples(3))
    assert v.kind == "neither"


def test_filter_witnesses_revalidate():
    rng = random.Random(11)
    for _ in range(300):
        y = rand_upset(rng)
        v = filter_classify(y)
        if v.in_filter:
            assert DEFAULT_X.entry(v.witness).is_subset(y)
        elif v.in_ideal:
            assert DEFAULT_X.entry(v.witness).disjoint(y)
        else:
            kind, _ = brute_classify(y, DEFAULT_X, 40, 2048)
            assert kind == "neither"


def test_filter_monotone():
    rng = random.Random(13)
    for _ in range(200):
        y = rand_upset(rng)
        z = y.union(rand_upset(rng))
        if filter_classify(y).in_filter:
            assert filter_classify(z).in_filter
        if filter_classify(z).in_ideal:
            assert filter_classify(y.intersect(z)).in_ideal


def test_filter_exclusive_exhaustive():
    rng = random.Random(17)
    for _ in range(200):
        y = rand_upset(rng)
        v = filter_classify(y)
        kind, _ = brute_classify(y, DEFAULT_X, 64, 4096)
        assert v.kind == kind


@st.composite
def classify_cases(draw):
    """(y, x): a random set and an X-sequence of base 2, 3, 4 or 6. y's
    residues at the multiples of gcd(base, period) decide the kind, so they
    are drawn all in, all out or as they fall, to reach each kind often."""
    base = draw(st.sampled_from([2, 3, 4, 6]))
    p = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]))
    t = draw(st.integers(0, 24))
    residues = draw(st.sets(st.integers(0, p - 1)))
    low = draw(st.sets(st.integers(0, 23)))
    decisive = set(range(0, p, math.gcd(base, p)))
    shape = draw(st.sampled_from(["drawn", "all", "none"]))
    if shape == "all":
        residues |= decisive
    elif shape == "none":
        residues -= decisive
    return UPSet.make(t, p, residues, low), XSequence(multiples(base), base)


@settings(max_examples=300, deadline=None)
@given(classify_cases())
def test_filter_classify_kind_and_witness(case):
    """Kind and witness against the scaled-preimage route and against the
    pointwise scan. The scan's least witness may be 0 (X_0 = multiples of
    the base), where filter_classify names the least n >= 1. Thresholds
    stay below 25 and periods at most 12, so witnesses are at most 12 and
    the window of 512 holds every residue pattern of y against X_n."""
    y, x = case
    v = filter_classify(y, x)
    assert (v.kind, v.witness) == preimage_classify(y, x)
    kind, n = brute_classify(y, x, 16, 512)
    assert v.kind == kind
    if kind != "neither":
        assert v.witness == max(1, n)


@settings(max_examples=150, deadline=None)
@given(classify_cases())
def test_kept_filter_verdict_matches_oracles(case):
    """The verdict read back for an equal pair of arguments is the one
    decided, and equals the scaled-preimage route and the pointwise scan."""
    y, x = case
    first = filter_classify(y, x)
    kept = filter_classify(dataclasses.replace(y), dataclasses.replace(x))
    assert kept is first and foundations._VERDICTS[(y, x)] is first
    assert (kept.kind, kept.witness) == preimage_classify(y, x)
    kind, n = brute_classify(y, x, 16, 512)
    assert kept.kind == kind
    if kind != "neither":
        assert kept.witness == max(1, n)


def test_kept_filter_verdicts_are_bounded():
    """The table holds at most a fixed number of verdicts: it is emptied
    when full, and every verdict stays the one decided."""
    for t in range(1100):
        y = finite_set([t])
        assert filter_classify(y).in_ideal
        assert len(foundations._VERDICTS) <= 1024
    assert filter_classify(EVENS).in_filter and filter_classify(finite_set([1099])).in_ideal


def test_unrepresented_set_is_refused_before_lookup():
    """A non-UPSet is refused as undecidable, even an unhashable one."""
    for y in ([1, 2], {3}, "evens"):
        with pytest.raises(UndecidableRepresentation):
            filter_classify(y)


# -- X sequence profiles ----------------------------------------------------

def test_default_x_passes_both_profiles():
    DEFAULT_X.validate("s3")
    DEFAULT_X.validate("s4")


def test_bad_profiles_rejected():
    with pytest.raises(ProfileViolation):
        XSequence(FULL_SET, 4).validate()  # co-bounded X0
    with pytest.raises(ProfileViolation):
        XSequence(ODDS, 4).validate()  # X1 not inside X0
    with pytest.raises(ProfileViolation):
        XSequence(multiples(4), 4).validate("s4")  # X0 == X1 up to a tail


class OddsX(XSequence):
    """Entries that contradict the base filter_classify scales by, so every
    witness it derives fails its re-check."""

    def entry(self, n: int) -> UPSet:
        return ODDS


POSTCONDITION_CHECKS = {
    "filter witness": lambda x: filter_classify(multiples(4), x),
    "ideal witness": lambda x: filter_classify(ODDS, x),
}


@pytest.mark.parametrize("name", sorted(POSTCONDITION_CHECKS))
def test_postconditions_fire(name):
    with pytest.raises(PostconditionFailed, match=name):
        POSTCONDITION_CHECKS[name](OddsX(EVENS, 4))


def test_failed_postcondition_is_not_kept():
    """A verdict whose witness re-check fails is never kept: the check
    fires on every call, and the pair is not in the table. `OddsX` hashes
    as the `XSequence` of its fields but does not compare equal to it, so
    neither reads the other's verdict."""
    y, odds, plain = multiples(4), OddsX(EVENS, 4), XSequence(EVENS, 4)
    for _ in range(2):
        with pytest.raises(PostconditionFailed, match="filter witness"):
            filter_classify(y, odds)
    assert (y, odds) not in foundations._VERDICTS
    assert filter_classify(y, plain).in_filter
    with pytest.raises(PostconditionFailed, match="filter witness"):
        filter_classify(y, odds)


def test_postconditions_fire_under_optimize():
    script = (
        "import sys\n"
        "from test_foundations import POSTCONDITION_CHECKS, OddsX, EVENS, PostconditionFailed\n"
        "fired = []\n"
        "for name, check in sorted(POSTCONDITION_CHECKS.items()):\n"
        "    try:\n"
        "        check(OddsX(EVENS, 4))\n"
        "    except PostconditionFailed:\n"
        "        fired.append(name)\n"
        "print(sys.flags.optimize, len(fired))\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", str(len(POSTCONDITION_CHECKS))]


@given(st.integers(0, 200), st.integers(0, 200))
def test_upset_singleton_membership(a, b):
    s = singleton(a)
    assert (b in s) == (a == b)
    assert s.union(singleton(b)) == finite_set({a, b})


@given(st.integers(0, 6).flatmap(lambda _: st.tuples(
    st.integers(0, 10), st.sampled_from([1, 2, 3, 4, 6, 8]),
    st.sets(st.integers(0, 7)), st.sets(st.integers(0, 9)))))
def test_upset_algebra_laws(parts):
    t, p, residues, low = parts
    a = UPSet.make(t, p, frozenset(r % p for r in residues), frozenset(k for k in low if k < t))
    b = a.complement()
    assert a.union(b) == FULL_SET
    assert a.intersect(b) == EMPTY_SET
    assert a.union(a) == a and a.intersect(a) == a
    assert a.complement().complement() == a
    assert a.difference(b) == a


# -- normal form, against raw descriptions read pointwise ------------------------


@st.composite
def raw_upsets(draw):
    """A raw set (t, p, residues, low) with p <= 24. The residues repeat a
    word of a length d dividing p, so the least period is often a proper
    divisor of p (12, 18 and 24 have repeated prime factors), and the low
    part mostly follows the periodic rule, so the threshold often drops."""
    p = draw(st.one_of(st.sampled_from([12, 18, 24]), st.integers(1, 24)))
    d = draw(st.sampled_from([q for q in range(1, p + 1) if p % q == 0]))
    word = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    residues = {r for r in range(p) if word[r % d]}
    residues ^= draw(st.sets(st.integers(0, p - 1), max_size=1))
    t = draw(st.integers(0, 12))
    low = {k for k in range(t) if k % p in residues}
    low ^= draw(st.sets(st.integers(0, 11), max_size=2)) & set(range(t))
    return t, p, frozenset(residues), frozenset(low)


def restated(raw, extra_t: int, factor: int):
    """The same set with a larger threshold and a multiple of the period."""
    t, p = raw[0] + extra_t, raw[1] * factor
    residues = frozenset(r for r in range(p) if raw_member(raw, t + (r - t) % p))
    return t, p, residues, frozenset(k for k in range(t) if raw_member(raw, k))


def made(raw) -> UPSet:
    """UPSet.make on a raw set, checked pointwise against it."""
    u = UPSet.make(*raw)
    bound = max(u.threshold, raw[0]) + math.lcm(u.period, raw[1])
    assert upset_window(u, bound) == raw_window(raw, bound)
    return u


NORMAL_FORM = settings(max_examples=300, deadline=None)


@NORMAL_FORM
@given(raw_upsets(), raw_upsets(), st.integers(0, 5), st.integers(1, 3), st.booleans())
def test_normal_form_equal_iff_windows_agree(ra, rb, extra_t, factor, restate):
    if restate:
        rb = restated(ra, extra_t, factor)
    a, b = made(ra), made(rb)
    bound = a.threshold + b.threshold + 2 * math.lcm(a.period, b.period)
    agree = raw_window(ra, bound) == raw_window(rb, bound)
    assert (a == b) == agree
    if agree:
        assert hash(a) == hash(b)


@NORMAL_FORM
@given(raw_upsets())
def test_normal_form_is_minimal(raw):
    u = made(raw)
    t, p = u.threshold, u.period
    for d in range(1, p):
        if p % d == 0:
            assert any(raw_member(raw, k) != raw_member(raw, k + d) for k in range(t, t + p)), d
    if t:
        assert raw_member(raw, t - 1) != raw_member(raw, t - 1 + p)


@NORMAL_FORM
@given(raw_upsets(), raw_upsets())
def test_queries_match_window(ra, rb):
    a, b = made(ra), made(rb)
    span = max(ra[0], rb[0]) + math.lcm(ra[1], rb[1])  # both repeat from here on
    wa, wb = raw_window(ra, span), raw_window(rb, span)
    tail = raw_window(ra, ra[0] + ra[1]) - set(range(ra[0]))
    assert a.is_empty == (not wa)
    assert a.is_cobounded() == (len(tail) == ra[1])
    if wa:
        assert a.min_member() == min(wa)
        assert [a.nth(n) for n in range(len(wa))] == sorted(wa)
    else:
        with pytest.raises(ValueError):
            a.min_member()
    assert a.is_subset(b) == (wa <= wb)
    assert a.disjoint(b) == (not wa & wb)
    for kind in ("union", "intersect", "difference", "complement"):
        got = upset_algebra(kind, a, b)
        assert upset_window(got, span) == brute_op(kind, a, b, span), kind


@NORMAL_FORM
@given(raw_upsets())
def test_encoding_matches_window(raw):
    u = made(raw)
    enc = enc_upset(u)
    assert dec_upset(enc) == u
    assert enc == enc_from_window(u.threshold, u.period, lambda k: raw_member(raw, k))


# -- short-cuts and mask predicates, against the general route -------------------

GENERAL_OPS = {"union": operator.or_, "intersect": operator.and_, "difference": _and_not}


def renormalised(u: UPSet) -> UPSet:
    """u passed through `_normal` once more: u itself iff u is in normal form."""
    return _normal(u.threshold, u.period, u.rmask, u.lmask)


@NORMAL_FORM
@given(raw_upsets(), st.sampled_from([EMPTY_SET, FULL_SET]), st.booleans(),
       st.sampled_from(sorted(GENERAL_OPS)))
def test_short_cuts_equal_general_combine(raw, trivial, trivial_left, kind):
    """With the empty set or omega on either side, the short-cut answer is
    the one `_combine` and `_normal` compute, it is in normal form, and it
    has the brute-force members."""
    a = made(raw)
    x, y = (trivial, a) if trivial_left else (a, trivial)
    got = upset_algebra(kind, x, y)
    assert got == x._combine(y, GENERAL_OPS[kind])
    assert renormalised(got) == got
    span = a.threshold + a.period
    assert upset_window(got, span) == brute_op(kind, x, y, span)
    assert x.is_subset(y) == x.difference(y).is_empty
    assert x.disjoint(y) == x.intersect(y).is_empty


@NORMAL_FORM
@given(raw_upsets(), raw_upsets(), st.sampled_from(["free", "subset", "disjoint"]))
def test_mask_predicates_match_membership(ra, rb, relation):
    """`is_subset` and `disjoint` read the aligned masks; they agree with
    membership over a window past both thresholds by a common period.
    Random pairs are seldom nested or disjoint, so those relations are
    also built on purpose."""
    a, b = made(ra), made(rb)
    if relation == "subset":
        b = b.union(a)
    elif relation == "disjoint":
        b = b.difference(a)
    bound = max(a.threshold, b.threshold) + math.lcm(a.period, b.period)
    wa, wb = upset_window(a, bound), upset_window(b, bound)
    assert a.is_subset(b) == (wa <= wb)
    assert b.is_subset(a) == (wb <= wa)
    assert a.disjoint(b) == b.disjoint(a) == (not wa & wb)


@NORMAL_FORM
@given(st.integers(1, 12), st.integers(0, 40))
@example(1, 0)
@example(1, 5)
@example(4, 3)
@example(4, 4)
@example(4, 9)
def test_progressions_built_in_normal_form(step, start):
    """AP.upset and multiples equal the sets `UPSet.make` normalises, for a
    start below, at and above the step, and for step 1."""
    assert AP(start, step).upset() == UPSet.make(start, step, frozenset({start % step}))
    assert multiples(step, start) == UPSet.make(start, step, frozenset({0}))
    bound = start + 3 * step
    assert upset_window(AP(start, step).upset(), bound) == \
        {k for k in range(bound) if k in AP(start, step)}


def via_make(ks):
    """The finite set as `UPSet.make` normalises it, the build `finite_set`
    and `singleton` used before they wrote the normal form directly."""
    ks = frozenset(ks)
    return UPSet.make(max(ks) + 1 if ks else 0, 1, frozenset(), ks)


@NORMAL_FORM
@given(st.lists(st.integers(-3, 40), max_size=8))
@example([])
@example([-1])
@example([-1, 3])
@example([-3, 0])
def test_finite_sets_built_in_normal_form(ks):
    """finite_set and singleton equal the sets `make` normalises, field by
    field, and raise where it raises: a negative member is dropped, and a
    largest member below -1 is a negative threshold."""
    try:
        want = via_make(ks)
    except ValueError:
        with pytest.raises(ValueError, match="threshold >= 0"):
            finite_set(ks)
        return
    got = finite_set(iter(ks))
    assert (got.threshold, got.period, got.rmask, got.lmask) == \
        (want.threshold, want.period, want.rmask, want.lmask)
    for k in ks[:1]:
        if k < -1:
            with pytest.raises(ValueError, match="threshold >= 0"):
                singleton(k)
        else:
            assert singleton(k) == via_make([k])


def test_finite_set_negative_members():
    assert finite_set({-1}) == EMPTY_SET and finite_set({-1, 2}) == finite_set({2})
    with pytest.raises(ValueError, match="threshold >= 0"):
        finite_set({-2})


def test_multiples_rejects_what_make_rejects():
    for k, start in ((0, 0), (1, -1)):
        with pytest.raises(ValueError, match="period must be >= 1"):
            multiples(k, start)


# -- the affine meet, against brute force on a window ----------------------------
# An equation a*m + b = c*s + d with slopes up to 6 and offsets up to 12 has
# its least solution below 12 + 6 = 18 in each coordinate, so the window
# [0, 40)^2 shows every shape with its base and further points.

MEET_WINDOW = 40
EQUATIONS = [(a, b, c, d) for a in range(7) for c in range(7) for b in range(13) for d in range(13)]


def brute_meet(a, b, c, d, bound_m=MEET_WINDOW, bound_s=MEET_WINDOW) -> set:
    """The solutions (m, s), m < bound_m and s < bound_s, listed value by
    value."""
    by_value = {}
    for s in range(bound_s):
        by_value.setdefault(c * s + d, []).append(s)
    return {(m, s) for m in range(bound_m) for s in by_value.get(a * m + b, ())}


def meet_points(hit) -> set:
    """The pairs of `hit` inside the window, read off its fields: base
    (m, s) plus t*(dm, ds), every pair for all of N^2, none when empty."""
    if hit.m is None:
        return set()
    if hit.dm is None:
        return {(m, s) for m in range(MEET_WINDOW) for s in range(MEET_WINDOW)}
    out, t = set(), 0
    while hit.m + t * hit.dm < MEET_WINDOW and hit.s + t * hit.ds < MEET_WINDOW:
        out.add((hit.m + t * hit.dm, hit.s + t * hit.ds))
        if not (hit.dm or hit.ds):
            break
        t += 1
    return out


def shape_of_equation(a, b, c, d) -> str:
    if a and c:
        return "line"
    if a or c:
        return "row" if a else "column"
    return "all" if b == d else "empty"


def test_meet_matches_brute_force_on_every_small_equation():
    """Each of the 8,281 equations with a, c <= 6 and b, d <= 12: the same
    solutions on the window, the shape its slopes give (or empty), a
    primitive step, and the least pair in both coordinates at once."""
    for eq in EQUATIONS:
        hit, want = meet(*eq), brute_meet(*eq)
        assert meet_points(hit) == want, eq
        assert hit.shape == (shape_of_equation(*eq) if want else "empty"), eq
        if want:
            assert hit.least() == (min(m for m, _ in want), min(s for _, s in want)), eq
        if hit.shape == "line":
            assert math.gcd(hit.dm, hit.ds) == 1, eq


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(EQUATIONS), min_size=1, max_size=3))
@example([(1, 0, 1, 0), (2, 0, 1, 3)])      # the diagonal meets a line in a point
@example([(2, 0, 1, 0), (4, 1, 2, 1)])      # a line meets a line of its own step
@example([(0, 5, 2, 1), (3, 0, 0, 6)])      # a column meets a row
@example([(2, 3, 2, 1), (2, 5, 2, 3)])      # two lines of one step on one carrier
@example([(2, 3, 2, 1), (2, 4, 2, 1)])      # two lines of one step on two carriers
@example([(2, 0, 1, 0), (1, 0, 0, 2), (0, 4, 1, 0)])    # a point, then a line through it
def test_meet_intersect_least_and_projections_match_brute_force(eqs):
    """A fold of `intersect` over up to three equations is their common
    solution set: its pairs, its least pair and both projections against
    brute force. A value below 40 of either projection has a solution with
    the other coordinate below 6 * 40 + 18 = 258, so the brute force for
    the projections lists that coordinate on [0, 280)."""
    hit, want = ALL_MEET, None
    for eq in eqs:
        hit = hit.intersect(meet(*eq))
        got = brute_meet(*eq)
        want = got if want is None else want & got
    assert meet_points(hit) == want
    if want:
        assert hit.least() == (min(m for m, _ in want), min(s for _, s in want))
    else:
        assert hit.least() is None or max(hit.least()) >= MEET_WINDOW
    for proj, bounds, axis in ((hit.first(), (MEET_WINDOW, 280), 0),
                               (hit.second(), (280, MEET_WINDOW), 1)):
        common = None
        for eq in eqs:
            got = brute_meet(*eq, *bounds)
            common = got if common is None else common & got
        values = {pair[axis] for pair in common}
        listed = set() if proj is None else {proj[0] + t * proj[1] for t in range(MEET_WINDOW)}
        assert {v for v in listed if v < MEET_WINDOW} == values


# -- kernel count guards -----------------------------------------------------------


@pytest.fixture()
def kernel_counts(monkeypatch):
    """Counts of `_normal` calls, `UPSet._combine` calls and `SymNode`
    constructions while the test runs."""
    from ascentlab import foundations
    from ascentlab.nodes import SymNode
    counts = {"normal": 0, "combine": 0, "node": 0}

    def counting(key, fn):
        def wrapped(*args):
            counts[key] += 1
            return fn(*args)
        return wrapped
    monkeypatch.setattr(foundations, "_normal", counting("normal", foundations._normal))
    monkeypatch.setattr(UPSet, "_combine", counting("combine", UPSet._combine))
    monkeypatch.setattr(SymNode, "__post_init__", counting("node", SymNode.__post_init__))
    return counts


def test_game_kernel_counts(kernel_counts):
    """A run to omega+6 and its invariant check made 707 `_normal` calls, 400
    `_combine` calls and 353 node constructions before the set algebra
    answered trivial operands at once, progressions were built in normal
    form and prefix tests stopped building restrictions; now 239, 93 and
    169."""
    from ascentlab.game import check_run_invariants, play_game, random_opponent
    assert check_run_invariants(play_game(Ordinal(1, 6), random_opponent(0), 0)).ok
    assert kernel_counts["normal"] <= 350
    assert kernel_counts["combine"] <= 150
    assert kernel_counts["node"] <= 250


def test_tower_kernel_counts(kernel_counts):
    """Building tower(32) and checking it made 676 `_normal` and 354
    `_combine` calls under the same change; now 65 and 0."""
    from ascentlab.conditions import check_condition
    from ascentlab.fixtures import tower
    assert check_condition(tower(32)).ok
    assert kernel_counts["normal"] <= 100
    assert kernel_counts["combine"] <= 10
