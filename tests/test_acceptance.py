"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured size and runtime (run with -s to see them live).

Criterion 5 consumes the conditions built by criteria 3 and 4, so this
module is meant to run in file order (pytest's default).
"""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from ascentlab.foundations import (
    DEFAULT_X, FULL_SET, OMEGA, Ordinal, UPSet, ZERO, filter_classify,
    upset_algebra,
)
from ascentlab.amalgam import amalgamate
from ascentlab.aposet import PathDescriptor, THETA, check_antichain, is_bad
from ascentlab.ascent import supp
from ascentlab.conditions import (
    S_THETA, S_X, check_condition, leq_s, make_bad_extension,
    one_step_extension,
)
from ascentlab.fixtures import (
    bad_path_conditions, random_tower, tower, uniform_chain, uniform_path,
)
from ascentlab.game import check_run_invariants, play_game, random_opponent
from ascentlab.nodes import delta, eq_star, graft, mutually_exclusive, node
from ascentlab.sealing import (
    OracleHit, absorb_node, build_intermediate, identity_triple, seal_step,
    transposition_triple,
)
from ascentlab.surgery import branch_surgery
from ascentlab.trees import tree_contains, vanishing_levels
from oracles import brute_delta, brute_eq_star, brute_me, brute_op, clause, upset_window

import test_foundations
import test_nodes

HOMOGENEOUS_POOL = []  # conditions from criteria 3 and 4, consumed by 5


def _report(num: int, msg: str) -> None:
    print(f"\nACCEPTANCE {num}: PASS — {msg}")


# -- 1: foundations oracle ------------------------------------------------------

WINDOW = 1 << 20


def _np_mask(u: UPSet) -> np.ndarray:
    ks = np.arange(WINDOW)
    mask = np.isin(ks % u.period, list(u.residues))
    if u.threshold:
        head = np.zeros(u.threshold, bool)
        if u.low:
            head[list(u.low)] = True
        mask[:u.threshold] = head
    return mask


def test_criterion_01_foundations_oracle():
    t0 = time.monotonic()
    rng = random.Random(101)
    ops = 0
    for _ in range(2500):
        a, b = test_foundations.rand_upset(rng), test_foundations.rand_upset(rng)
        bound = 4 * math.lcm(a.period, b.period) + a.threshold + b.threshold
        for kind in ("union", "intersect", "difference", "complement"):
            got = upset_algebra(kind, a, None if kind == "complement" else b)
            assert upset_window(got, bound) == brute_op(
                kind, a, None if kind == "complement" else b, bound), (kind, a, b)
            ops += 1
    assert ops == 10_000

    # filter verdicts against the definition on [0, 2^20), witnesses n <= 64
    x_masks = [_np_mask(DEFAULT_X.entry(n)) for n in range(65)]

    def brute_kind(m: np.ndarray) -> str:
        if not (x_masks[64] & ~m).any():      # X_n ⊆ Y is monotone in n
            return "in_filter"
        if not (x_masks[64] & m).any():       # so one check decides each kind
            return "in_ideal"
        return "neither"

    classified = 0
    for _ in range(150):
        y = test_foundations.rand_upset(rng)
        v = filter_classify(y)
        m = _np_mask(y)
        assert v.kind == brute_kind(m), (y, v)
        if v.in_filter:
            assert not (x_masks[min(v.witness, 64)] & ~m).any()
        elif v.in_ideal:
            assert not (x_masks[min(v.witness, 64)] & m).any()
        classified += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report(1, f"{ops} algebra ops and {classified} filter verdicts agree "
               f"with brute force; {elapsed:.1f}s < 30s")


# -- 2: node oracle ---------------------------------------------------------------

def test_criterion_02_node_oracle():
    t0 = time.monotonic()
    rng = random.Random(202)
    pairs = 0
    for _ in range(10_000):
        s, t = test_nodes.rand_node(rng), test_nodes.rand_node(rng)
        assert delta(s, t) == brute_delta(s, t), (s, t)
        assert mutually_exclusive(s, t) == brute_me(s, t), (s, t)
        if s.dom == t.dom:
            assert eq_star(s, t) == brute_eq_star(s, t), (s, t)
        pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report(2, f"{pairs} symbolic pairs agree with window evaluation; "
               f"{elapsed:.1f}s < 30s")


# -- 3: one-step suite --------------------------------------------------------------

def test_criterion_03_one_step_suite():
    t0 = time.monotonic()
    rng = random.Random(303)
    amalgams = [amalgamate(uniform_chain(k, Ordinal(1, 2)))[0] for k in (2, 3)]
    failures = 0
    for i in range(1000):
        if i % 20 == 19:
            cond = amalgams[i % 2]
            beta = rng.choice([ZERO, Ordinal(0, 2), OMEGA])
        else:
            cond = random_tower(rng, 5)
            beta = Ordinal(0, rng.randrange(0, cond.eta.n + 1))
        nu = rng.choice([0, 5, float("inf")])
        out = one_step_extension(cond, beta, nu)
        s_old = supp(cond.level(beta), cond.top)
        s_new = supp(cond.top, out.top)
        ok = (check_condition(out, S_X).ok
              and leq_s(out, cond)
              and s_old.is_subset(s_new)
              and supp(cond.level(beta), out.top) == FULL_SET)
        if not ok:
            failures += 1
        elif i % 10 == 0:
            HOMOGENEOUS_POOL.append(out)
    elapsed = time.monotonic() - t0
    assert failures == 0
    assert elapsed < 60
    _report(3, f"1000 one-step extensions: validation, order, and both "
               f"support postconditions exact; {elapsed:.1f}s < 60s")


# -- 4: amalgamation suite ------------------------------------------------------------

def test_criterion_04_amalgamation_suite():
    t0 = time.monotonic()
    gamma = OMEGA
    deltas = [(Ordinal(1, 1), False), (Ordinal(1, 2), False), (Ordinal(1, 2), True),
              (Ordinal(1, 1), True)]
    runs = 0
    for prefix in (2, 3, 4, 5, 6):
        for offset in range(5):
            for delta_, closed in deltas:
                ch = uniform_chain(prefix, delta_, closed, offset)
                out, z = amalgamate(ch)   # every conclusion bullet re-verified inside
                assert out.eta == gamma
                van = vanishing_levels(out.tree, "full")
                assert gamma in van.levels
                assert clause(check_condition(out, S_X), "C3")
                for m in ch.members:
                    assert leq_s(out, m.cond)
                    assert supp(m.cond.top, out.top) == FULL_SET
                runs += 1
                if runs % 4 == 0:
                    HOMOGENEOUS_POOL.append(out)
    elapsed = time.monotonic() - t0
    assert runs == 100
    assert elapsed < 60
    _report(4, f"{runs} uniform chains amalgamated; conclusion bullets "
               f"and vanishing record verified; {elapsed:.1f}s < 60s")


# -- 5: the vanishing-levels equivalence ---------------------------------------------

def test_criterion_05_vanishing_equivalence():
    assert HOMOGENEOUS_POOL, "criteria 3 and 4 must run first"
    checked = 0
    for cond in HOMOGENEOUS_POOL:
        full = vanishing_levels(cond.tree, "full")
        hom = vanishing_levels(cond.tree, "homogeneous")
        assert full.levels == hom.levels, cond
        checked += 1
    _report(5, f"full and homogeneous vanishing levels coincide on all "
               f"{checked} constructed conditions")


# -- 6: the naive poset's antichain ---------------------------------------------------

def test_criterion_06_bad_antichain():
    t0 = time.monotonic()
    conds, bads = bad_path_conditions(50, pad=0)
    path = PathDescriptor(conds[-1])
    assert len(bads) == 50
    for b in bads:
        assert is_bad(path, b)
    rep = check_antichain(path, THETA, bads, path.base.eta)
    assert rep.all_incompatible
    certified = 0
    for v in rep.pairs:
        assert "values at" in v.certificate
        # the two concrete facts behind each certificate, both orders
        alpha = v.a.pred()
        lb, la = path.level_at(v.b), path.level_at(v.a)
        assert lb.at(0).eval_at(alpha) == lb.at(1).eval_at(alpha)
        assert la.at(0).eval_at(alpha) != la.at(1).eval_at(alpha)
        certified += 2
    assert certified == 2 * math.comb(50, 2)
    # every bad extension along the path fails the filter-sequence
    # validation with an exclusivity violation
    me_failures = 0
    for bad_cond in conds[1:]:
        r = check_condition(bad_cond, S_X)
        assert not r.ok and any("not mutually exclusive" in v for v in r.violations)
        me_failures += 1
    assert me_failures == 50
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(6, f"50 bad heights pairwise incompatible ({certified} certified "
               f"checks), {me_failures} sampled bad extensions fail exclusivity; "
               f"{elapsed:.1f}s < 60s")


# -- 7: game suite ----------------------------------------------------------------------

def test_criterion_07_game_suite():
    t0 = time.monotonic()
    mus = [Ordinal(0, 4), Ordinal(0, 6), Ordinal(0, 10), Ordinal(1, 2), Ordinal(1, 6)]
    runs = 0
    limit_checked = 0
    for seed in range(100):
        mu = mus[seed % len(mus)]
        t = play_game(mu, random_opponent(seed), seed % 3)
        assert t.verdict == "II_completed", (mu, seed)
        inv = check_run_invariants(t)
        assert inv.ok, inv.failures
        runs += 1
        if mu.w > 0 and seed % 20 == 3:
            # the limit move equals the amalgam of the even sub-chain
            from ascentlab.amalgam import ChainDescriptor, ChainMember
            from ascentlab.game import GameState, _game_tail
            limit = next(m for m in t.moves if m.stage == OMEGA)
            members = tuple(ChainMember(m.stage, m.cond, m.z)
                            for m in t.moves if m.z is not None and m.stage < OMEGA)
            st = GameState(mu, t.xi)
            st.moves.extend(m for m in t.moves if m.stage < OMEGA)
            cond, z = amalgamate(ChainDescriptor(members, _game_tail(st), OMEGA, mu))
            assert cond == limit.cond and z == limit.z
            limit_checked += 1
    elapsed = time.monotonic() - t0
    assert runs == 100 and limit_checked > 0
    assert elapsed < 120
    _report(7, f"100 random legal opponents over 5 run lengths: II completed "
               f"every run, invariants hold, {limit_checked} limit moves equal "
               f"the amalgam; {elapsed:.1f}s < 120s")


# -- 8: sealing suite ---------------------------------------------------------------------

def _seal_with_synthesized_hit(cond, triple, xi, hit_steps=1):
    mid = build_intermediate(cond, triple)
    hit = mid
    for _ in range(hit_steps):
        hit = one_step_extension(hit, hit.eta)
    return seal_step(cond, triple, xi, OracleHit(hit, hit.eta))


def test_criterion_08_sealing_suite():
    t0 = time.monotonic()
    x = DEFAULT_X

    # fixture triples: identity and a transposition on odd coordinates
    c = tower(2)
    for triple, xi in [(identity_triple(c), 1), (transposition_triple(c, 1, 3), 1)]:
        out, alpha = _seal_with_synthesized_hit(c, triple, xi)
        a_set = x.entry(xi).difference(triple.y)
        assert a_set.is_subset(supp(out.level(alpha), out.top))
        for tau in x.entry(xi).intersect(triple.y).members(64):
            lhs = out.level(alpha).at(tau)
            rhs = graft(triple.x_family.at(tau), out.top.at(triple.pi.apply(tau)))
            assert rhs.restrict(lhs.dom) == lhs
        assert check_condition(out, S_X).ok and leq_s(out, c)

    # three-step iteration with a head-set transposition, then the
    # absorption inclusions against a deeper condition
    stages = []
    cur = tower(2)
    triples = [(identity_triple(cur), 1)]
    cur1, a1 = _seal_with_synthesized_hit(cur, triples[0][0], 1)
    stages.append((cur, triples[0][0], 1, cur1, a1))
    t2 = transposition_triple(cur1, 1, 3)
    cur2, a2 = _seal_with_synthesized_hit(cur1, t2, 1)
    stages.append((cur1, t2, 1, cur2, a2))
    t3 = transposition_triple(cur2, 2, 6)
    cur3, a3 = _seal_with_synthesized_hit(cur2, t3, 0)
    stages.append((cur2, t3, 0, cur3, a3))

    g = one_step_extension(one_step_extension(cur3, cur3.eta), cur3.eta.succ())
    inclusions = 0
    for base, triple, xi, out, alpha in stages:
        assert check_condition(out, S_X).ok and leq_s(out, base)
        xset = x.entry(xi)
        # on the off-Y part the value chain runs through the tops
        for tau in xset.difference(triple.y).members(24):
            lvl = out.level(alpha).at(tau)
            assert lvl == out.top.at(tau).restrict(lvl.dom)
            assert lvl == g.top.at(tau).restrict(lvl.dom)
            inclusions += 1
        # on the Y part it runs through the prescribed graft
        for tau in xset.intersect(triple.y).members(24):
            lvl = out.level(alpha).at(tau)
            target = graft(triple.x_family.at(tau), g.top.at(triple.pi.apply(tau)))
            assert lvl == target.restrict(lvl.dom)
            inclusions += 1
    elapsed = time.monotonic() - t0
    assert inclusions > 0
    _report(8, f"fixture triples sealed with both guarantees exact; "
               f"{inclusions} absorption inclusions re-verified on the "
               f"3-step iteration; {elapsed:.1f}s")


# -- 9: density absorption ------------------------------------------------------------------

def test_criterion_09_density_absorption():
    t0 = time.monotonic()
    rng = random.Random(909)
    done = 0
    for i in range(200):
        cond = random_tower(rng, 4)
        d = rng.randrange(1, cond.eta.n + 1)
        t = node(*[rng.randrange(0, 14) for _ in range(d)])
        xi = i % 3
        out, alpha, tau = absorb_node(cond, t, xi)
        assert tau in cond.x.entry(xi)
        assert out.top.at(tau).restrict(t.dom) == t
        assert alpha == out.eta and check_condition(out, S_X).ok
        assert leq_s(out, cond)
        done += 1
    elapsed = time.monotonic() - t0
    assert done == 200
    assert elapsed < 60
    _report(9, f"200 random finite nodes absorbed with filter-set witnesses; "
               f"zero failures; {elapsed:.1f}s < 60s")


# -- 10: branch surgery ------------------------------------------------------------------------

def test_criterion_10_branch_surgery():
    t0 = time.monotonic()
    x = DEFAULT_X
    head_minus = x.x0.difference(x.entry(1))
    runs = 0
    for prefix in (3, 4, 5):
        for n0 in head_minus.members(16):
            p = uniform_path(prefix)
            out = branch_surgery(p, n0)
            assert out.eta == OMEGA and out.tree.height == Ordinal(1, 1)
            assert check_condition(out, S_X).ok
            assert not tree_contains(out.tree, p.rule.limit_level().at(n0))
            van = vanishing_levels(out.tree, "full")
            base_van = vanishing_levels(p.base.tree, "full").levels
            assert van.levels == base_van | {OMEGA}
            from ascentlab.aposet import derive_branches
            fam = derive_branches(p, 0)
            assert fam.me_report().ok
            runs += 1
    elapsed = time.monotonic() - t0
    assert runs > 0
    _report(10, f"{runs} surgeries: valid limit-plus-one conditions, omitted "
                f"branch vanishing, exclusive branch families; {elapsed:.1f}s")


# -- 11: CLI -------------------------------------------------------------------------------------

def test_criterion_11_cli(tmp_path):
    t0 = time.monotonic()
    from ascentlab import serialize as sz
    from ascentlab.cli import main

    # round-trips on all fixture kinds
    fixtures = {
        "condition": (sz.enc_condition, sz.dec_condition, tower(3)),
        "chain": (sz.enc_chain, sz.dec_chain, uniform_chain(2, Ordinal(1, 2))),
        "path": (sz.enc_path_descriptor, sz.dec_path_descriptor, uniform_path(3)),
    }
    for name, (enc, dec, obj) in fixtures.items():
        data = enc(obj)
        assert enc(dec(data)) == data, name
        assert dec(data) == obj, name

    # determinism: byte-identical stdout for identical argv + seed
    cmd = [sys.executable, "-m", "ascentlab.cli", "game", "--mu", "w1n2",
           "--opponent", "random", "--seed", "11", "--xi", "1"]
    outs = [subprocess.run(cmd, capture_output=True, text=True).stdout for _ in range(2)]
    assert outs[0] == outs[1] and json.loads(outs[0])["verdict"] == "II_completed"

    # exit codes: 0 on success, 1 on failed checks, 2 on malformed input
    ok_file = tmp_path / "c.json"
    ok_file.write_text(json.dumps(sz.enc_condition(tower(2))))
    assert main(["validate", str(ok_file)]) == 0
    bad = make_bad_extension(tower(1, S_THETA))
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(sz.enc_condition(bad)))
    assert main(["validate", "--variant", "sx", str(bad_file)]) == 1
    junk = tmp_path / "junk.json"
    junk.write_text("{}")
    assert main(["validate", str(junk)]) == 2
    elapsed = time.monotonic() - t0
    _report(11, f"round-trips, byte-identical reports, and exit codes hold; "
                f"{elapsed:.1f}s")
