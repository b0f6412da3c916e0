"""Batch driver: every constructor and checker over the JSON formats.

Reports are machine-readable JSON on stdout and deterministic for a fixed
argv (wall-clock timing goes to stderr). Exit codes: 0 when every
requested check passes, 1 when a check fails, 2 on malformed input (a
`foundations.Rejected` error). Each subcommand runs only the modules it
calls: the optional layers are bound as modules, which load on first use.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Any, Optional

from .foundations import Ordinal, OMEGA_NAT, Rejected
from .conditions import VARIANTS, Condition, check_condition, eta_nu, leq_s, one_step_extension
from .nodes import node
from .trees import vanishing_levels
from . import amalgam, aposet, fixtures, game, sealing, surgery
from . import serialize as sz


class InputError(Rejected):
    pass


def parse_ordinal(s: str) -> Ordinal:
    limit = sys.get_int_max_str_digits()
    if limit and len(s) > limit:
        raise InputError(f"bad ordinal of {len(s)} characters, more than {limit}")
    if re.fullmatch(r"\d+", s):
        return Ordinal(0, int(s))
    m = re.fullmatch(r"w(\d*)(?:n(\d+))?", s)
    if not m:
        raise InputError(f"bad ordinal {s!r}; use forms like 5, w1, w1n4")
    return Ordinal(int(m.group(1) or 1), int(m.group(2) or 0))


def fmt_ordinal(o: Ordinal) -> str:
    return f"w{o.w}n{o.n}" if o.w else str(o.n)


class _LongInt(str):
    """The digits of an integer too long for `int`
    (`sys.get_int_max_str_digits`), kept so that `_object_pairs` names the
    key that holds it."""


def _parse_int(s: str) -> int | _LongInt:
    try:
        return int(s)
    except ValueError:
        return _LongInt(s)


def _holds_long(v: Any) -> bool:
    """v is a `_LongInt`, or a list that holds one at any depth (an object
    inside was checked by its own `_object_pairs`)."""
    return v.__class__ is _LongInt or (v.__class__ is list and any(map(_holds_long, v)))


def _object_pairs(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object, refused when a key repeats (a plain load keeps the
    last value) or a value holds an integer too long for `int`. A document
    that is no object fails its decoder."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise InputError(f"repeated key {k!r}")
        if _holds_long(v):
            raise InputError(f"{k}: an integer of more than {sys.get_int_max_str_digits()} digits")
        out[k] = v
    return out


def _load(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_object_pairs, parse_int=_parse_int)
    except (OSError, ValueError) as e:
        # a ValueError: a JSONDecodeError, a UnicodeDecodeError, or an
        # InputError from `_object_pairs`
        raise InputError(f"cannot read {path}: {e}")


def _load_condition(path: str, x_arg: Optional[str]) -> Condition:
    cond = sz.dec_condition(_load(path))
    if x_arg and x_arg != "default":
        x = sz.dec_x(_load(x_arg))
        cond = Condition(cond.tree, cond.path, cond.variant, x)
    return cond


def _write(path: Optional[str], payload: Any) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _emit(report: dict, ok: bool) -> int:
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0 if ok else 1


def cmd_validate(args) -> int:
    cond = _load_condition(args.condition, args.x_sequence)
    rep = check_condition(cond, args.variant)
    nu = eta_nu(cond)[1]
    report = {
        "command": "validate",
        "variant": rep.variant,
        "clauses": {cid: v for cid, v in rep.clauses},
        "violations": list(rep.violations),
        "checked_heights": [fmt_ordinal(h) for h in rep.checked_heights],
        "eta": fmt_ordinal(cond.eta),
        "nu": "omega" if nu == OMEGA_NAT else nu,
    }
    return _emit(report, rep.ok)


def cmd_extend(args) -> int:
    cond = _load_condition(args.condition, args.x_sequence)
    beta = parse_ordinal(args.beta)
    out = one_step_extension(cond, beta, label_base=args.label_base)
    _write(args.out, sz.enc_condition(out))
    valid = check_condition(out).ok
    report = {
        "command": "extend",
        "eta": fmt_ordinal(out.eta),
        "support_carried": True,  # verified by one_step_extension
        "beta_support_full": True,  # verified by one_step_extension
        "valid": valid,
    }
    return _emit(report, valid)


def cmd_amalgamate(args) -> int:
    ch = sz.dec_chain(_load(args.chain))
    out, z = amalgam.amalgamate(ch)
    _write(args.out, sz.enc_condition(out))
    if args.z_out:
        _write(args.z_out, sz.enc_zmap(z))
    van = vanishing_levels(out.tree, "full")
    report = {
        "command": "amalgamate",
        "eta": fmt_ordinal(out.eta),
        "z_keys": [fmt_ordinal(k) for k, _ in z.entries],
        "vanishing": sorted(fmt_ordinal(h) for h in van.levels),
        "closed": True,  # V(T) is always closed (trees.VanishReport)
        "valid": True,  # check_condition verified by amalgamate
    }
    return _emit(report, True)


def cmd_game(args) -> int:
    mu = parse_ordinal(args.mu)
    opp = (game.onestep_opponent() if args.opponent == "onestep"
           else game.random_opponent(args.seed))
    t = game.play_game(mu, opp, args.xi)
    _write(args.out, sz.enc_transcript(t))
    inv = game.check_run_invariants(t)
    report = {
        "command": "game",
        "mu": fmt_ordinal(mu),
        "xi": args.xi,
        "opponent": opp.name,
        "verdict": t.verdict,
        "stages_played": [fmt_ordinal(m.stage) for m in t.moves],
        "notes": list(t.notes),
        "invariants_ok": inv.ok,
        "invariant_failures": list(inv.failures),
    }
    return _emit(report, t.verdict == "II_completed" and inv.ok)


def cmd_vlevels(args) -> int:
    cond = _load_condition(args.condition, args.x_sequence)
    rep = vanishing_levels(cond.tree, args.mode)
    report = {
        "command": "vlevels",
        "mode": args.mode,
        "levels": sorted(fmt_ordinal(h) for h in rep.levels),
        "closed": True,  # V(T) is always closed (trees.VanishReport)
        "top_limit_in": rep.top_limit_in,
    }
    return _emit(report, True)


def cmd_demo_bad(args) -> int:
    conds, bads = fixtures.bad_path_conditions(args.count, args.pad)
    path = aposet.PathDescriptor(conds[-1])
    rep = aposet.check_antichain(path, aposet.THETA, bads, path.base.eta)
    incompatible = sum(1 for p in rep.pairs if not p.compatible)
    report = {
        "command": "demo-bad-antichain",
        "bad_heights": [fmt_ordinal(b) for b in bads],
        "badness_witnessed": all(aposet.is_bad(path, b) for b in bads),
        "pairwise_incompatible": f"{incompatible}/{len(rep.pairs)}",
        "certificates": [
            {"a": fmt_ordinal(p.a), "b": fmt_ordinal(p.b), "certificate": p.certificate}
            for p in rep.pairs],
    }
    return _emit(report, rep.all_incompatible and report["badness_witnessed"])


def _parse_triple(spec: str, cond: Condition):
    if spec == "identity":
        return sealing.identity_triple(cond)
    m = re.fullmatch(r"transpose:(\d+),(\d+)", spec)
    if m:
        return sealing.transposition_triple(cond, int(m.group(1)), int(m.group(2)))
    raise InputError(f"unknown triple spec {spec!r}; use identity or transpose:a,b")


def cmd_seal(args) -> int:
    cond = _load_condition(args.condition, args.x_sequence)
    if args.triple_file:
        triple = sz.dec_triple(_load(args.triple_file))
    else:
        triple = _parse_triple(args.triple, cond)
    out, alpha = sealing.seal_by_one_steps(cond, triple, args.xi, args.hit_steps)
    _write(args.out, sz.enc_condition(out))
    report = {
        "command": "seal",
        "alpha": fmt_ordinal(alpha),
        "eta": fmt_ordinal(out.eta),
        "guarantees_verified": True,
        "valid": check_condition(out).ok,
        "extends_input": leq_s(out, cond),
    }
    return _emit(report, report["valid"] and report["extends_input"])


def cmd_absorb(args) -> int:
    cond = _load_condition(args.condition, args.x_sequence)
    try:
        entries = json.loads(args.node)
        target = node(*[int(e) for e in entries])
    except (TypeError, ValueError) as e:  # JSONDecodeError is a ValueError
        raise InputError(f"bad node spec {args.node!r}: {e}")
    out, alpha, tau = sealing.absorb_node(cond, target, args.xi)
    _write(args.out, sz.enc_condition(out))
    report = {
        "command": "absorb",
        "alpha": fmt_ordinal(alpha),
        "tau": tau,
        "tau_in_filter_set": tau in cond.x.entry(args.xi),
        "absorbed": True,  # verified by absorb_node
        "valid": check_condition(out).ok,
    }
    return _emit(report, report["valid"] and report["tau_in_filter_set"])


def _load_path(args) -> aposet.PathDescriptor:
    if args.path:
        return sz.dec_path_descriptor(_load(args.path))
    return fixtures.uniform_path(args.fixture_prefix)


def cmd_surgery(args) -> int:
    path = _load_path(args)
    out = surgery.branch_surgery(path, args.n0)
    _write(args.out, sz.enc_condition(out))
    van = vanishing_levels(out.tree, "full")
    report = {
        "command": "surgery",
        "n0": args.n0,
        "eta": fmt_ordinal(out.eta),
        "vanishing": sorted(fmt_ordinal(h) for h in van.levels),
        "valid": True,  # check_condition verified by branch_surgery
        "extends_path": True,  # leq_s verified by branch_surgery
    }
    return _emit(report, True)


def cmd_derive_branches(args) -> int:
    path = _load_path(args)
    fam = aposet.derive_branches(path, args.xi)
    path.check_base()
    me = fam.me_report()
    x0 = path.base.x.x0
    samples = {str(n): sz.enc_node(fam.branch(n)) for n in x0.intersect(fam.coherent).members(12)}
    report = {
        "command": "derive-branches",
        "height": fmt_ordinal(fam.height),
        "coherent_head_set": x0.is_subset(fam.coherent),
        "mutually_exclusive": me.ok,
        "branches": samples,
    }
    return _emit(report, me.ok and report["coherent_head_set"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ascentlab",
                                 description="symbolic forcing-condition laboratory")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--x-sequence", default="default",
                       help="default or a JSON file with {x0, base}")
        p.add_argument("condition", help="condition JSON file")
        p.add_argument("-o", "--out", help="write the resulting condition here")

    p = sub.add_parser("validate", help="check a condition clause by clause")
    p.add_argument("--variant", choices=sorted(VARIANTS), default=None)
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("extend", help="one-step extension")
    p.add_argument("--beta", required=True, help="graft height, e.g. 2 or w1n0")
    p.add_argument("--label-base", type=int, default=0)
    common(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("amalgamate", help="limit lower bound of a described chain")
    p.add_argument("chain", help="chain JSON file")
    p.add_argument("-o", "--out")
    p.add_argument("--z-out", help="write the z union map here")
    p.set_defaults(fn=cmd_amalgamate)

    p = sub.add_parser("game", help="play the descending game")
    p.add_argument("--seed", type=int, default=0, help="seed of the random opponent")
    p.add_argument("--mu", required=True, help="run length, e.g. 6 or w1n4")
    p.add_argument("--opponent", choices=["onestep", "random"], default="onestep")
    p.add_argument("--xi", type=int, default=0)
    p.add_argument("-o", "--out", help="write the transcript here")
    p.set_defaults(fn=cmd_game)

    p = sub.add_parser("vlevels", help="vanishing levels of a condition's tree")
    p.add_argument("--mode", choices=["full", "homogeneous"], default="full")
    common(p)
    p.set_defaults(fn=cmd_vlevels)

    p = sub.add_parser("demo-bad-antichain", help="the naive poset's antichain")
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--pad", type=int, default=1, help="plain steps between bad ones")
    p.set_defaults(fn=cmd_demo_bad)

    p = sub.add_parser("seal", help="one sealing round for a triple")
    p.add_argument("--triple", default="identity", help="identity or transpose:a,b")
    p.add_argument("--triple-file", help="triple JSON file (overrides --triple)")
    p.add_argument("--xi", type=int, default=1)
    p.add_argument("--hit-steps", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_seal)

    p = sub.add_parser("absorb", help="absorb a finite node into the filter set")
    p.add_argument("--node", required=True, help="JSON list of entries, e.g. [5]")
    p.add_argument("--xi", type=int, default=1)
    common(p)
    p.set_defaults(fn=cmd_absorb)

    p = sub.add_parser("surgery", help="branch surgery over a path")
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--path", help="path descriptor JSON file")
    p.add_argument("--fixture-prefix", type=int, default=4)
    p.add_argument("-o", "--out")
    p.set_defaults(fn=cmd_surgery)

    p = sub.add_parser("derive-branches", help="cofinal branches along a path")
    p.add_argument("--xi", type=int, default=0)
    p.add_argument("--path", help="path descriptor JSON file")
    p.add_argument("--fixture-prefix", type=int, default=4)
    p.set_defaults(fn=cmd_derive_branches)

    return ap


RECOVERABLE = (Rejected, KeyError)


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    started = time.monotonic()
    try:
        # an X-sequence index, a label offset, a path length, demo sizes, hit steps
        for name in ("xi", "label_base", "fixture_prefix", "count", "pad", "hit_steps"):
            if getattr(args, name, 0) < 0:
                raise InputError(f"--{name.replace('_', '-')} must be a natural")
        # an antichain demonstration needs at least one pair
        if getattr(args, "count", 2) < 2:
            raise InputError("--count must be at least 2")
        code = args.fn(args)
    except RECOVERABLE as e:
        print(json.dumps({"command": args.cmd, "error": str(e)}, sort_keys=True))
        return 2
    finally:
        print(f"[{args.cmd}] {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
