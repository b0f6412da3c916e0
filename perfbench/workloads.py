"""The benchmark's three workloads and their known answers.

- verify (reads): check_condition over a corpus whose verdicts the paper
  fixes; it bypasses every constructor.
- build (writes): a seeded stream of constructors, each output compared
  with a frozen digest; it bypasses serialisation and the CLI.
- cli (processes): every subcommand as a fresh process over frozen inputs,
  stdout compared byte for byte; the only workload that pays interpreter
  start, import, serialisation and the CLI's own re-verification.

Every function here imports ascentlab lazily, because the harness imports
the package afresh for each set-up it times, and calls the program through
module attributes, so that the tracer's wrappers see each call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden"
CLI_DIR = GOLDEN / "cli"
CLI_EXPECTED = GOLDEN / "cli_expected.json"
BUILD_DIGESTS = GOLDEN / "build_digests.json"


@dataclass
class Op:
    kind: str
    key: str
    run: Callable[[], Any]
    check: Optional[Callable[[Any], bool]]
    invalid: bool = False            # verify: the known verdict is "invalid"
    known_defect: str = ""           # a contract the program is known to break
    note: Optional[Callable[[Any], dict]] = None
    payload: Optional[Callable[[Any], Any]] = None   # build: what the digest covers
    inproc: Optional[Callable[[], Any]] = None   # cli: the same call in-process


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def random_tower(rng: random.Random, height: int):
    """`height` one-step extensions of the root, each grafting a random
    level below the top with a random label base."""
    from ascentlab import conditions
    from ascentlab.foundations import Ordinal
    c = conditions.root_condition()
    for _ in range(height):
        beta = Ordinal(0, rng.randrange(0, c.eta.n + 1))
        c = conditions.one_step_extension(c, beta, label_base=rng.randrange(3))
    return c


# -- verify ----------------------------------------------------------------------

# the scaling points of check_condition, with towers per pass; the tallest
# are a sixth of the mix, so that the p90 falls inside them, not at a gap
TOWERS = {8: 6, 16: 6, 32: 12}
TOWER_HEIGHTS = tuple(TOWERS)
AMALGAM_PREFIXES = (2, 3, 4, 5, 6)
SURGERY_PREFIXES = (3, 4, 5)
# X0 minus X1 below 16 under the default X-sequence: the points surgery may omit
SURGERY_POINTS = (0, 2, 6, 10, 14)
BAD_COUNT = 16                # bad extensions on the naive poset's path

VALID = (True, ())


def verdict(report) -> tuple[bool, tuple[str, ...]]:
    return report.ok, tuple(cid for cid, ok in report.clauses if not ok)


def verify_ops(seed: int) -> tuple[list[Op], list[str]]:
    from ascentlab import amalgam, aposet, conditions, fixtures, surgery
    from ascentlab.foundations import Ordinal

    def check_op(kind, key, cond, variant, expected):
        return Op(kind, key, lambda: conditions.check_condition(cond, variant),
                  lambda rep: verdict(rep) == expected, invalid=not expected[0])

    rng = random.Random(seed)
    ops = []
    for h, count in TOWERS.items():
        for i in range(count):
            ops.append(check_op(f"tower{h}", f"tower/h{h}/{i}",
                                random_tower(rng, h), conditions.S_X, VALID))
    for p in AMALGAM_PREFIXES:
        d, closed, off = rng.choice((1, 2)), rng.random() < 0.5, rng.randrange(5)
        cond, _ = amalgam.amalgamate(fixtures.uniform_chain(p, Ordinal(1, d), closed, off))
        ops.append(check_op("amalgam", f"amalgam/p{p}", cond, conditions.S_X, VALID))
    for p in SURGERY_PREFIXES:
        for n0 in rng.sample(SURGERY_POINTS, 2):
            cond = surgery.branch_surgery(fixtures.uniform_path(p), n0)
            ops.append(check_op("surgery", f"surgery/p{p}/n{n0}", cond, conditions.S_X, VALID))
    # the naive poset's bad path: each bad extension is a valid theta
    # condition whose top level is not mutually exclusive (clause C2 under sx)
    conds, bads = fixtures.bad_path_conditions(BAD_COUNT, pad=0)
    for i, cond in enumerate(conds[1:], 1):
        ops.append(check_op("bad_stheta", f"bad/{i}/stheta", cond, conditions.S_THETA, VALID))
        ops.append(check_op("bad_sx", f"bad/{i}/sx", cond, conditions.S_X, (False, ("C2",))))
    path = aposet.PathDescriptor(conds[-1])
    pairs = math.comb(len(bads), 2)
    ops.append(Op("antichain", "antichain",
                  lambda: aposet.check_antichain(path, aposet.THETA, bads, path.base.eta),
                  lambda rep: rep.all_incompatible and len(rep.pairs) == pairs))
    return ops, []


# -- build -----------------------------------------------------------------------

# the run-length scaling points, with runs per pass out of GAME_SEEDS opponents.
# All of the 8- and w1n6-runs, because the p50 falls among the former and the
# p90 among the latter, and a seed should not move either; fewer w2n2 runs
# than w1n6 runs, so that the p90 does not sit at the gap between the two.
GAME_PICKS = {"8": 16, "14": 8, "w1n4": 8, "w1n6": 16, "w2n2": 5}
GAME_SEEDS = 16


def build_groups() -> list[tuple[list[str], int]]:
    """The operation universe, as (keys, picks per pass) groups. A run draws
    its picks from each group by its seed; the golden digests cover every key."""
    groups = [([f"onestep/s{t}" for t in range(32)], 16),
              ([f"absorb/s{t}" for t in range(32)], 8)]
    for triple in ("identity", "transpose13"):
        groups.append(([f"seal/{triple}/h{h}/xi{xi}" for h in (2, 3, 4) for xi in (0, 1)], 2))
    for p in SURGERY_PREFIXES:
        groups.append(([f"surgery/p{p}/n{n0}" for n0 in SURGERY_POINTS], 2))
    for p in AMALGAM_PREFIXES:
        groups.append(([f"amalgam/p{p}/w1n{d}/{c}/o{o}" for d in (1, 2)
                        for c in ("open", "closed") for o in range(5)], 2))
    for mu, picks in GAME_PICKS.items():
        groups.append(([f"game/{mu}/s{t}" for t in range(GAME_SEEDS)], picks))
    return groups


def build_op(key: str) -> Op:
    """Inputs for one constructor call, built now; the call itself runs in
    `run`, and `payload` serialises its result for the digest."""
    from ascentlab import amalgam, conditions, fixtures, game, sealing, surgery
    from ascentlab import serialize as sz
    from ascentlab.cli import parse_ordinal
    from ascentlab.foundations import OMEGA_NAT, Ordinal
    from ascentlab.nodes import node

    kind, *parts = key.split("/")
    rng = random.Random(key)
    if kind == "onestep":
        cond = random_tower(rng, rng.randint(3, 6))
        beta = Ordinal(0, rng.randrange(cond.eta.n + 1))
        nu, base = rng.choice((0, 5, OMEGA_NAT)), rng.randrange(3)
        return Op(kind, key, lambda: conditions.one_step_extension(cond, beta, nu, label_base=base),
                  None, payload=sz.enc_condition)
    if kind == "absorb":
        cond = random_tower(rng, rng.randint(1, 4))
        target = node(*[rng.randrange(14) for _ in range(rng.randrange(1, cond.eta.n + 1))])
        xi = rng.randrange(3)
        return Op(kind, key, lambda: sealing.absorb_node(cond, target, xi), None,
                  payload=lambda out: [sz.enc_condition(out[0]), sz.enc_ordinal(out[1]), out[2]])
    if kind == "seal":
        triple_kind, h, xi = parts[0], int(parts[1][1:]), int(parts[2][2:])
        cond = fixtures.tower(h)
        triple = (sealing.identity_triple(cond) if triple_kind == "identity"
                  else sealing.transposition_triple(cond, 1, 3))

        def seal():
            # the oracle hit: one plain step over the intermediate condition
            mid = sealing.build_intermediate(cond, triple)
            hit = conditions.one_step_extension(mid, mid.eta)
            return sealing.seal_step(cond, triple, xi, sealing.OracleHit(hit, hit.eta))
        return Op(kind, key, seal, None, payload=lambda out: [sz.enc_condition(out[0]), sz.enc_ordinal(out[1])])
    if kind == "surgery":
        path, n0 = fixtures.uniform_path(int(parts[0][1:])), int(parts[1][1:])
        return Op(kind, key, lambda: surgery.branch_surgery(path, n0), None,
                  payload=sz.enc_condition)
    if kind == "amalgam":
        p, delta, closed, off = (int(parts[0][1:]), parse_ordinal(parts[1]),
                                 parts[2] == "closed", int(parts[3][1:]))
        chain = fixtures.uniform_chain(p, delta, closed, off)
        return Op(kind, key, lambda: amalgam.amalgamate(chain), None,
                  payload=lambda out: [sz.enc_condition(out[0]), sz.enc_zmap(out[1])])
    if kind == "game":
        mu, s = parse_ordinal(parts[0]), int(parts[1][1:])

        def play():
            t = game.play_game(mu, game.random_opponent(s), s % 3)
            t0 = time.perf_counter()
            inv = game.check_run_invariants(t)
            return t, inv, time.perf_counter() - t0
        # the known answer: II completes every run and the invariants hold
        return Op(f"game/{parts[0]}", key, play,
                  lambda out: out[0].verdict == "II_completed" and out[1].ok,
                  payload=lambda out: [sz.enc_transcript(out[0]), list(out[1].failures)],
                  note=lambda out: {"moves": len(out[0].moves), "inv_s": out[2]})
    raise ValueError(f"unknown build operation {key!r}")


def build_ops(seed: int) -> tuple[list[Op], list[str]]:
    golden = json.loads(BUILD_DIGESTS.read_text())
    rng = random.Random(seed)
    ops = []
    for keys, picks in build_groups():
        for key in rng.sample(keys, picks):
            op = build_op(key)
            known, want = op.check, golden.get(key)
            op.check = (lambda out, op=op, known=known, want=want:
                        (known is None or known(out)) and digest(op.payload(out)) == want)
            ops.append(op)
    return ops, []


# -- cli -------------------------------------------------------------------------

TIMING_LINE = re.compile(r"^\[[\w-]+\] (\d+\.\d+)s$", re.M)


def cli_inputs() -> dict[str, str]:
    """The frozen cli input files, as the program builds them today."""
    from ascentlab import fixtures
    from ascentlab import serialize as sz
    from ascentlab.foundations import Ordinal
    objs = {"cond.json": sz.enc_condition(fixtures.tower(3)),
            "chain.json": sz.enc_chain(fixtures.uniform_chain(3, Ordinal(1, 2))),
            "path.json": sz.enc_path_descriptor(fixtures.uniform_path(4)),
            "empty.json": {}}
    return {name: json.dumps(obj, indent=1, sort_keys=True) + "\n" for name, obj in objs.items()}


def cli_result_ok(spec: dict, result) -> bool:
    code, stdout, _ = result
    if code != spec["exit"]:
        return False
    if spec["stdout"] is not None:
        return stdout == spec["stdout"]
    # malformed input whose message is not frozen: one JSON error object
    try:
        rep = json.loads(stdout)
    except ValueError:
        return False
    return (isinstance(rep, dict) and rep.get("command") == spec["argv"][0]
            and isinstance(rep.get("error"), str))


def run_cli_process(argv: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run([sys.executable, "-m", "ascentlab.cli", *argv], cwd=CLI_DIR,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def run_cli_inproc(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in this process, with the exit code the interpreter would give."""
    from ascentlab import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(CLI_DIR), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:   # an uncaught error: the process would exit 1
            code = 1
    return code, out.getvalue(), err.getvalue()


def compute_seconds(result) -> float:
    m = TIMING_LINE.search(result[2])
    return float(m.group(1)) if m else 0.0


def cli_ops(seed: int) -> tuple[list[Op], list[str]]:
    """The frozen operations; set-up rebuilds their input files and reports
    any that the program no longer reproduces byte for byte. The seed only
    orders each pass."""
    drift = [f"frozen input {name} differs from what the program builds"
             for name, text in cli_inputs().items()
             if not (CLI_DIR / name).is_file() or (CLI_DIR / name).read_text() != text]
    specs = json.loads(CLI_EXPECTED.read_text())["ops"]
    ops = []
    for spec in specs:
        argv = spec["argv"]
        ops.append(Op(spec["name"], spec["name"],
                      lambda argv=argv: run_cli_process(argv),
                      lambda res, spec=spec: cli_result_ok(spec, res),
                      known_defect=spec.get("known_defect", ""),
                      note=lambda res: {"compute_s": compute_seconds(res)},
                      inproc=lambda argv=argv: run_cli_inproc(argv)))
    return ops, drift


WORKLOADS = {"verify": verify_ops, "build": build_ops, "cli": cli_ops}
