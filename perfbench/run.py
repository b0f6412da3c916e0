"""Run one workload of the ascentlab benchmark and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ./src, never
from an installed copy. With --trace 0 the run prints the end-to-end metrics,
with --trace 1 the per-layer ones (from one traced pass, plus the untraced
passes that the scaling and share metrics need). Every time and rate is
reported at a nominal host speed (see hostspeed.py); the unscaled values are
printed as a note. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import random
import resource
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from hostspeed import NOMINAL_MS, HostSpeed
from metrics import (
    at_speed, loglog_slope, nearest_ancestor, percentile, ratio, samples_beyond, self_times,
)
from tracer import LAYERS, Tracer
from workloads import SRC, TOWER_HEIGHTS, WORKLOADS, child_env

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

MIN_OPS = 100          # so that at least ten samples lie beyond the p90
SETUP_REPEATS = 5      # setup_s is the median of these
IMPORT_PROBES = 20     # fresh processes behind import_ms, spread over the run

E2E_METRICS = [
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "ops/s"),
    ("success_ratio", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("import_ms", "ms"),
]

# metric -> span names whose calls it counts, where the name alone does not say
CALL_SPANS = {
    "foundations.upset_algebra.calls": tuple(
        f"foundations.UPSet.{m}" for m in ("union", "intersect", "difference", "complement")),
    "ascent.level_make.calls": ("ascent.AscentLevel.make",),
    "ascent.restrict.calls": ("ascent.AscentLevel.restrict",),
}
CALL_METRICS = [
    "foundations.upset_algebra.calls", "foundations.filter_classify.calls",
    "ascent.supp.calls", "ascent.refine.calls", "ascent.level_make.calls",
    "ascent.restrict.calls", "ascent.me_family.calls", "ascent.me_cross.calls",
    "trees.check_tree.calls", "trees.vanishing_levels.calls", "trees.tree_contains.calls",
    "conditions.check_condition.calls", "conditions.one_step_extension.calls",
    "conditions.leq_s.calls", "amalgam.amalgamate.calls", "game.play_game.calls",
    "aposet.check_antichain.calls", "sealing.seal_step.calls",
    "sealing.absorb_node.calls", "surgery.branch_surgery.calls",
]
SELF_METRICS = ["ascent.supp.self_s", "conditions.check_condition.self_s",
                "amalgam.amalgamate.self_s", "game.check_run_invariants.self_s"]
DERIVED_METRICS = [
    ("ascent.restrict.same_height_ratio", "ratio"),
    ("conditions.c2.supp_per_check", "calls/check"),
    ("conditions.c2.useful_ratio", "ratio"),
    ("conditions.check_height_exponent", "exponent"),
    ("conditions.invalid_share", "ratio"),
    ("game.invariants.leq_s_per_move", "calls/move"),
    ("game.invariants_length_exponent", "exponent"),
    ("game.op_share", "ratio"),
    ("cli.compute_ms", "ms"),
    ("cli.startup_ms", "ms"),
    ("cli.startup_share", "ratio"),
    ("cli.reverify.check_condition_calls", "count"),
    ("trace.overhead_ratio", "ratio"),
]
LAYER_METRICS = ([(f"{layer}.calls", "count") for layer in LAYERS]
                 + [(f"{layer}.self_s", "s") for layer in LAYERS]
                 + [(m, "count") for m in CALL_METRICS]
                 + [(m, "s") for m in SELF_METRICS]
                 + DERIVED_METRICS)

# constructors after which a cmd_* handler's check_condition is a re-verification
CONSTRUCTORS = frozenset({
    "conditions.one_step_extension", "amalgam.amalgamate", "sealing.seal_step",
    "sealing.absorb_node", "surgery.branch_surgery", "game.play_game"})


@dataclass(slots=True)
class Record:
    op: int            # index into the workload's operations
    latency: float     # seconds
    ok: bool
    note: dict


def fresh_import() -> None:
    """Drop every ascentlab module so that the next import runs it again."""
    for name in [n for n in sys.modules if n == "ascentlab" or n.startswith("ascentlab.")]:
        del sys.modules[name]
    importlib.import_module("ascentlab.cli")


def timed_setup(workload: str, seed: int, host: HostSpeed):
    """Import plus input construction, SETUP_REPEATS times, each after a
    reference sample; the last inputs are the ones measured. `problems` are
    corpus drifts that make a run incorrect."""
    times = []
    for _ in range(SETUP_REPEATS):
        host.sample()
        t0 = time.perf_counter()
        fresh_import()
        ops, problems = WORKLOADS[workload](seed)
        times.append(time.perf_counter() - t0)
    return ops, problems, median(times)


def run_op(index: int, op, call, tracer: Tracer | None = None) -> Record:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = call()
        else:
            tracer.current_op = index
            with tracer.span(f"op:{op.kind}"):
                out = call()
    except Exception as e:
        return Record(index, time.perf_counter() - t0, False, {"error": repr(e)})
    latency = time.perf_counter() - t0
    with tracer.paused() if tracer is not None else contextlib.nullcontext():
        try:
            ok = bool(op.check(out))
            note = op.note(out) if op.note else {}
        except Exception as e:
            ok, note = False, {"error": f"while checking: {e!r}"}
    return Record(index, latency, ok, note)


def one_pass(ops, order, inproc=False, tracer=None, between=None) -> tuple[list[Record], float]:
    """Every operation once; returns the records and the pass throughput,
    operations over the time spent inside them. `between` runs before each
    operation, outside its time."""
    recs = []
    for i in order:
        if between is not None:
            between()
        recs.append(run_op(i, ops[i], ops[i].inproc if inproc else ops[i].run, tracer))
    return recs, len(recs) / sum(r.latency for r in recs)


def run_passes(ops, rng: random.Random, seconds: float, host: HostSpeed, probes: int = 0):
    """Whole passes over the mix, each in a seeded order, until `seconds`
    have passed and at least MIN_OPS operations ran. Between operations,
    `host` takes its reference samples; with `probes`, that many fresh import
    processes run, about every seconds/probes, so that import_ms samples the
    whole run, not one moment."""
    recs, rates, imports = [], [], []
    start = time.perf_counter()
    every = seconds / probes if probes else 0.0
    last = -float("inf")

    def between():
        nonlocal last
        host.maybe_sample()
        if len(imports) < probes and time.perf_counter() - last >= every:
            imports.append(import_probe())
            last = time.perf_counter()

    while True:
        order = list(range(len(ops)))
        rng.shuffle(order)
        got, rate = one_pass(ops, order, between=between)
        recs.extend(got)
        rates.append(rate)
        if time.perf_counter() - start >= seconds and len(recs) >= MIN_OPS:
            return recs, rates, imports


def import_probe() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ascentlab.cli"], env=child_env(),
                   check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024   # Linux reports KiB


def kind_summary(ops, recs) -> None:
    by_kind = defaultdict(list)
    for r in recs:
        by_kind[ops[r.op].kind].append(r.latency)
    print("# median ms by kind (count): " + ", ".join(
        f"{k} {median(v) * 1e3:.2f} ({len(v)})" for k, v in sorted(by_kind.items())))


def end_to_end(workload, recs, rates, imports, setup_s) -> dict:
    lat = [r.latency for r in recs]
    print(f"# {len(lat)} operations; {samples_beyond(len(lat), 90)} lie beyond the p90; "
          f"{len(rates)} passes; import_ms from {len(imports)} fresh processes")
    return {
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "throughput_ops_s": median(rates),
        "success_ratio": 1 - sum(not r.ok for r in recs) / len(recs),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workload),
        "import_ms": median(imports) * 1e3,
    }


def layer_metrics(workload, ops, recs, tracer, traced_rate, base_rate):
    """Per-layer values and the names that have no base in this workload."""
    names, extra, parents = tracer.span_names(), tracer.extra, tracer.parent
    own = self_times(tracer.start, tracer.end, parents)
    calls, busy = Counter(names), defaultdict(float)
    for name, t in zip(names, own):
        busy[name] += t
    m, na = {}, set()
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(c for n, c in calls.items() if n.startswith(layer + "."))
        m[f"{layer}.self_s"] = sum(t for n, t in busy.items() if n.startswith(layer + "."))
    for metric in CALL_METRICS:
        m[metric] = sum(calls[s] for s in CALL_SPANS.get(metric, (metric[:-len(".calls")],)))
    for metric in SELF_METRICS:
        m[metric] = busy[metric[:-len(".self_s")]]

    def share(key, num, den):
        m[key] = ratio(num, den)
        if not den:
            na.add(key)

    restricts = [i for i, n in enumerate(names) if n == "ascent.AscentLevel.restrict"]
    share("ascent.restrict.same_height_ratio", sum(bool(extra[i]) for i in restricts), len(restricts))

    checks = [i for i, n in enumerate(names) if n == "conditions.check_condition"]
    under_check = nearest_ancestor(names, parents, {"conditions.check_condition"})
    supp_in_check = sum(1 for i, n in enumerate(names) if n == "ascent.supp" and under_check[i] >= 0)
    share("conditions.c2.supp_per_check", supp_in_check, len(checks))
    share("conditions.c2.useful_ratio", sum(extra[i] - 1 for i in checks), supp_in_check)
    if workload == "verify":   # the only workload with known verdicts
        share("conditions.invalid_share", sum(ops[r.op].invalid for r in recs), len(recs))
    else:
        share("conditions.invalid_share", 0, 0)

    heights = []
    for h in TOWER_HEIGHTS:
        t = [r.latency for r in recs if ops[r.op].kind == f"tower{h}"]
        if t:
            heights.append((h, median(t)))
    m["conditions.check_height_exponent"] = loglog_slope(heights)
    if len(heights) < 2:
        na.add("conditions.check_height_exponent")
    else:
        print("# check_condition scaling (height: median ms): "
              + ", ".join(f"{h}: {t * 1e3:.2f}" for h, t in heights))

    invs = [i for i, n in enumerate(names) if n == "game.check_run_invariants"]
    under_inv = nearest_ancestor(names, parents, {"game.check_run_invariants"})
    leq_in_inv = sum(1 for i, n in enumerate(names) if n == "conditions.leq_s" and under_inv[i] >= 0)
    share("game.invariants.leq_s_per_move", leq_in_inv, sum(extra[i] for i in invs))

    by_length = defaultdict(list)
    for r in recs:
        if "inv_s" in r.note:
            by_length[ops[r.op].kind].append(r.note)
    points = [(median(n["moves"] for n in notes), median(n["inv_s"] for n in notes))
              for notes in by_length.values()]
    m["game.invariants_length_exponent"] = loglog_slope(points)
    if len(points) < 2:
        na.add("game.invariants_length_exponent")
    else:
        print("# check_run_invariants scaling (moves: median ms): "
              + ", ".join(f"{x:g}: {y * 1e3:.2f}" for x, y in sorted(points)))
    game_s = sum(r.latency for r in recs if ops[r.op].kind.startswith("game/"))
    share("game.op_share", game_s, sum(r.latency for r in recs) if game_s else 0)

    timed = [(r.latency, r.note["compute_s"]) for r in recs if "compute_s" in r.note]
    m["cli.compute_ms"] = median(c for _, c in timed) * 1e3 if timed else 0.0
    m["cli.startup_ms"] = median(w - c for w, c in timed) * 1e3 if timed else 0.0
    if not timed:
        na.update(("cli.compute_ms", "cli.startup_ms"))
    share("cli.startup_share", sum(w - c for w, c in timed), sum(w for w, _ in timed))

    # a handler's check_condition after its constructor returned re-verifies
    under_cmd = nearest_ancestor(names, parents, {n for n in calls if n.startswith("cli.cmd_")})
    built = {}
    for i, (name, parent) in enumerate(zip(names, parents)):
        if name in CONSTRUCTORS and parent >= 0 and names[parent].startswith("cli.cmd_"):
            built[parent] = max(built.get(parent, 0.0), tracer.end[i])
    m["cli.reverify.check_condition_calls"] = sum(
        1 for i in checks if under_cmd[i] in built and tracer.start[i] >= built[under_cmd[i]])

    m["trace.overhead_ratio"] = traced_rate / base_rate
    return m, na


def emit(values: dict, units: list, na=frozenset()) -> dict:
    for name, unit in units:
        tag = "  (n/a: no base in this workload)" if name in na else ""
        print(f"{name:<40} {values[name]:>16.6g} {unit}{tag}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ascentlab" / "__init__.py").is_file():
        print(f"error: no program at {SRC}/ascentlab; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    host = HostSpeed()
    ops, problems, setup_s = timed_setup(args.workload, args.seed, host)
    for problem in problems:
        print(f"# {problem}", file=sys.stderr)
    rng = random.Random(args.seed)
    recs, rates, imports = run_passes(ops, rng, args.seconds, host,
                                      probes=0 if args.trace else IMPORT_PROBES)
    print(f"# workload {args.workload}, seed {args.seed}: {len(ops)} operations per pass; "
          "waiting time: none to report (one thread, no queues)")
    kind_summary(ops, recs)
    speed = host.factor()
    print(f"# host reference: median {host.median_ms():.4f} ms over {len(host.samples)} samples; "
          f"times below are scaled by {NOMINAL_MS} / that = {speed:.4f} (rates divided by it)")

    if args.trace:
        order = list(range(len(ops)))
        rng.shuffle(order)
        inproc = args.workload == "cli"
        base_recs, base_rate = (one_pass(ops, order, inproc=True) if inproc
                                else (recs, median(rates)))
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            traced, traced_rate = one_pass(ops, order, inproc=inproc, tracer=tracer)
        finally:
            tracer.active = False
            tracer.restore()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz")
        print(f"# {len(tracer)} spans from one traced pass")
        values, na = layer_metrics(args.workload, ops, recs, tracer, traced_rate, base_rate)
        metrics = emit(at_speed(values, LAYER_METRICS, speed), LAYER_METRICS, na)
        recs = recs + (base_recs if inproc else []) + traced
    else:
        raw = end_to_end(args.workload, recs, rates, imports, setup_s)
        print("# unscaled: " + ", ".join(f"{name} {raw[name]:.6g} {unit}" for name, unit in E2E_METRICS))
        metrics = emit(at_speed(raw, E2E_METRICS, speed), E2E_METRICS)

    failed = [r for r in recs if not r.ok]
    unknown = False
    for i in sorted({r.op for r in failed}):
        if ops[i].known_defect:
            print(f"# known defect, counted as failed: {ops[i].key}: {ops[i].known_defect}")
        else:
            unknown = True
            note = next(r.note for r in failed if r.op == i)
            print(f"# FAILED {ops[i].key}: "
                  f"{note.get('error', 'result differs from the known answer')}", file=sys.stderr)
    print(f"# failed_ratio {len(failed) / len(recs):.6f} ({len(failed)} of {len(recs)})")
    print(json.dumps({"correct": not unknown and not problems, "attempted": len(recs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
