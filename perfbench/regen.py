"""Rebuild the golden corpus from the program and print how it differs.

    python3 perfbench/regen.py           # print the diff; exit 1 if any
    python3 perfbench/regen.py --write   # print the diff, then freeze the new corpus

Run from the root of a checkout. The corpus is the cli input files, the
stdout and exit code of every cli operation, and a digest of the output of
every build operation. Nothing is written without --write.
"""

from __future__ import annotations

import argparse
import difflib
import json
import shutil
import subprocess
import sys

from workloads import (
    BUILD_DIGESTS, CLI_DIR, CLI_EXPECTED, HERE, SRC, build_groups, build_op,
    child_env, cli_inputs, digest,
)

# The cli operations. An entry with "contract" has no frozen stdout: the
# contract for malformed input is exit 2 with a one-object JSON error.
CLI_OPS = [
    {"name": "validate", "argv": ["validate", "cond.json"]},
    {"name": "extend", "argv": ["extend", "--beta", "1", "cond.json"]},
    {"name": "amalgamate", "argv": ["amalgamate", "chain.json"]},
    {"name": "game", "argv": ["game", "--mu", "w1n4", "--opponent", "onestep", "--xi", "0"]},
    # two more runs of the slowest subcommand, so that the p90 falls inside
    # the game runs rather than at the gap below them
    {"name": "game-random-3", "argv": ["game", "--mu", "w1n4", "--opponent", "random",
                                       "--seed", "3", "--xi", "1"]},
    {"name": "game-random-8", "argv": ["game", "--mu", "w1n4", "--opponent", "random",
                                       "--seed", "8", "--xi", "2"]},
    {"name": "vlevels", "argv": ["vlevels", "--mode", "full", "cond.json"]},
    {"name": "seal", "argv": ["seal", "--triple", "transpose:1,3", "--xi", "1", "cond.json"]},
    {"name": "absorb", "argv": ["absorb", "--node", "[5]", "--xi", "1", "cond.json"]},
    {"name": "surgery", "argv": ["surgery", "--n0", "2", "--path", "path.json"]},
    {"name": "derive-branches", "argv": ["derive-branches", "--path", "path.json", "--xi", "0"]},
    {"name": "demo-bad-antichain", "argv": ["demo-bad-antichain", "--count", "5"]},
    {"name": "validate-malformed", "argv": ["validate", "empty.json"]},
    {"name": "game-malformed", "argv": ["game", "--mu", "w4"], "contract": "error",
     "known_defect": "exits 1 with a traceback: OrdinalBoundError is not in cli.RECOVERABLE"},
]


def cli_corpus(workdir) -> dict:
    ops = []
    for spec in CLI_OPS:
        proc = subprocess.run([sys.executable, "-m", "ascentlab.cli", *spec["argv"]],
                              cwd=workdir, env=child_env(), capture_output=True,
                              text=True, timeout=300)
        entry = {"name": spec["name"], "argv": spec["argv"]}
        if spec.get("contract") == "error":
            entry.update(exit=2, stdout=None, known_defect=spec["known_defect"])
            print(f"# {spec['name']}: contract exit 2, observed exit {proc.returncode}")
        else:
            entry.update(exit=proc.returncode, stdout=proc.stdout)
        ops.append(entry)
    return {"ops": ops}


def build_corpus() -> dict:
    out = {}
    for keys, _ in build_groups():
        for key in keys:
            op = build_op(key)
            result = op.run()
            if op.check is not None and not op.check(result):
                raise SystemExit(f"build operation {key} misses its known answer")
            out[key] = digest(op.payload(result))
    return out


def as_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="freeze the rebuilt corpus")
    args = ap.parse_args(argv)
    if not (SRC / "ascentlab" / "__init__.py").is_file():
        print(f"error: no program at {SRC}/ascentlab", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    files = {CLI_DIR / name: text for name, text in cli_inputs().items()}
    workdir = HERE / "out" / "regen-cli"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for path, text in files.items():
        (workdir / path.name).write_text(text)
    files[CLI_EXPECTED] = as_text(cli_corpus(workdir))
    files[BUILD_DIGESTS] = as_text(build_corpus())

    changed = []
    for path, text in files.items():
        old = path.read_text() if path.is_file() else ""
        if old != text:
            changed.append(path)
            rel = path.relative_to(HERE.parent)
            sys.stdout.writelines(difflib.unified_diff(
                old.splitlines(True), text.splitlines(True), f"a/{rel}", f"b/{rel}"))
    print(f"# {len(changed)} of {len(files)} corpus files differ")
    if args.write:
        for path in changed:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(files[path])
        print(f"# wrote {len(changed)} files")
        return 0
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
