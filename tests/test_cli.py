import json
import os
import subprocess
import sys

import pytest

from ascentlab import serialize as sz
from ascentlab.cli import main, parse_ordinal
from ascentlab.foundations import EMPTY_SET, EVENS, FULL_SET, ODDS, Ordinal
from ascentlab.fixtures import tower, uniform_chain, uniform_path


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def unlinked_path_file(tmp_path) -> str:
    """The standard path with one ramp intercept of its level 2 moved by 1,
    so that heights 1 and 2 are no longer linked at index 0."""
    d = sz.enc_path_descriptor(uniform_path())
    d["base"]["path"]["levels"][2]["level"]["cells"][0]["template"]["final"][0]["ramp"]["b"] += 1
    p = tmp_path / "unlinked.json"
    p.write_text(json.dumps(d))
    return str(p)


def bad_triple_file(tmp_path, field: str, value) -> str:
    """A sealing triple for tower(2) with Y the odds and pi the order shift on
    them, with `value` set as its one map piece's `field`, as pi's `points`,
    or as the whole `pi`."""
    from ascentlab.ascent import fill_level, level_reindex, order_iso
    from ascentlab.foundations import ODDS
    c = tower(2)
    pi = order_iso(ODDS, ODDS, skip=1)
    cells, exc = level_reindex(c.top, pi)
    piece = {"start": pi.pieces[0].ap.start, "step": pi.pieces[0].ap.step,
             "a": pi.pieces[0].a, "b": pi.pieces[0].b}
    d = {"format": sz.FORMAT, "x_family": sz.LEVEL.enc(fill_level(c.eta, cells, exc, c.top)),
         "y": sz.UPSET.enc(ODDS), "pi": {"pieces": [piece], "points": []}}
    if field == "pi":
        d["pi"] = value
    elif field == "points":
        d["pi"]["points"] = value
    else:
        piece[field] = value
    p = tmp_path / "triple.json"
    p.write_text(json.dumps(d))
    return str(p)


def set_at(keys, value):
    """An edit of a JSON document: the entry reached through `keys` set to `value`."""
    def edit(d):
        for k in keys[:-1]:
            d = d[k]
        d[keys[-1]] = value
    return edit


# the template of the first cell of the tower(2) condition's level at height 1
TEMPLATE = ("path", "levels", 1, "level", "cells", 0, "template")
# the exception labels of the standard chain's first tail scheme
SCHEME_LABELS = ("tail", "schemes", 0, "exception_labels")
LABELS_AT = "chain.tail.schemes[0].exception_labels"
NOT_AN_INDEX = "expected an object keyed by indices (ASCII digits, no leading zero), got the key"
# the exceptions of the tower(2) condition's level at height 1, and nodes there
EXCEPTIONS = ("path", "levels", 1, "level", "exceptions")
NODE_0, NODE_2 = ({"blocks": [], "final": [{"const": c}]} for c in (0, 2))


def repeated_z_entry(const=None):
    """An edit of a chain: the first entry of member 0's z-map listed twice,
    the copy's last entry set to `const` when given."""
    def edit(d):
        entries = d["members"][0]["z"]["entries"]
        copy = json.loads(json.dumps(entries[0]))
        if const is not None:
            copy["node"]["final"][-1] = {"const": const}
        entries.insert(1, copy)
    return edit


class RawJSON:
    """JSON text that `edited_input_file` writes in place of the entry set
    to it: text that no dict encodes, such as a repeated key."""

    def __init__(self, text: str) -> None:
        self.text = text


def edited_input_file(tmp_path, cmd: str, edit) -> str:
    """The encoding after `edit` of the input `cmd` reads: the standard
    amalgamation chain for amalgamate, the standard path descriptor of height
    4 for surgery and derive-branches, the tower(2) condition otherwise."""
    d = sz.enc_chain(uniform_chain(3, Ordinal(1, 2))) if cmd == "amalgamate" \
        else sz.enc_path_descriptor(uniform_path(4)) if cmd in ("surgery", "derive-branches") \
        else sz.enc_condition(tower(2))
    edit(d)
    raws = []
    text = json.dumps(d, default=lambda raw: raws.append(raw.text) or f"\0{len(raws) - 1}")
    for i, raw in enumerate(raws):
        text = text.replace(json.dumps(f"\0{i}"), raw)
    p = tmp_path / "edited.json"
    p.write_text(text)
    return str(p)


@pytest.fixture()
def cond_file(tmp_path):
    p = tmp_path / "cond.json"
    p.write_text(json.dumps(sz.enc_condition(tower(2))))
    return str(p)


def test_parse_ordinal_forms():
    assert parse_ordinal("5") == Ordinal(0, 5)
    assert parse_ordinal("w1n4") == Ordinal(1, 4)
    assert parse_ordinal("w2") == Ordinal(2, 0)


def test_validate_ok(cond_file, capsys):
    code, rep = run_cli(["validate", cond_file], capsys)
    assert code == 0
    assert rep["clauses"] == {"C1": True, "C2": True, "C3": True, "C4": True}


def test_validate_failing_variant(tmp_path, capsys):
    from ascentlab.conditions import make_bad_extension
    from ascentlab.fixtures import tower as mk
    bad = make_bad_extension(mk(1, "stheta"))
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(sz.enc_condition(bad)))
    code, rep = run_cli(["validate", "--variant", "sx", str(p)], capsys)
    assert code == 1
    assert not rep["clauses"]["C2"]
    assert any("exclusivity" in v or "exclusive" in v for v in rep["violations"])


def test_malformed_input_exit_2(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{\"format\": 99}")
    code = main(["validate", str(p)])
    assert code == 2


def test_ordinal_beyond_bound_exit_2(capsys):
    code, rep = run_cli(["game", "--mu", "w4"], capsys)
    assert code == 2
    assert rep["command"] == "game"
    assert "exceeds" in rep["error"]


def test_extend_non_exclusive_top_exit_2(tmp_path, capsys):
    """A naive-poset bad extension relabelled sx: its top's members 0 and 1
    split only at the top coordinate, so the one-step's new top is not
    exclusive and extend reports the one-step check, not a traceback."""
    from ascentlab.conditions import Condition
    from ascentlab.fixtures import bad_path_conditions
    c = bad_path_conditions(3, pad=0)[0][1]
    p = tmp_path / "bad_sx.json"
    p.write_text(json.dumps(sz.enc_condition(Condition(c.tree, c.path, "sx", c.x))))
    code = main(["extend", "--beta", "0", str(p)])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    rep = json.loads(out)
    assert rep["command"] == "extend"
    assert rep["error"].startswith("one-step produced a non-exclusive family")


@pytest.mark.parametrize("argv", [
    ["game", "--mu", "w1n4", "--xi", "-1"],
    ["seal", "--xi", "-1"],
    ["absorb", "--node", "[5]", "--xi", "-1"],
    ["derive-branches", "--xi", "-1"],
    ["extend", "--beta", "1", "--label-base", "-1"],
    pytest.param(["seal", "--hit-steps", "-1"], id="seal-hit-steps"),
    pytest.param(["surgery", "--n0", "2", "--fixture-prefix", "-1"], id="surgery-fixture-prefix"),
    pytest.param(["derive-branches", "--fixture-prefix", "-1"], id="derive-branches-fixture-prefix"),
    pytest.param(["demo-bad-antichain", "--count", "-1"], id="demo-bad-antichain-count"),
    pytest.param(["demo-bad-antichain", "--pad", "-1"], id="demo-bad-antichain-pad"),
], ids=lambda argv: argv[0])
def test_negative_natural_exit_2(argv, cond_file, capsys):
    flag = argv[-2]
    if argv[0] in ("seal", "absorb", "extend"):
        argv = argv + [cond_file]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    assert json.loads(out) == {"command": argv[0], "error": f"{flag} must be a natural"}


def own_x(x0, base: int):
    """An edit of a condition: its own X-sequence set to (x0, base)."""
    return set_at(("x",), {"x0": sz.UPSET.enc(x0), "base": base})


SEAL = ["seal", "--triple", "transpose:1,3", "--xi", "1"]


@pytest.mark.parametrize("argv, error", [
    (["extend", "--beta", "1", "--nu", "abc"], "unrecognized arguments: --nu"),
    (["extend", "--beta", "1", "--nu", "-3"], "unrecognized arguments: --nu"),
    (["absorb", "--node", '["x"]'], '["x"]'),
    (["absorb", "--node", "[1,2,3,4,5,6]"], "not in the tree"),
    (["demo-bad-antichain", "--count", "0"], "--count must be at least 2"),
    (["demo-bad-antichain", "--count", "1"], "--count must be at least 2"),
    (["derive-branches", "--path"], "heights 1,2 not linked at index 0"),
    (["surgery", "--n0", "2", "--path"], "heights 1,2 not linked at index 0"),
    (["seal", "--triple-file", ("b", -1)], "pi.pieces[0].b: expected an int >= 0, got -1"),
    (["seal", "--triple-file", ("start", -1)], "pi.pieces[0].start: expected an int >= 0"),
    (["seal", "--triple-file", ("step", 0)], "pi.pieces[0].step: expected an int >= 1, got 0"),
    (["seal", "--triple-file", ("a", "x")], "pi.pieces[0].a: expected an int, got 'x'"),
    (["seal", "--triple-file", ("a", 0)], "triple fails its requirements"),
    (["seal", "--triple-file", ("pi", [1])], "pi: expected an object, got [1]"),
    (["seal", "--triple-file", ("points", [["x", 3]])],
     "pi.points[0]: expected a pair of ints >= 0, got ['x', 3]"),
    (["seal", "--triple-file", ("points", [[1]])], "pi.points[0]: expected a pair of ints >= 0"),
    (["validate", set_at(("tree", "height"), {"w": 0, "n": -1})],
     "tree.height.n: expected an int >= 0, got -1"),
    (["validate", set_at(("tree", "height"), {"w": "x", "n": 0})],
     "tree.height.w: expected an int >= 0, got 'x'"),
    (["validate", set_at(("tree", "height"), {"w": None, "n": 0})],
     "tree.height.w: expected an int >= 0, got None"),
    (["validate", set_at(("path", "levels", 1, "level", "cells", 0, "start"), "x")],
     "path.levels[1].level.cells[0].start: expected an int >= 0, got 'x'"),
    (["validate", set_at(("tree", "explicit"), 5)], "tree.explicit: expected a list, got 5"),
    (["validate", set_at(("path", "levels", 1, "level"), [1])],
     "path.levels[1].level: expected an object, got [1]"),
    (["validate", set_at(TEMPLATE + ("blocks",), 5)],
     "path.levels[1].level.cells[0].template.blocks: expected a list, got 5"),
    (["validate", set_at(TEMPLATE + ("final", 0), {"const": "x"})],
     "path.levels[1].level.cells[0].template.final[0].const: expected an int, got 'x'"),
    (["validate", set_at(TEMPLATE + ("final", 0), {"ramp": {"a": 0, "b": 1}})],
     "path.levels[1].level.cells[0].template.final[0].ramp.a: expected an int >= 1, got 0"),
    (["validate", set_at(TEMPLATE + ("blocks",), [{"prefix": [], "tail": []}])],
     "path.levels[1].level.cells[0].template.blocks[0].tail: expected a nonempty list"),
    (["validate", set_at(("x",), [1])], "x: expected an object, got [1]"),
    (["amalgamate", set_at(("tail", "schemes", 0, "cell_entries"), 5)],
     "chain.tail.schemes[0].cell_entries: expected a list, got 5"),
    (["amalgamate", set_at(("members",), 3)], "chain.members: expected a list, got 3"),
    (["amalgamate", set_at(("tail", "z_tokens"), [["bogus"]])],
     "chain.tail.z_tokens[0]: expected [\"last\"] or [\"const\", int], got ['bogus']"),
    (["amalgamate", set_at(("members", 0, "z"), 5)], "chain.members[0].z: expected an object, got 5"),
    (["amalgamate", set_at(("members", 0, "z", "closed_hi"), 1)],
     "chain.members[0].z.closed_hi: expected a bool, got 1"),
    (["amalgamate", set_at(("members", 0, "z", "cells"), [5])],
     "chain.members[0].z.cells[0]: expected an object, got 5"),
    (["amalgamate", set_at(("members", 0, "z", "entries"), {})],
     "chain.members[0].z.entries: expected a list, got {}"),
    (["amalgamate", set_at(("members", 0, "z", "lo"), None)],
     "chain.members[0].z.lo: expected an object, got None"),
    (["amalgamate", set_at(("members", 0, "beta"), 3)], "chain.members[0].beta: expected an object, got 3"),
    (["amalgamate", set_at(("members", 0, "condition"), [])], "unknown condition format"),
    (["amalgamate", set_at(SCHEME_LABELS, [1])], f"{LABELS_AT}: expected an object, got [1]"),
    (["amalgamate", set_at(SCHEME_LABELS, "x")], f"{LABELS_AT}: expected an object, got 'x'"),
    (["amalgamate", set_at(SCHEME_LABELS, 5)], f"{LABELS_AT}: expected an object, got 5"),
    (["amalgamate", set_at(SCHEME_LABELS, {"a": 2})], f"{LABELS_AT}: expected an object keyed by"),
    # one spelling per index: "01" and the Arabic-Indic digit one were read as 1
    (["amalgamate", set_at(SCHEME_LABELS, {"01": 2})], f"{LABELS_AT}: {NOT_AN_INDEX} '01'"),
    (["amalgamate", set_at(SCHEME_LABELS, {"\u0661": 2})], f"{LABELS_AT}: {NOT_AN_INDEX} '\u0661'"),
    (["validate", set_at(EXCEPTIONS, {"1": NODE_2, "01": NODE_0})],
     f"path.levels[1].level.exceptions: {NOT_AN_INDEX} '01'"),
    (["validate", set_at(EXCEPTIONS, {"\u0661": NODE_0})],
     f"path.levels[1].level.exceptions: {NOT_AN_INDEX} '\u0661'"),
    (["amalgamate", set_at(SCHEME_LABELS, {"0": "2"})],
     f"{LABELS_AT}.0: expected an int, got '2'"),
    # the decoder kept the last entry of a key, `ZMap.at` answers with the
    # first: the copy valued 5 failed z-coherence, the identical copy passed
    (["amalgamate", repeated_z_entry(5)], "chain.members[0].z.entries[1].key: repeated key w"),
    (["amalgamate", repeated_z_entry()], "chain.members[0].z.entries[1].key: repeated key w"),
    # an X-sequence outside profile s3 is refused when it is decoded
    (["validate", own_x(EVENS, 0)], "tail base must be >= 2"),
    (["extend", "--beta", "1", own_x(EVENS, 0)], "tail base must be >= 2"),
    (SEAL + [own_x(EVENS, 0)], "tail base must be >= 2"),
    (["absorb", "--node", "[5]", "--xi", "1", own_x(EVENS, 0)], "tail base must be >= 2"),
    (SEAL + [own_x(EVENS, 1)], "tail base must be >= 2"),
    (["validate", own_x(FULL_SET, 4)], "omega minus X_0 must be infinite"),
    (["validate", own_x(ODDS, 4)], "X_1 is not a subset of X_0"),
    (["validate", own_x(EMPTY_SET, 4)], "X_0 is empty"),
    # a plain load kept the last of two equal keys and validated as sx
    (["validate", set_at(("variant",), RawJSON('"stheta", "variant": "sx"'))],
     "repeated key 'variant'"),
    # `int` refuses more digits than sys.get_int_max_str_digits(): a traceback, exit 1
    (["validate", set_at(("tree", "height", "n"), RawJSON("1" * 5000))],
     "n: an integer of more than 4300 digits"),
    (["validate", set_at(("path", "tails"), [{"block": 0, "rule": RawJSON(f"[[{'1' * 5000}]]")}])],
     "rule: an integer of more than 4300 digits"),
    (["validate", set_at(EXCEPTIONS, {"1" * 5000: NODE_0})],
     "path.levels[1].level.exceptions: a key of 5000 digits, more than 4300"),
    (["extend", "--beta", "1" * 5000], "bad ordinal of 5000 characters, more than 4300"),
    # an optional sub-object is absent or null; any other value is decoded (a
    # rule of 0, false or {} was read as no rule: derive-branches exited 0 and
    # surgery exited 2 with "surgery needs a path cofinal below a limit")
    (["derive-branches", "--path", set_at(("rule",), 0)], "rule: expected an object, got 0"),
    (["derive-branches", "--path", set_at(("rule",), False)],
     "rule: expected an object, got False"),
    (["derive-branches", "--path", set_at(("rule",), {})], "rule.start: missing"),
    (["surgery", "--n0", "2", "--path", set_at(("rule",), 0)], "rule: expected an object, got 0"),
    (["surgery", "--n0", "2", "--path", set_at(("rule",), {})], "rule.start: missing"),
    # no truthiness and no str(): "false" was read as true, 0 and [] as false,
    # {"param": "yes"} as a param entry, and the variant 5 as the string '5'
    (["amalgamate", set_at(("closed_delta",), "false")],
     "chain.closed_delta: expected a bool, got 'false'"),
    (["amalgamate", set_at(("closed_delta",), 0)], "chain.closed_delta: expected a bool, got 0"),
    (["amalgamate", set_at(("closed_delta",), [])], "chain.closed_delta: expected a bool, got []"),
    (["amalgamate", set_at(("closed_delta",), None)],
     "chain.closed_delta: expected a bool, got None"),
    (["validate", set_at(TEMPLATE + ("final", 0), {"param": "yes"})],
     "path.levels[1].level.cells[0].template.final[0].param: expected true, got 'yes'"),
    (["validate", set_at(TEMPLATE + ("final", 0), {"param": 1})],
     "path.levels[1].level.cells[0].template.final[0].param: expected true, got 1"),
    (["validate", set_at(("variant",), 5)], "variant: expected a string, got 5"),
    # every message names the field's whole JSON path (these named "ordinal",
    # "node" or "x" alone)
    (["validate", set_at(("path", "levels", 1, "level", "height"), {"w": 0, "n": -1})],
     "path.levels[1].level.height.n: expected an int >= 0, got -1"),
    (["validate", set_at(("tree", "explicit"), [{"height": {"w": 0, "n": -1}, "nodes": []}])],
     "tree.explicit[0].height.n: expected an int >= 0, got -1"),
    (["validate", set_at(("tree", "explicit"), [{"height": {"w": 0, "n": 1},
                                                 "nodes": [{"blocks": 5}]}])],
     "tree.explicit[0].nodes[0].blocks: expected a list, got 5"),
    (["amalgamate", set_at(("members", 0, "condition", "x"), [1])],
     "chain.members[0].condition.x: expected an object, got [1]"),
], ids=["extend-nu-abc", "extend-nu-negative", "absorb-node-not-int", "absorb-node-not-in-tree",
        "demo-bad-antichain-count-0", "demo-bad-antichain-count-1",
        "derive-branches-not-linked", "surgery-not-linked",
        "seal-piece-b-negative", "seal-piece-start-negative", "seal-piece-step-0",
        "seal-piece-a-not-int", "seal-piece-a-0", "seal-pi-not-object",
        "seal-point-not-int", "seal-point-not-pair", "validate-height-negative",
        "validate-height-not-int", "validate-height-null", "validate-cell-start-not-int",
        "validate-tree-explicit-not-list", "validate-level-not-object",
        "validate-blocks-not-list", "validate-const-not-int", "validate-ramp-slope-0",
        "validate-tail-empty", "validate-x-not-object", "amalgamate-cell-entries-not-list",
        "amalgamate-members-not-list", "amalgamate-z-token-unknown", "amalgamate-z-not-object",
        "amalgamate-z-closed-hi-not-bool", "amalgamate-z-cell-not-object",
        "amalgamate-z-entries-not-list", "amalgamate-z-lo-null", "amalgamate-beta-not-object",
        "amalgamate-condition-not-object", "amalgamate-labels-list", "amalgamate-labels-string",
        "amalgamate-labels-int", "amalgamate-labels-key-not-index",
        "amalgamate-labels-key-leading-zero", "amalgamate-labels-key-arabic-indic",
        "validate-exceptions-key-leading-zero", "validate-exceptions-key-arabic-indic",
        "amalgamate-labels-value-not-int", "amalgamate-z-key-repeated",
        "amalgamate-z-key-repeated-identical", "x-base-0-validate", "x-base-0-extend",
        "x-base-0-seal", "x-base-0-absorb", "x-base-1-seal", "x0-omega-validate",
        "x0-odds-validate", "x0-empty-validate", "validate-key-repeated",
        "validate-int-too-long", "validate-int-too-long-in-list", "validate-index-key-too-long",
        "extend-beta-too-long", "derive-branches-rule-0", "derive-branches-rule-false",
        "derive-branches-rule-empty", "surgery-rule-0", "surgery-rule-empty",
        "amalgamate-closed-delta-string", "amalgamate-closed-delta-0",
        "amalgamate-closed-delta-list", "amalgamate-closed-delta-null", "validate-param-string",
        "validate-param-1", "validate-variant-int", "validate-level-height-negative",
        "validate-explicit-height-negative", "validate-explicit-node-blocks-not-list",
        "amalgamate-member-x-not-object"])
def test_bad_value_exit_2(argv, error, cond_file, tmp_path, capsys):
    if isinstance(argv[-1], tuple):
        argv = argv[:-1] + [bad_triple_file(tmp_path, *argv[-1])]
    if callable(argv[-1]):
        argv = argv[:-1] + [edited_input_file(tmp_path, argv[0], argv[-1])]
    elif argv[0] in ("absorb", "extend", "seal"):
        argv = argv + [cond_file]
    if argv[-1] == "--path":
        argv = argv + [unlinked_path_file(tmp_path)]
    if error.startswith("unrecognized arguments"):
        # extend has no --nu (the one-step never reads a top size): argparse
        # itself exits 2 and reports on stderr
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert error in capsys.readouterr().err
        return
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 2
    assert out.count("\n") == 1
    rep = json.loads(out)
    assert rep["command"] == argv[0] and error in rep["error"]


def drop_at(keys):
    """An edit of a JSON document: the entry reached through `keys` removed."""
    def edit(d):
        for k in keys[:-1]:
            d = d[k]
        del d[keys[-1]]
    return edit


@pytest.mark.parametrize("cmd, edit, error", [
    ("validate", drop_at(("path", "levels", 1, "height")), "path.levels[1].height: missing"),
    ("validate", drop_at(("path", "levels", 1, "level")), "path.levels[1].level: missing"),
    ("validate", set_at(("path", "tails"), [{"rule": {}}]), "path.tails[0].block: missing"),
    ("validate", set_at(("path", "tails"), [{"block": 0}]), "path.tails[0].rule: missing"),
    ("validate", set_at(("path", "tails"), [{"block": 0, "rule": {}}]),
     "path.tails[0].rule.start: missing"),
    ("validate", set_at(("path", "tails"), [5]), "path.tails[0]: expected an object, got 5"),
    ("validate", drop_at(("tree",)), "tree: missing"),
    ("validate", drop_at(("path",)), "path: missing"),
    ("validate", drop_at(("variant",)), "variant: missing"),
    ("amalgamate", drop_at(("members", 0, "condition", "path")),
     "chain.members[0].condition.path: missing"),
    ("amalgamate", drop_at(("members", 0, "condition", "path", "levels", 0, "height")),
     "chain.members[0].condition.path.levels[0].height: missing"),
    ("amalgamate", drop_at(("gamma",)), "chain.gamma: missing"),
    ("amalgamate", drop_at(("delta",)), "chain.delta: missing"),
    # an empty tail object is a tail without its fields, not "no tail"
    ("amalgamate", set_at(("tail",), {}), "chain.tail.beta_step: missing"),
    ("amalgamate", drop_at(("closed_delta",)), "chain.closed_delta: missing"),
], ids=["level-height", "level-level", "tail-block", "tail-rule", "tail-rule-start",
        "tail-not-object", "condition-tree", "condition-path", "condition-variant",
        "member-condition-path", "member-level-height", "chain-gamma", "chain-delta",
        "chain-tail-empty", "chain-closed-delta"])
def test_missing_field_exit_2(cmd, edit, error, tmp_path, capsys):
    """A decoded object without a required field exits 2 with the field's
    JSON path, not the bare key of a KeyError."""
    code = main([cmd, edited_input_file(tmp_path, cmd, edit)])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": cmd, "error": error}


@pytest.mark.parametrize("argv", [
    ["validate"], ["extend", "--beta", "1"], ["amalgamate"], ["vlevels"], ["seal"],
    ["absorb", "--node", "[5]"], ["demo-bad-antichain"], ["surgery", "--n0", "2"],
    ["derive-branches"],
], ids=lambda argv: argv[0])
def test_seed_only_on_game(argv, cond_file, capsys):
    """Only the random game opponent reads a seed; every other subcommand
    rejects --seed as an unknown argument (argparse's exit 2)."""
    if argv[0] not in ("demo-bad-antichain", "surgery", "derive-branches"):
        argv = argv + [cond_file]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_extend_roundtrip(cond_file, tmp_path, capsys):
    out = tmp_path / "ext.json"
    code, rep = run_cli(["extend", "--beta", "1", "-o", str(out), cond_file], capsys)
    assert code == 0 and rep["eta"] == "3"
    loaded = sz.dec_condition(json.loads(out.read_text()))
    assert loaded.eta == Ordinal(0, 3)


def test_amalgamate_cli(tmp_path, capsys):
    ch = uniform_chain(3, Ordinal(1, 2))
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(sz.enc_chain(ch)))
    out = tmp_path / "amalgam.json"
    code, rep = run_cli(["amalgamate", str(p), "-o", str(out)], capsys)
    assert code == 0
    assert rep["vanishing"] == ["w1n0"]
    cond = sz.dec_condition(json.loads(out.read_text()))
    assert cond.eta == Ordinal(1, 0)


def test_game_cli(capsys):
    code, rep = run_cli(["game", "--mu", "w1n4", "--opponent", "onestep", "--xi", "0"], capsys)
    assert code == 0
    assert rep["verdict"] == "II_completed"
    assert rep["invariants_ok"]


def test_demo_bad_antichain_cli(capsys):
    code, rep = run_cli(["demo-bad-antichain", "--count", "5"], capsys)
    assert code == 0
    assert rep["pairwise_incompatible"] == "10/10"


def test_seal_cli(cond_file, capsys):
    code, rep = run_cli(["seal", "--triple", "transpose:1,3", "--xi", "1", cond_file], capsys)
    assert code == 0 and rep["valid"]


@pytest.mark.parametrize("hit_steps", ["0", "2"])
def test_seal_builds_the_intermediate_once(hit_steps, cond_file, capsys, monkeypatch):
    """The hit and the routing share one intermediate one-step."""
    from ascentlab import sealing
    calls = []
    build = sealing.build_intermediate

    def counting(cond, triple):
        calls.append(triple)
        return build(cond, triple)
    monkeypatch.setattr(sealing, "build_intermediate", counting)
    code, rep = run_cli(["seal", "--triple", "transpose:1,3", "--xi", "1",
                         "--hit-steps", hit_steps, cond_file], capsys)
    assert code == 0 and rep["valid"] and len(calls) == 1


def test_absorb_cli(cond_file, capsys):
    code, rep = run_cli(["absorb", "--node", "[5]", "--xi", "1", cond_file], capsys)
    assert code == 0
    assert rep["tau"] in (4, 8, 12)


def test_surgery_and_branches_cli(tmp_path, capsys):
    p = tmp_path / "path.json"
    p.write_text(json.dumps(sz.enc_path_descriptor(uniform_path(3))))
    code, rep = run_cli(["surgery", "--n0", "2", "--path", str(p)], capsys)
    assert code == 0
    assert rep["vanishing"] == ["w1n0"]
    code, rep = run_cli(["derive-branches", "--path", str(p), "--xi", "0"], capsys)
    assert code == 0 and rep["mutually_exclusive"]


def level_4_replaced(cond, starts, step, tmp_path) -> str:
    """A path file over `cond` (height 4) whose level 4 takes the odd value
    2*tau + 4001 at every coordinate on the progressions start + step*k for
    the given starts: an exclusive family, so the base stays a valid
    condition (`derive-branches` rejects an invalid base)."""
    from ascentlab.aposet import PathDescriptor
    from ascentlab.ascent import AP, Cell, fill_level
    from ascentlab.conditions import Condition
    from ascentlab.nodes import Ramp, SymNode
    h = Ordinal(0, 4)
    lvl = cond.level(h)
    for start in starts:
        odd = SymNode((), (Ramp(2 * step, 2 * start + 4001),) * h.n)
        lvl = fill_level(h, [Cell(AP(start, step), odd)], [], lvl)
    path = PathDescriptor(Condition(cond.tree, cond.path.with_level(h, lvl), cond.variant, cond.x))
    p = tmp_path / "replaced.json"
    p.write_text(json.dumps(sz.enc_path_descriptor(path)))
    return str(p)


@pytest.mark.parametrize("edit, error", [
    (lambda d: [d], "triple: expected an object, got [{"),
    (drop_at(("x_family",)), "x_family: missing"),
    (drop_at(("y",)), "y: missing"),
    (drop_at(("pi",)), "pi: missing"),
], ids=["list", "no-x-family", "no-y", "no-pi"])
def test_seal_triple_fields_exit_2(edit, error, cond_file, tmp_path, capsys):
    """A triple file that is not an object, or lacks a field, exits 2 and
    names it: a list raised AttributeError (exit 1), and a missing field was
    reported by its bare key."""
    p = bad_triple_file(tmp_path, "points", [])
    with open(p) as f:
        d = json.load(f)
    d = edit(d) or d
    with open(p, "w") as f:
        json.dump(d, f)
    code = main(["seal", "--triple-file", p, cond_file])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    rep = json.loads(out)
    assert rep["command"] == "seal" and rep["error"].startswith(error)


@pytest.mark.parametrize("a, b", [(0, 1), (2, 3)])
def test_seal_triple_leaving_filter_set_exit_2(a, b, tmp_path, capsys):
    """A transposition of a point of X_0 with one outside it: the routing
    cannot absorb that point, so seal rejects the triple."""
    p = tmp_path / "cond.json"
    p.write_text(json.dumps(sz.enc_condition(tower(3))))
    code = main(["seal", "--triple", f"transpose:{a},{b}", "--xi", "0", str(p)])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": "seal",
                               "error": f"pi maps {a}, in X_0 and in Y, outside X_0"}


def test_surgery_non_exclusive_branches_exit_2(tmp_path, capsys):
    """A path whose level 4 appends the constant label 7: the branches the
    surgery would keep collide there, which is a fault of the input path."""
    from ascentlab.aposet import PathDescriptor
    from ascentlab.ascent import AppendScheme, standard_append
    from ascentlab.conditions import TailRule, extend_with_top
    c = tower(3)
    sevens = AppendScheme(tuple(7 for _ in c.top.cells), {k: 7 for k, _ in c.top.exceptions})
    c = extend_with_top(c, c.top.append_entries(sevens))
    scheme = standard_append(c.top)
    path = PathDescriptor(c, TailRule(5, c.top.append_entries(scheme), (scheme,)))
    p = tmp_path / "path.json"
    p.write_text(json.dumps(sz.enc_path_descriptor(path)))
    code = main(["surgery", "--n0", "2", "--path", str(p)])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {
        "command": "surgery",
        "error": "kept branches are not mutually exclusive: indices 4,6 share a value at (0,3)"}


def test_derive_branches_links_at_the_path_x(tmp_path, capsys):
    """Level 4 leaves level 3 off the evens: linked at DEFAULT_X's X_0, not
    at the path's own X_0 = multiples of 3."""
    from ascentlab.foundations import XSequence, multiples
    p = level_4_replaced(tower(4, x=XSequence(multiples(3), 6)), [1], 2, tmp_path)
    code = main(["derive-branches", "--path", p, "--xi", "0"])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": "derive-branches",
                               "error": "heights 3,4 not linked at index 0"}


def test_derive_branches_samples_coherent_branches(tmp_path, capsys):
    """Level 4 agrees with level 3 only on multiples of 4: linked at X_1,
    coherent off part of X_0; only the coherent branches are sampled."""
    p = level_4_replaced(tower(4), [1, 2, 3], 4, tmp_path)
    code, rep = run_cli(["derive-branches", "--path", p, "--xi", "1"], capsys)
    assert code == 1
    assert rep["coherent_head_set"] is False
    assert sorted(rep["branches"], key=int) == ["0", "4", "8"]


def test_vlevels_cli(tmp_path, capsys):
    from ascentlab.amalgam import amalgamate
    out, _ = amalgamate(uniform_chain(2, Ordinal(1, 2)))
    p = tmp_path / "lim.json"
    p.write_text(json.dumps(sz.enc_condition(out)))
    for mode in ("full", "homogeneous"):
        code, rep = run_cli(["vlevels", "--mode", mode, str(p)], capsys)
        assert code == 0
        assert rep["levels"] == ["w1n0"]


def test_roundtrip_all_fixtures():
    objs = [
        sz.enc_condition(tower(3)),
        sz.enc_chain(uniform_chain(2, Ordinal(1, 2))),
        sz.enc_path_descriptor(uniform_path(3)),
    ]
    decoded = [sz.dec_condition(objs[0]), sz.dec_chain(objs[1]), sz.dec_path_descriptor(objs[2])]
    again = [sz.enc_condition(decoded[0]), sz.enc_chain(decoded[1]),
             sz.enc_path_descriptor(decoded[2])]
    assert objs == again
    assert decoded[0] == tower(3)


def test_determinism_byte_identical():
    cmd = [sys.executable, "-m", "ascentlab.cli", "game", "--mu", "6",
           "--opponent", "random", "--seed", "7", "--xi", "1"]
    runs = [subprocess.run(cmd, capture_output=True, text=True).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    assert json.loads(runs[0])["verdict"] == "II_completed"


def test_roundtrip_catalog_conditions():
    from ascentlab.amalgam import amalgamate
    from ascentlab.surgery import branch_surgery
    from ascentlab.foundations import Ordinal
    from ascentlab.game import onestep_opponent, play_game
    amalgam, _ = amalgamate(uniform_chain(2, Ordinal(1, 2)))
    surg = branch_surgery(uniform_path(3), 2)
    two_limit = next(m.cond for m in play_game(Ordinal(2, 1), onestep_opponent(), 0).moves
                     if m.stage == Ordinal(2, 0))
    for cond in (amalgam, surg, two_limit):
        data = sz.enc_condition(cond)
        again = sz.dec_condition(data)
        assert again == cond
        assert sz.enc_condition(again) == data


@pytest.mark.parametrize("block", [0, 3])
def test_amalgamate_low_z_cell_exit_2(block, tmp_path, capsys):
    """A cell of height 0 appended to the first member's z-map: in block 0 an
    earlier cell holds its keys 40 and 41, and block 3 lies outside the
    domain, so no probe key reads it. The cell heights are checked before
    any cell is read at the top's last coordinate."""
    d = sz.enc_chain(uniform_chain(3, Ordinal(1, 2)))
    d["members"][0]["z"]["cells"].append({"block": block, "cell": {
        "start": 40, "step": 1,
        "template": {"blocks": [], "dom": {"n": 0, "w": 0}, "final": []}}})
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(d))
    code = main(["amalgamate", str(p)])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {
        "command": "amalgamate",
        "error": f"chain hypothesis failed (z-top-level): a cell of block {block} has height 0"}


def test_amalgamate_non_periodic_tail_tokens_exit_2(tmp_path, capsys):
    """The standard chain with each member's z-map cut to its entry at w,
    and a tail cycle of two appends with z tokens ["last"], ["const", 5]:
    the first cycle appends z(w)'s own last entry 3, every later one 5
    again, so z(w) runs 3,3,3,3,5,5,5,... along the tail, while the closed
    form repeats the first cycle's (3,5). The tokens do not repeat from
    their first cycle, so no closed-form union exists: exit 2, where the
    skipped branch used to be read as <3,3,3|(3,5)*> and the run exit 0."""
    from oracles import tail_members

    def edit(d):
        for m in d["members"]:
            m["z"]["entries"], m["z"]["cells"] = m["z"]["entries"][:1], []
        scheme = d["tail"]["schemes"][0]
        d["tail"]["schemes"], d["tail"]["z_tokens"] = [scheme, scheme], [["last"], ["const", 5]]
    path = edited_input_file(tmp_path, "amalgamate", edit)
    ch = sz.dec_chain(json.loads(open(path).read()))
    w = Ordinal(1, 0)
    assert tail_members(ch, 3)[-1].z.at(w).final == (3, 3, 3, 3, 5, 5, 5, 5, 5)
    code = main(["amalgamate", path])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": "amalgamate", "error": (
        "chain hypothesis failed (tail-shape): z tokens with a 'last' token must end with one, "
        "or the cycles after the first append other entries")}


def test_amalgamate_non_exclusive_tail_level_exit_2(tmp_path, capsys):
    """The standard chain with its tail scheme's cell entry set to the
    constant 7: every tail member's new level gives all its indices the
    label 7, so it is not mutually exclusive. The tail members are not
    conditions, which is a failed hypothesis naming the first such level,
    not a failed conclusion of the amalgam."""
    path = edited_input_file(tmp_path, "amalgamate", set_at(("tail", "schemes", 0, "cell_entries", 0), 7))
    code = main(["amalgamate", path])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": "amalgamate", "error": (
        "chain hypothesis failed (tail-exclusive): level 4 not mutually exclusive: "
        "indices 0,1 share a value at (0,3)")}


def entry_positions(d, keys=()):
    """The key paths of every entry object in a JSON document: the members
    of its `prefix`, `tail`, `final` and `cell_entries` lists."""
    if isinstance(d, dict):
        for k, v in d.items():
            if k in ("prefix", "tail", "final", "cell_entries") and isinstance(v, list):
                yield from (keys + (k, i) for i in range(len(v)))
            yield from entry_positions(v, keys + (k,))
    elif isinstance(d, list):
        for i, v in enumerate(d):
            yield from entry_positions(v, keys + (i,))


def test_boolean_entry_exit_2(tmp_path, capsys):
    """A JSON `true` is not an int entry, wherever in a chain it stands: the
    decoder rejects it instead of reading it as 1 or handing a bool to the
    kernels."""
    positions = list(entry_positions(sz.enc_chain(uniform_chain(3, Ordinal(1, 2)))))
    assert len(positions) == 29
    for keys in positions:
        code = main(["amalgamate", edited_input_file(tmp_path, "amalgamate", set_at(keys, True))])
        out = capsys.readouterr().out
        assert code == 2 and out.count("\n") == 1, keys
        rep = json.loads(out)
        assert rep["command"] == "amalgamate" and "True" in rep["error"], keys


def test_x_sequence_without_x0_exit_2(cond_file, tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_text("{}")
    code = main(["validate", "--x-sequence", str(p), cond_file])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": "validate", "error": "x.x0: missing"}


@pytest.mark.parametrize("argv", [["validate"], ["extend", "--beta", "0"], ["vlevels"]])
@pytest.mark.parametrize("height, shown", [({"w": 1, "n": 0}, "w"), ({"w": 0, "n": 0}, "0")])
def test_tree_height_not_successor_exit_2(argv, height, shown, tmp_path, capsys):
    """A condition needs a top level, so its tree height must be a
    successor; a limit or zero height is refused when it is decoded."""
    code = main(argv + [edited_input_file(tmp_path, argv[0], set_at(("tree", "height"), height))])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": argv[0],
                               "error": f"tree height {shown} is not a successor"}


X_DOC = {"x0": {"threshold": 2, "period": 3, "residues": [0], "patch_add": [1],
                "patch_remove": [0]}, "base": 6}


@pytest.mark.parametrize("keys, value, error", [
    (("x0", "threshold"), "3", "x.x0.threshold: expected an int >= 0, got '3'"),
    (("x0", "threshold"), 1.5, "x.x0.threshold: expected an int >= 0, got 1.5"),
    (("x0", "threshold"), True, "x.x0.threshold: expected an int >= 0, got True"),
    (("x0", "period"), 0, "x.x0.period: expected an int >= 1, got 0"),
    (("x0", "residues"), ["0"], "x.x0.residues[0]: expected an int, got '0'"),
    (("x0", "residues"), 0, "x.x0.residues: expected a list, got 0"),
    (("x0", "patch_add"), [1.5], "x.x0.patch_add[0]: expected an int, got 1.5"),
    (("x0", "patch_remove"), [True], "x.x0.patch_remove[0]: expected an int, got True"),
    (("base",), "4", "x.base: expected an int, got '4'"),
    (("x0", "threshold"), None, "x.x0.threshold: missing"),
    (("x0", "period"), None, "x.x0.period: missing"),
    (("x0", "residues"), None, "x.x0.residues: missing"),
    # decoded, an X-sequence outside profile s3 is refused
    (("base",), 0, "tail base must be >= 2"),
    (("base",), 1, "tail base must be >= 2"),
    (("x0",), sz.UPSET.enc(FULL_SET), "omega minus X_0 must be infinite"),
    (("x0",), sz.UPSET.enc(ODDS), "X_1 is not a subset of X_0"),
    (("x0",), sz.UPSET.enc(EMPTY_SET), "X_0 is empty"),
])
def test_x_sequence_fields_exit_2(keys, value, error, cond_file, tmp_path, capsys):
    """Each field of an X-sequence is read as an int, or a list of ints,
    without coercion (`None` stands for a missing field), and the sequence
    decoded must pass `XSequence.validate("s3")`."""
    d = json.loads(json.dumps(X_DOC))
    (drop_at(keys) if value is None else set_at(keys, value))(d)
    p = tmp_path / "x.json"
    p.write_text(json.dumps(d))
    code = main(["validate", "--x-sequence", str(p), cond_file])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": "validate", "error": error}


def test_x_sequence_decodes_every_field():
    from ascentlab.foundations import UPSet, XSequence
    assert sz.dec_x(X_DOC) == XSequence(UPSet.make(2, 3, {0}, {1}), 6)


def path_file(tmp_path, edit) -> str:
    """The encoding of the standard path descriptor after `edit`."""
    d = sz.enc_path_descriptor(uniform_path(4))
    edit(d)
    p = tmp_path / "path.json"
    p.write_text(json.dumps(d))
    return str(p)


@pytest.mark.parametrize("argv", [["surgery", "--n0", "2", "--path"], ["derive-branches", "--path"]])
@pytest.mark.parametrize("edit, error", [
    (set_at(("rule", "start"), -3), "rule.start: expected an int >= 0, got -3"),
    (set_at(("rule", "start"), "2"), "rule.start: expected an int >= 0, got '2'"),
    (set_at(("rule", "start"), 1.5), "rule.start: expected an int >= 0, got 1.5"),
    (set_at(("rule", "start"), True), "rule.start: expected an int >= 0, got True"),
    (set_at(("rule", "start"), 2),
     "rule.start: expected 5, the base height 5's offset in its block, got 2"),
    (drop_at(("base",)), "base: missing"),
    # a short scheme raised IndexError from `TailRule.limit_level` (exit 1)
    (set_at(("rule", "schemes", 0, "cell_entries"), []),
     "append scheme has fewer cell entries (0) than its level has cells (1)"),
    # a rule that does not continue its base raised PostconditionFailed from
    # surgery (exit 1), and derive-branches printed the broken rule's branches
    (set_at(("rule", "base", "cells", 0, "template", "final", 1, "ramp", "b"), 7),
     "rule.base: supp(4,5) = UPSet{} unacceptable: the rule does not continue the base condition"),
    (set_at(("base",), sz.enc_condition(tower(3))),
     "rule.base: height 5 is not 4, one above the base condition's top height 3"),
], ids=["negative", "string", "float", "bool", "not-the-base-offset", "no-base", "short-scheme",
        "rule-not-continuing", "rule-not-one-above"])
def test_path_descriptor_fields_exit_2(argv, edit, error, tmp_path, capsys):
    code = main(argv + [path_file(tmp_path, edit)])
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    assert json.loads(out) == {"command": argv[0], "error": error}


BASE_INVALID = "the path's base condition is invalid: "


@pytest.mark.parametrize("edit, error", [
    (set_at(("base", "path", "levels", 4, "level", "cells", 0, "template", "final", 3),
            {"const": 0}),
     BASE_INVALID + "clause C2 (ascent-path): level 4 not mutually exclusive: indices 0,1 share "
     "a value at (0,3); clause C4 (exclusivity-filter): level 4: constant append labels on "
     "AP(0+1m)"),
    (drop_at(("base", "path", "levels", 2)),
     BASE_INVALID + "clause C1 (structure): ascent path does not cover all heights"),
], ids=["c2", "c1"])
def test_surgery_on_an_invalid_base_exit_2(edit, error, tmp_path, capsys):
    """A path whose base condition already fails a clause: the surgery's
    output fails too, and the input is rejected with the base's violations
    (it raised PostconditionFailed, exit 1)."""
    code = main(["surgery", "--n0", "2", "--path", path_file(tmp_path, edit)])
    out = capsys.readouterr().out
    assert code == 2 and json.loads(out) == {"command": "surgery", "error": error}


def test_derive_branches_on_an_invalid_base_exit_2(tmp_path, capsys):
    """derive-branches checks the path's base as surgery does: the base
    whose level 4 repeats a label at (0,3) is rejected with its
    violations (it exited 0 and printed branches of the invalid path)."""
    edit = set_at(("base", "path", "levels", 4, "level", "cells", 0, "template", "final", 3),
                  {"const": 0})
    code = main(["derive-branches", "--path", path_file(tmp_path, edit)])
    out = capsys.readouterr().out
    assert code == 2 and json.loads(out) == {
        "command": "derive-branches",
        "error": BASE_INVALID + "clause C2 (ascent-path): level 4 not mutually exclusive: indices "
        "0,1 share a value at (0,3); clause C4 (exclusivity-filter): level 4: constant append "
        "labels on AP(0+1m)"}


@pytest.mark.parametrize("keys, value, error", [
    (("block",), 1, "path.tails[0].rule.base: height 4 is not in block 1"),
    (("block",), "0", "path.tails[0].block: expected an int >= 0, got '0'"),
    (("rule", "start"), 3,
     "path.tails[0].rule.start: expected 4, the base height 4's offset in its block, got 3"),
    (("rule", "schemes"), True, "path.tails[0].rule.schemes: expected a list, got True"),
    (("rule", "schemes"), [], "path.tails[0].rule.schemes: expected a nonempty list"),
    (("rule", "schemes"), [7], "path.tails[0].rule.schemes[0]: expected an object, got 7"),
])
def test_path_tail_rule_exit_2(keys, value, error, tmp_path, capsys):
    """A path's tail rule stands in the block its key names, from its base's
    height on."""
    from ascentlab.amalgam import amalgamate
    out, _ = amalgamate(uniform_chain(3, Ordinal(1, 2)))
    d = sz.enc_condition(out)
    assert [t["block"] for t in d["path"]["tails"]] == [0]
    set_at(("path", "tails", 0) + keys, value)(d)
    p = tmp_path / "lim.json"
    p.write_text(json.dumps(d))
    code = main(["validate", str(p)])
    text = capsys.readouterr().out
    assert code == 2 and text.count("\n") == 1
    assert json.loads(text) == {"command": "validate", "error": error}


@pytest.mark.parametrize("height, error", [
    ({"w": 0, "n": 3}, "path.levels[1].height: 3 is not the height 1 of its level"),
    ({"w": 0, "n": 7}, "path.levels[1].height: 7 is not the height 1 of its level"),
])
def test_path_level_height_mismatch_exit_2(height, error, tmp_path, capsys):
    """A path level listed at a height other than its own exits 2, whether
    that height is listed twice or not at all."""
    code = main(["validate", edited_input_file(
        tmp_path, "validate", set_at(("path", "levels", 1, "height"), height))])
    out = capsys.readouterr().out
    assert code == 2 and json.loads(out) == {"command": "validate", "error": error}


GOLDEN = os.path.join(os.path.dirname(__file__), "..", "perfbench", "golden", "cli")
# the lists whose entries are keyed -> the field that holds an entry's key
KEYED = {"levels": "height", "tails": "block", "explicit": "height", "catalogs": "height",
         "entries": "key"}


def keyed_lists(d, where: str):
    """(list, JSON path) of each nonempty list in d whose entries are keyed."""
    if isinstance(d, dict):
        for k, v in d.items():
            at = f"{where}.{k}" if where else k
            if k in KEYED and isinstance(v, list) and v:
                yield v, at
            yield from keyed_lists(v, at)
    elif isinstance(d, list):
        for i, v in enumerate(d):
            yield from keyed_lists(v, f"{where}[{i}]")


def with_an_int_raised(entry: dict, key: str) -> dict:
    """A copy of the entry with one int of its value raised by one: the first
    constant or ramp intercept met breadth first, so that the copy stays well
    formed, else the first int; its key is kept."""
    copy = json.loads(json.dumps(entry))
    todo, ints = [(copy, k) for k in copy if k != key], []
    while todo:
        parent, k = todo.pop(0)
        v = parent[k]
        if type(v) is int:
            ints.append((parent, k))
        elif isinstance(v, (dict, list)):
            todo.extend((v, j) for j in (v if isinstance(v, dict) else range(len(v))))
    parent, k = next(((p, k) for p, k in ints if k in ("const", "b")), ints[0])
    parent[k] += 1
    return copy


def golden_document(name: str, tmp_path) -> tuple[list[str], dict]:
    """The subcommand that reads the named input, and the input: a golden
    file, the amalgam `amalgamate` writes from the golden chain (it has a
    tail rule and a branch catalog), or the golden condition with its tree's
    level 1 listed explicitly."""
    if name == "amalgam.json":
        out = tmp_path / name
        assert main(["amalgamate", os.path.join(GOLDEN, "chain.json"), "-o", str(out)]) == 0
        return ["validate"], json.loads(out.read_text())
    with open(os.path.join(GOLDEN, "cond.json" if name == "explicit.json" else name)) as f:
        d = json.load(f)
    if name == "explicit.json":
        template = d["path"]["levels"][1]["level"]["cells"][0]["template"]
        d["tree"]["explicit"] = [{"height": {"w": 0, "n": 1}, "nodes": [template]}]
    return {"cond.json": ["validate"], "explicit.json": ["validate"],
            "chain.json": ["amalgamate"], "path.json": ["derive-branches", "--path"]}[name], d


@pytest.mark.parametrize("name", ["cond.json", "chain.json", "path.json", "amalgam.json",
                                  "explicit.json"])
def test_a_repeated_key_exits_2(name, tmp_path, capsys):
    """Each entry of each keyed list (path levels and tails, tree explicit
    levels and catalogs, z-map entries), listed again right after itself
    with one value changed: the subcommand exits 2 and names the copy. The
    decoders kept the last entry of a key, so the copy's value won, or
    failed on its own, and the verdict hung on the listing order."""
    cmd, d = golden_document(name, tmp_path)
    capsys.readouterr()
    root = "chain" if cmd == ["amalgamate"] else ""
    cases = [(at, i) for entries, at in keyed_lists(d, root) for i in range(len(entries))]
    assert {at.rpartition(".")[2] for at, _ in cases} >= \
        {"cond.json": {"levels"}, "chain.json": {"levels", "entries"}, "path.json": {"levels"},
         "amalgam.json": {"levels", "tails", "catalogs"}, "explicit.json": {"explicit"}}[name]
    got, want = [], []
    for at, i in cases:
        edited = json.loads(json.dumps(d))
        entries = next(e for e, where in keyed_lists(edited, root) if where == at)
        field = KEYED[at.rpartition(".")[2]]
        entries.insert(i + 1, with_an_int_raised(entries[i], field))
        key = entries[i][field]
        p = tmp_path / "repeated.json"
        p.write_text(json.dumps(edited))
        code = main(cmd + [str(p)])
        got.append((code, json.loads(capsys.readouterr().out)))
        want.append((2, {"command": cmd[0], "error": f"{at}[{i + 1}].{field}: repeated {field} "
                         f"{key if type(key) is int else sz.dec_ordinal(key)}"}))
    assert got == want


GOLDEN_CHAIN = os.path.join(os.path.dirname(__file__), "..", "perfbench", "golden", "cli",
                            "chain.json")
CATALOG = ("tree", "catalogs", 0, "catalog")
AT_CATALOG = "tree.catalogs[0].catalog"


@pytest.mark.parametrize("edit, error", [
    (set_at(CATALOG + ("singles", 1, "admitted"), "false"),
     f"{AT_CATALOG}.singles[1].admitted: expected a bool, got 'false'"),
    (set_at(CATALOG + ("families", 0, "admitted"), 1),
     f"{AT_CATALOG}.families[0].admitted: expected a bool, got 1"),
    (drop_at(CATALOG + ("singles", 1, "admitted")), f"{AT_CATALOG}.singles[1].admitted: missing"),
    (drop_at(CATALOG + ("singles", 1, "tag")), f"{AT_CATALOG}.singles[1].tag: missing"),
    (drop_at(CATALOG + ("singles", 0, "node")), f"{AT_CATALOG}.singles[0].node: missing"),
    (drop_at(CATALOG + ("families", 0, "cells")), f"{AT_CATALOG}.families[0].cells: missing"),
    (set_at(CATALOG + ("families",), 5), f"{AT_CATALOG}.families: expected a list, got 5"),
    (set_at(CATALOG + ("singles",), [3]), f"{AT_CATALOG}.singles[0]: expected an object, got 3"),
    (drop_at(CATALOG), "tree.catalogs[0].catalog: missing"),
    (set_at(CATALOG + ("singles", 1, "tag"), 5),
     f"{AT_CATALOG}.singles[1].tag: expected a string, got 5"),
], ids=["single-admitted-string", "family-admitted-int", "admitted", "tag", "node", "cells",
        "families-not-list", "single-not-object", "catalog", "tag-int"])
def test_catalog_fields_exit_2(edit, error, tmp_path, capsys):
    """The amalgam of the golden chain, written by `amalgamate -o`, with one
    field of its limit level's branch catalog changed: validate exits 2 and
    names the field. A string "false" for the vanishing single's admitted
    flag was read as true, and validate exited 1 with C3 false."""
    out = tmp_path / "amalgam.json"
    assert main(["amalgamate", GOLDEN_CHAIN, "-o", str(out)]) == 0
    capsys.readouterr()
    d = json.loads(out.read_text())
    assert d["tree"]["catalogs"][0]["catalog"]["singles"][1]["tag"] == "y"
    edit(d)
    out.write_text(json.dumps(d))
    code = main(["validate", str(out)])
    text = capsys.readouterr().out
    assert code == 2 and json.loads(text) == {"command": "validate", "error": error}


# -- the import boundary and the package's names --------------------------------

CORE = {"foundations", "nodes", "ascent", "trees", "conditions", "serialize", "cli"}

# each golden operation -> the ascentlab submodules a process running it executes
EXECUTED = {
    ("validate", "cond.json"): CORE,
    ("extend", "--beta", "1", "cond.json"): CORE,
    ("vlevels", "--mode", "full", "cond.json"): CORE,
    ("validate", "empty.json"): CORE,
    ("game", "--mu", "w4"): CORE - {"serialize"},
    ("amalgamate", "chain.json"): CORE | {"amalgam"},
    ("game", "--mu", "w1n4", "--opponent", "onestep", "--xi", "0"):
        CORE | {"game", "amalgam", "fixtures"},
    ("game", "--mu", "w1n4", "--opponent", "random", "--seed", "3", "--xi", "1"):
        CORE | {"game", "amalgam", "fixtures"},
    ("game", "--mu", "w1n4", "--opponent", "random", "--seed", "8", "--xi", "2"):
        CORE | {"game", "amalgam", "fixtures"},
    ("seal", "--triple", "transpose:1,3", "--xi", "1", "cond.json"): CORE | {"sealing"},
    ("absorb", "--node", "[5]", "--xi", "1", "cond.json"): CORE | {"sealing"},
    ("surgery", "--n0", "2", "--path", "path.json"): CORE | {"surgery", "aposet"},
    ("derive-branches", "--path", "path.json", "--xi", "0"): CORE | {"aposet"},
    # fixtures imports amalgam at its top
    ("demo-bad-antichain", "--count", "5"):
        CORE - {"serialize"} | {"aposet", "fixtures", "amalgam"},
}

EXECUTED_AFTER_MAIN = """
import contextlib, io, sys, types
from ascentlab import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(name.partition(".")[2] for name, m in sys.modules.items()
                    if name.startswith("ascentlab.") and type(m) is types.ModuleType))
"""


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for name, obj in {"cond.json": sz.enc_condition(tower(3)),
                      "chain.json": sz.enc_chain(uniform_chain(3, Ordinal(1, 2))),
                      "path.json": sz.enc_path_descriptor(uniform_path(4)),
                      "empty.json": {}}.items():
        (d / name).write_text(json.dumps(obj))
    return d


@pytest.mark.parametrize("argv", list(EXECUTED), ids=" ".join)
def test_subcommand_executes_only_its_modules(argv, golden_inputs):
    """A fresh process runs the code of no module that its subcommand does
    not call; the others stay registered, unexecuted."""
    import ascentlab
    src = os.path.dirname(os.path.dirname(ascentlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", EXECUTED_AFTER_MAIN, *argv], cwd=golden_inputs,
                          env=env, capture_output=True, text=True)
    code, *executed = proc.stdout.split()
    assert code == ("2" if argv[-1] in ("empty.json", "w4") else "0"), proc.stderr
    assert set(executed) == EXECUTED[argv]


# the modules `import ascentlab.cli` executes, the standard ones it leaves
# unimported, and the file name of each compile that package code called
COMPILES_AT_IMPORT = """
import json, sys, types
compiled = []
def count(event, args):
    if event == "compile" and sys._getframe(1).f_globals.get("__name__", "") \
            .startswith("ascentlab"):
        compiled.append(args[1])
sys.addaudithook(count)
import ascentlab.cli
print(json.dumps({
    "executed": sorted(name.partition(".")[2] for name, m in sys.modules.items()
                       if name.startswith("ascentlab.") and type(m) is types.ModuleType),
    "imported": [name for name in ("dataclasses", "inspect") if name in sys.modules],
    "compiled": compiled}))
"""


def test_cli_start_up_compiles_one_source_per_record_class():
    """A fresh `import ascentlab.cli` imports neither `dataclasses` nor
    `inspect`, and the package compiles at most one generated source per
    record class (`foundations.record`) of the modules it executes."""
    import ast
    import ascentlab
    package = os.path.dirname(ascentlab.__file__)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(package),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COMPILES_AT_IMPORT], env=env,
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout)
    assert seen["imported"] == []
    records = []
    for module in seen["executed"]:
        with open(os.path.join(package, f"{module}.py")) as f:
            records += [f"<record {node.name}>" for node in ast.walk(ast.parse(f.read()))
                        if isinstance(node, ast.ClassDef)
                        and any(getattr(d, "id", None) == "record" for d in node.decorator_list)]
    assert records and set(seen["compiled"]) <= set(records)
    assert len(seen["compiled"]) == len(set(seen["compiled"])) <= len(records)


# every name the package root exported when it imported all its modules
ROOT_NAMES = {
    "foundations": "DEFAULT_X EVENS FULL_SET GT LT EQ ODDS OMEGA OMEGA_NAT Ordinal UPSet "
                   "XSequence ZERO filter_classify is_cobounded ord_compare upset_algebra",
    "nodes": "BlockWord Ramp SymNode const_node delta eq_star eval_at graft mutually_exclusive "
             "node restrict",
    "ascent": "AscentLevel AscentPath Cell PiecewiseMap TailRule me_family order_iso supp",
    "trees": "BranchCatalog CatalogFamily CatalogSingle SymTree check_tree tree_contains "
             "vanishing_levels",
    "conditions": "Condition S_F S_THETA S_X check_condition eta_nu leq_s make_bad_extension "
                  "one_step_extension root_condition",
    "amalgam": "ChainDescriptor ChainMember ChainTail ZMap amalgamate",
    "aposet": "PathDescriptor THETA check_antichain derive_branches is_bad leq_a",
    "game": "OpponentPolicy Transcript check_run_invariants onestep_opponent play_game "
            "random_opponent strategy_ii_move",
    "sealing": "OracleHit SealTriple absorb_node check_triple identity_triple seal_step "
               "transposition_triple",
    "surgery": "branch_surgery canonical_pi",
}


def test_root_names_resolve_to_their_modules():
    import importlib
    import ascentlab
    assert ascentlab.__version__ == "0.1.0"
    for module, names in ROOT_NAMES.items():
        mod = importlib.import_module(f"ascentlab.{module}")
        assert getattr(ascentlab, module) is mod is sys.modules[f"ascentlab.{module}"]
        # as an eager import leaves it, so later import statements take the fast path
        assert mod.__spec__._initializing is False
        for name in names.split():
            assert getattr(ascentlab, name) is getattr(mod, name), name
            assert name in dir(ascentlab) and name in ascentlab.__all__
    assert sum(len(names.split()) for names in ROOT_NAMES.values()) == len(ascentlab.__all__)
    with pytest.raises(AttributeError):
        ascentlab.no_such_name


# the error classes the CLI reports with exit 2, and those that stay defects
REJECTED = {
    "cli": "InputError", "serialize": "FormatError",
    "foundations": "OrdinalBoundError ProfileViolation",
    "conditions": "WrongVariant InvalidBeta NonExclusiveTop LostComparability NotSuccessorHeight",
    "ascent": "ShortScheme", "trees": "NoCatalog", "amalgam": "NotUniformTail HypothesisViolated",
    "sealing": "SealTripleInvalid OracleMismatch NodeNotInTree",
    "surgery": "BadPi NonExclusiveBranches", "aposet": "NotLinked InvalidPathBase",
}
NOT_REJECTED = {
    "foundations": "PostconditionFailed BadHeight UndecidableRepresentation",
    "game": "StateCorrupt NotIIsTurn", "aposet": "Unrepresented IncoherentIndex",
    "sealing": "UnsupportedTriple LimitDomainUnsupported",
}


def test_error_classes_declare_whether_they_are_rejections():
    """Every error class of the package is listed as a rejection or as a
    defect, and only the rejections derive from `Rejected`."""
    import importlib
    from ascentlab import cli
    from ascentlab.foundations import Rejected
    assert cli.RECOVERABLE == (Rejected, KeyError)
    listed = set()
    for table, rejected in ((REJECTED, True), (NOT_REJECTED, False)):
        for module, names in table.items():
            mod = importlib.import_module(f"ascentlab.{module}")
            for name in names.split():
                assert issubclass(getattr(mod, name), Rejected) is rejected, name
                listed.add((module, name))
    for module in ("foundations", "nodes", "ascent", "trees", "conditions", "amalgam", "aposet",
                   "game", "sealing", "surgery", "fixtures", "serialize", "cli"):
        mod = importlib.import_module(f"ascentlab.{module}")
        defined = {(module, name) for name, obj in vars(mod).items()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == mod.__name__ and obj is not Rejected}
        assert defined <= listed, defined - listed
