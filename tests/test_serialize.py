"""The JSON schemas of `ascentlab.serialize`: every format with both an
encoder and a decoder round-trips on drawn values, the golden inputs
round-trip as JSON text, and a decoder's message starts with a JSON path
that the document it read has."""

import json
import os
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from ascentlab import serialize as sz
from ascentlab.cli import RECOVERABLE
from ascentlab.aposet import PathDescriptor
from ascentlab.fixtures import tower, uniform_path
from ascentlab.foundations import Ordinal, XSequence, multiples
from ascentlab.game import onestep_opponent, random_opponent
from ascentlab.nodes import const_node
from test_chain_lemma import levels_and_heights, towers
from test_foundations import made, raw_upsets
from test_game import game_chains, limit_chains

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "perfbench", "golden", "cli")


def round_trips(codec: sz.Codec, x) -> None:
    """dec(enc(x)) == x, read back from JSON text, and enc(dec(enc(x))) ==
    enc(x)."""
    data = codec.enc(x)
    again = codec.dec(json.loads(json.dumps(data)))
    assert again == x
    assert codec.enc(again) == data


@settings(max_examples=30, deadline=None)
@given(towers())
def test_towers_round_trip(cond):
    round_trips(sz.CONDITION, cond)


def chain_round_trips(ch) -> None:
    for m in ch.members:
        round_trips(sz.CONDITION, m.cond)
        round_trips(sz.ZMAP, m.z)
    round_trips(sz.CHAIN, ch)


@settings(max_examples=15, deadline=None)
@given(game_chains())
def test_game_chains_round_trip(ch):
    chain_round_trips(ch)


@pytest.mark.parametrize("mu, opponent, xi", [
    (Ordinal(1, 4), onestep_opponent(), 0),
    (Ordinal(2, 2), random_opponent(5), 1),
])
def test_limit_chains_round_trip(mu, opponent, xi):
    for ch in limit_chains(mu, opponent, xi):
        chain_round_trips(ch)


@settings(max_examples=60, deadline=None)
@given(levels_and_heights())
def test_levels_round_trip(case):
    round_trips(sz.LEVEL, case[0])


@settings(max_examples=200, deadline=None)
@given(raw_upsets())
def test_upsets_round_trip(raw):
    round_trips(sz.UPSET, made(raw))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(1, 8), st.data())
def test_upsets_read_pointwise(threshold, period, data):
    """A decoded UPSet holds k >= threshold when k mod period is a residue,
    and k < threshold when k is a patch_add member or such a k, and is no
    patch_remove member; patch members at or past the threshold, or
    negative, are not read."""
    residues = data.draw(st.lists(st.integers(0, period - 1), max_size=period))
    add, remove = (data.draw(st.lists(st.integers(-3, 50), max_size=6)) for _ in range(2))
    u = sz.UPSET.dec({"threshold": threshold, "period": period, "residues": residues,
                      "patch_add": add, "patch_remove": remove})
    for k in range(threshold + 3 * period):
        periodic = k % period in residues
        want = periodic if k >= threshold else (periodic or k in add) and k not in remove
        assert (k in u) == want, k


def test_upset_residues_lie_below_the_period():
    """A residue outside [0, period) is refused: the tail read -3 as 1 and
    5 as 1, and the members below the threshold read neither, so the set
    lacked 1, 3 and 5 and held every odd number from 7 on."""
    with pytest.raises(sz.FormatError) as e:
        sz.UPSET.dec({"threshold": 6, "period": 2, "residues": [0, -3, 5]})
    assert str(e.value) == "residues[1]: expected a residue in [0, 2), got -3"


def test_upset_codec_time_is_in_the_document_size():
    """A set whose threshold is 10**6 decodes and encodes in its document's
    size: 25 s and 51 s when each walked every k below the threshold. The
    bound is generous; it takes milliseconds."""
    d = {"threshold": 10**6, "period": 2, "residues": [0], "patch_add": [999_999],
         "patch_remove": [2]}
    start = time.perf_counter()
    u = sz.UPSET.dec(d)
    assert sz.UPSET.enc(u) == d and u.threshold == 10**6
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("period, error", [
    ("x", "expected an int >= 1, got 'x'"), (0, "expected an int >= 1, got 0"),
    (2, "expected 1, the length of the tail, got 2"),
], ids=["string", "zero", "not-the-tail-length"])
def test_a_block_period_is_its_tail_length(period, error):
    """A block's `period` is read back: the length of its tail, or absent.
    Any value used to decode without a word."""
    node = const_node(3, Ordinal(1, 2))
    d = sz.enc_node(node)
    assert d["blocks"][0]["period"] == 1
    d["blocks"][0]["period"] = period
    with pytest.raises(sz.FormatError) as e:
        sz.NODE.dec(d)
    assert str(e.value) == f"blocks[0].period: {error}"
    del d["blocks"][0]["period"]
    assert sz.NODE.dec(d) == node


@pytest.mark.parametrize("path", [
    uniform_path(2), uniform_path(5), PathDescriptor(tower(3)),
    PathDescriptor(tower(4, x=XSequence(multiples(3), 6))),
], ids=["uniform-2", "uniform-5", "no-rule", "own-x"])
def test_path_descriptors_round_trip(path):
    round_trips(sz.PATH_DESCRIPTOR, path)


@pytest.mark.parametrize("name, codec", [
    ("cond.json", sz.CONDITION), ("chain.json", sz.CHAIN), ("path.json", sz.PATH_DESCRIPTOR),
])
def test_golden_inputs_round_trip(name, codec):
    with open(os.path.join(GOLDEN, name)) as f:
        text = f.read()
    data = json.loads(text)
    assert codec.enc(codec.dec(data)) == data
    assert json.dumps(codec.enc(codec.dec(data)), indent=1, sort_keys=True) + "\n" == text


# -- every message names a path of its document ---------------------------------

# each golden input -> its decoder and the root name its messages start with
DOCUMENTS = {"cond.json": (sz.dec_condition, None), "chain.json": (sz.dec_chain, "chain"),
             "path.json": (sz.dec_path_descriptor, None)}
DELETE = object()
# the path at the start of a message, and its steps: names, index keys, [indices]
MESSAGE_PATH = re.compile(r"(\w+(?:\.\w+|\[\d+\])*): ")
STEP = re.compile(r"\.?(\w+)|\[(\d+)\]")


def positions(d, keys=()):
    """The key path of every value below the root of a JSON document."""
    items = d.items() if isinstance(d, dict) else enumerate(d) if isinstance(d, list) else ()
    for k, v in items:
        yield keys + (k,)
        yield from positions(v, keys + (k,))


@st.composite
def edited_documents(draw):
    """A golden input with one value replaced by -1, "x", null, [], {} or
    true, or one key deleted (a list item is left as it is)."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    with open(os.path.join(GOLDEN, name)) as f:
        d = json.load(f)
    keys = draw(st.sampled_from(list(positions(d))))
    value = draw(st.sampled_from([-1, "x", None, [], {}, True, DELETE]))
    parent = d
    for k in keys[:-1]:
        parent = parent[k]
    if value is not DELETE:
        parent[keys[-1]] = value
    elif isinstance(parent, dict):
        del parent[keys[-1]]
    return name, d


def message_steps(message: str) -> list:
    """The steps of the JSON path that a message starts with, none when it
    starts with none."""
    at = MESSAGE_PATH.match(message)
    if not at:
        return []
    return [name or int(index) for name, index in STEP.findall(at.group(1))]


def test_message_steps():
    assert message_steps("chain.members[0].z.entries[1].key: repeated key w") == \
        ["chain", "members", 0, "z", "entries", 1, "key"]
    assert message_steps("path.levels[1].level.exceptions.12: expected an object, got 5") == \
        ["path", "levels", 1, "level", "exceptions", "12"]
    assert message_steps("unknown condition format") == []


@settings(max_examples=300, deadline=None)
@given(edited_documents())
def test_messages_name_a_path_of_the_document(case):
    """A FormatError's path, its root name removed, resolves in the edited
    document up to its last step, which an absent field may lack."""
    name, d = case
    decode, root = DOCUMENTS[name]
    try:
        decode(d)
    except sz.FormatError as e:
        steps = message_steps(str(e))
        if root is not None:
            assert steps[:1] == [root], str(e)
            steps = steps[1:]
        node = d
        for step in steps[:-1]:
            assert isinstance(node, list if type(step) is int else dict), str(e)
            assert step in node if isinstance(node, dict) else step < len(node), str(e)
            node = node[step]
    except RECOVERABLE:   # with KeyError: a path that falls short of its tree
        pass
