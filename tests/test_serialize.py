"""The JSON schemas of `ascentlab.serialize`: every format with both an
encoder and a decoder round-trips on drawn values, the golden inputs
round-trip as JSON text, and a decoder's message starts with a JSON path
that the document it read has."""

import json
import os
import re

import pytest
from hypothesis import given, settings, strategies as st

from ascentlab import serialize as sz
from ascentlab.cli import RECOVERABLE
from ascentlab.aposet import PathDescriptor
from ascentlab.fixtures import tower, uniform_path
from ascentlab.foundations import Ordinal, XSequence, multiples
from ascentlab.game import onestep_opponent, random_opponent
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
