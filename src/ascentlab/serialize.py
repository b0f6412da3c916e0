"""JSON encodings for every on-disk object, each format declared once as a
schema of codecs: (encode, decode) pairs combined as in Kennedy's pickler
combinators (JFP 14(6), 2004). Conditions, chains, path descriptors and
transcripts are encoded, sealing triples only decoded. Each rule of decoding
lives in one combinator:
- absent versus `null`: `record` refuses an absent field as `<path>: missing`
  unless its codec reads one: `optional` reads an absent field or `null` as
  None, and an absent list or indexed object is empty unless `required`;
- no coercion: an int, a bool or a string is read only as itself;
- `keyed` refuses a key listed twice;
- a path in every message: a `FormatError` gains a step of the JSON path in
  each combinator it leaves (`_at`), so no decoder is handed a path;
- constructors unchanged: decoding ends in the canonical constructors (those
  of `amalgam`, `aposet` and `sealing` read at decode time, so a process that
  decodes only conditions never runs those modules), and the cross-field
  checks run once the fields are read."""

from __future__ import annotations

import sys
from functools import partial
from operator import attrgetter
from typing import Any, Callable, Optional

from .foundations import AP, Ordinal, Rejected, UPSet, XSequence, DEFAULT_X, finite_set
from .ascent import AppendScheme, AscentLevel, Cell, MapPiece, PiecewiseMap, supp
from .nodes import BlockWord, Ramp, SymNode
from .conditions import AscentPath, Condition, TailRule, _supp_ok, check_condition
from .trees import BranchCatalog, CatalogFamily, CatalogSingle, SymTree
from . import amalgam, aposet, sealing

FORMAT = 1
REQUIRED = object()    # the `absent` of a field that must be present


class FormatError(Rejected):
    """A document that does not decode: `text` at the JSON `path` of the
    value at fault, a list of field names, list indices and index keys."""

    def __init__(self, text: str, *path) -> None:
        super().__init__(text)
        self.path = list(path)

    def __str__(self) -> str:
        at = "".join(f"[{s}]" if type(s) is int else f".{s}" for s in self.path).removeprefix(".")
        return f"{at}: {self.args[0]}" if at else self.args[0]


def _at(step, dec: Callable[[Any], Any], value: Any) -> Any:
    """dec(value), whose FormatError is placed one `step` deeper."""
    try:
        return dec(value)
    except FormatError as e:
        e.path.insert(0, step)
        raise


class Codec:
    """A JSON format: `enc` writes a value, `dec` reads one back or raises
    FormatError, and a record field of this format left out reads as the JSON
    value `absent` (REQUIRED: it is refused)."""

    __slots__ = ("enc", "dec", "absent")

    def __init__(self, enc: Callable, dec: Callable, absent: Any = REQUIRED) -> None:
        self.enc, self.dec, self.absent = enc, dec, absent


def _same(v: Any) -> Any:
    return v


def _lazy(module, name: str) -> Callable:
    """The module's constructor `name`, read when it is first called."""
    return lambda *fields: attrgetter(name)(module)(*fields)


def _scalar(what: str, ok: Callable, read: Callable = _same, write: Callable = _same) -> Codec:
    """A JSON value that `ok` accepts, read(value), written back by `write`."""
    def dec(d):
        if not ok(d):
            raise FormatError(f"expected {what}, got {d!r}")
        return read(d)
    return Codec(write, dec)


def integer(least: Optional[int] = None) -> Codec:
    return _scalar("an int" if least is None else f"an int >= {least}",
                   lambda v: type(v) is int and (least is None or v >= least))


INT, NAT, POS = integer(), integer(0), integer(1)
BOOL = _scalar("a bool", lambda v: type(v) is bool)
STR = _scalar("a string", lambda v: type(v) is str)
_object = _scalar("an object", lambda d: isinstance(d, dict)).dec
_list = _scalar("a list", lambda d: isinstance(d, list)).dec


def required(codec: Codec) -> Codec:
    return Codec(codec.enc, codec.dec)


def optional(codec: Codec) -> Codec:
    return Codec(lambda v: None if v is None else codec.enc(v),
                 lambda d: None if d is None else codec.dec(d), None)


def listof(item: Codec, nonempty: bool = False) -> Codec:
    """A list, read as a tuple."""
    def dec(d):
        if not _list(d) and nonempty:
            raise FormatError("expected a nonempty list")
        return tuple([_at(i, item.dec, v) for i, v in enumerate(d)])
    return Codec(lambda xs: [item.enc(x) for x in xs], dec, [])


def indexed(value: Codec) -> Codec:
    """An object keyed by indices as `str` writes them (ASCII digits, no
    leading zero: one spelling per index), read with int keys; a key too long
    for `int` (`sys.get_int_max_str_digits`) is refused before it is read."""
    def dec(d):
        limit = sys.get_int_max_str_digits()
        for k in _object(d):
            if not (k == "0" or (k.isascii() and k.isdecimal() and k[0] != "0")):
                raise FormatError("expected an object keyed by indices (ASCII digits, no "
                                  f"leading zero), got the key {k!r}")
            if limit and len(k) > limit:
                raise FormatError(f"a key of {len(k)} digits, more than {limit}")
        return {int(k): _at(k, value.dec, v) for k, v in d.items()}
    return Codec(lambda m: {str(k): value.enc(v) for k, v in dict(m).items()}, dec, {})


def _field(d: dict, name: str, codec: Codec) -> Any:
    v = d.get(name, codec.absent)
    if v is REQUIRED:
        raise FormatError("missing", name)
    return _at(name, codec.dec, v)


def record(construct: Optional[Callable], *fields: tuple,
           parts: Optional[Callable] = None) -> Codec:
    """An object of (name, codec) fields, written from `parts(v)` (by default
    v's attributes of those names) and read into `construct(*values)`, which
    runs the cross-field checks and makes the value."""
    parts = parts or attrgetter(*(name for name, _ in fields))

    def dec(d):
        _object(d)
        return construct(*[_field(d, name, codec) for name, codec in fields])
    return Codec(lambda v: {name: codec.enc(x) for (name, codec), x in zip(fields, parts(v))},
                 dec)


def keyed(key_field: str, key: Codec, value_field: str, value: Codec) -> Codec:
    """A list of {key_field: k, value_field: v} objects, read as a dict in
    list order; a key listed twice is refused before its value is read."""
    def dec(d):
        out = {}

        def entry(e):
            k = _field(_object(e), key_field, key)
            if k in out:
                raise FormatError(f"repeated {key_field} {k}", key_field)
            out[k] = _field(e, value_field, value)
        listof(Codec(None, entry)).dec(d)
        return out
    return Codec(lambda pairs: [{key_field: key.enc(k), value_field: value.enc(v)}
                                for k, v in pairs], dec, [])


def versioned(kind: str, codec: Codec, named: bool = False) -> Codec:
    """codec's object with "format": FORMAT beside its fields; a value that is
    no object is refused under the name `kind` when `named`."""
    def dec(d):
        if named:
            _at(kind, _object, d)
        if not (isinstance(d, dict) and type(d.get("format")) is int and d["format"] == FORMAT):
            raise FormatError(f"unknown {kind} format")
        return codec.dec(d)
    return Codec(lambda v: {"format": FORMAT, **codec.enc(v)}, dec)


# -- scalars and nodes -------------------------------------------------------------

def _upset(threshold: int, period: int, residues, add, remove) -> UPSet:
    """The periodic set of the residues with the patch members below the
    threshold added, then removed: built in the document's size, not in the
    threshold's."""
    for i, r in enumerate(residues):
        if not 0 <= r < period:
            raise FormatError(f"expected a residue in [0, {period}), got {r}", "residues", i)
    return UPSet.make(0, period, residues).union(
        finite_set(k for k in add if 0 <= k < threshold)).difference(
        finite_set(k for k in remove if 0 <= k < threshold))


def _upset_parts(u: UPSet) -> tuple:
    """u's fields: its members below the threshold as patches of the
    periodic set of its period and residues."""
    periodic = UPSet.make(0, u.period, u.residues)
    return (u.threshold, u.period, sorted(u.residues),
            sorted(u.difference(periodic).low), sorted(periodic.difference(u).low))


ORDINAL = record(Ordinal, ("w", NAT), ("n", NAT))
RAMP = record(Ramp, ("a", POS), ("b", NAT))
UPSET = record(_upset, ("threshold", NAT), ("period", POS), ("residues", required(listof(INT))),
               ("patch_add", listof(INT)), ("patch_remove", listof(INT)), parts=_upset_parts)


def entry(ap: Optional[AP]) -> Codec:
    """An entry: an int, {"const": int}, {"ramp": {"a", "b"}} or, in the
    template of a cell over `ap`, {"param": true}, that cell's ramp."""
    def dec(d):
        if type(d) is int:
            return d
        for name, codec in (("const", INT), ("ramp", RAMP)):
            if name in _object(d):
                return _at(name, codec.dec, d[name])
        if "param" in d:
            if d["param"] is not True:
                raise FormatError(f"expected true, got {d['param']!r}", "param")
            if ap is None:
                raise FormatError("param entry outside a cell")
            return Ramp(ap.step, ap.start)
        raise FormatError(f"bad entry {d!r}")
    return Codec(lambda e: {"const": e} if isinstance(e, int) else {"ramp": RAMP.enc(e)}, dec)


def _node(blocks, final, dom: Optional[Ordinal]) -> SymNode:
    s = SymNode(blocks, final)
    if dom is not None and s.dom != dom:
        raise FormatError(f"node domain mismatch: {s.dom} vs {dom}")
    return s


def _block(prefix, period: Optional[int], tail) -> BlockWord:
    if period is not None and period != len(tail):
        raise FormatError(f"expected {len(tail)}, the length of the tail, got {period}", "period")
    return BlockWord.make(prefix, tail)


def node(ap: Optional[AP]) -> Codec:
    """A node whose entries are read by `entry(ap)`. A block's `period`, the
    length of its tail, is written for a reader and may be left out."""
    item = entry(ap)
    entries = listof(item)
    block = record(_block, ("prefix", entries), ("period", optional(POS)),
                   ("tail", listof(item, True)),
                   parts=lambda b: (b.prefix, len(b.tail), b.tail))
    return record(_node, ("blocks", required(listof(block))), ("final", entries),
                  ("dom", optional(ORDINAL)))


def _cell(d: Any) -> Cell:
    """A cell, the one place an AP reaches the entries of its template."""
    ap = AP(_field(_object(d), "start", NAT), _field(d, "step", POS))
    return Cell(ap, _field(d, "template", node(ap)))


NODE, ENTRY = node(None), entry(None)
CELL = Codec(lambda c: {"start": c.ap.start, "step": c.ap.step, "template": NODE.enc(c.template)},
             _cell)


# -- levels, paths and trees ------------------------------------------------------------

def _level(height: Ordinal, cells, exceptions: dict) -> AscentLevel:
    try:
        return AscentLevel.make(height, cells, exceptions)
    except ValueError as e:   # pieces that overlap, leave an index out or have another height
        raise FormatError(str(e)) from None


def _rule(start: int, base: AscentLevel, schemes) -> TailRule:
    """A rule whose `start` is its base's height in the block (n of
    omega*w + n): the level it generates at n has height omega*w + n."""
    if start != base.height.n:
        raise FormatError(f"expected {base.height.n}, the base height {base.height}'s "
                          f"offset in its block, got {start}", "start")
    return TailRule(start, base, schemes)


def _path(levels: dict, tails: dict) -> AscentPath:
    """Each level stands at its own height, and each tail rule in its block."""
    for i, (h, lvl) in enumerate(levels.items()):
        if lvl.height != h:
            raise FormatError(f"{h} is not the height {lvl.height} of its level",
                              "levels", i, "height")
    for i, (w, rule) in enumerate(tails.items()):
        if rule.base.height.w != w:
            raise FormatError(f"height {rule.base.height} is not in block {w}",
                              "tails", i, "rule", "base")
    return AscentPath.make(levels, tails)


LEVEL = record(_level, ("height", ORDINAL), ("cells", listof(CELL)),
               ("exceptions", indexed(NODE)))
SCHEME = record(AppendScheme, ("cell_entries", required(listof(ENTRY))),
                ("exception_labels", indexed(INT)))
RULE = record(_rule, ("start", NAT), ("base", LEVEL), ("schemes", required(listof(SCHEME, True))))
PATH = record(_path, ("levels", required(keyed("height", ORDINAL, "level", LEVEL))),
              ("tails", keyed("block", NAT, "rule", RULE)))
CATALOG = record(BranchCatalog,
                 ("families", listof(record(CatalogFamily, ("cells", required(listof(CELL))),
                                            ("admitted", BOOL)))),
                 ("singles", listof(record(CatalogSingle, ("tag", STR), ("node", NODE),
                                           ("admitted", BOOL)))))
TREE = record(SymTree.make, ("height", ORDINAL),
              ("explicit", keyed("height", ORDINAL, "nodes", listof(NODE))),
              ("catalogs", keyed("height", ORDINAL, "catalog", CATALOG)))


# -- the documents ---------------------------------------------------------------

def _path_descriptor(base: Condition, rule: Optional[TailRule]) -> aposet.PathDescriptor:
    """A rule continues its base condition: it starts one height above the
    condition's top, with an acceptable support from that top. The support
    is held only against a valid condition; `surgery.branch_surgery` rejects
    an invalid one with its own violations."""
    if rule is not None:
        h = rule.base.height
        if h != base.eta.succ():
            raise FormatError(f"height {h} is not {base.eta.succ()}, one above the base "
                              f"condition's top height {base.eta}", "rule", "base")
        s = supp(base.top, rule.base)
        if not _supp_ok(base.variant, s, base.x) and check_condition(base).ok:
            raise aposet.NotLinked(f"rule.base: supp({base.eta},{h}) = {s} unacceptable: "
                                   "the rule does not continue the base condition")
    return aposet.PathDescriptor(base, rule)


def _zmap(*fields) -> amalgam.ZMap:
    """A z-map whose pieces hold each key of its domain exactly once."""
    try:
        return amalgam.ZMap.make(*fields)
    except amalgam.NotAFunction as e:
        raise FormatError(str(e)) from None


def _transcript_parts(t) -> tuple:
    """A transcript's fields, each condition written once and each move
    naming its condition by `condition_ref`, its index in `conditions`."""
    conds = {id(mv.cond): mv.cond for mv in t.moves}
    ref = {key: i for i, key in enumerate(conds)}
    moves = [(mv.stage, mv.mover, ref[id(mv.cond)], mv.z) for mv in t.moves]
    return t.mu, t.xi, t.verdict, t.illegal_stage, t.notes, moves, list(conds.values())


def _x(d: Any) -> XSequence:
    """DEFAULT_X, for `null` or {"kind": "default"}, or a sequence in profile s3."""
    if d is None or _object(d).get("kind") == "default":
        return DEFAULT_X
    x = XSEQ.dec(d)
    x.validate("s3")
    return x


XSEQ = record(XSequence, ("x0", UPSET), ("base", Codec(_same, INT.dec, 4)))
X = Codec(lambda x: {"kind": "default"} if x == DEFAULT_X else XSEQ.enc(x), _x, None)
CONDITION = versioned("condition", record(Condition, ("tree", TREE), ("path", PATH),
                                          ("variant", STR), ("x", X)))
Z_TOKEN = _scalar('["last"] or ["const", int]', lambda t: t == ["last"] or (
    isinstance(t, list) and len(t) == 2 and t[0] == "const" and type(t[1]) is int), tuple, list)
ZMAP = record(_zmap, ("lo", ORDINAL), ("hi", ORDINAL),
              ("closed_hi", BOOL),
              ("cells", listof(record(lambda w, c: (w, c), ("block", NAT), ("cell", CELL),
                                      parts=_same))),
              ("entries", keyed("key", ORDINAL, "node", NODE)))
CHAIN = versioned("chain", record(
    _lazy(amalgam, "ChainDescriptor"),
    ("members", listof(record(_lazy(amalgam, "ChainMember"), ("beta", ORDINAL),
                              ("condition", CONDITION), ("z", ZMAP),
                              parts=attrgetter("beta", "cond", "z")))),
    ("tail", optional(record(_lazy(amalgam, "ChainTail"), ("beta_step", POS),
                             ("schemes", listof(SCHEME, True)),
                             ("z_tokens", listof(Z_TOKEN, True))))),
    ("gamma", ORDINAL), ("delta", ORDINAL), ("closed_delta", BOOL)))
PATH_DESCRIPTOR = versioned("path", record(_path_descriptor, ("base", CONDITION),
                                           ("rule", optional(RULE))), True)
# A piece's slope `a` is only checked to be an int: a constant or decreasing
# piece is well formed and fails `is_injective`.
TRIPLE = versioned("triple", record(
    _lazy(sealing, "SealTriple"), ("x_family", LEVEL), ("y", UPSET),
    ("pi", record(PiecewiseMap,
                  ("pieces", listof(record(
                      lambda start, step, a, b: MapPiece(AP(start, step), a, b),
                      ("start", NAT), ("step", POS), ("a", INT), ("b", NAT)))),
                  ("points", listof(_scalar(
                      "a pair of ints >= 0", lambda p: isinstance(p, list) and len(p) == 2
                      and all(type(v) is int and v >= 0 for v in p), tuple)))))), True)
TRANSCRIPT = versioned("transcript", record(
    None, ("mu", ORDINAL), ("xi", INT), ("verdict", STR), ("illegal_stage", optional(ORDINAL)),
    ("notes", listof(STR)),
    ("moves", listof(record(None, ("stage", ORDINAL), ("mover", STR), ("condition_ref", NAT),
                            ("z", optional(ZMAP)), parts=_same))),
    ("conditions", listof(CONDITION)), parts=_transcript_parts))


# -- the names the CLI and the benchmark call, one argument each ----------------------

enc_ordinal, dec_ordinal = ORDINAL.enc, ORDINAL.dec
enc_node, enc_zmap, enc_transcript = NODE.enc, ZMAP.enc, TRANSCRIPT.enc
enc_condition, dec_condition = CONDITION.enc, CONDITION.dec
enc_chain, enc_path_descriptor = CHAIN.enc, PATH_DESCRIPTOR.enc
dec_chain, dec_x = partial(_at, "chain", CHAIN.dec), partial(_at, "x", X.dec)
dec_path_descriptor, dec_triple = PATH_DESCRIPTOR.dec, TRIPLE.dec
