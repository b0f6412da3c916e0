"""JSON encodings for every on-disk object: conditions, chains, paths and
transcripts are encoded, sealing triples only decoded. Decoding goes through
the canonical constructors, so a round-trip reproduces structurally
identical values. The chain, path-descriptor and triple constructors are read
through their modules, so a process that decodes only conditions never runs
`amalgam`, `aposet` or `sealing`."""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Optional

from .foundations import AP, Ordinal, Rejected, UPSet, XSequence, DEFAULT_X
from .ascent import AppendScheme, AscentLevel, Cell, MapPiece, PiecewiseMap, supp
from .nodes import BlockWord, Entry, Ramp, SymNode
from .conditions import AscentPath, Condition, TailRule, _supp_ok, check_condition
from .trees import BranchCatalog, CatalogFamily, CatalogSingle, SymTree
from . import amalgam, aposet, sealing

if TYPE_CHECKING:
    from .amalgam import ChainDescriptor, ChainTail, ZMap
    from .aposet import PathDescriptor
    from .sealing import SealTriple
    from .game import Transcript

FORMAT = 1


class FormatError(Rejected):
    pass


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise FormatError(msg)


def _int_field(d: Any, key: str, where: str, least: Optional[int] = None) -> int:
    """d[key], an int not below `least` when given; FormatError naming the
    field otherwise."""
    v = d.get(key) if isinstance(d, dict) else None
    _expect(type(v) is int and (least is None or v >= least),
            f"{where}.{key}: expected an int{'' if least is None else f' >= {least}'}, got {v!r}")
    return v


def _child(where: str, key: str) -> str:
    """The JSON path of field `key` of the object at `where` ("" for the
    document root)."""
    return f"{where}.{key}" if where else key


def _required(d: dict, key: str, where: str) -> Any:
    """d[key]; FormatError naming the field when the key is absent."""
    _expect(key in d, f"{_child(where, key)}: missing")
    return d[key]


def _int_list(d: dict, key: str, where: str) -> list[int]:
    """d[key], a list of ints, empty when absent."""
    v = _list_field(d, key, where)
    for i, k in enumerate(v):
        _expect(type(k) is int, f"{where}.{key}[{i}]: expected an int, got {k!r}")
    return v


def _bool_field(d: dict, key: str, where: str) -> bool:
    """d[key], which must be present and a bool (not coerced)."""
    v = _required(d, key, where)
    _expect(type(v) is bool, f"{_child(where, key)}: expected a bool, got {v!r}")
    return v


def _object(d: Any, where: str) -> dict:
    _expect(isinstance(d, dict), f"{where}: expected an object, got {d!r}")
    return d


def _list_field(d: dict, key: str, where: str) -> list:
    """d[key], a list, empty when absent."""
    v = d.get(key, [])
    _expect(isinstance(v, list), f"{where}.{key}: expected a list, got {v!r}")
    return v


def _objects(d: dict, key: str, where: str) -> list[dict]:
    """d[key], a list of objects, empty when absent."""
    return [_object(e, f"{where}.{key}[{i}]") for i, e in enumerate(_list_field(d, key, where))]


def _indexed(d: Any, where: str) -> dict[int, Any]:
    """d, an object keyed by indices as `str` writes them (ASCII digits, no
    leading zero, so one spelling per index), with int keys; a key too long
    for `int` (`sys.get_int_max_str_digits`) is refused before it is read."""
    _object(d, where)
    limit = sys.get_int_max_str_digits()
    for k in d:
        _expect(k == "0" or (k.isascii() and k.isdecimal() and k[0] != "0"),
                f"{where}: expected an object keyed by indices (ASCII digits, no leading "
                f"zero), got the key {k!r}")
        _expect(not limit or len(k) <= limit,
                f"{where}: a key of {len(k)} digits, more than {limit}")
    return {int(k): v for k, v in d.items()}


def _nat_pair(p: Any, where: str) -> tuple[int, int]:
    _expect(isinstance(p, list) and len(p) == 2
            and all(type(v) is int and v >= 0 for v in p),
            f"{where}: expected a pair of ints >= 0, got {p!r}")
    return p[0], p[1]


# -- scalars -----------------------------------------------------------------

def enc_ordinal(o: Ordinal) -> dict:
    return {"w": o.w, "n": o.n}

def dec_ordinal(d: Any, where: str = "ordinal") -> Ordinal:
    _object(d, where)
    return Ordinal(_int_field(d, "w", where, 0), _int_field(d, "n", where, 0))


def enc_upset(u: UPSet) -> dict:
    periodic_low = {k for k in range(u.threshold) if u.rmask >> (k % u.period) & 1}
    low = u.low
    return {"threshold": u.threshold, "period": u.period,
            "residues": sorted(u.residues),
            "patch_add": sorted(low - periodic_low),
            "patch_remove": sorted(periodic_low - low)}

def dec_upset(d: Any, where: str = "set") -> UPSet:
    _object(d, where)
    for key in ("threshold", "period", "residues"):
        _required(d, key, where)
    t, p = _int_field(d, "threshold", where, 0), _int_field(d, "period", where, 1)
    residues = frozenset(_int_list(d, "residues", where))
    low = {k for k in range(t) if k % p in residues}
    low |= set(_int_list(d, "patch_add", where))
    low -= set(_int_list(d, "patch_remove", where))
    return UPSet.make(t, p, residues, frozenset(low))


def enc_entry(e: Entry) -> dict:
    if isinstance(e, int):
        return {"const": e}
    return {"ramp": {"a": e.a, "b": e.b}}

def dec_entry(d: Any, ap: Optional[AP], where: str) -> Entry:
    if type(d) is int:
        return d
    if "const" in _object(d, where):
        return _int_field(d, "const", where)
    if "ramp" in d:
        where = f"{where}.ramp"
        return Ramp(_int_field(d["ramp"], "a", where, 1), _int_field(d["ramp"], "b", where, 0))
    if d.get("param"):
        _expect(ap is not None, f"{where}: param entry outside a cell")
        return Ramp(ap.step, ap.start)
    raise FormatError(f"{where}: bad entry {d!r}")


def _entries(d: dict, key: str, where: str, ap: Optional[AP]) -> list[Entry]:
    """d[key], a list of entries, empty when absent."""
    return [dec_entry(e, ap, f"{where}.{key}[{j}]") for j, e in enumerate(_list_field(d, key, where))]


# -- nodes -------------------------------------------------------------------

def enc_node(s: SymNode) -> dict:
    return {"dom": enc_ordinal(s.dom),
            "blocks": [{"prefix": [enc_entry(e) for e in b.prefix],
                        "period": len(b.tail),
                        "tail": [enc_entry(e) for e in b.tail]} for b in s.blocks],
            "final": [enc_entry(e) for e in s.final]}

def dec_node(d: Any, ap: Optional[AP] = None, where: str = "node") -> SymNode:
    _expect("blocks" in _object(d, where), f"{where}.blocks: missing")
    blocks = []
    for i, b in enumerate(_objects(d, "blocks", where)):
        bw = f"{where}.blocks[{i}]"
        _expect(bool(_list_field(b, "tail", bw)), f"{bw}.tail: expected a nonempty list")
        blocks.append(BlockWord.make(_entries(b, "prefix", bw, ap), _entries(b, "tail", bw, ap)))
    node = SymNode(tuple(blocks), tuple(_entries(d, "final", where, ap)))
    if "dom" in d:
        _expect(node.dom == dec_ordinal(d["dom"]),
                f"{where}: node domain mismatch: {node.dom} vs {d['dom']}")
    return node


def enc_cell(c: Cell) -> dict:
    return {"start": c.ap.start, "step": c.ap.step, "template": enc_node(c.template)}

def dec_cell(d: Any, where: str) -> Cell:
    ap = AP(_int_field(d, "start", where, 0), _int_field(d, "step", where, 1))
    return Cell(ap, dec_node(d.get("template"), ap, f"{where}.template"))


def enc_level(lvl: AscentLevel) -> dict:
    return {"height": enc_ordinal(lvl.height),
            "cells": [enc_cell(c) for c in lvl.cells],
            "exceptions": {str(k): enc_node(v) for k, v in lvl.exceptions}}

def dec_level(d: Any, where: str) -> AscentLevel:
    exc = _indexed(_object(d, where).get("exceptions", {}), f"{where}.exceptions")
    height = dec_ordinal(d.get("height"))
    cells = [dec_cell(c, f"{where}.cells[{i}]")
             for i, c in enumerate(_list_field(d, "cells", where))]
    exceptions = {k: dec_node(v, where=f"{where}.exceptions.{k}") for k, v in exc.items()}
    try:
        return AscentLevel.make(height, cells, exceptions)
    except ValueError as e:   # pieces that overlap, leave an index out or have another height
        raise FormatError(f"{where}: {e}") from None


def enc_scheme(s: AppendScheme) -> dict:
    return {"cell_entries": [enc_entry(e) for e in s.cell_entries],
            "exception_labels": {str(k): v for k, v in s.exception_labels.items()}}

def dec_scheme(d: Any, where: str) -> AppendScheme:
    _expect("cell_entries" in _object(d, where), f"{where}.cell_entries: missing")
    lw = f"{where}.exception_labels"
    labels = d.get("exception_labels", {})
    return AppendScheme(tuple(_entries(d, "cell_entries", where, None)),
                        {k: _int_field(labels, str(k), lw) for k in _indexed(labels, lw)})


def enc_tail_rule(r: TailRule) -> dict:
    return {"start": r.start, "base": enc_level(r.base),
            "schemes": [enc_scheme(s) for s in r.schemes]}

def dec_tail_rule(d: Any, where: str = "rule") -> TailRule:
    """A rule whose `start` is its base's height in the block (n of
    omega*w + n): the level it generates at n has height omega*w + n."""
    _required(_object(d, where), "start", where)
    start = _int_field(d, "start", where, 0)
    base = dec_level(_required(d, "base", where), f"{where}.base")
    _expect(start == base.height.n,
            f"{where}.start: expected {base.height.n}, the base height {base.height}'s "
            f"offset in its block, got {start}")
    _required(d, "schemes", where)
    schemes = _objects(d, "schemes", where)
    _expect(bool(schemes), f"{where}.schemes: expected a nonempty list")
    return TailRule(start, base, tuple(dec_scheme(s, f"{where}.schemes[{i}]")
                                       for i, s in enumerate(schemes)))


def enc_path(p: AscentPath) -> dict:
    return {"levels": [{"height": enc_ordinal(h), "level": enc_level(lvl)}
                       for h, lvl in p.levels],
            "tails": [{"block": w, "rule": enc_tail_rule(r)} for w, r in p.tails]}

def dec_path(d: Any, where: str) -> AscentPath:
    _required(_object(d, where), "levels", where)
    levels, tails = {}, {}
    for i, e in enumerate(_objects(d, "levels", where)):
        lw = f"{where}.levels[{i}]"
        height = dec_ordinal(_required(e, "height", lw), f"{lw}.height")
        _expect(height not in levels, f"{lw}.height: repeated height {height}")
        levels[height] = dec_level(_required(e, "level", lw), f"{lw}.level")
        _expect(levels[height].height == height,
                f"{lw}.height: {height} is not the height {levels[height].height} of its level")
    for i, e in enumerate(_objects(d, "tails", where)):
        tw = f"{where}.tails[{i}]"
        _required(e, "block", tw)
        block = _int_field(e, "block", tw, 0)
        _expect(block not in tails, f"{tw}.block: repeated block {block}")
        rule = dec_tail_rule(_required(e, "rule", tw), f"{tw}.rule")
        _expect(rule.base.height.w == block,
                f"{tw}.rule.base: height {rule.base.height} is not in block {block}")
        tails[block] = rule
    return AscentPath.make(levels, tails)


# -- trees ---------------------------------------------------------------------

def enc_catalog(cat: BranchCatalog) -> dict:
    return {"families": [{"cells": [enc_cell(c) for c in f.cells], "admitted": f.admitted}
                         for f in cat.families],
            "singles": [{"tag": s.tag, "node": enc_node(s.node), "admitted": s.admitted}
                        for s in cat.singles]}

def dec_catalog(d: Any, where: str) -> BranchCatalog:
    families, singles = [], []
    for i, f in enumerate(_objects(_object(d, where), "families", where)):
        fw = f"{where}.families[{i}]"
        _required(f, "cells", fw)
        families.append(CatalogFamily(tuple(dec_cell(c, f"{fw}.cells[{j}]")
                                            for j, c in enumerate(_objects(f, "cells", fw))),
                                      _bool_field(f, "admitted", fw)))
    for i, e in enumerate(_objects(d, "singles", where)):
        sw = f"{where}.singles[{i}]"
        singles.append(CatalogSingle(str(_required(e, "tag", sw)),
                                     dec_node(_required(e, "node", sw), where=f"{sw}.node"),
                                     _bool_field(e, "admitted", sw)))
    return BranchCatalog(tuple(families), tuple(singles))


def enc_tree(t: SymTree) -> dict:
    return {"height": enc_ordinal(t.height),
            "explicit": [{"height": enc_ordinal(h), "nodes": [enc_node(n) for n in ns]}
                         for h, ns in t.explicit],
            "catalogs": [{"height": enc_ordinal(h), "catalog": enc_catalog(c)}
                         for h, c in t.catalogs]}

def dec_tree(d: Any, where: str) -> SymTree:
    height = dec_ordinal(_object(d, where).get("height"))
    explicit, catalogs = {}, {}
    for i, e in enumerate(_objects(d, "explicit", where)):
        ew = f"{where}.explicit[{i}]"
        h = dec_ordinal(e.get("height"))
        _expect(h not in explicit, f"{ew}.height: repeated height {h}")
        explicit[h] = tuple(dec_node(n) for n in _list_field(e, "nodes", ew))
    for i, e in enumerate(_objects(d, "catalogs", where)):
        cw = f"{where}.catalogs[{i}]"
        h = dec_ordinal(e.get("height"))
        _expect(h not in catalogs, f"{cw}.height: repeated height {h}")
        catalogs[h] = dec_catalog(_required(e, "catalog", cw), f"{cw}.catalog")
    return SymTree.make(height, explicit, catalogs)


# -- the big composites ----------------------------------------------------------

def enc_x(x: XSequence) -> dict:
    if x == DEFAULT_X:
        return {"kind": "default"}
    return {"x0": enc_upset(x.x0), "base": x.base}

def dec_x(d: Any) -> XSequence:
    if d is None or _object(d, "x").get("kind") == "default":
        return DEFAULT_X
    base = _int_field(d, "base", "x") if "base" in d else 4
    x = XSequence(dec_upset(_required(d, "x0", "x"), "x.x0"), base)
    x.validate("s3")
    return x


def enc_condition(c: Condition) -> dict:
    return {"format": FORMAT, "variant": c.variant, "x": enc_x(c.x),
            "tree": enc_tree(c.tree), "path": enc_path(c.path)}

def dec_condition(d: Any, where: str = "") -> Condition:
    """A condition at JSON path `where`, "" when it is the document."""
    _expect(isinstance(d, dict) and d.get("format") == FORMAT, "unknown condition format")
    return Condition(dec_tree(_required(d, "tree", where), _child(where, "tree")),
                     dec_path(_required(d, "path", where), _child(where, "path")),
                     str(_required(d, "variant", where)), dec_x(d.get("x")))


def enc_zmap(z: ZMap) -> dict:
    return {"lo": enc_ordinal(z.lo), "hi": enc_ordinal(z.hi), "closed_hi": z.closed_hi,
            "cells": [{"block": w, "cell": enc_cell(c)} for w, c in z.cells],
            "entries": [{"key": enc_ordinal(k), "node": enc_node(v)} for k, v in z.entries]}

def dec_zmap(d: Any, where: str = "z") -> ZMap:
    lo, hi = (dec_ordinal(_object(d, where).get(k), f"{where}.{k}") for k in ("lo", "hi"))
    closed_hi = d.get("closed_hi")
    _expect(type(closed_hi) is bool, f"{where}.closed_hi: expected a bool, got {closed_hi!r}")
    cells = [(_int_field(e, "block", f"{where}.cells[{i}]", 0),
              dec_cell(e.get("cell"), f"{where}.cells[{i}].cell"))
             for i, e in enumerate(_objects(d, "cells", where))]
    entries = {}
    for i, e in enumerate(_objects(d, "entries", where)):
        k = dec_ordinal(e.get("key"), f"{where}.entries[{i}].key")
        _expect(k not in entries, f"{where}.entries[{i}].key: repeated key {k}")
        entries[k] = dec_node(e.get("node"), where=f"{where}.entries[{i}].node")
    return amalgam.ZMap.make(lo, hi, closed_hi, cells, entries)


def enc_chain_tail(t: ChainTail) -> dict:
    return {"beta_step": t.beta_step, "schemes": [enc_scheme(s) for s in t.schemes],
            "z_tokens": [list(tok) for tok in t.z_tokens]}

def _z_token(tok: Any, where: str) -> tuple:
    _expect(tok == ["last"] or (isinstance(tok, list) and len(tok) == 2
                                and tok[0] == "const" and type(tok[1]) is int),
            f"{where}: expected [\"last\"] or [\"const\", int], got {tok!r}")
    return tuple(tok)

def dec_chain_tail(d: Any, where: str) -> ChainTail:
    _object(d, where)
    for key in ("schemes", "z_tokens"):
        _expect(bool(_list_field(d, key, where)), f"{where}.{key}: expected a nonempty list")
    return amalgam.ChainTail(_int_field(d, "beta_step", where, 1),
                             tuple(dec_scheme(s, f"{where}.schemes[{i}]")
                                   for i, s in enumerate(d["schemes"])),
                             tuple(_z_token(tok, f"{where}.z_tokens[{i}]")
                                   for i, tok in enumerate(d["z_tokens"])))


def enc_chain(ch: ChainDescriptor) -> dict:
    return {"format": FORMAT, "gamma": enc_ordinal(ch.gamma), "delta": enc_ordinal(ch.delta),
            "closed_delta": ch.closed_delta,
            "members": [{"beta": enc_ordinal(m.beta), "condition": enc_condition(m.cond),
                         "z": enc_zmap(m.z)} for m in ch.members],
            "tail": enc_chain_tail(ch.tail) if ch.tail else None}

def dec_chain(d: Any) -> ChainDescriptor:
    _expect(_object(d, "chain").get("format") == FORMAT, "unknown chain format")
    return amalgam.ChainDescriptor(
        tuple(amalgam.ChainMember(dec_ordinal(m.get("beta"), f"chain.members[{i}].beta"),
                                  dec_condition(m.get("condition"),
                                                f"chain.members[{i}].condition"),
                                  dec_zmap(m.get("z"), f"chain.members[{i}].z"))
              for i, m in enumerate(_objects(d, "members", "chain"))),
        dec_chain_tail(d["tail"], "chain.tail") if d.get("tail") else None,
        dec_ordinal(_required(d, "gamma", "chain"), "chain.gamma"),
        dec_ordinal(_required(d, "delta", "chain"), "chain.delta"),
        bool(d.get("closed_delta", False)))


def enc_path_descriptor(p: PathDescriptor) -> dict:
    return {"format": FORMAT, "base": enc_condition(p.base),
            "rule": enc_tail_rule(p.rule) if p.rule else None}

def dec_path_descriptor(d: Any) -> PathDescriptor:
    """A rule continues its base condition: it starts one height above the
    condition's top, with an acceptable support from that top. The support
    is held only against a valid condition; `surgery.branch_surgery` rejects
    an invalid one with its own violations."""
    _expect(_object(d, "path").get("format") == FORMAT, "unknown path format")
    base = dec_condition(_required(d, "base", ""), "base")
    rule = dec_tail_rule(d["rule"]) if d.get("rule") else None
    if rule is not None:
        h = rule.base.height
        _expect(h == base.eta.succ(), f"rule.base: height {h} is not {base.eta.succ()}, "
                f"one above the base condition's top height {base.eta}")
        s = supp(base.top, rule.base)
        if not _supp_ok(base.variant, s, base.x) and check_condition(base).ok:
            raise aposet.NotLinked(f"rule.base: supp({base.eta},{h}) = {s} unacceptable: "
                                  "the rule does not continue the base condition")
    return aposet.PathDescriptor(base, rule)


def dec_map(d: Any) -> PiecewiseMap:
    """A piece's slope `a` is only checked to be an int: a constant or
    decreasing piece is well formed and fails `is_injective`."""
    _object(d, "pi")
    pieces = []
    for i, p in enumerate(_list_field(d, "pieces", "pi")):
        where = f"pi.pieces[{i}]"
        ap = AP(_int_field(p, "start", where, 0), _int_field(p, "step", where, 1))
        pieces.append(MapPiece(ap, _int_field(p, "a", where), _int_field(p, "b", where, 0)))
    return PiecewiseMap(tuple(pieces), tuple(_nat_pair(p, f"pi.points[{i}]")
                                             for i, p in enumerate(_list_field(d, "points", "pi"))))


def dec_triple(d: Any) -> SealTriple:
    _expect(_object(d, "triple").get("format") == FORMAT, "unknown triple format")
    return sealing.SealTriple(dec_level(_required(d, "x_family", ""), "x_family"),
                              dec_upset(_required(d, "y", ""), "y"), dec_map(_required(d, "pi", "")))


def enc_transcript(t: Transcript) -> dict:
    conds = []
    index: dict[int, int] = {}
    moves = []
    for mv in t.moves:
        key = id(mv.cond)
        if key not in index:
            index[key] = len(conds)
            conds.append(enc_condition(mv.cond))
        moves.append({"stage": enc_ordinal(mv.stage), "mover": mv.mover,
                      "condition_ref": index[key],
                      "z": enc_zmap(mv.z) if mv.z else None})
    return {"format": FORMAT, "mu": enc_ordinal(t.mu), "xi": t.xi,
            "verdict": t.verdict,
            "illegal_stage": enc_ordinal(t.illegal_stage) if t.illegal_stage else None,
            "notes": list(t.notes), "moves": moves, "conditions": conds}
