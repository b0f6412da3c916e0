"""Symbolic laboratory for Souslin-tree forcing conditions with ascent paths.

Everything is desk scale and exactly decidable: heights live below a small
multiple of omega, sets of naturals are ultimately periodic, infinite node
families are finitely many affine-templated cells plus exceptions, and
every constructor re-verifies its stated postconditions.

Submodules load on first use. Importing the package registers each one in
`sys.modules` through `importlib.util.LazyLoader`: the module object exists
at once, and its code runs when one of its attributes is first read. The
names re-exported here (`ascentlab.amalgamate` and so on) are served from
their modules by `__getattr__` (PEP 562). `ascentlab.cli` is the `-m` entry
point and is imported as usual.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the submodules registered lazily, bottom up
_SUBMODULES = ("foundations", "nodes", "ascent", "trees", "conditions", "serialize",
               "amalgam", "aposet", "game", "sealing", "surgery", "fixtures")

# root name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "foundations": ("DEFAULT_X", "EVENS", "FULL_SET", "GT", "LT", "EQ", "ODDS", "OMEGA",
                    "OMEGA_NAT", "Ordinal", "UPSet", "XSequence", "ZERO", "filter_classify",
                    "is_cobounded", "ord_compare", "upset_algebra"),
    "nodes": ("BlockWord", "Ramp", "SymNode", "const_node", "delta", "eq_star", "eval_at",
              "graft", "mutually_exclusive", "node", "restrict"),
    "ascent": ("AscentLevel", "AscentPath", "Cell", "PiecewiseMap", "TailRule", "me_family",
               "order_iso", "supp"),
    "trees": ("BranchCatalog", "CatalogFamily", "CatalogSingle", "SymTree", "check_tree",
              "tree_contains", "vanishing_levels"),
    "conditions": ("Condition", "S_F", "S_THETA", "S_X", "check_condition", "eta_nu", "leq_s",
                   "make_bad_extension", "one_step_extension", "root_condition"),
    "amalgam": ("ChainDescriptor", "ChainMember", "ChainTail", "ZMap", "amalgamate"),
    "aposet": ("PathDescriptor", "THETA", "check_antichain", "derive_branches", "is_bad",
               "leq_a"),
    "game": ("OpponentPolicy", "Transcript", "check_run_invariants", "onestep_opponent",
             "play_game", "random_opponent", "strategy_ii_move"),
    "sealing": ("OracleHit", "SealTriple", "absorb_node", "check_triple", "identity_triple",
                "seal_step", "transposition_triple"),
    "surgery": ("branch_surgery", "canonical_pi"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def _register(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    # the flag an eager import leaves on its spec: without it, every later
    # import statement that names the module (`from .nodes import x` inside a
    # function) pays a failed attribute lookup
    spec._initializing = False
    return module


globals().update((name, _register(name)) for name in _SUBMODULES)


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS})
