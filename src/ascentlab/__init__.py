"""Symbolic laboratory for Souslin-tree forcing conditions with ascent paths.

Everything is desk scale and exactly decidable: heights live below a small
multiple of omega, sets of naturals are ultimately periodic, infinite node
families are finitely many affine-templated cells plus exceptions, and
every constructor re-verifies its stated postconditions.
"""

from .foundations import (
    DEFAULT_X, EVENS, FULL_SET, GT, LT, EQ, ODDS, OMEGA, OMEGA_NAT, Ordinal,
    UPSet, XSequence, ZERO, filter_classify, is_cobounded, ord_compare,
    upset_algebra,
)
from .nodes import (
    BlockWord, Ramp, SymNode, const_node, delta, eq_star, eval_at, graft,
    mutually_exclusive, node, restrict,
)
from .ascent import (
    AscentLevel, AscentPath, Cell, PiecewiseMap, TailRule, me_family,
    order_iso, supp,
)
from .trees import (
    BranchCatalog, CatalogFamily, CatalogSingle, SymTree, check_tree,
    tree_contains, vanishing_levels,
)
from .conditions import (
    Condition, S_F, S_THETA, S_X, check_condition, eta_nu, leq_s,
    make_bad_extension, one_step_extension, root_condition,
)
from .amalgam import ChainDescriptor, ChainMember, ChainTail, ZMap, amalgamate
from .aposet import (
    PathDescriptor, THETA, check_antichain, derive_branches, is_bad, leq_a,
)
from .game import (
    OpponentPolicy, Transcript, check_run_invariants, onestep_opponent,
    play_game, random_opponent, strategy_ii_move,
)
from .sealing import (
    OracleHit, SealTriple, absorb_node, check_triple, identity_triple,
    seal_step, transposition_triple,
)
from .surgery import branch_surgery, canonical_pi

__version__ = "0.1.0"
