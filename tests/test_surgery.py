import pytest

from ascentlab.foundations import OMEGA, Ordinal, ProfileViolation
from ascentlab.ascent import PiecewiseMap
from ascentlab.conditions import S_X, check_condition, eta_nu, leq_s
from ascentlab.fixtures import uniform_path
from ascentlab.nodes import const_node, graft, node
from ascentlab.surgery import BadPi, branch_surgery, canonical_pi, validate_pi
from ascentlab.trees import tree_contains, vanishing_levels


def test_canonical_pi_shape():
    from ascentlab.foundations import DEFAULT_X
    pi = canonical_pi(DEFAULT_X, 2)
    validate_pi(pi, DEFAULT_X, 2)
    # identity on multiples of four
    for k in (4, 8, 12):
        assert pi.apply(k) == k
    # everything else walks the kept part of the evens
    got = sorted(pi.apply(k) for k in [0, 1, 2, 3, 5])
    for v in got:
        assert v in DEFAULT_X.x0 and v != 2 and v not in DEFAULT_X.entry(1)


def test_pi_moving_x1_rejected():
    from ascentlab.foundations import DEFAULT_X
    pi = canonical_pi(DEFAULT_X, 2)
    # swap two X_1 points on top of the canonical map
    broken = PiecewiseMap(pi.pieces, pi.points + ((4, 8), (8, 4)))
    with pytest.raises(BadPi):
        validate_pi(broken, DEFAULT_X, 2)


def test_surgery_fixture():
    p = uniform_path(4)
    out = branch_surgery(p, 2)
    assert out.eta == OMEGA
    assert check_condition(out, S_X).ok
    # the top ascent level is b_{pi(n)}; on X_1 that is b_n itself
    for n in (4, 8):
        assert out.top.at(n) == const_node(2 * n, OMEGA)
    # b_2 vanishes, other branches are members
    assert not tree_contains(out.tree, const_node(4, OMEGA))
    assert tree_contains(out.tree, const_node(0, OMEGA))
    assert tree_contains(out.tree, graft(node(7, 7), const_node(12, OMEGA)))
    assert vanishing_levels(out.tree).levels == frozenset({OMEGA})
    assert leq_s(out, p.base)


def test_surgery_vanishing_modes_agree():
    p = uniform_path(3)
    out = branch_surgery(p, 6)
    assert vanishing_levels(out.tree, "full").levels == \
        vanishing_levels(out.tree, "homogeneous").levels == frozenset({OMEGA})


def test_surgery_rejects_bad_n0():
    p = uniform_path(3)
    with pytest.raises(ProfileViolation):
        branch_surgery(p, 4)   # in X_1
    with pytest.raises(ProfileViolation):
        branch_surgery(p, 3)   # not in X_0


def test_surgery_eta_nu():
    p = uniform_path(3)
    out = branch_surgery(p, 2)
    eta, nu = eta_nu(out)
    assert eta == OMEGA
    from ascentlab.foundations import OMEGA_NAT
    assert nu == OMEGA_NAT


def test_failed_reverification_raises_postcondition(monkeypatch):
    """The output's check forced to fail on a valid base: a defect of the
    surgery (the base is checked only after a failure, and passes)."""
    from ascentlab import surgery
    from ascentlab.conditions import ConditionReport
    from ascentlab.foundations import PostconditionFailed
    path, check = uniform_path(3), surgery.check_condition
    monkeypatch.setattr(surgery, "check_condition", lambda cond, variant: check(cond, variant)
                        if cond is path.base else ConditionReport(variant, (("C1", False),), ("forced",), ()))
    with pytest.raises(PostconditionFailed, match="surgery output invalid: forced"):
        branch_surgery(path, 2)
