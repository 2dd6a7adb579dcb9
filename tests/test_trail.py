import pytest

from allsat.formula import Clause
from allsat.trail import UNASSIGNED, Trail


def test_assign_levels_and_views():
    t = Trail(6)
    t.new_level()
    t.assign(-5, is_decision=True)
    assert t.var_level[5] == 1
    assert t.values[5] == 0
    c5 = Clause([5, -6], cid=4)
    t.assign(-6, reason=c5)
    assert t.reasons[6] is c5
    assert t.var_level[6] == 1
    t.check_consistent()


def test_level0_fact():
    t = Trail(3)
    unit = Clause([1])
    t.assign(1, reason=unit)
    assert t.var_level[1] == 0
    assert t.lits == [1] and t.reasons[1] is unit


def test_double_assign_rejected():
    t = Trail(2)
    t.assign(1)
    with pytest.raises(RuntimeError):
        t.assign(-1)


def build_three_levels():
    t = Trail(6)
    t.assign(1)                       # level 0
    t.new_level()
    t.assign(2, is_decision=True)
    t.assign(3, reason=Clause([-2, 3]))
    t.new_level()
    t.assign(4, is_decision=True)
    t.new_level()
    t.assign(-5, is_decision=True)
    t.assign(6, reason=Clause([5, 6]))
    return t


def test_cancel_to_removes_upper_levels():
    t = build_three_levels()
    t.cancel_to(1)
    assert t.lits == [1, 2, 3]
    assert t.level == 1
    assert t.values[4] == UNASSIGNED and t.values[5] == UNASSIGNED
    t.check_consistent()


def test_values_are_indexed_by_signed_literal():
    """values[lit] is the value of the literal, for either sign; an
    assignment sets both halves and a cancel resets both."""
    t = build_three_levels()
    assert len(t.values) == 2 * 6 + 1
    for lit in (1, 2, 3, 4, -5, 6):
        assert t.values[lit] == 1
        assert t.values[-lit] == 0
    t.cancel_to(1)
    for var in (4, 5, 6):
        assert t.values[var] == t.values[-var] == UNASSIGNED
    t.check_consistent()
    t.new_level()
    t.assign(5, is_decision=True)      # the other sign of a canceled one
    assert t.values[5] == 1 and t.values[-5] == 0
    t.check_consistent()


@pytest.mark.parametrize("var, stale", [(5, 0), (4, UNASSIGNED), (2, 1)])
def test_check_consistent_reads_the_negative_half(var, stale):
    t = build_three_levels()
    t.cancel_to(2)                     # 5 and 6 unassigned, 4 assigned
    t.values[-var] = stale
    with pytest.raises(AssertionError):
        t.check_consistent()


def test_cancel_to_current_level_is_noop():
    t = build_three_levels()
    before = list(t.lits)
    t.cancel_to(t.level)
    assert t.lits == before


def test_cancel_to_root_keeps_level0():
    t = build_three_levels()
    t.cancel_to(0)
    assert t.lits == [1]
    assert t.level == 0
    t.check_consistent()


def test_sublevels_open_at_flips():
    t = Trail(4)
    t.new_level()
    t.assign(1, is_decision=True)
    assert t.var_sublevel[1] == 0
    t.new_level()
    t.assign(2, is_decision=True)
    t.cancel_to(1)
    t.begin_sublevel()
    t.assign(-2)                      # flipped decision
    assert t.lits[-1] == -2
    assert t.var_sublevel[2] == 1
    assert t.var_level[2] == 1
    t.assign(3, reason=Clause([2, 3]))
    assert t.lits[-1] == 3
    assert t.var_sublevel[3] == 1       # implied entries inherit


def test_implied_entries_have_unit_antecedent_at_their_position():
    t = build_three_levels()
    for idx, lit in enumerate(t.lits):
        reason = t.reasons[abs(lit)]
        if reason is None:
            continue
        # under the prefix before the entry, the antecedent must be unit
        # with this literal as the unit literal
        prefix = set(t.lits[:idx])
        unassigned = [l for l in reason.lits
                      if l not in prefix and -l not in prefix]
        falsified = [l for l in reason.lits if -l in prefix]
        assert unassigned == [lit]
        assert len(falsified) == len(reason.lits) - 1


def test_decision_of():
    t = build_three_levels()
    assert t.decision_of(1) == 2
    assert t.decision_of(3) == -5
    with pytest.raises(RuntimeError):
        Trail(2).decision_of(0)
