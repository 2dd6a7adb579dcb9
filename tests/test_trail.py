import pytest
from hypothesis import given
from hypothesis import strategies as st

from allsat.trail import UNASSIGNED, Trail

from conftest import check_consistent


def test_assign_levels_and_views():
    t = Trail(6)
    t.decide(-5)
    assert t.var_level[5] == 1 and t.decisions() == [-5]
    assert t.values[5] == 0
    c5 = [5, -6]
    t.assign(-6, reason=c5)
    assert t.reasons[6] is c5
    assert t.var_level[6] == 1
    check_consistent(t)


def test_level0_fact():
    t = Trail(3)
    unit = [1]
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
    t.decide(2)
    t.assign(3, reason=[-2, 3])
    t.decide(4)
    t.decide(-5)
    t.assign(6, reason=[5, 6])
    return t


def test_cancel_to_removes_upper_levels():
    t = build_three_levels()
    t.cancel_to(1)
    assert t.lits == [1, 2, 3]
    assert t.level == 1
    assert t.values[4] == UNASSIGNED and t.values[5] == UNASSIGNED
    check_consistent(t)


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
    check_consistent(t)
    t.decide(5)                        # the other sign of a canceled one
    assert t.values[5] == 1 and t.values[-5] == 0
    check_consistent(t)


@pytest.mark.parametrize("var, stale", [(5, 0), (4, UNASSIGNED), (2, 1)])
def test_check_consistent_reads_the_negative_half(var, stale):
    t = build_three_levels()
    t.cancel_to(2)                     # 5 and 6 unassigned, 4 assigned
    t.values[-var] = stale
    with pytest.raises(AssertionError):
        check_consistent(t)


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
    check_consistent(t)


def test_sublevels_open_at_flips():
    t = Trail(4)
    t.decide(1)
    assert t.var_sublevel[1] == 0
    t.decide(2)
    t.flip(2)                         # flipped decision
    assert t.lits[-1] == -2 and t.level == 1
    assert t.var_sublevel[2] == 1
    assert t.var_level[2] == 1
    assert t.decisions() == [1] and t.reasons[2] is None
    t.assign(3, reason=[2, 3])
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
        unassigned = [l for l in reason
                      if l not in prefix and -l not in prefix]
        falsified = [l for l in reason if -l in prefix]
        assert unassigned == [lit]
        assert len(falsified) == len(reason) - 1


def test_decision_of():
    t = build_three_levels()
    assert t.decision_of(1) == 2
    assert t.decision_of(3) == -5
    with pytest.raises(RuntimeError):
        Trail(2).decision_of(0)


def test_decide_rejects_an_assigned_variable():
    t = Trail(2)
    t.decide(1)
    with pytest.raises(RuntimeError):
        t.decide(-1)
    assert t.level == 1 and t.lits == [1]


def test_flip_into_level_0_taints():
    t = Trail(4)
    t.assign(1, reason=[1])    # a fact of the formula
    t.decide(2)
    t.assign(3, reason=[-2, 3])
    t.decide(4)
    assert t.flip(1) == 1              # cancels every level, -2 lands at 0
    assert t.lits == [1, -2] and t.level == 0
    assert t.var_level[2] == 0 and t.var_sublevel[2] == 1
    assert t.tainted[2] and not t.tainted[1]
    for var in (3, 4):
        assert t.values[var] == t.values[-var] == UNASSIGNED
    check_consistent(t)


def test_flip_needs_a_decision_level():
    t = build_three_levels()
    for level in (0, 4):
        with pytest.raises(RuntimeError):
            t.flip(level)
    t.cancel_to(0)
    t.assign(2)                        # level 0 holds no decision
    with pytest.raises(RuntimeError):
        t.flip(1)


def reference_decide(t: Trail, lit: int) -> None:
    """The decision as separate steps: open a level and assign ``lit``
    there, first, with no antecedent."""
    t.level += 1
    t.level_start.append(len(t.lits))
    t.cur_sublevel.append(0)
    t.assign(lit)


def reference_flip(t: Trail, level: int) -> None:
    """The flip as separate steps: cancel to the level below, open a new
    sublevel there and assign the negated decision with no antecedent."""
    dec = t.decision_of(level)
    t.cancel_to(level - 1)
    t.cur_sublevel[t.level] += 1
    t.assign(-dec)


def trail_state(t: Trail) -> tuple:
    return (t.lits, t.values, t.var_level, t.var_sublevel,
            [id(r) for r in t.reasons], t.tainted,
            t.level, t.level_start, t.cur_sublevel)


@given(st.integers(1, 8), st.data())
def test_flip_matches_cancel_sublevel_assign(n, data):
    """Random decide / assign / flip / cancel sequences on two trails:
    ``decide`` and ``flip`` on one and the step-by-step references on the
    other leave the same state, and the trail stays consistent."""
    t, ref = Trail(n), Trail(n)
    for _ in range(data.draw(st.integers(0, 40))):
        free = [v for v in range(1, n + 1) if t.values[v] == UNASSIGNED]
        ops = ["cancel"] + (["flip"] if t.level else []) \
            + (["decide", "assign"] if free else [])
        op = data.draw(st.sampled_from(ops))
        if op in ("decide", "assign"):
            lit = data.draw(st.sampled_from(free)) \
                * data.draw(st.sampled_from((1, -1)))
            if op == "decide":
                t.decide(lit)
                reference_decide(ref, lit)
            else:
                # an antecedent over some assigned literals, or none
                body = data.draw(st.lists(st.sampled_from(t.lits), unique=True)
                                 if t.lits else st.just([]))
                reason = data.draw(st.sampled_from(
                    (None, [lit] + [-q for q in body])))
                t.assign(lit, reason)
                ref.assign(lit, reason)
        elif op == "flip":
            level = data.draw(st.integers(1, t.level))
            dec = t.decision_of(level)
            pos = t.flip(level)
            reference_flip(ref, level)
            # the returned slot is the flipped decision's, now the last one
            assert pos == len(t.lits) - 1 and t.lits[pos] == -dec
        else:
            level = data.draw(st.integers(0, t.level))
            t.cancel_to(level)
            ref.cancel_to(level)
        assert trail_state(t) == trail_state(ref)
        check_consistent(t)
