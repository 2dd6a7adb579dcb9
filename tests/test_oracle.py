import pytest

from allsat import entails, enumerate_all, from_clause_lists, subinstance_models
from allsat.oracle import (OracleGuardError, check_cube_cover,
                           cube_expansion_count, cubes_disjoint, expand_cube,
                           mask_to_lits)

from conftest import literal_sets


def test_worked_examples(ex31, ex41):
    assert enumerate_all(ex31).count == 22
    models = enumerate_all(ex41)
    assert models.count == 2
    assert literal_sets(models) == {
        frozenset({-1, -2, -3}), frozenset({1, 2, 3})}


def test_case_analysis_cross_check(ex31):
    # independent hand computation: 6 models with x3=1, 16 with x3=0
    models = enumerate_all(ex31)
    with_x3 = [m for m in models.masks if (m >> 2) & 1]
    assert len(with_x3) == 6
    assert len(models.masks) - len(with_x3) == 16
    # every x3=1 model forces x1 and x4
    for m in with_x3:
        assert m & 1 and (m >> 3) & 1


def test_empty_formula_and_empty_clause():
    assert enumerate_all(from_clause_lists(3, [])).count == 8
    assert enumerate_all(from_clause_lists(3, [[]])).count == 0


def test_guard():
    with pytest.raises(OracleGuardError):
        enumerate_all(from_clause_lists(26, []))


def test_entails(ex31):
    assert entails(ex31, [4, -3])          # learned clause of the worked run
    assert entails(ex31, [1, -1])          # tautology
    assert not entails(from_clause_lists(1, [[1]]), [-1])


def test_subinstance_models(ex31):
    # fixing x3=1 leaves 6 full models; x1 and x4 are forced in them
    sub = subinstance_models(ex31, {3: 1})
    assert sub.count == 6
    sub_empty = subinstance_models(ex31, {1: 0, 3: 1})   # falsifies C1
    assert sub_empty.count == 0
    everything = subinstance_models(ex31, {})
    assert everything.count == 22


def test_mask_literal_round_trip():
    lits = mask_to_lits(0b101, 3)
    assert lits == (1, -2, 3)


def test_cube_expansion():
    assert cube_expansion_count([1, -2], 4) == 4
    masks = expand_cube([1, -2], 3)
    assert sorted(masks) == [0b001, 0b101]
    assert cubes_disjoint([1, -2], [2, 3])
    assert not cubes_disjoint([1, -2], [1, 3])


def test_check_cube_cover(ex41):
    ok, _ = check_cube_cover([(-1, -2, -3), (1, 2, 3)], ex41)
    assert ok
    ok, msg = check_cube_cover([(-1, -2, -3)], ex41)
    assert not ok and "cover" in msg
    ok, msg = check_cube_cover([(-1, -2, -3), (-1, -2, -3)], ex41)
    assert not ok and "overlap" in msg
