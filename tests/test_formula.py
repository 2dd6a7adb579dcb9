import random

import pytest

from allsat import (DimacsError, apply_order, from_clause_lists, parse_dimacs,
                    render_dimacs)
from allsat.formula import read_order_file

from conftest import check_keys_decode, irregular_formulas, random_instances


def test_parse_basic():
    f = parse_dimacs("p cnf 3 3\n1 -2 0\n2 -3 0\n3 -1 0\n")
    assert f.num_vars == 3
    assert f.lit_sets() == [frozenset({1, -2}), frozenset({2, -3}),
                            frozenset({3, -1})]


def test_parse_empty_formula():
    f = parse_dimacs("p cnf 1 0\n")
    assert f.num_vars == 1
    assert f.num_clauses == 0


def test_parse_dedup():
    f = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
    assert f.lit_sets() == [frozenset({1, -2})]
    assert f.parse_stats.duplicates_removed == 1


def test_parse_tautology_dropped():
    f = parse_dimacs("p cnf 2 2\n1 -1 2 0\n1 2 0\n")
    assert f.num_clauses == 1
    assert f.parse_stats.tautologies_dropped == 1


def test_parse_comments_and_multiline_clauses():
    f = parse_dimacs("c hello\np cnf 3 1\n1\n2 3\n0\n")
    assert f.lit_sets() == [frozenset({1, 2, 3})]


def test_parse_percent_trailer():
    f = parse_dimacs("p cnf 2 1\n1 2 0\n%\n0\n")
    assert f.num_clauses == 1


def test_parse_empty_clause_flags_formula():
    f = parse_dimacs("p cnf 2 2\n0\n1 2 0\n")
    assert f.has_empty_clause()


@pytest.mark.parametrize("text,line", [
    ("p cnf x 1\n1 0\n", 1),
    ("p cnf 2 1\n3 0\n", 2),
    ("p cnf 2 1\n1 2\n", 2),
    ("1 0\n", 1),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(DimacsError) as exc:
        parse_dimacs(text)
    assert exc.value.line == line


def test_parse_header_count_mismatch():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 2\n1 2 0\n")


def test_round_trip():
    for f in random_instances(seed=101, count=25):
        assert parse_dimacs(render_dimacs(f)) == f


def test_apply_order_identity(ex31):
    ident = list(range(ex31.num_vars + 1))
    assert apply_order(ex31, ident) == ex31


def test_apply_order_swap():
    f = from_clause_lists(2, [[1, -2]])
    g = apply_order(f, [0, 2, 1])
    assert g.lit_sets() == [frozenset({2, -1})]
    # external reporting undoes the relabeling
    assert g.to_external(2) == 1
    assert g.to_external(-1) == -2


def test_apply_order_rejects_non_bijection(ex31):
    with pytest.raises(ValueError):
        apply_order(ex31, [0, 1, 1, 3, 4, 5, 6])


def random_values(rng, f):
    return [None] + [rng.randint(0, 1) for _ in range(f.num_vars)]


def test_cuts_match_definition_after_reorder(ex31):
    """compute_cuts's key codes decode to the cutsets and separators of
    the reordered formula, for the worked formula and random 3-CNF under
    a drawn variable order."""
    rng = random.Random(79)
    formulas = [apply_order(ex31, [0, 5, 3, 1, 4, 2, 6])]
    for f in random_instances(seed=77, count=20):
        perm = [0] + rng.sample(range(1, f.num_vars + 1), f.num_vars)
        formulas.append(apply_order(f, perm))
    for f in formulas:
        for _ in range(3):
            check_keys_decode(f, random_values(rng, f))


def test_cuts_match_definition_random():
    """The same decoding on random 3-CNF and on irregular formulas of up
    to 40 variables, which the Hypothesis strategy does not reach."""
    rng = random.Random(80)
    for f in (random_instances(seed=77, count=20)
              + irregular_formulas(seed=78, count=40)):
        for _ in range(3):
            check_keys_decode(f, random_values(rng, f))


def test_read_order_file():
    perm = read_order_file("5\n3\n1\n4\n2\n6\n", 6)
    assert perm == [0, 3, 5, 2, 4, 1, 6]
    with pytest.raises(DimacsError):
        read_order_file("1\n2\n", 3)
    with pytest.raises(DimacsError):
        read_order_file("1\n1\n2\n", 3)
