import random

import pytest

from allsat import (DimacsError, apply_order, compute_cuts, from_clause_lists,
                    parse_dimacs, render_dimacs)
from allsat.formula import read_order_file

from conftest import random_instances


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


def brute_force_cuts(f):
    """Independent oracle: apply the two definitions literally."""
    n = f.num_vars
    cutsets = [[] for _ in range(n + 1)]
    separators = [[] for _ in range(n + 1)]
    for i in range(n + 1):
        sep = set()
        for c in f.clauses:
            if not c.lits:
                continue
            vs = [abs(l) for l in c.lits]
            if min(vs) <= i < max(vs):
                cutsets[i].append(c.cid)
                sep.update(v for v in vs if v <= i)
        separators[i] = sorted(sep)
    return cutsets, separators


def test_cuts_worked_example(ex31):
    cuts = compute_cuts(ex31)
    assert cuts.cutset(3) == [1, 2]          # C2, C3
    assert cuts.separator(3) == [1, 2, 3]
    assert cuts.cutwidth == 3                # at i=2: C1, C2, C3
    assert cuts.cutset(2) == [0, 1, 2]
    assert cuts.pathwidth == 3
    assert cuts.cutset(0) == [] and cuts.cutset(6) == []


def test_cuts_single_clause():
    f = from_clause_lists(2, [[1, 2]])
    cuts = compute_cuts(f)
    assert cuts.cutset(1) == [0]
    assert cuts.separator(1) == [1]
    assert cuts.cutwidth == 1 and cuts.pathwidth == 1


def test_cuts_match_definition_after_reorder(ex31):
    perm = [0, 5, 3, 1, 4, 2, 6]
    g = apply_order(ex31, perm)
    cuts = compute_cuts(g)
    want_cutsets, want_separators = brute_force_cuts(g)
    assert cuts.cutsets == want_cutsets
    assert cuts.separators == want_separators


def irregular_formulas(seed: int, count: int):
    """Formulas with empty, unit and wide clauses, repeated variables and
    complementary literals in one clause."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 40)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, n)
                    for _ in range(rng.randint(0, 6))]
                   for _ in range(rng.randint(0, 3 * n))]
        out.append(from_clause_lists(n, clauses))
    return out


def test_cuts_match_definition_random():
    for f in (random_instances(seed=77, count=20)
              + irregular_formulas(seed=78, count=40)):
        cuts = compute_cuts(f)
        want_cutsets, want_separators = brute_force_cuts(f)
        assert cuts.cutsets == want_cutsets
        assert cuts.separators == want_separators
        for i, sep in enumerate(cuts.separators):
            assert all(v <= i for v in sep)


def test_read_order_file():
    perm = read_order_file("5\n3\n1\n4\n2\n6\n", 6)
    assert perm == [0, 3, 5, 2, 4, 1, 6]
    with pytest.raises(DimacsError):
        read_order_file("1\n2\n", 3)
    with pytest.raises(DimacsError):
        read_order_file("1\n1\n2\n", 3)
