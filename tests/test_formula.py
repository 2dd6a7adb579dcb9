import gc
import random

import pytest

from allsat import (Budget, DimacsError, Kernel, LimitExceeded, apply_order,
                    from_clause_lists, parse_dimacs, render_dimacs)
from allsat.formula import (choose_order, force_order, keeps_order,
                            read_order_file)

from conftest import (check_keys_decode, irregular_formulas, random_3cnf,
                      random_instances)
from test_search_counters import window_chain


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


def criterion5_chain():
    """The 60-variable chain of acceptance criterion 5: x1 <- x2 <- ...
    <- x12, and 48 free variables."""
    return from_clause_lists(60, [[k, -(k + 1)] for k in range(1, 12)])


def order_score(f) -> tuple[int, int]:
    """(cut width, total span) of ``f``'s clauses under its own order, by
    the definitions: the most clauses with variables on both sides of one
    cut, and the sum over the clauses of their last less their first
    variable."""
    bounds = [(min(map(abs, c)), max(map(abs, c))) for c in f.clauses if c]
    width = max((sum(lo <= i < hi for lo, hi in bounds)
                 for i in range(1, f.num_vars)), default=0)
    return width, sum(hi - lo for lo, hi in bounds)


def narrow_mixed(n_narrow: int, n_wide: int):
    """Width-3 window clauses first, then clauses over the whole range."""
    chain = window_chain(random.Random(n_narrow), 3000, 3)
    wide = random_3cnf(random.Random(n_wide), 3000, n_wide)
    return from_clause_lists(3000, [list(c) for c in chain.clauses[:n_narrow]
                                    + wide.clauses])


def test_keeps_order_is_two_to_the_cut_width_at_most_the_literals():
    """keeps_order(f) holds exactly when 2^w <= L, w the cut width and L
    the number of literals, also where its pass stops early at one of the
    checkpoints after 1,024, 2,048, ... clauses or runs to the end."""
    formulas = (random_instances(seed=81, count=30)
                + irregular_formulas(seed=82, count=30)
                + [window_chain(random.Random(k), n, w)
                   for k, (n, w) in enumerate([(12, 4), (16, 3), (40, 5),
                                               (1500, 4), (2000, 6)])]
                + [narrow_mixed(1100, 3), narrow_mixed(3000, 1),
                   narrow_mixed(1100, 40), criterion5_chain(),
                   from_clause_lists(3, []), from_clause_lists(3, [[], [1]])])
    kept = 0
    for f in formulas:
        width, _ = order_score(f)
        literals = sum(map(len, f.clauses))
        want = 2 ** width <= literals or literals == 0 or not all(f.clauses)
        assert keeps_order(f) == want, f
        kept += want
    assert 0 < kept < len(formulas)


def test_narrow_input_keeps_its_order():
    for f in (criterion5_chain(), window_chain(random.Random(1), 1500, 4)):
        assert keeps_order(f)
        assert choose_order(f) is f


def test_chosen_order_is_deterministic_and_strictly_better():
    """A wide input gets the same order from every run, a fresh parse of
    the same text included, and that order scores strictly lower by (cut
    width, total span) than its own; reporting stays in original names."""
    f = random_3cnf(random.Random(1), 21, 50)
    assert not keeps_order(f)
    chosen = choose_order(f)
    again = choose_order(parse_dimacs(render_dimacs(f)))
    assert chosen.order == again.order and chosen.clauses == again.clauses
    assert chosen.order != list(range(22))
    assert order_score(chosen) < order_score(f)
    back = sorted(tuple(sorted(map(chosen.to_external, c)))
                  for c in chosen.clauses)
    assert back == sorted(tuple(sorted(c)) for c in f.clauses)


def test_force_order_never_returns_a_worse_order():
    """force_order returns None or a permutation that scores strictly
    lower than the formula's own order, on permuted random inputs."""
    rng = random.Random(83)
    improved = 0
    for f in random_instances(seed=84, count=40, n_range=(3, 30)):
        perm = [0] + rng.sample(range(1, f.num_vars + 1), f.num_vars)
        f = apply_order(f, perm)
        best = force_order(f)
        if best is not None:
            assert order_score(apply_order(f, best)) < order_score(f)
            improved += 1
    assert improved > 10


def test_parse_checks_the_deadline_every_1024_lines():
    """The parser reads the clock after every 1,024 lines, so an expired
    budget lets an input of 1,024 lines through and stops a longer one."""
    reads = []

    class Counting(Budget):
        def check_time(self):
            reads.append(True)
            super().check_time()

    f = random_3cnf(random.Random(2), 400, 2500)
    assert parse_dimacs(render_dimacs(f), Counting()) == f
    assert len(reads) == 2               # after lines 1,024 and 2,048
    expired = Budget(time_limit=0)
    parse_dimacs("p cnf 3 1023\n" + "1 2 3 0\n" * 1023, expired)
    with pytest.raises(LimitExceeded):
        parse_dimacs("p cnf 3 1024\n" + "1 2 3 0\n" * 1024, expired)


def test_force_order_checks_the_deadline_every_1024_clauses():
    """The pass that counts each variable's clauses and each round's pass
    read the clock at their start and after every 1,024 clauses, so an
    expired budget stops FORCE before its first round."""
    reads = []

    class Counting(Budget):
        def check_time(self):
            reads.append(True)
            super().check_time()

    f = random_3cnf(random.Random(2), 400, 2500)
    force_order(f, Counting())
    assert reads and len(reads) % 3 == 0 and len(reads) <= 3 * 12
    with pytest.raises(LimitExceeded):
        force_order(f, Budget(time_limit=0))


class Probe(Budget):
    """A budget that records the collector's state at each deadline check
    and, if ``fail`` is set, stops the run there."""

    def __init__(self, fail: bool):
        super().__init__()
        self.fail = fail
        self.seen: list[bool] = []

    def check_time(self):
        self.seen.append(gc.isenabled())
        if self.fail:
            raise LimitExceeded("time")


def set_up(step: str, fail: bool):
    """One of the three setup steps that pause the collector, on an input
    where it succeeds or, with ``fail``, raises; and a Probe, where the
    step checks a deadline."""
    probe = Probe(fail)
    wide = random_3cnf(random.Random(3), 30, 1100)
    if step == "parse":
        text = "p cnf 2 1\n1 3 0\n" if fail else render_dimacs(wide)
        return (lambda: parse_dimacs(text)), None
    if step == "order":
        return (lambda: choose_order(wide, probe)), probe
    return (lambda: Kernel(wide, probe)), probe


@pytest.mark.parametrize("fail", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("step", ["parse", "order", "kernel"])
def test_setup_restores_the_callers_collector_setting(step, enabled, fail):
    """parse_dimacs, choose_order and Kernel() run with the cyclic
    collector paused and leave it as their caller had it, on or off, also
    when they raise."""
    run, probe = set_up(step, fail)
    try:
        gc.enable() if enabled else gc.disable()
        if fail:
            with pytest.raises((DimacsError, LimitExceeded)):
                run()
        else:
            run()
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
    if probe is not None:
        assert probe.seen and not any(probe.seen)
