import random

from allsat import BlockingSolver, enumerate_all, from_clause_lists
from allsat.oracle import check_cube_cover, cube_expansion_count

from conftest import blocking_clauses, random_instances, script_decisions


def run_collect(f, decisions=(), **options):
    """Run a blocking engine with ``options`` after the scripted
    ``decisions``; returns it, its cubes and the models they cover."""
    cubes = []
    solver = script_decisions(
        BlockingSolver(f, **options, sink=cubes.append), decisions)
    count = solver.run()
    return solver, cubes, count


def test_worked_enumeration(ex41):
    solver, cubes, count = run_collect(ex41)
    assert count == 2
    assert {frozenset(c) for c in cubes} == {
        frozenset({-1, -2, -3}), frozenset({1, 2, 3})}


def test_all_literal_run_matches_textbook(ex41):
    """Basic loop: full-assignment blocking clauses, two cubes, two clauses,
    in order, then unsatisfiable."""
    solver, cubes, count = run_collect(ex41, all_literals=True)
    assert cubes == [(-1, -2, -3), (1, 2, 3)]
    assert blocking_clauses(solver) == [(1, 2, 3), (-1, -2, -3)]
    assert count == 2


def test_empty_clause_formula_yields_nothing():
    f = from_clause_lists(2, [[]])
    assert BlockingSolver(f).run() == 0


def test_worked_expansion_count(ex31):
    solver, cubes, count = run_collect(ex31)
    assert count == len(cubes) == enumerate_all(ex31).count == 22
    # without simplification every cube is total
    assert all(len(c) == 6 for c in cubes)


def test_make_blocking_clause_variants(ex31, ex41):
    # all-literal variant on the first found solution
    k_cubes = []
    solver = BlockingSolver(ex41, all_literals=True, sink=k_cubes.append)
    solver.run()
    assert blocking_clauses(solver)[0] == (1, 2, 3)

    # zero decisions -> empty clause signals halt
    single = from_clause_lists(1, [[1]])
    solver, cubes, count = run_collect(single)
    assert count == 1 and cubes == [(1,)]
    assert blocking_clauses(solver) == []   # halted before blocking

    # simplification on the worked trail: forced decisions -x5, x3, x2
    solver, cubes, count = run_collect(ex31, decisions=[-5, 3, 2],
                                       simplify=True)
    assert blocking_clauses(solver)[0] == (-3, 5)   # x5 or not-x3


def test_simplified_first_cube_drops_redundant_decision(ex31):
    solver, cubes, count = run_collect(ex31, decisions=[-5, 3, 2],
                                       simplify=True)
    # first cube drops x2 (redundant decision): covers 2 assignments
    first = cubes[0]
    assert 2 not in first and -2 not in first
    assert cube_expansion_count(first, 6) == 2
    ok, msg = check_cube_cover(cubes, ex31)
    assert ok, msg


def test_simplify_cube_extensions_all_satisfy():
    for f in random_instances(seed=43, count=30, n_range=(3, 10)):
        solver, cubes, _ = run_collect(f, simplify=True)
        ok, msg = check_cube_cover(cubes, f)
        assert ok, msg


def test_disjoint_and_complete_all_configs():
    for f in random_instances(seed=44, count=25, n_range=(3, 11)):
        want = enumerate_all(f).count
        for simplify in (False, True):
            for cont in (False, True):
                solver, cubes, count = run_collect(
                    f, simplify=simplify, continue_search=cont)
                ok, msg = check_cube_cover(cubes, f)
                assert ok, msg
                assert count == want
                if not simplify:
                    assert len(cubes) == want


def test_continuation_replays_saved_decisions(ex31):
    """Worked continuation flow: after the first restart the saved decision
    for x5 is remade, while x3 is barred by the new blocking clause."""
    from allsat import Kernel
    from allsat.blocking import replay_decisions
    from allsat.formula import Clause

    k = Kernel(ex31)
    k.propagate()
    for lit in (-5, 3, 2):
        k.make_decision(lit)
        assert k.propagate() is None
    assert k.trail.all_assigned()
    saved = k.trail.decisions()
    assert saved == [-5, 3, 2]

    # simplified blocking clause x5 or not-x3, then restart and replay
    k.cancel_to(0)
    clause = Clause([5, -3])
    k.add_blocking(clause)
    k.attach_clause(clause)
    conflict = replay_decisions(k, saved)
    assert conflict is None
    # -x5 was remade as a decision; the blocking clause then forces -x3,
    # so the saved decision x3 is barred and replay stops there
    assert k.stats.decisions == 4          # three originals + one replayed
    assert k.trail.values[5] == 0
    assert k.trail.values[3] == 0
    assert k.trail.reasons[3] is clause


def test_continuation_full_run_still_covers(ex31):
    solver, cubes, count = run_collect(
        ex31, decisions=[-5, 3, 2], simplify=True, continue_search=True)
    ok, msg = check_cube_cover(cubes, ex31)
    assert ok, msg


def test_replay_empty_progress_is_noop(ex31):
    from allsat import Kernel
    from allsat.blocking import replay_decisions
    k = Kernel(ex31)
    k.propagate()
    before = len(k.trail)
    assert replay_decisions(k, []) is None
    assert len(k.trail) == before


def test_continuation_stream_equals_plain_stream_as_set():
    for f in random_instances(seed=45, count=20, n_range=(3, 11)):
        base = set()
        cont = set()
        BlockingSolver(f, sink=lambda c: base.add(c)).run()
        BlockingSolver(f, continue_search=True,
                       sink=lambda c: cont.add(c)).run()
        assert base == cont


def test_every_learned_clause_entailed_by_problem_and_blocking():
    from allsat.oracle import entails as oracle_entails
    for f in random_instances(seed=46, count=12, n_range=(3, 9)):
        solver = BlockingSolver(f)
        solver.run()
        # learned clauses are entailed by problem + blocking clauses present
        # at learning time; the final store is a superset, so check against
        # problem clauses plus all blocking clauses (sound direction is
        # guaranteed by construction; here we sanity-check the final state)
        base = [list(c.lits) for c in f.clauses]
        blocking = [list(c.lits) for c in solver.kernel.store.blocking]
        extended = from_clause_lists(f.num_vars, base + blocking)
        for c in solver.kernel.store.learned:
            assert oracle_entails(extended, c.lits)
