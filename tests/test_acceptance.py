"""Acceptance suite.

Every criterion prints one line of the form

    ACCEPTANCE <k> PASS|FAIL - <summary>

(run with ``pytest -s`` to see them live).  Criterion 2's sweep over the
random corpus is executed once in a session fixture; criteria 3, 7, and 8
assert over artifacts collected during that sweep.
"""

import random
import time
from contextlib import contextmanager

import pytest

from allsat import (BddBlockingSolver, BddSolver, BlockingSolver, Budget,
                    Kernel, LimitExceeded, NonBlockingSolver, RefreshPolicy,
                    compute_cuts, count_models, dump, enumerate_all,
                    from_clause_lists, load, make_formula)
from allsat.obdd import iter_paths
from allsat.oracle import check_cube_cover

from conftest import (EX31_CLAUSES, EX41_CLAUSES, blocking_clauses,
                      brute_force_cuts, script_decisions, solution_mask,
                      trail_trace)

SWEEP_INSTANCES = 200
MODEL_CAP = 1500         # keeps the exhaustive sweep inside the time budget

NONBLOCKING_CONFIGS = [dict(uip=u, backtrack=b)
                       for u in ("sublevel", "dlevel")
                       for b in ("bt", "bj", "cbj", "bjcbj")]
BLOCKING_CONFIGS = [dict(simplify=s, continue_search=c)
                    for s in (False, True) for c in (False, True)]
BDD_CONFIGS = [("bdd", "cutset"), ("bdd", "separator"),
               ("bdd-blocking", "cutset"), ("bdd-blocking", "separator")]


@contextmanager
def criterion(number, summary):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} FAIL - {summary}")
        raise
    print(f"\nACCEPTANCE {number} PASS - {summary}")


def ex31():
    return from_clause_lists(6, EX31_CLAUSES)


def ex41():
    return from_clause_lists(3, EX41_CLAUSES)


def entailed_by_models(masks, n, lits) -> bool:
    pos = neg = 0
    for l in lits:
        if l > 0:
            pos |= 1 << (l - 1)
        else:
            neg |= 1 << (-l - 1)
    full = (1 << n) - 1
    return all((m & pos) or ((m ^ full) & neg) for m in masks)


def make_corpus():
    """Random 3-CNF corpus: n in [5,15], clause/var ratio in [1,5], model
    count capped so the full 16-config sweep stays inside minutes."""
    rng = random.Random(20240817)
    corpus = []
    while len(corpus) < SWEEP_INSTANCES:
        n = rng.randint(5, 15)
        ratio = rng.uniform(1.0, 5.0)
        m = max(1, round(ratio * n))
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = from_clause_lists(n, clauses)
        models = enumerate_all(f)
        if models.count > MODEL_CAP:
            continue
        corpus.append((f, models))
    corpus.append((ex31(), enumerate_all(ex31())))
    corpus.append((ex41(), enumerate_all(ex41())))
    return corpus


def checked_analyze(kernel, violations):
    """Wrap analysis with the structural check: the UIP is the single
    current-scope literal carrying an antecedent; every other current-scope
    literal in the clause is a flip (NULL antecedent)."""
    original = kernel.analyze

    def wrapper(conflict, uip="dlevel", stop_lit=None):
        learned = original(conflict, uip, stop_lit)
        t = kernel.trail
        uip_lit = learned.lits[0]
        dl = t.level
        sub = max(t.var_sublevel[abs(l)] for l in conflict.lits
                  if t.var_level[abs(l)] == dl)
        in_scope = []
        for l in learned.lits:
            v = abs(l)
            if t.var_level[v] != dl:
                continue
            if uip == "sublevel" and t.var_sublevel[v] != sub:
                continue
            in_scope.append(l)
        with_reason = [l for l in in_scope if t.reasons[abs(l)] is not None]
        if uip_lit not in in_scope:
            violations.append(("uip out of scope", learned.lits))
        if len(with_reason) > 1:
            violations.append(("several expandable literals", learned.lits))
        for l in in_scope:
            if l != uip_lit and t.reasons[abs(l)] is not None:
                violations.append(("non-flip beside the UIP", learned.lits))
        return learned

    kernel.analyze = wrapper


class Sweep:
    """Artifacts of running all 16 configurations over the corpus."""

    def __init__(self):
        self.count_mismatches = []
        self.set_mismatches = []
        self.cover_failures = []
        self.duplicate_solutions = []
        self.entailment_failures = []
        self.structure_violations = []
        self.obdd_count_mismatches = []
        self.obdd_path_failures = []
        self.round_trip_failures = []
        self.elapsed = 0.0
        self.runs = 0


@pytest.fixture(scope="session")
def sweep():
    corpus = make_corpus()
    result = Sweep()
    started = time.monotonic()
    for idx, (f, models) in enumerate(corpus):
        want = models.count
        want_masks = set(models.masks)
        n = f.num_vars

        def check_entailment(kernel, label):
            for c in kernel.store.learned:
                if not entailed_by_models(models.masks, n, c.lits):
                    result.entailment_failures.append((idx, label, c.lits))

        for cfg in BLOCKING_CONFIGS:
            cubes = []
            solver = BlockingSolver(f, **cfg, sink=cubes.append)
            got = solver.run()
            result.runs += 1
            if not cfg["simplify"] and len(cubes) != want:
                result.count_mismatches.append(
                    (idx, "blocking", len(cubes), want))
            if got != want:
                result.count_mismatches.append(
                    (idx, "blocking-covered", got, want))
            ok, msg = check_cube_cover(cubes, f)
            if not ok:
                result.cover_failures.append((idx, cfg, msg))

        for cfg in NONBLOCKING_CONFIGS:
            sols = []
            solver = NonBlockingSolver(f, **cfg, sink=sols.append)
            checked_analyze(solver.kernel, result.structure_violations)
            got = solver.run()
            result.runs += 1
            label = f"{cfg['uip']}/{cfg['backtrack']}"
            if got != want:
                result.count_mismatches.append((idx, label, got, want))
            masks = [solution_mask(s) for s in sols]
            if len(masks) != len(set(masks)):
                result.duplicate_solutions.append((idx, label))
            if set(masks) != want_masks:
                result.set_mismatches.append((idx, label))
            check_entailment(solver.kernel, label)

        for engine, cache in BDD_CONFIGS:
            if engine == "bdd":
                solver = BddSolver(f, cache=cache)
            else:
                solver = BddBlockingSolver(f, cache=cache)
            got = solver.run_bdd()
            result.runs += 1
            label = f"{engine}/{cache}"
            if got != want:
                result.count_mismatches.append((idx, label, got, want))
            store = solver.store
            if count_models(store) != want:
                result.obdd_count_mismatches.append((idx, label))
            seen_paths = set()
            for path in iter_paths(store):
                if len(path) != n:
                    result.obdd_path_failures.append((idx, label, "short"))
                    break
                mask = 0
                for var, value in path:
                    if value:
                        mask |= 1 << (var - 1)
                if mask not in want_masks:
                    result.obdd_path_failures.append((idx, label, "non-model"))
                    break
                seen_paths.add(mask)
            else:
                if seen_paths != want_masks:
                    result.obdd_path_failures.append((idx, label, "missing"))
            if engine == "bdd":
                check_entailment(solver.kernel, label)
            if idx % 25 == 0:
                again = load(dump(store))
                if count_models(again) != count_models(store):
                    result.round_trip_failures.append((idx, label))
    result.elapsed = time.monotonic() - started
    return result


# ----------------------------------------------------------------------

def test_criterion_1_worked_goldens():
    with criterion(1, "worked-example goldens reproduced exactly"):
        # (a) propagation trace under forced decisions -x5, x3, x2
        f = ex31()
        k = Kernel(f)
        assert k.propagate() is None
        k.make_decision(-5)
        assert k.propagate() is None
        trace = trail_trace(k.trail)
        assert trace == [(-5, 1, None), (-6, 1, 4)]
        k.make_decision(3)
        assert k.propagate() is None
        trace = trail_trace(k.trail)
        assert trace == [(-5, 1, None), (-6, 1, 4), (3, 2, None),
                         (1, 2, 0), (4, 2, 2)]
        k.make_decision(2)
        assert k.propagate() is None
        assert k.trail.all_assigned()

        # (b) conflict under -x4, -x6, -x2 learns x4 | -x3, backjump level 1
        k = Kernel(f)
        conflict = k.propagate()
        for lit in (-4, -6, -2):
            assert conflict is None
            k.make_decision(lit)
            conflict = k.propagate()
        assert conflict is not None
        learned = k.analyze(conflict)
        assert sorted(learned.lits, key=abs) == [-3, 4]
        assert learned.assert_level == 1

        # (c) textbook blocking run: two cubes, two clauses, in order
        cubes = []
        solver = BlockingSolver(ex41(), all_literals=True,
                                sink=cubes.append)
        assert solver.run() == 2
        assert cubes == [(-1, -2, -3), (1, 2, 3)]
        assert blocking_clauses(solver) == [(1, 2, 3), (-1, -2, -3)]

        # (d) simplification under forced decisions yields x5 | -x3
        solver = script_decisions(
            BlockingSolver(f, simplify=True), [-5, 3, 2])
        solver.run()
        assert blocking_clauses(solver)[0] == (-3, 5)


def test_criterion_2_oracle_equivalence(sweep):
    with criterion(2, f"oracle equivalence of all 16 configurations on "
                      f"{SWEEP_INSTANCES}+2 instances "
                      f"({sweep.elapsed:.1f}s for {sweep.runs} runs)"):
        assert sweep.count_mismatches == []
        assert sweep.set_mismatches == []
        assert sweep.duplicate_solutions == []
        assert sweep.cover_failures == []
        assert sweep.elapsed < 300.0


def test_criterion_3_obdd_correctness(sweep):
    with criterion(3, "OBDD counts, path satisfaction, dump round trips"):
        assert sweep.obdd_count_mismatches == []
        assert sweep.obdd_path_failures == []
        assert sweep.round_trip_failures == []


def test_criterion_4_worked_formula_facts():
    with criterion(4, "22 models; cutset(3)={C2,C3}; separator(3)={x1,x2,x3}"):
        f = ex31()
        models = enumerate_all(f)
        assert models.count == 22
        # hand case split: 6 models with x3=1, 16 with x3=0
        with_x3 = [m for m in models.masks if (m >> 2) & 1]
        assert len(with_x3) == 6 and models.count - len(with_x3) == 16
        cutsets, separators = brute_force_cuts(f)
        assert cutsets[3] == [1, 2] and separators[3] == [1, 2, 3]
        # through the keys: over the eight prefixes x1..x3 the codes at cut
        # 3 set exactly those bits, and x1=1, x2=0, x3=1 gives C2 satisfied
        # (C3 not) and x1, x3 true
        for mode, union, worked in (("cutset", 0b110, 0b10),
                                    ("separator", 0b1110, 0b1010)):
            steps = compute_cuts(f, mode)
            seen = 0
            for bits in range(8):
                values = [None, bits & 1, bits >> 1 & 1, bits >> 2, 0, 0, 0]
                seen |= make_formula(steps, values, [0], 3)[1]
            assert seen == union, mode
            values = [None, 1, 0, 1, None, None, None]
            assert make_formula(steps, values, [0], 3) == (3, worked), mode


def test_criterion_5_scalability_smoke():
    with criterion(5, "60-var instance: bdd counts oracle12 * 2^48 in < 5 s; "
                      "nonblocking exceeds a 5 s limit"):
        chain = [[k, -(k + 1)] for k in range(1, 12)]
        f60 = from_clause_lists(60, chain)
        want = enumerate_all(from_clause_lists(12, chain)).count * 2 ** 48
        started = time.monotonic()
        total = BddSolver(f60).run_bdd()
        elapsed = time.monotonic() - started
        assert total == want
        assert elapsed < 5.0
        solver = NonBlockingSolver(f60, budget=Budget(time_limit=5.0))
        with pytest.raises(LimitExceeded):
            solver.run()


def test_criterion_6_refresh_partition(tmp_path):
    with criterion(6, "theta=n+1 refresh: dumps plus final partition the "
                      "model set exactly"):
        rng = random.Random(99)
        checked = 0
        while checked < 3:
            n = rng.randint(8, 12)
            clauses = [[v if rng.random() < 0.5 else -v
                        for v in rng.sample(range(1, n + 1), 3)]
                       for _ in range(int(1.5 * n))]
            f = from_clause_lists(n, clauses)
            models = enumerate_all(f)
            if not 100 <= models.count <= 1000:
                continue
            checked += 1
            policy = RefreshPolicy(threshold=n + 1, dump_dir=tmp_path,
                                   stem=f"acc6_{checked}")
            solver = BddSolver(f, policy=policy)
            assert solver.run_bdd() == models.count
            assert solver.dumps
            seen = set()
            for part, _ in solver.dumps:
                with open(part) as fh:
                    part_store = load(fh.read())
                for path in iter_paths(part_store):
                    assert path not in seen, "assignment in two dumps"
                    seen.add(path)
            for path in iter_paths(solver.store):
                assert path not in seen
                seen.add(path)
            assert len(seen) == models.count


def test_criterion_7_learned_clause_entailment(sweep):
    with criterion(7, "every learned clause oracle-entailed in nonblocking "
                      "and bdd runs"):
        assert sweep.entailment_failures == []


def test_criterion_8_cross_scheme_agreement(sweep):
    with criterion(8, "uip schemes and backtracking strategies agree; "
                      "learned clauses keep their structural shape"):
        # count agreement across schemes is covered by criterion 2's empty
        # mismatch lists; here the structural invariant must hold as well
        assert sweep.count_mismatches == []
        assert sweep.structure_violations == []
