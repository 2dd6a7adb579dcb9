import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allsat import (Kernel, NonBlockingSolver, enumerate_all, entails,
                    from_clause_lists)
from allsat.nonblocking import resolve_clauses
from allsat.trail import UNASSIGNED

from conftest import random_instances, solution_mask

ALL_CONFIGS = [dict(uip=u, backtrack=b)
               for u in ("sublevel", "dlevel")
               for b in ("bt", "bj", "cbj", "bjcbj")]


def masks_of(cubes):
    return [solution_mask(c) for c in cubes]


def test_worked_small(ex41):
    sols = []
    assert NonBlockingSolver(ex41, sink=sols.append).run() == 2
    assert {frozenset(s) for s in sols} == {
        frozenset({-1, -2, -3}), frozenset({1, 2, 3})}


def test_worked_count(ex31):
    assert NonBlockingSolver(ex31).run() == 22


@pytest.mark.parametrize("option,value,message", [
    ("uip", "Dlevel", "unknown uip scheme"),
    ("uip", None, "unknown uip scheme"),
    ("backtrack", "cdcl", "unknown backtrack strategy")])
def test_rejects_an_unknown_option(ex31, option, value, message):
    with pytest.raises(ValueError, match=message):
        NonBlockingSolver(ex31, **{option: value})


def test_unsat_halts_immediately():
    f = from_clause_lists(1, [[1], [-1]])
    assert NonBlockingSolver(f).run() == 0


def test_backtrack_bt_inserts_flip():
    f = from_clause_lists(3, [])
    solver = NonBlockingSolver(f)
    k = solver.kernel
    k.make_decision(1)
    k.make_decision(2)
    solver.backtrack_bt()
    t = k.trail
    flip = t.lits[-1]
    assert flip == -2 and t.var_level[2] == 1
    assert t.reasons[2] is None and t.decisions() == [1]
    assert t.var_sublevel[2] == 1        # a new sublevel opened


def test_backtrack_bt_from_level_one():
    f = from_clause_lists(2, [])
    solver = NonBlockingSolver(f)
    solver.kernel.make_decision(1)
    solver.backtrack_bt()
    t = solver.kernel.trail
    assert t.lits[-1] == -1 and t.var_level[1] == 0 and t.reasons[1] is None


def test_flip_increments_sublevel_once():
    rng = random.Random(9)
    checked = 0
    for f in random_instances(seed=51, count=10, n_range=(4, 8)):
        solver = NonBlockingSolver(f, uip="dlevel", backtrack="bt")
        k = solver.kernel
        if f.has_empty_clause():
            continue
        conflict = k.propagate()
        while conflict is None and not k.trail.all_assigned():
            v = next(v for v in range(1, f.num_vars + 1)
                     if k.trail.values[v] == UNASSIGNED)
            k.make_decision(v if rng.random() < 0.5 else -v)
            conflict = k.propagate()
        if conflict is not None or k.trail.level == 0:
            continue
        target = k.trail.level - 1
        before = k.trail.cur_sublevel[target]
        solver.backtrack_bt()
        assert k.trail.cur_sublevel[target] == before + 1
        checked += 1
    assert checked > 0


def test_resolution():
    c3 = resolve_clauses([-6, -9], [6, 2], 6)
    assert sorted(c3) == [-9, 2]


def test_all_configs_match_oracle():
    for f in random_instances(seed=52, count=30, n_range=(3, 12)):
        want = enumerate_all(f)
        want_masks = set(want.masks)
        for cfg in ALL_CONFIGS:
            sols = []
            count = NonBlockingSolver(f, **cfg, sink=sols.append).run()
            got = masks_of(sols)
            assert count == want.count, f"{cfg} count"
            assert len(got) == len(set(got)), f"{cfg} emitted a duplicate"
            assert set(got) == want_masks, f"{cfg} set mismatch"


def test_lim_level_invariant():
    class Watched(NonBlockingSolver):
        def _resolve(self, conflict):
            out = super()._resolve(conflict)
            assert self.lim <= self.kernel.trail.level
            return out

    for f in random_instances(seed=53, count=10, n_range=(4, 10)):
        solver = Watched(f, uip="dlevel", backtrack="bjcbj")
        solver.run()


def test_learned_clause_entailment_and_structure():
    for f in random_instances(seed=54, count=15, n_range=(3, 10)):
        for cfg in (dict(uip="sublevel", backtrack="bt"),
                    dict(uip="dlevel", backtrack="bj"),
                    dict(uip="dlevel", backtrack="cbj")):
            solver = NonBlockingSolver(f, **cfg)
            solver.run()
            for c in solver.kernel.store.learned:
                assert entails(f, c), (cfg, c)


def test_structural_invariant_of_analysis():
    """In either scheme the clause carries exactly one literal from the
    conflict scope (the UIP); any other current-level literal has NULL
    antecedent (a flip) and at most one current-scope literal has a real
    antecedent."""
    recorded = []

    class Recording(NonBlockingSolver):
        def _resolve(self, conflict):
            k = self.kernel
            t = k.trail
            scheme = self.uip
            dl = t.level
            sub = max(t.var_sublevel[abs(l)] for l in conflict
                      if t.var_level[abs(l)] == dl)
            learned = k.analyze(conflict, scheme)
            in_scope = []
            null_ante = []
            for l in learned.lits:
                v = abs(l)
                if t.var_level[v] == dl:
                    if scheme == "sublevel" and t.var_sublevel[v] != sub:
                        continue
                    in_scope.append(l)
                    if t.reasons[v] is None:
                        null_ante.append(l)
            recorded.append((learned, in_scope, null_ante))
            return super()._resolve(conflict)

    for f in random_instances(seed=55, count=12, n_range=(4, 10)):
        for scheme in ("sublevel", "dlevel"):
            recorded.clear()
            Recording(f, uip=scheme, backtrack="bt").run()
            for learned, in_scope, null_ante in recorded:
                uip_lit = learned.lits[0]
                assert uip_lit in in_scope
                if scheme == "sublevel":
                    assert in_scope == [uip_lit]
                else:
                    others = [l for l in in_scope if l != uip_lit]
                    assert all(l in null_ante for l in others)
                    with_reason = [l for l in in_scope if l not in null_ante]
                    assert len(with_reason) <= 1


def test_dlevel_reduces_to_level_scheme_without_flips(ex31):
    # before any flip exists both scopes learn the classic first-UIP
    # clause, x4 or not-x3
    k = Kernel(ex31)
    conflict = k.propagate()
    for lit in (-4, -6, -2):
        k.make_decision(lit)
        conflict = k.propagate()
    assert conflict is not None
    l_dlevel = k.analyze(conflict, "dlevel")
    l_sub = k.analyze(conflict, "sublevel")
    assert sorted(l_dlevel.lits) == sorted(l_sub.lits) == [-3, 4]


def test_learned_clause_may_stay_non_unit():
    """BT + sublevel scheme can learn clauses that are not unit after
    backtracking; the loop must keep going regardless (count stays exact)."""
    for f in random_instances(seed=56, count=10, n_range=(5, 10)):
        want = enumerate_all(f).count
        assert NonBlockingSolver(
            f, uip="sublevel", backtrack="bt").run() == want


def test_solution_at_level_zero_halts():
    f = from_clause_lists(2, [[1], [2]])
    sols = []
    assert NonBlockingSolver(f, sink=sols.append).run() == 1
    assert sols == [(1, 2)]


def test_zero_variable_formula_has_one_model():
    from allsat.formula import parse_dimacs
    assert NonBlockingSolver(parse_dimacs("p cnf 0 0\n")).run() == 1


def test_free_variables_still_assigned():
    f = from_clause_lists(4, [[1, 2]])
    sols = []
    count = NonBlockingSolver(f, sink=sols.append).run()
    assert count == 3 * 2 ** 2
    assert all(len(s) == 4 for s in sols)


def test_bj_jump_clipped_exactly_at_limit_level():
    """A learned clause whose asserting level lies below the limit level
    must land the search exactly at the limit, without a flipped decision."""
    observed = []

    class Probe(NonBlockingSolver):
        def resolve_bj(self, conflict):
            k = self.kernel
            dl_before = k.trail.level
            lim_before = self.lim
            captured = {}
            orig = k.analyze

            def capture(c, uip="dlevel", stop_lit=None):
                learned = orig(c, uip, stop_lit)
                captured["assert_level"] = learned.assert_level
                return learned

            k.analyze = capture
            try:
                out = super().resolve_bj(conflict)
            finally:
                k.analyze = orig
            if (lim_before < dl_before
                    and captured["assert_level"] < lim_before):
                t = k.trail
                flip = abs(t.lits[-1]) if t.lits else None
                flipped = (flip is not None and t.reasons[flip] is None
                           and t.lits[-1] not in t.decisions()
                           and t.var_level[flip] == t.level)
                observed.append((lim_before, k.trail.level, flipped))
            return out

    for seed in (70, 71, 72):
        for f in random_instances(seed=seed, count=40, n_range=(5, 12)):
            Probe(f, uip="dlevel", backtrack="bj").run()
    assert observed, "no clipped backjump exercised; adjust seeds"
    for lim_before, landed, flipped in observed:
        assert landed == lim_before
        assert not flipped


class DecideLast(NonBlockingSolver):
    """The engine with the last free variable decided as any other: a
    decision and a propagate call for its false value, a flip and another
    propagate call for its true one."""

    def _next_decision(self):
        k = self.kernel
        if len(k.trail.lits) == k.n:
            k.stats.solutions += 1
            if self.sink is not None:
                self.sink(tuple(sorted(k.trail.lits, key=abs)))
            return None
        return k.decide()


class CountPairs(NonBlockingSolver):
    """The engine, counting the steps that report two models at once."""

    pairs = 0

    def _next_decision(self):
        if self.kernel.n - len(self.kernel.trail.lits) == 1:
            self.pairs += 1
        return super()._next_decision()


def assert_matches_decide_last(f):
    """Every configuration reports the models of the reference in its
    order with the same search counters, and makes one decision fewer per
    two-model step.  Returns the steps summed over the configurations."""
    pairs = 0
    for cfg in ALL_CONFIGS:
        got, want = [], []
        solver = CountPairs(f, **cfg, sink=got.append)
        ref = DecideLast(f, **cfg, sink=want.append)
        assert solver.run() == ref.run(), cfg
        assert got == want, cfg
        s, r = solver.stats, ref.stats
        for field in ("solutions", "conflicts", "propagations",
                      "learned_clauses"):
            assert getattr(s, field) == getattr(r, field), (cfg, field)
        assert r.decisions - s.decisions == solver.pairs, cfg
        pairs += solver.pairs
    return pairs


@st.composite
def three_cnf(draw):
    n = draw(st.integers(1, 14))
    width = min(3, n)
    clause = st.tuples(
        st.lists(st.integers(1, n), min_size=width, max_size=width,
                 unique=True),
        st.lists(st.booleans(), min_size=width, max_size=width),
    ).map(lambda c: [v if pos else -v for v, pos in zip(*c)])
    return from_clause_lists(n, draw(st.lists(clause, max_size=5 * n)))


@settings(deadline=None)   # an example of 14 free variables takes ~1 s
@given(three_cnf())
def test_last_variable_matches_reference(f):
    """On random 3-CNF of up to 14 variables every configuration matches
    the one that decides the last free variable."""
    assert_matches_decide_last(f)


@pytest.mark.parametrize("n,clauses,pairs", [
    (4, [], 8 * 8),                         # no clauses: every branch
    (1, [], 8),                             # one variable, at level 0
    (3, [[1], [-1, -2]], 8),                # x3 left free at level 0
    (2, [[1, 2], [1, -2], [-1, 2], [-1, -2]], 0),   # unsatisfiable
], ids=["no-clauses", "n1", "free-at-level-0", "unsat"])
def test_last_variable_edge_cases(n, clauses, pairs):
    assert assert_matches_decide_last(from_clause_lists(n, clauses)) == pairs
