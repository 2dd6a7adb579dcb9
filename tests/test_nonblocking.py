import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allsat import (Kernel, NonBlockingSolver, enumerate_all, entails,
                    from_clause_lists)
from allsat.nonblocking import FREE_TAIL_MAX, resolve_clauses
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


class PairsOnly(NonBlockingSolver):
    """The engine as it was before free tails: it closes a branch only with
    one variable x left free, reporting x false and then x true, and
    decides every other variable."""

    def _next_decision(self):
        k = self.kernel
        lits = k.trail.lits
        free = k.n - len(lits)
        if free > 1:
            return k.decide()
        model = sorted(lits, key=abs)
        if free:
            x = k.trail.values.index(UNASSIGNED, 1, k.n + 1)
            model.insert(x - 1, -x)
            k.stats.solutions += 1
            if self.sink is not None:
                self.sink(tuple(model))
            model[x - 1] = x
        k.stats.solutions += 1
        if self.sink is not None:
            self.sink(tuple(model))
        return None


class CountTails(NonBlockingSolver):
    """The engine, counting the branches it closes by their free variables."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tails = Counter()

    def _next_decision(self):
        free = self.kernel.n - len(self.kernel.trail.lits)
        lit = super()._next_decision()
        if lit is None and free:
            self.tails[free] += 1
        return lit


def assert_matches_pairs_only(f):
    """Every configuration reports the models of the reference in its
    order with the same search counters and accounted memory, and makes
    2^(k-1) - 1 decisions fewer per free tail of k variables (the
    reference decides all but the last of them).  Returns the closed
    branches by free variables, summed over the configurations."""
    tails = Counter()
    for cfg in ALL_CONFIGS:
        got, want = [], []
        solver = CountTails(f, **cfg, sink=got.append)
        ref = PairsOnly(f, **cfg, sink=want.append)
        assert solver.run() == ref.run(), cfg
        assert got == want, cfg
        s, r = solver.stats, ref.stats
        for field in ("solutions", "conflicts", "propagations",
                      "learned_clauses"):
            assert getattr(s, field) == getattr(r, field), (cfg, field)
        assert solver.kernel.budget.peak_mem == ref.kernel.budget.peak_mem
        saved = sum(n * (2 ** (k - 1) - 1) for k, n in solver.tails.items())
        assert r.decisions - s.decisions == saved, cfg
        assert max(solver.tails, default=0) <= FREE_TAIL_MAX, cfg
        tails += solver.tails
    return tails


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
# closing every tail whose problem clauses are all true, watches aside,
# moves watches here and changes the conflicts and learned clauses
@example(from_clause_lists(4, [[3, 2, -4], [3, -4, -1], [-3, -1, 2],
                               [3, 4, -1]]))
def test_last_variable_matches_reference(f):
    """On random 3-CNF of up to 14 variables every configuration matches
    the one that closes a branch only with one free variable."""
    assert_matches_pairs_only(f)


@pytest.mark.parametrize("n,clauses,tails", [
    (4, [], {4: 8}),                        # no clauses: closed at the root
    (5, [], {4: 16}),                       # above the bound: x1 decided
    (1, [], {1: 8}),                        # one variable, at level 0
    (3, [[1], [-1, -2]], {1: 8}),           # x3 left free at level 0
    (4, [[1], [1, 2, 3]], {3: 8}),          # x2..x4 free at level 0
    (4, [[1], [2, 3, 1]], {2: 16}),         # x2, x3 watch a true clause
    (2, [[1, -1, 2]], {1: 16}),             # a tautology keeps x1 decided
    (2, [[1, 2], [1, -2], [-1, 2], [-1, -2]], {}),  # unsatisfiable
], ids=["no-clauses", "five-free", "n1", "free-at-level-0",
        "tail-at-level-0", "free-watches", "tautology", "unsat"])
def test_last_variable_edge_cases(n, clauses, tails):
    assert assert_matches_pairs_only(from_clause_lists(n, clauses)) == tails
