import math
import random

import pytest

from allsat import (BddSolver, NonBlockingConfig, RefreshPolicy, compute_cuts,
                    enumerate_all, entails, from_clause_lists, load,
                    make_formula, subinstance_models)
from allsat.bddcache import TOP_KEY, BddBlockingSolver
from allsat.harness import EXIT_LIMIT, EXIT_OK, RunConfig, run_instance
from allsat.nonblocking import STRATEGIES, UIP_SCHEMES
from allsat.obdd import iter_paths
from allsat.oracle import satisfies
from allsat.trail import UNASSIGNED

from conftest import random_3cnf, random_instances


def fresh_key(cuts, mode, values, cut_index):
    """Key of a fresh fold from cut 0."""
    return make_formula(cuts.steps[mode], values, [0], cut_index)


def test_make_formula_worked_prefix(ex31):
    cuts = compute_cuts(ex31)
    values = [None, 1, 0, 1, None, None, None]   # x1=1, x2=0, x3=1
    cut_key = fresh_key(cuts, "cutset", values, 3)
    assert cut_key == (3, 1 << 1)                # C2 satisfied, C3 not
    sep_key = fresh_key(cuts, "separator", values, 3)
    assert sep_key == (3, 1 << 1 | 1 << 3)       # separator vars assigned 1


def test_make_formula_all_assigned(ex31):
    cuts = compute_cuts(ex31)
    key = fresh_key(cuts, "cutset", [None] * 7, math.inf)
    assert key == TOP_KEY


def test_make_formula_reads_prefix_only(ex31):
    """Assignments beyond the prefix must not leak into the key."""
    cuts = compute_cuts(ex31)
    a = [None, 1, 0, 1, 0, 0, 0]
    b = [None, 1, 0, 1, 1, 1, 1]
    for mode in ("cutset", "separator"):
        assert fresh_key(cuts, mode, a, 3) == fresh_key(cuts, mode, b, 3)


def test_counts_match_oracle_both_modes(ex31, ex41):
    for f in (ex31, ex41):
        want = enumerate_all(f).count
        for mode in ("cutset", "separator"):
            total = BddSolver(f, cache_mode=mode).run_bdd().total
            assert total == want
            total = BddBlockingSolver(f, cache_mode=mode).run_bdd().total
            assert total == want


def test_every_path_satisfies_formula(ex31):
    result = BddSolver(ex31).run_bdd()
    n = ex31.num_vars
    paths = list(iter_paths(result.store))
    assert len(paths) == result.total == 22
    for path in paths:
        assert len(path) == n
        mask = 0
        for var, value in path:
            if value:
                mask |= 1 << (var - 1)
        assert satisfies(ex31, mask)


def test_unsat_instance_gives_false_root():
    f = from_clause_lists(2, [[1], [-1]])
    result = BddSolver(f).run_bdd()
    assert result.total == 0 and result.store.root == 0 and not result.dumps
    result = BddBlockingSolver(f).run_bdd()
    assert result.total == 0 and result.store.root == 0


def test_free_variables_double_the_count():
    f = from_clause_lists(6, [[1, 2]])     # vars 3..6 unconstrained
    total = BddSolver(f).run_bdd().total
    assert total == 3 * 2 ** 4


def test_wide_suffix_absorbed_fast():
    chain = [[k, -(k + 1)] for k in range(1, 12)]
    f = from_clause_lists(50, chain)
    want12 = enumerate_all(from_clause_lists(12, chain)).count
    total = BddSolver(f).run_bdd().total
    assert total == want12 * 2 ** 38


def test_all_four_cache_configs_match_oracle():
    for f in random_instances(seed=61, count=25, n_range=(3, 12)):
        want = enumerate_all(f).count
        for mode in ("cutset", "separator"):
            t1 = BddSolver(f, cache_mode=mode).run_bdd().total
            t2 = BddBlockingSolver(f, cache_mode=mode).run_bdd().total
            assert t1 == want, f"bdd/{mode}"
            assert t2 == want, f"bdd-blocking/{mode}"


def test_underlying_resolvers_all_work(ex31):
    for scheme in ("sublevel", "dlevel"):
        for strat in ("bt", "bj", "cbj", "bjcbj"):
            total = BddSolver(
                ex31, cfg=NonBlockingConfig(scheme, strat)).run_bdd().total
            assert total == 22, (scheme, strat)


def test_cache_hits_are_sound():
    """Whenever a lookup hits, the subinstances behind the key must have
    identical solution sets over the remaining variables."""
    for f in random_instances(seed=62, count=15, n_range=(4, 10)):
        observed: dict[tuple, list] = {}

        class Probing(BddSolver):
            def _key_at(self, cut_index):
                key = super()._key_at(cut_index)
                if cut_index != math.inf:
                    prefix = {v: self.kernel.trail.values[v]
                              for v in range(1, cut_index + 1)}
                    observed.setdefault(key, []).append(prefix)
                return key

        solver = Probing(f)
        solver.run_bdd()
        for key, prefixes in observed.items():
            if len(prefixes) < 2:
                continue
            base = subinstance_models(f, prefixes[0]).masks
            for other in prefixes[1:]:
                assert subinstance_models(f, other).masks == base, (key, f)


def test_separator_agreement_implies_cutset_agreement():
    """Equal separator keys refine equal cutset keys on identical prefixes."""
    for f in random_instances(seed=63, count=20, n_range=(4, 10)):
        cuts = compute_cuts(f)
        n = f.num_vars
        for i in (1, n // 2, n - 1):
            if i < 1:
                continue
            groups: dict[tuple, list] = {}
            for bits in range(1 << i):
                values = [None] * (n + 1)
                for v in range(1, i + 1):
                    values[v] = (bits >> (v - 1)) & 1
                sep = fresh_key(cuts, "separator", values, i)
                cut = fresh_key(cuts, "cutset", values, i)
                groups.setdefault(sep, []).append(cut)
            for sep, cut_keys in groups.items():
                assert len(set(cut_keys)) == 1


def test_learned_clauses_entailed_in_bdd_mode():
    for f in random_instances(seed=64, count=15, n_range=(4, 10)):
        solver = BddSolver(f)
        solver.run_bdd()
        for c in solver.kernel.store.learned:
            assert entails(f, c.lits)


def test_refresh_partition(tmp_path):
    checked = 0
    for f in random_instances(seed=65, count=60, n_range=(7, 11)):
        want = enumerate_all(f).count
        if not 100 <= want <= 1000:
            continue
        checked += 1
        n = f.num_vars
        policy = RefreshPolicy(threshold=n + 1, dump_dir=tmp_path,
                               stem=f"r{checked}")
        result = BddSolver(f, policy=policy).run_bdd()
        assert result.total == want
        assert result.dumps        # theta = n+1 forces dumping
        seen = set()
        for part in result.dump_files:
            with open(part) as fh:
                part_store = load(fh.read())
            for path in iter_paths(part_store):
                assert path not in seen
                seen.add(path)
        for path in iter_paths(result.store):
            assert path not in seen
            seen.add(path)
        assert len(seen) == want
        if checked >= 4:
            break
    assert checked > 0


def test_refresh_blocking_engine(tmp_path):
    for f in random_instances(seed=66, count=30, n_range=(7, 10)):
        want = enumerate_all(f).count
        if want < 50:
            continue
        policy = RefreshPolicy(threshold=f.num_vars + 1, dump_dir=tmp_path,
                               stem="blk")
        total = BddBlockingSolver(f, policy=policy).run_bdd().total
        assert total == want
        break


def test_refresh_threshold_validated(ex31):
    with pytest.raises(ValueError):
        BddSolver(ex31, policy=RefreshPolicy(threshold=6))


def test_huge_threshold_no_dumps(ex31):
    policy = RefreshPolicy(threshold=10 ** 9)
    result = BddSolver(ex31, policy=policy).run_bdd()
    assert result.total == 22 and not result.dumps


def test_dump_dir_env_override(tmp_path, monkeypatch, ex31):
    monkeypatch.setenv("ALLSAT_DUMP_DIR", str(tmp_path / "override"))
    policy = RefreshPolicy(threshold=ex31.num_vars + 1,
                           dump_dir=tmp_path / "ignored", stem="env")
    result = BddSolver(ex31, policy=policy).run_bdd()
    assert result.total == 22
    assert all(str(tmp_path / "override") in d for d in result.dump_files)


def test_blocking_engine_rejects_simplify(ex31):
    from allsat.blocking import BlockingConfig
    with pytest.raises(ValueError):
        BddBlockingSolver(ex31, blocking_cfg=BlockingConfig(simplify=True))


def test_enroll_and_prune_mechanics():
    """White-box walk over an unconstrained 2-variable search.

    First backtrack (to level 1) enrolls only the cut whose variable sits
    above the landing level; the cut at the kept level stays pending.  The
    second backtrack enrolls it, and the final branch is absorbed by a cache
    hit instead of a third descent.
    """
    f = from_clause_lists(2, [])
    solver = BddSolver(f)
    k = solver.kernel
    trace = []

    orig = solver._before_cancel

    def spy(level):
        orig(level)
        trace.append((level, dict(solver.solved), dict(solver.pending_keys)))

    solver._before_cancel = spy
    result = solver.run_bdd()
    assert result.total == 4

    # first backtrack: bl=1 < level(x2)=2 enrolls (1, 0); (0, 0) survives
    bl, solved, pending = trace[0]
    assert bl == 1
    assert (1, 0) in solved and (0, 0) not in solved
    assert pending == {0: 0}
    # second backtrack: bl=0 enrolls (0, 0); nothing left pending
    bl, solved, pending = trace[1]
    assert bl == 0
    assert (0, 0) in solved
    assert pending == {}
    # the x1=1 branch was served by the cache, not re-explored
    assert k.stats.cache_hits == 1
    assert k.stats.decisions == 2            # only the first descent decides


def test_enroll_noop_when_nothing_canceled_below():
    """If the landing level keeps every path variable, the solved cache is
    unchanged (no key can have been completed)."""
    f = from_clause_lists(2, [])
    solver = BddSolver(f)
    before = dict(solver.solved)
    solver.kernel.make_decision(-1)
    solver.kernel.make_decision(-2)
    solver.path = []
    solver._enroll(2)
    assert solver.solved == before


class CheckedSolver(BddSolver):
    """Checks the trail-synced state against full read-only recomputations:
    after every graft the path, the cursor and the prefix codes, and at
    every enrollment the keys a walk of the whole path would enroll."""

    grafts = 0

    def _enroll(self, bl):
        want = dict(self.solved)
        t = self.kernel.trail
        for nid, direction in self.path:
            j = self.store.var[nid]
            if t.values[j] != direction:
                break
            if bl < t.var_level[j] and j - 1 in self.pending_keys:
                want[(j - 1, self.pending_keys[j - 1])] = nid
        super()._enroll(bl)
        assert self.solved == want

    def _graft(self, node, i):
        super()._graft(node, i)
        CheckedSolver.grafts += 1
        values = self.kernel.trail.values
        n = self.formula.num_vars
        first = next((v for v in range(1, n + 1) if values[v] == UNASSIGNED),
                     n + 1)
        assert self.cursor == first
        walk = []
        u = self.store.root
        for d in range(1, (n if i is None else i - 1) + 1):
            walk.append((u, values[d]))
            u = self.store.arc(u, values[d])
        assert u == node
        assert self.path == walk
        assert self.path_ok == len(walk)
        codes = [0]
        make_formula(self.steps, values, codes, len(self.codes) - 1)
        assert self.codes == codes


def test_trail_synced_state_matches_full_walks(tmp_path):
    CheckedSolver.grafts = 0
    for f in random_instances(seed=67, count=12, n_range=(4, 11)):
        want = enumerate_all(f).count
        n = f.num_vars
        for cfg in (NonBlockingConfig(u, b)
                    for u in UIP_SCHEMES for b in STRATEGIES):
            for mode in ("cutset", "separator"):
                for threshold in (None, n + 3):
                    policy = RefreshPolicy(threshold, tmp_path, "checked")
                    solver = CheckedSolver(f, cfg=cfg, cache_mode=mode,
                                           policy=policy)
                    assert solver.run_bdd().total == want
    assert CheckedSolver.grafts > 1000


def test_refresh_run_fits_a_memory_limit_the_plain_run_exceeds(tmp_path):
    """A refresh releases the bytes accounted for the nodes and keys it
    drops, in both engines."""
    f = random_3cnf(random.Random(1), 12, 24)
    want = enumerate_all(f).count
    path = tmp_path / "mem.cnf"
    for mode, limit in (("bdd", 10_000), ("bdd-blocking", 45_000)):
        plain = run_instance(path, RunConfig(mode=mode, mem_limit=limit),
                             formula=f)
        assert plain.exit_code == EXIT_LIMIT, mode
        refresh = run_instance(path, RunConfig(mode=mode, mem_limit=limit,
                                               refresh_threshold=48),
                               formula=f)
        assert refresh.exit_code == EXIT_OK, mode
        assert refresh.dumps and refresh.solutions == want
