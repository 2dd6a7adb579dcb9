import random
from unittest import mock

import pytest

import allsat.kernel
from allsat import (BddSolver, Budget, LimitExceeded, RefreshPolicy,
                    compute_cuts, count_models, enumerate_all, entails,
                    extend_obdd, from_clause_lists, load, make_formula,
                    subinstance_models)
from allsat import bddcache
from allsat.bddcache import CACHE_MODES, BddBlockingSolver
from allsat.harness import EXIT_LIMIT, EXIT_OK, RunConfig, run_instance
from allsat.nonblocking import STRATEGIES, UIP_SCHEMES
from allsat.obdd import TOP, iter_paths
from allsat.oracle import satisfies
from allsat.trail import UNASSIGNED

from conftest import StopClock, check_partition, random_3cnf, random_instances
from test_search_counters import window_chain


def nonblocking_options():
    """The keyword options of every nonblocking configuration."""
    return [dict(uip=u, backtrack=b) for u in UIP_SCHEMES for b in STRATEGIES]


def fresh_key(f, mode, values, cut_index):
    """Key of a fresh fold from cut 0."""
    return make_formula(compute_cuts(f, mode), values, [0], cut_index)


def test_cuts_worked_example(ex31):
    """The step tables of C1 = x1|-x3, C2 = x2|x3|x5, C3 = -x1|-x3|x4,
    C4 = x4|-x5|x6, C5 = x5|-x6 (bits 0..4 in cutset mode)."""
    keep, add = compute_cuts(ex31, "cutset")
    # C1 leaves at x3, C3 at x4, C2 at x5, C4 and C5 at x6
    assert keep == [-1, -1, -1, ~1, ~4, ~2, ~24]
    assert add == [[0, 0], [4, 1], [0, 2], [4, 2], [0, 8], [8, 16], [0, 0]]
    # reaches: x1 -> 4, x2 and x3 -> 5, x4 and x5 -> 6
    keep, add = compute_cuts(ex31, "separator")
    assert keep == [-1, -1, -1, -1, ~2, ~12, ~48]
    assert add == [(0, 0)] + [(0, 1 << v) for v in range(1, 6)] + [(0, 0)]


def test_cuts_single_clause():
    """Only a clause over two or more variables spans a cut: the unit, the
    empty and the one-variable tautological clause are in no table."""
    f = from_clause_lists(2, [[2], [], [-1, 1], [1, 2]])
    assert compute_cuts(f, "cutset") == ([-1, -1, ~8],
                                         [[0, 0], [0, 8], [0, 0]])
    assert compute_cuts(f, "separator") == ([-1, -1, ~2],
                                            [(0, 0), (0, 2), (0, 0)])


def test_compute_cuts_rejects_an_unknown_mode(ex31):
    """``compute_cuts`` and both diagram engines reject an unknown cache
    mode, and ``BddSolver`` a bad option it forwards to the nonblocking
    engine."""
    with pytest.raises(ValueError, match="unknown cache mode"):
        compute_cuts(ex31, "steps")
    for engine in (BddSolver, BddBlockingSolver):
        with pytest.raises(ValueError, match="unknown cache mode"):
            engine(ex31, cache="Cutset")
    with pytest.raises(ValueError, match="unknown uip scheme"):
        BddSolver(ex31, uip="firstuip")
    with pytest.raises(ValueError, match="unknown backtrack strategy"):
        BddSolver(ex31, backtrack="cdcl")


def test_make_formula_worked_prefix(ex31):
    values = [None, 1, 0, 1, None, None, None]   # x1=1, x2=0, x3=1
    cut_key = fresh_key(ex31, "cutset", values, 3)
    assert cut_key == (3, 1 << 1)                # C2 satisfied, C3 not
    sep_key = fresh_key(ex31, "separator", values, 3)
    assert sep_key == (3, 1 << 1 | 1 << 3)       # separator vars assigned 1


def test_make_formula_reads_prefix_only(ex31):
    """Assignments beyond the prefix must not leak into the key."""
    a = [None, 1, 0, 1, 0, 0, 0]
    b = [None, 1, 0, 1, 1, 1, 1]
    for mode in ("cutset", "separator"):
        assert fresh_key(ex31, mode, a, 3) == fresh_key(ex31, mode, b, 3)


def test_counts_match_oracle_both_modes(ex31, ex41, tmp_path):
    """Both engines count in their own stats what ``run_bdd`` returns, and
    a direct run that dumps writes the manifest of its parts."""
    for f in (ex31, ex41):
        want = enumerate_all(f).count
        for mode in ("cutset", "separator"):
            for engine in (BddSolver, BddBlockingSolver):
                solver = engine(f, cache=mode)
                assert solver.run_bdd() == solver.stats.solutions == want
                assert solver.stats.obdd_nodes == solver.store.size
    policy = RefreshPolicy(threshold=ex31.num_vars + 1, dump_dir=tmp_path,
                           stem="direct")
    solver = BddSolver(ex31, policy=policy)
    solver.run_bdd()
    assert solver.dumps and solver.stats.dumps == len(solver.dumps)
    manifest = (tmp_path / "direct.obdd.manifest").read_text()
    assert manifest.splitlines() == (
        [f"{part} {count}" for part, count in solver.dumps]
        + [f"final {count_models(solver.store)}"])


def test_every_path_satisfies_formula(ex31):
    solver = BddSolver(ex31)
    n = ex31.num_vars
    assert solver.run_bdd() == 22
    paths = list(iter_paths(solver.store))
    assert len(paths) == 22
    for path in paths:
        assert len(path) == n
        mask = 0
        for var, value in path:
            if value:
                mask |= 1 << (var - 1)
        assert satisfies(ex31, mask)


def test_unsat_instance_gives_false_root():
    f = from_clause_lists(2, [[1], [-1]])
    solver = BddSolver(f)
    assert solver.run_bdd() == 0
    assert solver.store.root == 0 and not solver.dumps
    solver = BddBlockingSolver(f)
    assert solver.run_bdd() == 0 and solver.store.root == 0


def test_free_variables_double_the_count():
    f = from_clause_lists(6, [[1, 2]])     # vars 3..6 unconstrained
    total = BddSolver(f).run_bdd()
    assert total == 3 * 2 ** 4


def test_wide_suffix_absorbed_fast():
    chain = [[k, -(k + 1)] for k in range(1, 12)]
    f = from_clause_lists(50, chain)
    want12 = enumerate_all(from_clause_lists(12, chain)).count
    # a cache that stopped absorbing the free suffix would search 2^38
    # leaves: the budget turns that into a LimitExceeded, not a hang
    budget = Budget(time_limit=5.0, mem_limit=1 << 20)
    total = BddSolver(f, budget=budget).run_bdd()
    assert total == want12 * 2 ** 38


def test_all_four_cache_configs_match_oracle():
    for f in random_instances(seed=61, count=25, n_range=(3, 12)):
        want = enumerate_all(f).count
        for mode in ("cutset", "separator"):
            t1 = BddSolver(f, cache=mode).run_bdd()
            t2 = BddBlockingSolver(f, cache=mode).run_bdd()
            assert t1 == want, f"bdd/{mode}"
            assert t2 == want, f"bdd-blocking/{mode}"


def test_underlying_resolvers_all_work(ex31):
    for uip in ("sublevel", "dlevel"):
        for backtrack in ("bt", "bj", "cbj", "bjcbj"):
            total = BddSolver(ex31, uip=uip, backtrack=backtrack).run_bdd()
            assert total == 22, (uip, backtrack)


def test_bdd_engine_decides_by_its_cursor(tmp_path, monkeypatch):
    """The diagram engine never asks the kernel for a decision: with the
    kernel's decision heuristic made to raise, every resolver, both caches
    and a refresh threshold still count what the oracle counts."""
    def refuse(*args):
        raise AssertionError("the kernel was asked for a decision")

    monkeypatch.setattr(allsat.kernel.Kernel, "decide", refuse)
    runs = 0
    for f in random_instances(seed=71, count=20, n_range=(4, 12)):
        want = enumerate_all(f).count
        n = f.num_vars
        for cfg in nonblocking_options():
            for mode in CACHE_MODES:
                for theta in (None, n + 20):
                    policy = RefreshPolicy(theta, tmp_path, "cursor")
                    solver = BddSolver(f, **cfg, cache=mode,
                                       policy=policy)
                    assert solver.run_bdd() == want, (cfg, mode, theta)
                    runs += 1
    assert runs == 640


def test_cache_hits_are_sound(monkeypatch):
    """Whenever a lookup hits, the subinstances behind the key must have
    identical solution sets over the remaining variables."""
    observed: dict[tuple, set] = {}

    def probe(steps, values, codes, cut_index):
        key = make_formula(steps, values, codes, cut_index)
        observed.setdefault(key, set()).add(tuple(values[1:cut_index + 1]))
        return key

    # the engine's one lookup calls the key function by its module name
    monkeypatch.setattr(bddcache, "make_formula", probe)
    shared = 0
    for f in random_instances(seed=62, count=15, n_range=(4, 10)):
        observed.clear()
        BddSolver(f).run_bdd()
        for key, prefixes in observed.items():
            if len(prefixes) < 2:
                continue
            shared += 1
            first, *others = (dict(enumerate(p, start=1)) for p in prefixes)
            base = subinstance_models(f, first).masks
            for other in others:
                assert subinstance_models(f, other).masks == base, (key, f)
    assert shared > 0


def test_separator_agreement_implies_cutset_agreement():
    """Equal separator keys refine equal cutset keys on identical prefixes."""
    for f in random_instances(seed=63, count=20, n_range=(4, 10)):
        n = f.num_vars
        sep_steps = compute_cuts(f, "separator")
        cut_steps = compute_cuts(f, "cutset")
        for i in (1, n // 2, n - 1):
            if i < 1:
                continue
            groups: dict[tuple, list] = {}
            for bits in range(1 << i):
                values = [None] * (n + 1)
                for v in range(1, i + 1):
                    values[v] = (bits >> (v - 1)) & 1
                sep = make_formula(sep_steps, values, [0], i)
                cut = make_formula(cut_steps, values, [0], i)
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
        solver = BddSolver(f, policy=policy)
        assert solver.run_bdd() == want
        assert solver.dumps        # theta = n+1 forces dumping
        seen = set()
        for part, _ in solver.dumps:
            with open(part) as fh:
                part_store = load(fh.read())
            for path in iter_paths(part_store):
                assert path not in seen
                seen.add(path)
        for path in iter_paths(solver.store):
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
        total = BddBlockingSolver(f, policy=policy).run_bdd()
        assert total == want
        break


def test_refresh_threshold_validated(ex31):
    with pytest.raises(ValueError):
        BddSolver(ex31, policy=RefreshPolicy(threshold=6))


def test_huge_threshold_no_dumps(ex31):
    policy = RefreshPolicy(threshold=10 ** 9)
    solver = BddSolver(ex31, policy=policy)
    assert solver.run_bdd() == 22 and not solver.dumps


def test_dump_dir_env_override(tmp_path, monkeypatch, ex31):
    monkeypatch.setenv("ALLSAT_DUMP_DIR", str(tmp_path / "override"))
    policy = RefreshPolicy(threshold=ex31.num_vars + 1,
                           dump_dir=tmp_path / "ignored", stem="env")
    solver = BddSolver(ex31, policy=policy)
    assert solver.run_bdd() == 22
    assert all(str(tmp_path / "override") in d for d, _ in solver.dumps)


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
    assert solver.run_bdd() == 4

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
    f = from_clause_lists(3, [])
    solver = BddSolver(f)
    k = solver.kernel
    for _ in range(3):                  # three misses decide x1, x2, x3
        k.make_decision(solver._next_decision())
    assert list(solver.pending_keys) == [0, 1, 2]
    # a path to a node of x3 along x1, x2, both at or below level 2
    node = solver.store.new_node(3)
    solver.path = extend_obdd(solver.store, node, k.trail.values, 2)
    solver.path_ok = len(solver.path)
    before = dict(solver.solved)
    solver._before_cancel(2)            # cancels level 3 (x3) alone
    k.cancel_to(2)
    assert solver.solved == before
    assert list(solver.pending_keys) == [0, 1]
    assert solver.path_ok == 2 and solver.cursor == 3


class CheckedSolver(BddSolver):
    """Checks the trail-synced state against full read-only recomputations:
    after every graft the path, the cursor and the prefix codes, and at
    every enrollment the keys a walk of the whole path would enroll, under
    the new ids when a compaction renumbered the nodes."""

    grafts = 0
    enrollments = 0
    renumberings = 0
    directions = ()         # of the path's entries, set at each graft

    def _compact(self):
        self.renumbered = super()._compact()
        return self.renumbered

    def _before_cancel(self, level):
        self.renumbered = None
        t = self.kernel.trail
        want = dict(self.solved)
        enrolls = False
        if level < t.level:
            for nid, direction in zip(self.path, self.directions):
                j = self.store.var[nid]
                if t.values[j] != direction:
                    break
                if level < t.var_level[j] and j - 1 in self.pending_keys:
                    want[(j - 1, self.pending_keys[j - 1])] = nid
                    enrolls = True
        dumps = len(self.dumps)
        super()._before_cancel(level)
        if len(self.dumps) == dumps:
            if self.renumbered is not None:
                want = {key: self.renumbered[u] for key, u in want.items()}
                CheckedSolver.renumberings += 1
            assert self.solved == want
            CheckedSolver.enrollments += enrolls
        else:                           # a refresh empties the cache
            assert self.solved == {}

    def _next_decision(self):
        lit = super()._next_decision()
        if lit is not None:
            return lit
        CheckedSolver.grafts += 1
        values = self.kernel.trail.values
        n = self.formula.num_vars
        first = next((v for v in range(1, n + 1) if values[v] == UNASSIGNED),
                     n + 1)
        assert self.cursor == first
        walk = []
        u = self.store.root
        for d in range(1, first):
            walk.append(u)
            u = (self.store.hi if values[d] else self.store.lo)[u]
        # all assigned: the graft is of the true sink, with no key
        assert u == (TOP if first > n else self.solved[
            make_formula(self.steps, values, [0], first - 1)])
        assert self.path == walk
        assert self.path_ok == len(walk)
        # the direction the path took at each entry: its variable's value
        # at the graft, which a later cancel may undo
        self.directions = values[1:first]
        codes = [0]
        make_formula(self.steps, values, codes, len(self.codes) - 1)
        assert self.codes == codes
        return None


def test_trail_synced_state_matches_full_walks(tmp_path):
    CheckedSolver.grafts = CheckedSolver.enrollments = 0
    CheckedSolver.renumberings = 0
    for f in random_instances(seed=67, count=12, n_range=(4, 11)):
        want = enumerate_all(f).count
        n = f.num_vars
        for cfg in nonblocking_options():
            for mode in ("cutset", "separator"):
                for threshold in (None, n + 3, n + 40):
                    policy = RefreshPolicy(threshold, tmp_path, "checked")
                    solver = CheckedSolver(f, **cfg, cache=mode,
                                           policy=policy)
                    assert solver.run_bdd() == want
    assert CheckedSolver.grafts > 1000
    assert CheckedSolver.enrollments > 1000
    assert CheckedSolver.renumberings > 10


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


class FrozenOffPathSolver(BddSolver):
    """Records the arcs of every node a compaction leaves off the path, and
    checks at the next compaction (which precedes every dump) and at the
    end of the run that no graft changed them: the pass merges only nodes
    that are final."""

    compactions = 0
    kept = 0            # compactions that made a dump unnecessary

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.frozen = {}

    def _check_frozen(self):
        lo, hi = self.store.lo, self.store.hi
        for u, arcs in self.frozen.items():
            assert (lo[u], hi[u]) == arcs, u

    def _compact(self):
        self._check_frozen()
        new = super()._compact()
        pinned = set(self.path)
        lo, hi = self.store.lo, self.store.hi
        self.frozen = {u: (lo[u], hi[u]) for u in range(2, len(lo))
                       if u not in pinned}
        FrozenOffPathSolver.compactions += 1
        return new

    def _before_cancel(self, level):
        compactions, dumps = self.compactions, len(self.dumps)
        super()._before_cancel(level)
        if len(self.dumps) > dumps:
            self.frozen = {}
        elif self.compactions > compactions:
            FrozenOffPathSolver.kept += 1

    def run_bdd(self):
        total = super().run_bdd()
        self._check_frozen()
        return total


def test_compaction_merges_only_final_nodes(tmp_path):
    """Compaction at the refresh check, under every resolver, both caches
    and thresholds from n + 1 to n + 300: nodes off the path never change
    again, the count is the oracle's, and the dumps and the final diagram
    are ordered and partition the models."""
    FrozenOffPathSolver.compactions = FrozenOffPathSolver.kept = 0
    rng = random.Random(68)
    runs = 0
    for f in random_instances(seed=68, count=20, n_range=(6, 12)):
        want = set(enumerate_all(f).masks)
        n = f.num_vars
        for cfg in nonblocking_options():
            for mode in CACHE_MODES:
                for theta in (n + rng.randint(1, 30),
                              n + rng.randint(31, 300)):
                    runs += 1
                    policy = RefreshPolicy(theta, tmp_path, f"c{runs}")
                    solver = FrozenOffPathSolver(
                        f, **cfg, cache=mode, policy=policy)
                    solver.run_bdd()
                    check_partition(solver, n, want, (cfg, mode, theta))
    assert FrozenOffPathSolver.compactions > 1000
    assert FrozenOffPathSolver.kept > 100


SEARCH_COUNTERS = ("decisions", "propagations", "conflicts",
                   "learned_clauses", "cache_hits", "cache_misses")


def test_refresh_without_a_dump_keeps_the_search(tmp_path):
    """A compaction keeps the solved cache, so a refresh run that made no
    dump searches exactly as the run without refresh, and its arena ends
    smaller by the merged nodes."""
    compacted = 0
    for f in random_instances(seed=69, count=16, n_range=(8, 12)):
        n = f.num_vars
        for cfg in nonblocking_options():
            for mode in CACHE_MODES:
                plain = BddSolver(f, **cfg, cache=mode)
                total = plain.run_bdd()
                size = plain.store.size
                for theta in (n + size // 2, n + size):
                    policy = RefreshPolicy(theta, tmp_path, "same")
                    solver = BddSolver(f, **cfg, cache=mode,
                                       policy=policy)
                    assert solver.run_bdd() == total
                    if solver.dumps:
                        continue
                    for name in SEARCH_COUNTERS:
                        assert (getattr(solver.kernel.stats, name)
                                == getattr(plain.kernel.stats, name)), name
                    assert solver.store.size <= size
                    compacted += solver.store.size < size
    assert compacted > 50


def test_blocking_engine_dumps_without_compacting(tmp_path):
    """Restarts can reopen any node of bdd-blocking's arena, so its refresh
    dumps the whole arena as soon as it reaches the limit."""
    for f in random_instances(seed=70, count=10, n_range=(7, 10)):
        n = f.num_vars
        for mode in CACHE_MODES:
            theta = n + 12
            policy = RefreshPolicy(theta, tmp_path, f"b{mode}")
            solver = BddBlockingSolver(f, cache=mode, policy=policy)
            assert solver.run_bdd() == enumerate_all(f).count
            for part, _ in solver.dumps:
                with open(part) as fh:
                    assert load(fh.read()).size >= theta - n


def test_time_limit_stops_the_diagram_engines_inside_compute_cuts(
        tmp_path, monkeypatch):
    """A deadline that passes while the step tables of a long chain are
    built stops both diagram engines, under either cache, at the last
    deadline check of ``compute_cuts``, before any search: exit 10 and a
    count of 0."""
    f = window_chain(random.Random(9), 1500, 4)
    assert 2048 < len(f.clauses) <= 3072
    # one check per 1,024 clauses of the pass, and for separator one per
    # 1,024 variables of its sweep
    checks = {}
    for cache in CACHE_MODES:
        clock = StopClock()
        with mock.patch.object(allsat.kernel, "time", clock):
            compute_cuts(f, cache, Budget(time_limit=60.0))
        checks[cache] = clock.calls
    assert checks == {"cutset": 3, "separator": 4}
    real = bddcache.compute_cuts
    stopped = []

    def watched(*args):
        try:
            return real(*args)
        except LimitExceeded:
            stopped.append(True)
            raise

    monkeypatch.setattr(bddcache, "compute_cuts", watched)
    # the harness reads the clock once before it builds the engine, and the
    # kernel's setup once per 1,024 clauses
    setup = 1 + len(f.clauses) // 1024
    for mode in ("bdd", "bdd-blocking"):
        for cache in CACHE_MODES:
            with mock.patch.object(allsat.kernel, "time",
                                   StopClock(setup + checks[cache] - 1)):
                stats = run_instance(
                    tmp_path / "chain.cnf",
                    RunConfig(mode=mode, cache=cache, time_limit=60.0),
                    formula=f)
            assert stats.exit_code == EXIT_LIMIT, (mode, cache)
            assert stats.solutions == 0, (mode, cache)
    assert len(stopped) == 4
