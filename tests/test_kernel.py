import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from allsat import (BlockingSolver, Budget, Kernel, NonBlockingSolver,
                    entails, from_clause_lists)
from allsat.harness import EXIT_LIMIT, RunConfig, run_instance
from allsat.kernel import (ACTIVITY_RESCALE, CLOCK_STRIDE, FALSIFIED, UNIT,
                           UIP_SCHEMES, Engine, clause_status)
from allsat.nonblocking import STRATEGIES
from allsat.trail import UNASSIGNED

from conftest import (StopClock, check_consistent, random_3cnf,
                      random_instances, trail_trace)


def drive(kernel, decisions):
    """Propagate, then alternate decision/propagation; stop at a conflict."""
    conflict = kernel.propagate()
    for lit in decisions:
        if conflict is not None:
            break
        if kernel.trail.values[lit] != UNASSIGNED:
            continue
        kernel.make_decision(lit)
        conflict = kernel.propagate()
    return conflict


def test_propagation_trace_worked_example(ex31):
    k = Kernel(ex31)
    assert k.propagate() is None
    k.make_decision(-5)
    assert k.propagate() is None
    trail = trail_trace(k)
    assert trail == [(-5, 1, None), (-6, 1, 4)]       # -x6 via C5
    k.make_decision(3)
    assert k.propagate() is None
    trail = trail_trace(k)
    # x1 via C1 then x4 via C3, in this order
    assert trail == [(-5, 1, None), (-6, 1, 4), (3, 2, None),
                     (1, 2, 0), (4, 2, 2)]
    k.make_decision(2)
    assert k.propagate() is None
    assert len(k.trail) == k.n


def test_conflict_worked_example(ex31):
    k = Kernel(ex31)
    conflict = drive(k, [-4, -6, -2])
    assert conflict is not None
    learned = k.analyze(conflict)
    assert sorted(learned.lits, key=abs) == [-3, 4]   # x4 or not-x3
    assert learned.assert_level == 1


def test_analyze_rejects_an_unknown_scope(ex31):
    """``analyze`` takes exactly the ``--uip`` schemes."""
    k = Kernel(ex31)
    conflict = drive(k, [-4, -6, -2])
    for uip in ("level", "Dlevel", ""):
        with pytest.raises(ValueError, match="unknown uip scheme"):
            k.analyze(conflict, uip)
    assert k.stats.learned_clauses == 0


def test_conflict_on_empty_formula():
    f = from_clause_lists(3, [])
    k = Kernel(f)
    assert k.propagate() is None
    assert len(k.trail) == 0


def test_decision_is_uip_when_alone(ex41):
    # blocking clause forces an immediate conflict whose only current-level
    # vertex chain collapses onto the decision
    k = Kernel(ex41)
    drive(k, [-1])
    assert len(k.trail) == k.n


def naive_propagate(f, decisions):
    """Independent oracle: repeated full scans until fixpoint/conflict.

    Returns (assignment dict, conflicted) over the same decision sequence,
    deciding only when the previous propagation reached fixpoint.
    """
    values = {}
    clauses = [list(c) for c in f.clauses if c]

    def scan():
        changed = True
        while changed:
            changed = False
            for lits in clauses:
                unassigned = [l for l in lits
                              if values.get(abs(l)) is None]
                satisfied = any(values.get(abs(l)) == (1 if l > 0 else 0)
                                for l in lits)
                if satisfied:
                    continue
                if not unassigned:
                    return True
                if len(unassigned) == 1:
                    l = unassigned[0]
                    values[abs(l)] = 1 if l > 0 else 0
                    changed = True
        return False

    if scan():
        return values, True
    for lit in decisions:
        if values.get(abs(lit)) is not None:
            continue
        values[abs(lit)] = 1 if lit > 0 else 0
        if scan():
            return values, True
    return values, False


def test_watched_literals_match_naive_scan():
    rng = random.Random(5)
    for f in random_instances(seed=11, count=40, n_range=(3, 15)):
        decisions = [v if rng.random() < 0.5 else -v
                     for v in rng.sample(range(1, f.num_vars + 1),
                                         f.num_vars)]
        k = Kernel(f)
        conflict = k.propagate()
        for lit in decisions:
            if conflict is not None:
                break
            if k.trail.values[lit] != UNASSIGNED:
                continue
            k.make_decision(lit)
            conflict = k.propagate()
        got = {v: k.trail.values[v] for v in range(1, f.num_vars + 1)
               if k.trail.values[v] != UNASSIGNED}
        want, want_conflict = naive_propagate(f, decisions)
        assert (conflict is not None) == want_conflict
        if not want_conflict:
            assert got == want


def test_propagation_fixpoint_no_unit_or_false_clause():
    for f in random_instances(seed=21, count=20):
        k = Kernel(f)
        conflict = drive(k, [-v for v in range(1, f.num_vars + 1)])
        if conflict is not None:
            continue
        store = k.store
        for clause in store.problem + store.learned + store.blocking:
            status, _ = clause_status(k, clause)
            assert status not in (UNIT, FALSIFIED)


def collect_conflicts(f, rng, uip):
    """Generate conflicts via random decisions; return analysis results."""
    k = Kernel(f)
    out = []
    conflict = k.propagate()
    guard = 0
    while conflict is None and len(k.trail) != k.n and guard < 100:
        guard += 1
        v = next(v for v in range(1, f.num_vars + 1)
                 if k.trail.values[v] == UNASSIGNED)
        k.make_decision(v if rng.random() < 0.5 else -v)
        conflict = k.propagate()
    if conflict is None or k.trail.level == 0:
        return out
    lmax = max(k.trail.var_level[abs(l)] for l in conflict)
    if lmax == 0:
        return out
    k.cancel_to(lmax)
    out.append((k, k.analyze(conflict, uip)))
    return out


def test_learned_clauses_entailed_and_falsified():
    rng = random.Random(3)
    for f in random_instances(seed=31, count=40, n_range=(4, 10)):
        for k, learned in collect_conflicts(f, rng, "dlevel"):
            # falsified by the pre-conflict trail
            assert all(k.trail.values[l] == 0 for l in learned.lits)
            # entailed by problem clauses (nothing else was learned yet)
            assert entails(f, learned.lits)
            # exactly one literal of the conflict level
            dl = k.trail.level
            at_dl = [l for l in learned.lits
                     if k.trail.var_level[abs(l)] == dl]
            assert at_dl == [learned.lits[0]]


def test_decide_exhausted_returns_none(ex41):
    k = Kernel(ex41)
    drive(k, [-1])
    assert len(k.trail) == k.n
    assert k.decide() is None


def test_stats_counters(ex31):
    k = Kernel(ex31)
    drive(k, [-5, 3, 2])
    assert k.stats.decisions == 3
    assert k.stats.propagations == 3   # -6, 1, 4


def test_decide_highest_activity_lowest_index():
    """A decision takes the highest activity and, on ties, the lowest
    index, also after a rescale, and decides it false; every search counter
    depends on this choice."""
    k = Kernel(from_clause_lists(6, []))
    assert k.decide() == -1          # all activities zero
    k.bump_activity(5)
    k.bump_activity(3)
    assert k.decide() == -3          # tie
    k.decay_activity()
    k.bump_activity(5)
    assert k.decide() == -5
    k.make_decision(-5)
    assert k.decide() == -3
    # a bump past ACTIVITY_RESCALE scales every activity down
    k.var_inc = ACTIVITY_RESCALE
    k.bump_activity(6)
    k.bump_activity(6)
    assert k.activity[6] < 10 and k.var_inc < 10
    assert 0 < k.activity[3] < k.activity[6]
    assert k.decide() == -6
    k.bump_activity(4)
    k.bump_activity(2)
    assert k.activity[2] == k.activity[4] < k.activity[6]
    assert k.decide() == -6
    k.make_decision(6)
    assert k.decide() == -2          # tie after the rescale


@pytest.mark.parametrize("engine", ["nonblocking", "blocking"])
def test_propagate_reads_the_clock_by_work(engine, monkeypatch):
    """The first propagate reads the clock, and after that a call reads it
    exactly when the work since the last read reaches CLOCK_STRIDE (16):
    1 per call, counted when it starts, plus the literals it implied,
    counted when it ends (the reading call's own included)."""
    import allsat.kernel
    clock = StopClock()
    monkeypatch.setattr(allsat.kernel, "time", clock)
    calls = []
    for f in random_instances(seed=31, count=12, n_range=(8, 30),
                              ratio=(1.0, 4.3)):
        solver = NonBlockingSolver(f) if engine == "nonblocking" \
            else BlockingSolver(f)
        k = solver.kernel
        assert k._clock_stride == CLOCK_STRIDE
        propagate = k.propagate

        def counted():
            reads, before = clock.calls, k.stats.propagations
            try:
                return propagate()
            finally:
                calls.append((clock.calls - reads,
                              k.stats.propagations - before))
        k.propagate = counted
        start = len(calls)
        solver.run()
        work = None   # since the last read; None: nothing read yet
        for reads, implied in calls[start:]:
            if work is not None:
                work += 1
            assert reads == (work is None or work >= CLOCK_STRIDE)
            if reads:
                work = 0
            work += implied
    assert len(calls) > 1000
    assert max(i for _, i in calls) > CLOCK_STRIDE   # long runs were met
    assert 0 < sum(r for r, _ in calls) < len(calls) // 4
    # a decision reads all n values, so the stride shrinks from n = 4,096
    assert [Kernel(from_clause_lists(n, []))._clock_stride
            for n in (4095, 4096, 20000, 70000)] == [16, 15, 3, 1]


@pytest.mark.parametrize("mode", ["nonblocking", "blocking"])
def test_setup_checks_the_deadline_every_1024_clauses(mode, tmp_path,
                                                      monkeypatch):
    """The kernel's setup reads the clock once per 1,024 non-empty clauses,
    from the 1,024th on, so a deadline that passes while a long formula is
    set up stops the run before its search, with a count of 0."""
    import allsat.kernel
    for m, reads in ((1023, 0), (1024, 1), (3000, 2)):
        clock = StopClock()
        monkeypatch.setattr(allsat.kernel, "time", clock)
        Kernel(random_3cnf(random.Random(m), 50, m), Budget(time_limit=60.0))
        assert clock.calls == reads, m

    def refuse(self):
        raise AssertionError("the search started")

    monkeypatch.setattr(Kernel, "propagate", refuse)
    # the harness reads the clock once before it builds the engine
    monkeypatch.setattr(allsat.kernel, "time", StopClock(1))
    stats = run_instance(tmp_path / "long.cnf",
                         RunConfig(mode=mode, time_limit=60.0),
                         formula=random_3cnf(random.Random(1), 300, 1500))
    assert stats.exit_code == EXIT_LIMIT and stats.solutions == 0


def reference_pick(k):
    """The linear scan the cached decision order replaced: the highest
    activity, lowest index first."""
    values = k.trail.values
    best = None
    best_act = -1.0
    for v in range(1, k.n + 1):
        if values[v] == UNASSIGNED and k.activity[v] > best_act:
            best = v
            best_act = k.activity[v]
    return best


@pytest.mark.parametrize("n", [0, 1])
def test_decide_on_tiny_formulas(n):
    k = Kernel(from_clause_lists(n, []))
    assert k.decide() == (-1 if n else None)
    if n:
        k.bump_activity(1)
        k.make_decision(1)
    assert k.decide() is None


@given(st.integers(0, 8), st.data())
def test_decide_matches_the_linear_scan(n, data):
    """Random bump / decay / rescale / decide / assign / cancel sequences:
    the cached order picks what the linear scan picks after every step."""
    k = Kernel(from_clause_lists(n, []))
    t = k.trail
    variables = st.integers(1, n)
    for _ in range(data.draw(st.integers(0, 40))):
        free = [v for v in range(1, n + 1) if t.values[v] == UNASSIGNED]
        ops = ["decay", "cancel"] + (["bump", "rescale"] if n else []) \
            + (["decide", "assign"] if free else [])
        op = data.draw(st.sampled_from(ops))
        if op == "bump":
            for v in data.draw(st.lists(variables, max_size=4)):
                k.bump_activity(v)
        elif op == "decay":
            k.decay_activity()
        elif op == "rescale":
            k.var_inc = ACTIVITY_RESCALE * data.draw(st.sampled_from(
                (0.5, 1.0, 2.0)))
            k.bump_activity(data.draw(variables))
        elif op == "cancel":
            k.cancel_to(data.draw(st.integers(0, t.level)))
        else:
            lit = data.draw(st.sampled_from(free)) \
                * data.draw(st.sampled_from((1, -1)))
            if op == "decide":
                k.make_decision(lit)
            else:
                t.assign(lit)
        var = reference_pick(k)
        assert k.decide() == (-var if var else None)


def check_watches(kernel, attached):
    """Each attached clause of length >= 2 sits exactly once in the watch
    list of lits[0], once in that of lits[1], and in no other list."""
    watches = kernel.store.watches
    assert len(watches) == 2 * kernel.n + 1
    where = {}
    for idx, watchers in enumerate(watches):
        lit = idx if idx <= kernel.n else idx - len(watches)
        for clause in watchers:
            where.setdefault(id(clause), Counter())[lit] += 1
    assert set(where) == set(attached)
    for key, lits in attached.items():
        assert where[key] == Counter({lits[0]: 1, lits[1]: 1}), lits


def test_watch_lists_stay_exact_during_full_runs(monkeypatch):
    """After every propagation, in full runs of every nonblocking and
    blocking configuration, the watch lists hold exactly the attached
    clauses under their first two literals, and the trail is consistent."""
    attached = {}
    calls = []
    init = Kernel.__init__
    attach, propagate = Kernel.attach_clause, Kernel.propagate

    def init_and_record(self, *args, **kwargs):
        init(self, *args, **kwargs)
        # the constructor watches the problem clauses itself
        attached.update((id(c), c) for c in self.store.problem
                        if len(c) >= 2)

    def attach_and_record(self, clause):
        status = attach(self, clause)
        if len(clause) >= 2:
            attached[id(clause)] = clause
        return status

    def propagate_and_check(self):
        conflict = propagate(self)
        check_watches(self, attached)
        check_consistent(self.trail)
        calls.append(conflict is None)
        return conflict

    monkeypatch.setattr(Kernel, "__init__", init_and_record)
    monkeypatch.setattr(Kernel, "attach_clause", attach_and_record)
    monkeypatch.setattr(Kernel, "propagate", propagate_and_check)
    solvers = [lambda f, u=u, b=b: NonBlockingSolver(f, uip=u, backtrack=b)
               for u in UIP_SCHEMES for b in STRATEGIES]
    solvers += [lambda f, s=s, c=c: BlockingSolver(
                    f, simplify=s, continue_search=c)
                for s in (False, True) for c in (False, True)]
    for f in random_instances(seed=61, count=12, n_range=(4, 10),
                              ratio=(2.0, 4.5)):
        for make in solvers:
            attached.clear()
            make(f).run()
    assert any(calls) and not all(calls)   # fixpoints and conflicts seen


# ----------------------------------------------------------------------
# the written-out propagation and analysis loops against the loops they
# replaced, kept here as references

def reference_propagate(k):
    """The watcher loop with an index walk, a ``range`` scan of the
    candidates, swaps, and ``Trail.assign`` for every implied literal."""
    trail = k.trail
    values = trail.values
    watches = k.store.watches
    for c in k.store.pending_units:
        lit = c[0]
        v = values[lit]
        if v == UNASSIGNED:
            trail.assign(lit, c)
            k.stats.propagations += 1
        elif v == 0:
            k.qhead = len(trail.lits)
            k.stats.conflicts += 1
            return c
    trail_lits = trail.lits
    start = len(trail_lits)
    qhead = k.qhead
    conflict = None
    while qhead < len(trail_lits) and conflict is None:
        false_lit = -trail_lits[qhead]
        qhead += 1
        watchers = watches[false_lit]
        i = j = 0
        end = len(watchers)
        while i < end:
            clause = watchers[i]
            i += 1
            if clause[0] == false_lit:
                clause[0], clause[1] = clause[1], clause[0]
            other = clause[0]
            ov = values[other]
            if ov == 1:
                watchers[j] = clause
                j += 1
                continue
            for m in range(2, len(clause)):
                cand = clause[m]
                if values[cand] != 0:
                    clause[1], clause[m] = clause[m], clause[1]
                    watches[cand].append(clause)
                    break
            else:
                watchers[j] = clause
                j += 1
                if ov == 0:
                    conflict = clause
                    break
                trail.assign(other, clause)
        del watchers[j:i]
    k.stats.propagations += len(trail_lits) - start
    if conflict is not None:
        k.qhead = len(trail_lits)
        k.stats.conflicts += 1
    else:
        k.qhead = qhead
    return conflict


def reference_analyze(k, conflict, uip="dlevel", stop_lit=None):
    """First-UIP analysis with ``absorb`` and ``in_scope`` closures, bumping
    each variable when it is first absorbed."""
    trail = k.trail
    dl = trail.level
    var_level = trail.var_level
    var_sub = trail.var_sublevel
    reasons = trail.reasons
    trail_lits = trail.lits
    lits_at_dl = [l for l in conflict if var_level[abs(l)] == dl]
    if not lits_at_dl:
        raise RuntimeError("conflict clause has no current-level literal")
    if uip == "sublevel":
        cur_sub = max(var_sub[abs(l)] for l in lits_at_dl)

        def in_scope(v):
            return var_level[v] == dl and var_sub[v] == cur_sub
    else:
        def in_scope(v):
            return var_level[v] == dl
    seen = set()
    out = []
    pending = 0
    stop_var = abs(stop_lit) if stop_lit is not None else 0
    tainted = trail.tainted

    def absorb(clause_lits, skip_var):
        nonlocal pending
        for q in clause_lits:
            v = abs(q)
            if v == skip_var or v in seen:
                continue
            if var_level[v] == 0 and not tainted[v]:
                continue
            seen.add(v)
            k.bump_activity(v)
            if in_scope(v):
                pending += 1
            else:
                out.append(q)

    absorb(conflict, 0)
    idx = len(trail_lits) - 1
    uip = 0
    stop_idx = -1
    while True:
        if stop_idx >= 0 and pending == 1:
            lit = trail_lits[stop_idx]
        else:
            while True:
                if idx < 0:
                    raise RuntimeError("conflict analysis ran off the trail")
                lit = trail_lits[idx]
                v = abs(lit)
                if v in seen and in_scope(v):
                    if v == stop_var and pending > 1:
                        stop_idx = idx
                        idx -= 1
                        continue
                    break
                idx -= 1
        v = abs(lit)
        pending -= 1
        if pending == 0 and (stop_var == 0 or v == stop_var):
            uip = lit
            break
        idx -= 1
        reason = reasons[v]
        if reason is None:
            out.append(-lit)
        else:
            absorb(reason, v)
    if stop_lit is not None and uip != stop_lit:
        raise RuntimeError("targeted analysis did not end at the pivot")
    lits = [-uip] + out
    assert_level = max((var_level[abs(l)] for l in out), default=0)
    k.decay_activity()
    return lits, assert_level


def clause_keys(k):
    """Clause identity -> its place in the store, comparable across two
    kernels built from one formula."""
    keys = {id(c): ("problem", i) for i, c in enumerate(k.store.problem)}
    keys.update((id(c), ("learned", i))
                for i, c in enumerate(k.store.learned))
    return keys


def kernel_state(k):
    """Everything propagation writes: the trail, the clauses' literal
    order, every watch list in order, the queue head and the counters."""
    t = k.trail
    keys = clause_keys(k)
    return (t.lits, t.values, t.var_level, t.var_sublevel,
            [keys.get(id(r)) for r in t.reasons], t.tainted, t.level,
            t.level_start, t.cur_sublevel,
            k.store.problem + k.store.learned,
            [[keys[id(c)] for c in w] for w in k.store.watches],
            [keys[id(c)] for c in k.store.pending_units],
            k.qhead, k.stats.propagations, k.stats.conflicts)


def twin_step(rng, k, ref):
    """One random decide / flip / cancel / learn step, decisions the most
    likely, applied to both kernels alike.  False, and no step, when every
    variable is assigned at level 0 and nothing is left to do."""
    t = k.trail
    free = [v for v in range(1, k.n + 1) if t.values[v] == UNASSIGNED]
    if not free and t.level == 0:
        return False
    op = rng.choice((["decide"] * 6 if free else [])
                    + (["flip"] * 2 if t.level else []) + ["cancel", "learn"])
    if op == "decide":
        lit = rng.choice(free) * rng.choice((1, -1))
        for x in (k, ref):
            x.make_decision(lit)
    elif op == "flip":
        twin_flip(k, ref, rng.randint(1, t.level))
    elif op == "cancel":
        level = rng.randint(0, t.level)
        for x in (k, ref):
            x.cancel_to(level)
    else:
        size = 1 if rng.random() < 0.05 else rng.randint(2, 6)
        twin_learn(k, ref, random_clause(rng, k.n, size))
    return True


def twin_flip(k, ref, level):
    for x in (k, ref):
        x.trail.flip(level)
        # as NonBlockingSolver.backtrack_bt: propagate the flip next
        x.qhead = min(x.qhead, len(x.trail.lits) - 1)


def twin_learn(k, ref, lits):
    """Record and attach a clause in both kernels, and assign its literal
    if it is unit."""
    for x in (k, ref):
        clause = list(lits)
        x.add_learned(clause)
        if x.attach_clause(clause) == UNIT:
            x.trail.assign(clause[0], clause)


def random_clause(rng, n, size):
    """Variables drawn with replacement: repeated and complementary
    literals included."""
    return [rng.randint(1, n) * rng.choice((1, -1)) for _ in range(size)]


def twin_kernels(rng):
    """Two kernels on one random formula of 2- to 4-literal clauses, at a
    clause/variable ratio of 1.5 to 4.5, plus a unit clause in one of
    four."""
    n = rng.randint(3, 12)
    clauses = [random_clause(rng, n, rng.randint(2, 4))
               for _ in range(int(n * rng.uniform(1.5, 4.5)))]
    clauses += [random_clause(rng, n, 1)] * (rng.random() < 0.25)
    f = from_clause_lists(n, clauses)
    return Kernel(f), Kernel(f)


@given(st.integers(0, 2**32 - 1))
def test_propagate_matches_reference(seed):
    """Random formulas, learned clauses, decisions, flips and cancels on
    two kernels: ``propagate`` on one and the reference loop on the other
    leave the same trail, clauses, watch lists, queue head and counters,
    and report the same conflict clause.  A run whose variables are all
    assigned at level 0 goes on with a new formula."""
    rng = random.Random(seed)
    k, ref = twin_kernels(rng)
    for _ in range(100):
        got, want = k.propagate(), reference_propagate(ref)
        assert (None if got is None else clause_keys(k)[id(got)]) \
            == (None if want is None else clause_keys(ref)[id(want)])
        assert kernel_state(k) == kernel_state(ref)
        check_consistent(k.trail)
        if not twin_step(rng, k, ref):
            k, ref = twin_kernels(rng)


@given(st.integers(0, 2**32 - 1))
def test_analyze_matches_reference(seed):
    """Random decide / flip / cancel / learn runs on two kernels, in which
    each conflict is analyzed at its highest level, for either scope, with or without a stop literal, and then learned and undone by
    a flip or a backjump: ``analyze`` on one kernel and the closure-based
    reference on the other learn the same literals in order with the same
    assert level, and leave the same activities and ``var_inc``; an
    analysis that fails, fails alike.  A ``var_inc`` near the rescale
    threshold makes the bump order show.  A run goes on with a new formula
    after a failed analysis, a level-0 conflict, or when every variable is
    assigned at level 0."""
    rng = random.Random(seed)
    k, ref = twin_kernels(rng)
    for _ in range(100):
        conflict, ref_conflict = k.propagate(), ref.propagate()
        if conflict is None:
            if not twin_step(rng, k, ref):
                k, ref = twin_kernels(rng)
            continue
        t = k.trail
        lmax = max(t.var_level[abs(l)] for l in conflict)
        if lmax == 0:
            k, ref = twin_kernels(rng)
            continue
        for x in (k, ref):
            x.cancel_to(lmax)
        if rng.random() < 0.3:
            k.var_inc = ref.var_inc = ACTIVITY_RESCALE * rng.choice(
                (0.3, 0.6, 1.5))
        uip = rng.choice(UIP_SCHEMES)
        at_dl = [l for l in t.lits if t.var_level[abs(l)] == t.level]
        stop_lit = rng.choice([None] * len(at_dl) + at_dl)
        try:
            want = reference_analyze(ref, ref_conflict, uip, stop_lit)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=re.escape(str(exc))):
                k.analyze(conflict, uip, stop_lit)
            k, ref = twin_kernels(rng)
            continue
        got = k.analyze(conflict, uip, stop_lit)
        assert (got.lits, got.assert_level) == want
        assert k.activity == ref.activity and k.var_inc == ref.var_inc
        if rng.random() < 0.5:
            twin_flip(k, ref, t.level)
        else:
            for x in (k, ref):
                x.cancel_to(got.assert_level)
        twin_learn(k, ref, got.lits)


@pytest.mark.parametrize("engine,other", [
    (BlockingSolver, NonBlockingSolver), (NonBlockingSolver, BlockingSolver)])
def test_engines_share_one_search_loop(engine, other):
    """Both engine families run ``Engine.run`` and differ only in their
    steps: neither defines a loop of its own, and neither inherits from the
    other.  A patch that puts the class attribute back (the benchmark
    tracer's uninstall) leaves ``Engine.run`` itself there, which is still
    no loop of its own."""
    assert issubclass(engine, Engine) and not issubclass(engine, other)
    assert vars(engine).get("run", Engine.run) is Engine.run
