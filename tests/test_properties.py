"""Property tests of the enumeration engines on random small CNFs."""

import os
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

import allsat.kernel
from allsat import (BddBlockingSolver, BddSolver, BlockingSolver,
                    NonBlockingSolver, RefreshPolicy, apply_order,
                    compute_cuts, count_models, dump, enumerate_all,
                    from_clause_lists, load, make_formula)
from allsat.bddcache import CACHE_MODES
from allsat.harness import (EXIT_LIMIT, EXIT_OK, FLAGS, MODES, RunConfig,
                            run_instance)
from allsat.nonblocking import STRATEGIES, UIP_SCHEMES
from allsat.obdd import BOT, TOP, ObddLoadError, ObddStore, compact
from allsat.oracle import expand_cube

from conftest import (StopClock, check_keys_decode, check_partition,
                      reference_count, solution_mask, time_limit)


@st.composite
def cases(draw, max_n=12):
    """A CNF over 0..max_n variables, a variable order and a refresh
    threshold (None for no refresh)."""
    n = draw(st.integers(0, max_n))
    clauses = []
    if n:
        clause = st.lists(st.integers(1, n), min_size=1, max_size=min(4, n),
                          unique=True).flatmap(
            lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
        clauses = draw(st.lists(clause, max_size=4 * n))
    perm = [0] + draw(st.permutations(range(1, n + 1)))
    # a threshold just above n dumps nearly every model on its own: up to
    # 2^12 dumps per configuration would dominate the suite's time
    threshold = draw(st.none() | st.integers(n + 1, n + 40)) \
        if n <= 10 else None
    return from_clause_lists(n, [list(c) for c in clauses]), perm, threshold


@given(cases())
def test_bdd_counts_orders_and_partitions(case):
    formula, perm, threshold = case
    f = apply_order(formula, perm)
    want = set(enumerate_all(f).masks)
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in (dict(uip=u, backtrack=b)
                    for u in UIP_SCHEMES for b in STRATEGIES):
            for mode in CACHE_MODES:
                policy = RefreshPolicy(
                    threshold, tmp, f"{cfg['uip']}-{cfg['backtrack']}-{mode}")
                solver = BddSolver(f, **cfg, cache=mode, policy=policy)
                solver.run_bdd()
                check_partition(solver, f.num_vars, want, (cfg, mode))


# bdd-blocking restarts after every model, like blocking
@given(cases(max_n=9))
def test_bdd_blocking_counts_orders_and_partitions(case):
    formula, perm, threshold = case
    f = apply_order(formula, perm)
    want = set(enumerate_all(f).masks)
    with tempfile.TemporaryDirectory() as tmp:
        for theta in {None, threshold}:
            for mode in CACHE_MODES:
                policy = RefreshPolicy(theta, tmp, f"{mode}-{theta}")
                solver = BddBlockingSolver(f, cache=mode, policy=policy)
                solver.run_bdd()
                check_partition(solver, f.num_vars, want, (mode, theta))


def quasi_reduced(n: int, masks: set[int]) -> ObddStore:
    """The quasi-reduced OBDD of a model set, built from the definition:
    one node per variable v and nonempty set of models restricted to the
    variables v..n, and the false sink for the empty set."""
    store = ObddStore(n)
    nodes: dict[tuple[int, frozenset], int] = {}

    def node(v: int, suffixes: frozenset) -> int:
        # bit 0 of each suffix is variable v
        if not suffixes:
            return BOT
        if v > n:
            return TOP
        if (v, suffixes) not in nodes:
            lo = node(v + 1, frozenset(m >> 1 for m in suffixes
                                       if not m & 1))
            hi = node(v + 1, frozenset(m >> 1 for m in suffixes if m & 1))
            u = nodes[(v, suffixes)] = store.new_node(v)
            store.lo[u], store.hi[u] = lo, hi
        return nodes[(v, suffixes)]

    store.root = node(1, frozenset(masks))
    return store


def assert_same_up_to_ids(a: ObddStore, b: ObddStore, label) -> None:
    """``a`` and ``b`` have the same nodes, each reachable from the root,
    under some bijection of the branch ids."""
    assert a.size == b.size, label
    to_b = {BOT: BOT, TOP: TOP}
    stack = [(a.root, b.root)]
    while stack:
        u, w = stack.pop()
        if u in to_b:
            assert to_b[u] == w, label
            continue
        assert u >= 2 and w >= 2 and a.var[u] == b.var[w], label
        to_b[u] = w
        stack += [(a.lo[u], b.lo[w]), (a.hi[u], b.hi[w])]
    assert len(set(to_b.values())) == len(to_b) == a.size + 2, label


# bdd-blocking restarts after every model: up to 2^12 restarts per example
# made this test take 5 s
@given(cases(max_n=10))
def test_compacted_diagram_is_the_quasi_reduced_obdd(case):
    """Compacted with nothing pinned, the final diagram of every diagram
    configuration without refresh is the quasi-reduced OBDD of the
    oracle's models, whatever the search shared on the way."""
    formula, perm, _ = case
    f = apply_order(formula, perm)
    want = quasi_reduced(f.num_vars, set(enumerate_all(f).masks))
    solvers = [BddSolver(f, uip=u, backtrack=b, cache=mode)
               for u in UIP_SCHEMES for b in STRATEGIES
               for mode in CACHE_MODES]
    solvers += [BddBlockingSolver(f, cache=mode) for mode in CACHE_MODES]
    for solver in solvers:
        solver.run_bdd()
        store = solver.store
        compact(store)
        store.check_ordered()
        assert_same_up_to_ids(store, want, type(solver).__name__)


@st.composite
def assigned_formulas(draw, max_n=10):
    """A formula with empty, unit and wide clauses and repeated or
    complementary literals, and a total assignment of its variables
    (indexed by variable)."""
    n = draw(st.integers(0, max_n))
    lit = st.integers(1, max(n, 1)).flatmap(
        lambda v: st.sampled_from((v, -v)))
    clause = st.lists(lit, max_size=2 * n + 1) if n else st.just([])
    f = from_clause_lists(n, draw(st.lists(clause, max_size=3 * n + 2)))
    values = [None] + draw(st.lists(st.integers(0, 1), min_size=n,
                                    max_size=n))
    return f, values


@given(assigned_formulas())
def test_keys_decode_to_the_cut_definitions(case):
    check_keys_decode(*case)


@given(assigned_formulas(), st.data())
def test_truncated_prefix_codes_extend_like_a_fresh_fold(case, data):
    """Prefix codes truncated below a variable d, as a cancel to d's
    decision does, and extended under values that agree below d give the
    keys of a fresh fold."""
    f, values = case
    n = f.num_vars
    d = data.draw(st.integers(1, n + 1))
    again = values[:d] + data.draw(st.lists(
        st.integers(0, 1), min_size=n + 1 - d, max_size=n + 1 - d))
    first = data.draw(st.integers(d - 1, n))
    for mode in CACHE_MODES:
        steps = compute_cuts(f, mode)
        codes = [0]
        make_formula(steps, values, codes, n)
        del codes[d:]
        for i in [first] + list(range(d - 1, n + 1)):
            assert (make_formula(steps, again, codes, i)
                    == make_formula(steps, again, [0], i)), (mode, i)


@given(cases())
def test_nonblocking_reports_each_model_once(case):
    formula, perm, _ = case
    f = apply_order(formula, perm)
    want = set(enumerate_all(f).masks)
    for cfg in (dict(uip=u, backtrack=b)
                for u in UIP_SCHEMES for b in STRATEGIES):
        models = []
        count = NonBlockingSolver(f, **cfg, sink=models.append).run()
        assert count == len(models) == len(want), cfg
        assert all(len(m) == f.num_vars for m in models), cfg
        masks = [solution_mask(m) for m in models]
        assert len(set(masks)) == len(masks), cfg
        assert set(masks) == want, cfg


# blocking restarts after every cube: with up to 12 variables, examples
# with thousands of models made this test take up to 9 s
@given(cases(max_n=9))
def test_blocking_cubes_partition_the_models(case):
    formula, perm, _ = case
    f = apply_order(formula, perm)
    n = f.num_vars
    want = set(enumerate_all(f).masks)
    for simplify in (False, True):
        for cont in (False, True):
            cfg = dict(simplify=simplify, continue_search=cont)
            cubes = []
            solver = BlockingSolver(f, **cfg, sink=cubes.append)
            assert solver.run() == len(want), cfg
            # cubes are disjoint exactly when their expansions never repeat
            masks = [m for cube in cubes for m in expand_cube(cube, n)]
            assert len(set(masks)) == len(masks), cfg
            assert set(masks) == want, cfg
            assert solver.stats.solutions == len(want), cfg
            if not simplify:
                assert all(len(c) == n for c in cubes), cfg


@given(cases(max_n=6), st.data())
def test_load_of_a_mutated_dump_fails_typed_or_loads_a_sound_diagram(
        case, data):
    """Replacing any one field of a valid dump with a small integer either
    raises ObddLoadError or loads an ordered diagram that counts at most
    2^n models without hanging."""
    formula, _, _ = case
    solver = BddSolver(formula)
    solver.run_bdd()
    lines = [line.split() for line in dump(solver.store).splitlines()]
    row = data.draw(st.integers(0, len(lines) - 1))
    col = data.draw(st.integers(0, len(lines[row]) - 1))
    lines[row][col] = str(data.draw(st.integers(-3, len(lines) + 3)))
    text = "\n".join(" ".join(line) for line in lines) + "\n"
    with time_limit(2):
        try:
            store = load(text)
        except ObddLoadError:
            return
        store.check_ordered()
        assert 0 <= count_models(store) <= 2 ** formula.num_vars
        # a loaded diagram may skip variables; the sweep counts it from
        # any root as the order-free reference does
        for root in range(len(store.var)):
            assert count_models(store, root) == reference_count(store, root)


def engine_configs(data, threshold):
    """One configuration of every engine of ``MODES``, its flags drawn and
    its refresh threshold (where it has one) ``threshold``."""
    for mode, row in MODES.items():
        if row.build is None:
            continue
        flags = {name: data.draw(st.sampled_from(FLAGS[name][1])
                                 if FLAGS[name][1] else st.booleans())
                 for name in row.flags if name != "refresh_threshold"}
        if "refresh_threshold" in row.flags:
            flags["refresh_threshold"] = threshold
        yield RunConfig(mode=mode, **flags)


def check_lower_bound(stopped, directory: Path, want: int, label) -> None:
    """A run of ``directory / "f.cnf"`` that a limit stopped: exit 10, not
    solved, a count no higher than the oracle's, one part per dump, each
    loading with the count its manifest gives, and the manifest's counts
    (parts and final diagram) adding up to the reported count."""
    assert stopped.exit_code == EXIT_LIMIT, label
    assert not stopped.solved, label
    assert stopped.solutions <= want, label
    parts = sorted(directory.glob("f.part*.obdd"))
    assert len(parts) == stopped.dumps, label
    if parts:
        manifest = (directory / "f.obdd.manifest").read_text()
        counts = dict(line.split() for line in manifest.splitlines())
        for part in parts:
            store = load(part.read_text())
            assert count_models(store) == int(counts[str(part)]), label
        assert sum(map(int, counts.values())) == stopped.solutions, label


@given(cases(max_n=9), st.data())
def test_memory_limit_stops_every_mode_with_a_lower_bound(case, data):
    """Every engine of ``MODES``, run again under a memory limit below the
    peak its full run accounted, stops at the limit with a lower bound
    (``check_lower_bound``)."""
    formula, perm, threshold = case
    f = apply_order(formula, perm)
    want = enumerate_all(f).count
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("ALLSAT_DUMP_DIR", None)
        for cfg in engine_configs(data, threshold):
            runs = Path(tmp) / cfg.mode
            full = run_instance(runs / "full" / "f.cnf", cfg, formula=f)
            assert full.exit_code == EXIT_OK and full.solutions == want, \
                cfg.label()
            if full.peak_mem == 0:
                continue
            # drawn down from the peak, so the limits Hypothesis favours stop
            # late runs, after they found models and dumped parts
            limit = full.peak_mem - 1 - data.draw(
                st.integers(0, full.peak_mem - 1))
            stopped = run_instance(runs / "limit" / "f.cnf",
                                   replace(cfg, mem_limit=limit), formula=f)
            check_lower_bound(stopped, runs / "limit", want,
                              (cfg.label(), limit))


@given(cases(max_n=9), st.data())
def test_time_limit_stops_every_mode_with_a_lower_bound(case, data):
    """Every engine of ``MODES``, run again under a time limit that a fake
    clock makes expire at one of the deadline checks of its full run,
    stops there with a lower bound (``check_lower_bound``)."""
    formula, perm, threshold = case
    f = apply_order(formula, perm)
    want = enumerate_all(f).count
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop("ALLSAT_DUMP_DIR", None)
        for cfg in engine_configs(data, threshold):
            cfg = replace(cfg, time_limit=60.0)
            runs = Path(tmp) / cfg.mode
            clock = StopClock()
            with mock.patch.object(allsat.kernel, "time", clock):
                full = run_instance(runs / "full" / "f.cnf", cfg, formula=f)
            assert full.exit_code == EXIT_OK and full.solutions == want, \
                cfg.label()
            # drawn down from the last check, so the values Hypothesis
            # favours stop late runs, after they found models and dumped
            reads = clock.calls - 1 - data.draw(
                st.integers(0, clock.calls - 1))
            with mock.patch.object(allsat.kernel, "time", StopClock(reads)):
                stopped = run_instance(runs / "limit" / "f.cnf", cfg,
                                       formula=f)
            check_lower_bound(stopped, runs / "limit", want,
                              (cfg.label(), reads))
