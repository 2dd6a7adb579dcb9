"""Property tests of the enumeration engines on random small CNFs."""

import signal
import tempfile
from contextlib import contextmanager

from hypothesis import given
from hypothesis import strategies as st

from allsat import (BddBlockingSolver, BddSolver, BlockingConfig,
                    BlockingSolver, NonBlockingConfig, NonBlockingSolver,
                    RefreshPolicy, apply_order, count_models, dump,
                    enumerate_all, from_clause_lists, load)
from allsat.bddcache import CACHE_MODES
from allsat.nonblocking import STRATEGIES, UIP_SCHEMES
from allsat.obdd import ObddLoadError, iter_paths
from allsat.oracle import expand_cube

from conftest import solution_mask


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


def path_mask(path) -> int:
    return sum(1 << (var - 1) for var, value in path if value)


def check_partition(result, n: int, want: set[int], label) -> None:
    """The dumped parts and the final diagram of a diagram engine's result
    are ordered, never skip a variable, and split the models ``want``
    between them."""
    assert result.total == len(want), label
    stores = []
    for part, count in result.dumps:
        with open(part) as fh:
            stores.append((load(fh.read()), count))
    stores.append((result.store, result.final))
    masks = []
    for store, count in stores:
        store.check_ordered()
        paths = list(iter_paths(store))
        assert len(paths) == count, label
        assert all(len(p) == n for p in paths), label
        masks += [path_mask(p) for p in paths]
    assert len(masks) == len(set(masks)), label
    assert set(masks) == want, label


@given(cases())
def test_bdd_counts_orders_and_partitions(case):
    formula, perm, threshold = case
    f = apply_order(formula, perm)
    want = set(enumerate_all(f).masks)
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in (NonBlockingConfig(u, b)
                    for u in UIP_SCHEMES for b in STRATEGIES):
            for mode in CACHE_MODES:
                policy = RefreshPolicy(threshold, tmp,
                                       f"{cfg.uip_scheme}-{cfg.strategy}-{mode}")
                result = BddSolver(f, cfg=cfg, cache_mode=mode,
                                   policy=policy).run_bdd()
                check_partition(result, f.num_vars, want, (cfg, mode))


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
                result = BddBlockingSolver(f, cache_mode=mode,
                                           policy=policy).run_bdd()
                check_partition(result, f.num_vars, want, (mode, theta))


@given(cases())
def test_nonblocking_reports_each_model_once(case):
    formula, perm, _ = case
    f = apply_order(formula, perm)
    want = set(enumerate_all(f).masks)
    for cfg in (NonBlockingConfig(u, b)
                for u in UIP_SCHEMES for b in STRATEGIES):
        models = []
        count = NonBlockingSolver(f, cfg, sink=models.append).run()
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
            cfg = BlockingConfig(simplify=simplify, continue_search=cont)
            cubes = []
            solver = BlockingSolver(f, cfg, sink=cubes.append)
            solver.run()
            # cubes are disjoint exactly when their expansions never repeat
            masks = [m for cube in cubes for m in expand_cube(cube, n)]
            assert len(set(masks)) == len(masks), cfg
            assert set(masks) == want, cfg
            assert solver.covered == len(want), cfg
            if not simplify:
                assert all(len(c) == n for c in cubes), cfg


@contextmanager
def time_limit(seconds: float):
    """Fail with TimeoutError instead of hanging past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@given(cases(max_n=6), st.data())
def test_load_of_a_mutated_dump_fails_typed_or_loads_a_sound_diagram(
        case, data):
    """Replacing any one field of a valid dump with a small integer either
    raises ObddLoadError or loads an ordered diagram that counts at most
    2^n models without hanging."""
    formula, _, _ = case
    lines = [line.split() for line in
             dump(BddSolver(formula).run_bdd().store).splitlines()]
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
