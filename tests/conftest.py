import math
import random
import signal
import time
from bisect import bisect_right
from contextlib import contextmanager

import pytest

from allsat import (compute_cuts, count_models, from_clause_lists, load,
                    make_formula)
from allsat.bddcache import CACHE_MODES
from allsat.obdd import iter_paths
from allsat.oracle import mask_to_lits
from allsat.trail import UNASSIGNED

try:
    from hypothesis import settings
except ImportError:   # property tests import hypothesis themselves
    pass
else:
    # small enough for the tier-1 run; pass --hypothesis-profile to use
    # another registered profile
    settings.register_profile("tier1", max_examples=50, deadline=None)
    settings.load_profile("tier1")

# Worked 6-variable formula used throughout: C1..C5 (clause ids 0..4).
EX31_CLAUSES = [[1, -3], [2, 3, 5], [-1, -3, 4], [4, -5, 6], [5, -6]]
# 3-variable ring implication formula with exactly the all-false and
# all-true models.
EX41_CLAUSES = [[1, -2], [2, -3], [3, -1]]


@pytest.fixture
def ex31():
    return from_clause_lists(6, EX31_CLAUSES)


@pytest.fixture
def ex41():
    return from_clause_lists(3, EX41_CLAUSES)


def random_3cnf(rng: random.Random, n: int, m: int):
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), min(3, n))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return from_clause_lists(n, clauses)


def random_instances(seed: int, count: int, n_range=(3, 12), ratio=(1.0, 4.0)):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(*n_range)
        m = max(1, round(rng.uniform(*ratio) * n))
        out.append(random_3cnf(rng, n, m))
    return out


def brute_force_cuts(f):
    """Independent oracle: apply the two definitions literally."""
    n = f.num_vars
    cutsets = [[] for _ in range(n + 1)]
    separators = [[] for _ in range(n + 1)]
    for i in range(n + 1):
        sep = set()
        for p, c in enumerate(f.clauses):
            if not c:
                continue
            vs = [abs(l) for l in c]
            if min(vs) <= i < max(vs):
                cutsets[i].append(p)
                sep.update(v for v in vs if v <= i)
        separators[i] = sorted(sep)
    return cutsets, separators


def bits(code: int) -> set[int]:
    return {b for b in range(code.bit_length()) if code >> b & 1}


def check_keys_decode(f, values) -> None:
    """The cutset code at cut i holds the clauses of cutset(i) that the
    prefix satisfies, the separator code the variables of separator(i) the
    prefix sets true."""
    cutsets, separators = brute_force_cuts(f)
    for mode in CACHE_MODES:
        steps = compute_cuts(f, mode)
        codes = [0]
        for i in range(f.num_vars + 1):
            if mode == "cutset":
                want = {p for p in cutsets[i] if any(
                    abs(l) <= i and values[abs(l)] == (l > 0)
                    for l in f.clauses[p])}
            else:
                want = {v for v in separators[i] if values[v] == 1}
            cut, code = make_formula(steps, values, codes, i)
            assert cut == i and bits(code) == want, (mode, i)


def irregular_formulas(seed: int, count: int):
    """Formulas with empty, unit and wide clauses, repeated variables and
    complementary literals in one clause."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 40)
        clauses = [[rng.choice((1, -1)) * rng.randint(1, n)
                    for _ in range(rng.randint(0, 6))]
                   for _ in range(rng.randint(0, 3 * n))]
        out.append(from_clause_lists(n, clauses))
    return out


def script_decisions(solver, lits):
    """Make ``solver``'s kernel decide ``lits`` in order before its own
    heuristic takes over, skipping each literal whose variable is assigned
    when its turn comes.  Returns the solver."""
    kernel = solver.kernel
    heuristic = kernel.decide
    script = list(reversed(lits))

    def decide():
        while script:
            lit = script.pop()
            if kernel.trail.values[lit] == UNASSIGNED:
                return lit
        return heuristic()

    kernel.decide = decide
    return solver


def trail_trace(kernel):
    """(literal, level, reason) for each assignment on the kernel's trail,
    in trail order.  The reason is named by its position in the kernel's
    problem clauses (-1 for any other clause, None for no reason); for a
    formula without empty clauses that is its position in the formula."""
    trail = kernel.trail
    position = {id(c): p for p, c in enumerate(kernel.store.problem)}
    out = []
    for lit in trail.lits:
        reason = trail.reasons[abs(lit)]
        out.append((lit, trail.var_level[abs(lit)],
                    None if reason is None else position.get(id(reason), -1)))
    return out


def check_consistent(trail) -> None:
    """Internal consistency of a trail: the per-variable view mirrors the
    trail, the negative half of ``values`` mirrors the positive one, and
    the first assignment of each level >= 1 has no antecedent."""
    seen = set()
    last_level = 0
    for idx, lit in enumerate(trail.lits):
        var = abs(lit)
        assert var not in seen, f"variable {var} appears twice"
        seen.add(var)
        assert trail.values[var] == (1 if lit > 0 else 0)
        level = trail.var_level[var]
        assert level == bisect_right(trail.level_start, idx) - 1
        assert level >= last_level, "levels must be non-decreasing"
        last_level = level
        if level >= 1 and trail.level_start[level] == idx:
            assert trail.reasons[var] is None, \
                f"decision of level {level} has an antecedent"
    assert len(trail.level_start) == trail.level + 1
    values = trail.values
    for var in range(1, trail.num_vars + 1):
        if var in seen:
            assert values[-var] == 1 - values[var]
        else:
            assert values[var] == values[-var] == UNASSIGNED


def literal_sets(models) -> set[frozenset[int]]:
    """A ``ModelSet``'s models, each as the set of its literals."""
    return {frozenset(mask_to_lits(m, models.num_vars)) for m in models.masks}


def blocking_clauses(solver):
    """A blocking engine's blocking clauses in the order it added them, each
    as a tuple of its literals sorted by variable."""
    return [tuple(sorted(c, key=abs)) for c in solver.kernel.store.blocking]


def solution_mask(cube) -> int:
    mask = 0
    for l in cube:
        if l > 0:
            mask |= 1 << (l - 1)
    return mask


def reference_count(store, root=None) -> int:
    """Root-to-true-sink paths by a memoised depth-first search that only
    follows arcs, so it assumes no variable order (the reference for
    ``count_models``)."""
    if root is None:
        root = store.root
    memo = {0: 0, 1: 1}
    stack = [root]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        missing = [c for c in (store.lo[u], store.hi[u]) if c not in memo]
        if missing:
            stack.extend(missing)
        else:
            memo[u] = memo[store.lo[u]] + memo[store.hi[u]]
            stack.pop()
    return memo[root]


def path_mask(path) -> int:
    return sum(1 << (var - 1) for var, value in path if value)


def check_partition(solver, n: int, want: set[int], label) -> None:
    """The dumped parts and the final diagram of a diagram engine that has
    run are ordered, never skip a variable, and split the models ``want``
    between them."""
    assert solver.stats.solutions == len(want), label
    stores = []
    for part, count in solver.dumps:
        with open(part) as fh:
            stores.append((load(fh.read()), count))
    stores.append((solver.store, count_models(solver.store)))
    masks = []
    for store, count in stores:
        store.check_ordered()
        paths = list(iter_paths(store))
        assert len(paths) == count, label
        assert count_models(store) == reference_count(store) == count, label
        assert all(len(p) == n for p in paths), label
        masks += [path_mask(p) for p in paths]
    assert len(masks) == len(set(masks)), label
    assert set(masks) == want, label


# seconds each test may take: its setup (session fixtures included), call
# and teardown together
TEST_TIME_LIMIT = 300


@contextmanager
def time_limit(seconds: float):
    """Fail with TimeoutError instead of hanging past ``seconds``.  An
    outer limit that was armed is armed again on exit, with what is left
    of it (a limit that passed meanwhile fires at once)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            left = outer - (time.monotonic() - started)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    """A test fails after TEST_TIME_LIMIT seconds instead of hanging the
    suite; the phase the alarm interrupts reports the TimeoutError."""
    with time_limit(TEST_TIME_LIMIT):
        yield


class StopClock:
    """Stands in for the ``time`` module of ``allsat.kernel``: the first
    ``reads`` calls of ``monotonic`` return 0.0 and every later one
    infinity, so any time limit stops a run at read ``reads`` + 1.  It
    counts the calls.  ``Budget.started`` keeps the real clock."""

    def __init__(self, reads: float = math.inf):
        self.reads = reads
        self.calls = 0

    def monotonic(self) -> float:
        self.calls += 1
        return 0.0 if self.calls <= self.reads else math.inf
