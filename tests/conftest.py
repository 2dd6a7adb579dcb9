import random

import pytest

from allsat import from_clause_lists

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


def trail_trace(trail):
    """(literal, level, reason cid or None) for each assignment in trail
    order."""
    out = []
    for lit in trail.lits:
        reason = trail.reasons[abs(lit)]
        out.append((lit, trail.var_level[abs(lit)],
                    reason.cid if reason else None))
    return out


def solution_mask(cube) -> int:
    mask = 0
    for l in cube:
        if l > 0:
            mask |= 1 << (l - 1)
    return mask
