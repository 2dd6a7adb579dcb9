"""Seeded corpus for the allsat benchmark.

Each workload is a fixed list of (instance, configuration) items built from
the seed alone.  Generators emit DIMACS text, so the program under test only
ever sees parsed input.  Every instance carries a reference count that does
not come from any solver configuration being timed:

* n <= ORACLE_MAX_VARS: the exhaustive oracle, computed once per corpus;
* larger random 3-CNF: ``count_dpll``, a small counting DPLL, which also
  reports the search steps by which instances are selected (``count_cut``,
  a clause-state DP, gives another such figure);
* chains and grids: ``count_transfer``, a transfer-matrix count over a
  sliding window of variable values (a closed form for the criterion-5
  chain).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("many-models", "hard-few", "bdd-chain", "bdd-random")

ORACLE_MAX_VARS = 20

# Refresh threshold for the refresh items of bdd-random.  Fixed (rather than
# derived from the program's own final diagram) so that a change which
# shrinks diagrams shows up as fewer dumps.  On the bdd-random instances
# it is about 60% of the final cutset diagram and 35% of the separator one,
# so each refresh item makes one to three dumps.
REFRESH_THRESHOLD = 2500

NONBLOCKING = [{"mode": "nonblocking", "uip": uip, "backtrack": bt}
               for uip in ("sublevel", "dlevel")
               for bt in ("bt", "bj", "cbj", "bjcbj")]
BLOCKING = [{"mode": "blocking", "simplify": s, "continue_search": c}
            for s in (False, True) for c in (False, True)]


@dataclass(frozen=True)
class Instance:
    name: str
    dimacs: str
    reference: int


@dataclass(frozen=True)
class Item:
    instance: Instance
    config: dict   # keyword arguments of allsat.harness.RunConfig


# ----------------------------------------------------------------------
# generators

def random_3cnf(rng: random.Random, n: int, m: int) -> list[list[int]]:
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def _flip_polarity(rng: random.Random, n: int, clauses: list[list[int]]
                   ) -> list[list[int]]:
    """Negate every occurrence of a random half of the variables.  The
    result is isomorphic to the input: same count, same diagram size."""
    flip = [rng.random() < 0.5 for _ in range(n + 1)]
    return [[-q if flip[abs(q)] else q for q in c] for c in clauses]


def window_chain(rng: random.Random, n: int, width: int) -> list[list[int]]:
    """Positive clauses whose variables lie within ``width`` consecutive
    indices, 1 and 2 clauses at alternate positions and of 2 and 3
    literals in turn, under a random polarity.  Only the variables inside
    each window are random, so the cost barely varies with the seed."""
    clauses = []
    for start in range(1, n - width + 2):
        for _ in range(1 + start % 2):
            k = 2 + len(clauses) % 2
            clauses.append(rng.sample(range(start, start + width), k))
    return _flip_polarity(rng, n, clauses)


def grid(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    """One positive 2-clause per edge of a rows x cols grid (its vertex
    covers are the models) under a random polarity.  Variables are
    numbered column by column, so every clause spans at most ``rows``."""
    def var(r: int, c: int) -> int:
        return c * rows + r + 1

    clauses = [[var(r, c), var(r2, c2)]
               for c in range(cols) for r in range(rows)
               for r2, c2 in ((r + 1, c), (r, c + 1))
               if r2 < rows and c2 < cols]
    return _flip_polarity(rng, rows * cols, clauses)


def to_dimacs(n: int, clauses: list[list[int]]) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# reference counters

def count_oracle(n: int, clauses: list[list[int]]) -> int:
    # imported on use: run.py puts the checkout's src/ on the path first
    from allsat.formula import from_clause_lists
    from allsat.oracle import enumerate_all
    return enumerate_all(from_clause_lists(n, clauses)).count


class OverLimit(Exception):
    """``count_dpll`` passed one of its limits."""


def count_dpll(n: int, clauses: list[list[int]],
               max_models: float = math.inf, max_steps: float = math.inf
               ) -> tuple[int, int]:
    """Model count by DPLL with unit propagation, and the number of literal
    assignments it made (a measure of how hard the instance is to search).
    A branch whose clauses are all satisfied contributes 2^(free vars).
    Raises OverLimit as soon as either figure passes its limit, so that
    drawing instances until they fall in a window stays cheap."""
    steps = found = 0

    def assign(cls, lit):
        nonlocal steps
        steps += 1
        if steps > max_steps:
            raise OverLimit
        out = []
        for c in cls:
            if lit in c:
                continue
            if -lit in c:
                c = [q for q in c if q != -lit]
                if not c:
                    return None
            out.append(c)
        return out

    def count(cls, free):
        nonlocal found
        while True:
            unit = next((c[0] for c in cls if len(c) == 1), None)
            if unit is None:
                break
            cls = assign(cls, unit)
            free -= 1
            if cls is None:
                return 0
        if not cls:
            found += 1 << free
            if found > max_models:
                raise OverLimit
            return 1 << free
        score: dict[int, int] = {}
        for c in cls:
            w = 1 << (8 - min(len(c), 8))
            for q in c:
                score[abs(q)] = score.get(abs(q), 0) + w
        v = max(score, key=score.get)
        total = 0
        for lit in (v, -v):
            rest = assign(cls, lit)
            if rest is not None:
                total += count(rest, free - 1)
        return total

    return count([list(c) for c in clauses], n), steps


def count_transfer(n: int, clauses: list[list[int]]) -> int:
    """Model count by a transfer matrix along the variable order.

    The state is the values of the last ``w`` variables, where every clause
    lies within ``w + 1`` consecutive indices; a clause is checked when its
    highest variable is assigned.
    """
    w = max(max(abs(q) for q in c) - min(abs(q) for q in c) for c in clauses)
    ending: list[list[list[tuple[int, int]]]] = [[] for _ in range(n + 1)]
    for c in clauses:
        top = max(abs(q) for q in c)
        ending[top].append([(top - abs(q), int(q > 0)) for q in c])
    keep = (1 << w) - 1
    states = {0: 1}
    for v in range(1, n + 1):
        nxt: dict[int, int] = {}
        for bits, cnt in states.items():
            for val in (0, 1):
                full = (bits << 1) | val   # bit k holds variable v - k
                if all(any((full >> off) & 1 == want for off, want in c)
                       for c in ending[v]):
                    key = full & keep
                    nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    return sum(states.values())


def count_cut(n: int, clauses: list[list[int]]) -> tuple[int, int]:
    """Model count by a clause-state DP along the variable order, and the
    number of distinct states it visited.

    A state is the set of clauses the prefix has not yet satisfied; a
    clause left unsatisfied when its last variable is assigned kills the
    branch.  The states of a level are the distinct subinstances a cutset
    cache can tell apart, so their total tracks the size of the diagram
    the ``bdd`` modes build.
    """
    pos = [0] * (n + 1)
    neg = [0] * (n + 1)
    last = [0] * (n + 1)
    for j, c in enumerate(clauses):
        bit = 1 << j
        for q in c:
            if q > 0:
                pos[q] |= bit
            else:
                neg[-q] |= bit
        last[max(abs(q) for q in c)] |= bit
    states = {(1 << len(clauses)) - 1: 1}
    visited = 0
    for v in range(1, n + 1):
        nxt: dict[int, int] = {}
        for open_, cnt in states.items():
            for sat in (pos[v], neg[v]):
                rest = open_ & ~sat
                if not rest & last[v]:
                    nxt[rest] = nxt.get(rest, 0) + cnt
        states = nxt
        visited += len(states)
    return sum(states.values()), visited


def _instance(name: str, n: int, clauses: list[list[int]], reference: int
              ) -> Instance:
    return Instance(name, to_dimacs(n, clauses), reference)


def _draw(rng: random.Random, n: int, ratio, models: tuple[int, int],
          work: tuple[float, float]):
    """One random 3-CNF with n variables and a clause/variable ratio in
    ``ratio``: (m, clauses, count) if its model count and the DPLL steps
    ``count_dpll`` reports fall in the given windows, else None."""
    m = round(rng.uniform(*ratio) * n)
    clauses = random_3cnf(rng, n, m)
    try:
        count, effort = count_dpll(n, clauses, models[1], work[1])
    except OverLimit:
        return None
    if models[0] <= count and work[0] <= effort:
        return m, clauses, count
    return None


def _random_in_window(rng: random.Random, name: str, n: int, ratio,
                      models: tuple[int, int],
                      work: tuple[float, float] = (0, math.inf)
                      ) -> Instance:
    """Draw until an instance falls in the windows (see ``_draw``).
    Narrow windows keep the work of a corpus nearly the same from seed to
    seed, so seeds differ in instances but hardly in cost."""
    for _ in range(5000):
        drawn = _draw(rng, n, ratio, models, work)
        if drawn is not None:
            m, clauses, count = drawn
            if n <= ORACLE_MAX_VARS:
                count = count_oracle(n, clauses)
            return _instance(f"{name}-n{n}-m{m}", n, clauses, count)
    raise RuntimeError(f"no instance in the windows for {name}")


def _random_spread(rng: random.Random, name: str, n: int, ratio,
                   models: tuple[int, int], work: tuple[float, float],
                   windows: list[tuple[int, int]], key=None
                   ) -> list[Instance]:
    """One instance per window in ``windows``, from one stream of draws in
    the ``models`` and ``work`` windows (n > ORACLE_MAX_VARS).  An instance
    fills a window that holds its ``key``: the model count by default, or
    ``key(n, clauses)``.  Where a single wide window would let the corpus's
    total of that figure, and with it the cost, vary from seed to seed,
    adjacent windows fix its spread."""
    found: list[Instance | None] = [None] * len(windows)
    for _ in range(20000):
        drawn = _draw(rng, n, ratio, models, work)
        if drawn is None:
            continue
        m, clauses, count = drawn
        value = count if key is None else key(n, clauses)
        slot = next((k for k, (lo, hi) in enumerate(windows)
                     if found[k] is None and lo <= value <= hi), None)
        if slot is not None:
            found[slot] = _instance(f"{name}{slot}-n{n}-m{m}", n, clauses,
                                    count)
            if all(found):
                return found
    raise RuntimeError(f"no instances in the windows for {name}")


# ----------------------------------------------------------------------
# workloads

def _many_models(rng: random.Random) -> list[Item]:
    insts = [_random_in_window(rng, f"mm{k}", 26 + k % 3, (2.2, 2.8),
                               (5_500, 6_500)) for k in range(10)]
    return [Item(i, cfg) for i in insts for cfg in NONBLOCKING]


def _hard_few(rng: random.Random) -> list[Item]:
    # Threshold instances cost several-fold more or less than each other,
    # and those with models cost more under blocking than those without.
    # So the corpus holds as many of each kind (it is stratified), and many
    # of them, to keep the seed's share of the cost small.  The instances
    # below the threshold add the model-driven blocking cost.
    insts = [_random_in_window(rng, f"unsat{k}", 50, (4.26, 4.26), (0, 0),
                               (500, 800)) for k in range(20)]
    # quartiles of the model count of such instances
    insts += _random_spread(rng, "sat", 50, (4.26, 4.26), (10, 100),
                            (600, 1_000),
                            [(10, 17), (18, 31), (32, 61), (62, 100)] * 5)
    insts += [_random_in_window(rng, f"sub{k}", 44, (3.9, 4.2), (320, 400))
              for k in range(4)]
    configs = BLOCKING + [
        {"mode": "nonblocking", "uip": "dlevel", "backtrack": "bj"},
        {"mode": "nonblocking", "uip": "sublevel", "backtrack": "cbj"}]
    return [Item(i, cfg) for i in insts for cfg in configs]


def _criterion5_chain() -> Instance:
    """The 60-variable instance of acceptance criterion 5: an implication
    chain over x1..x12 (13 models) with 48 free variables."""
    clauses = [[k, -(k + 1)] for k in range(1, 12)]
    return _instance("criterion5-chain60", 60, clauses, 13 << 48)


def _bdd_chain(rng: random.Random) -> list[Item]:
    insts = [_criterion5_chain()]
    # Many sizes, closely spaced, so that the item times have no gap in
    # which a percentile could jump.  Grids of 5 rows would form such gaps.
    for k in range(24):
        n = 60 + 10 * k
        width = 3 + k % 3
        clauses = window_chain(rng, n, width)
        insts.append(_instance(f"chain{k}-n{n}-w{width}", n, clauses,
                               count_transfer(n, clauses)))
    for k in range(24):
        rows = 3 + k % 2
        cols = (60 + 10 * k) // rows
        n = rows * cols
        clauses = grid(rng, rows, cols)
        insts.append(_instance(f"grid{k}-{rows}x{cols}", n, clauses,
                               count_transfer(n, clauses)))
    # one long chain, beyond p75, where the walk to the root costs most
    clauses = window_chain(rng, 800, 4)
    insts.append(_instance("chain-long-n800-w4", 800, clauses,
                           count_transfer(800, clauses)))
    return [Item(i, {"mode": "bdd", "cache": cache})
            for i in insts for cache in ("cutset", "separator")]


def _bdd_random(rng: random.Random) -> list[Item]:
    # The cost of a bdd item grows with the instance's model count, so the
    # window on it is narrow.  Its cache lookups follow the clause states
    # of count_cut, so those are spread over fixed windows (the 1st to 9th
    # deciles of such instances, in four parts).
    insts = _random_spread(
        rng, "br", 21, (2.2, 2.8), (3_000, 3_600), (0, math.inf),
        [(7_500, 10_500), (10_500, 13_500), (13_500, 16_700),
         (16_700, 24_200)] * 7, lambda n, clauses: count_cut(n, clauses)[1])
    small = [_random_in_window(rng, f"bb{k}", 15, (2.2, 2.8), (250, 300))
             for k in range(8)]
    items = [Item(i, {"mode": "bdd", "cache": cache,
                      "refresh_threshold": theta})
             for i in insts for cache in ("cutset", "separator")
             for theta in (None, REFRESH_THRESHOLD)]
    items += [Item(i, {"mode": "bdd-blocking", "cache": cache})
              for i in small for cache in ("cutset", "separator")]
    return items


_MAKERS = {"many-models": _many_models, "hard-few": _hard_few,
           "bdd-chain": _bdd_chain, "bdd-random": _bdd_random}


def build(workload: str, seed: int) -> list[Item]:
    """The workload's items, a pure function of (workload, seed)."""
    return _MAKERS[workload](random.Random(f"{workload}:{seed}"))
