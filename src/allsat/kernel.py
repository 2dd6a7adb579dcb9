"""CDCL kernel: two-watched-literal propagation, decision heuristics, and
the first-UIP conflict analysis family shared by every enumeration engine.

Three analysis scopes are supported:

* ``level``    - classic first UIP over the current decision level, used by
                 SAT-style search (blocking engine); the asserting literal is
                 enqueued by the caller after backjumping.
* ``sublevel`` - first UIP within the current sublevel; assignments from
                 earlier sublevels of the same level are treated like
                 lower-level literals.
* ``dlevel``   - first UIP over the whole level where flipped decisions
                 (NULL antecedent) are not expanded but negated into the
                 clause.

Watch lists, like the trail's values, are indexed by the signed literal
(``watches[lit]``), so propagation needs no sign test or encoding.

Decisions read a cached decision order: the variables sorted by
decreasing activity with ties kept in index order, followed by the
never-assigned sentinel ``values[0]``.  An ``itemgetter`` over the order
reads their values in one C call, and ``index(UNASSIGNED)`` on the result
finds the first unassigned variable.  Every activity bump (a rescale
included) marks the order stale, and it is sorted again on the next pick,
so at most once per conflict.  An engine with an order of its own (the
formula-BDD engine decides the first unassigned variable) never picks
here, so it never pays for a sort.

Restarts and clause deletion are deliberately absent: enumeration relies on
learned and blocking clauses staying put.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from operator import itemgetter

from .formula import Clause, CnfFormula
from .trail import UNASSIGNED, Trail

ACTIVITY_DECAY = 0.95
ACTIVITY_RESCALE = 1e100


class SearchHalted(Exception):
    """Raised inside resolve loops when enumeration is provably finished."""


class LimitExceeded(Exception):
    """A run hit its wall-clock or memory budget."""

    def __init__(self, kind: str):
        super().__init__(f"{kind} limit exceeded")
        self.kind = kind


@dataclass
class Budget:
    """Wall-clock and (accounting-based) memory limits for one run."""

    time_limit: float | None = None
    mem_limit: int | None = None
    started: float = field(default_factory=time.monotonic)
    mem_used: int = 0
    peak_mem: int = 0

    def __post_init__(self) -> None:
        # the monotonic time at which the run is out of time
        self.deadline = math.inf if self.time_limit is None \
            else self.started + self.time_limit

    def charge(self, nbytes: int) -> None:
        self.mem_used += nbytes
        if self.mem_used > self.peak_mem:
            self.peak_mem = self.mem_used
        if self.mem_limit is not None and self.mem_used > self.mem_limit:
            raise LimitExceeded("memory")

    def release(self, nbytes: int) -> None:
        self.mem_used -= nbytes

    def check_time(self) -> None:
        if time.monotonic() >= self.deadline:
            raise LimitExceeded("time")


@dataclass
class SolverStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    blocking_clauses: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    # models so far, in every engine: reported, in the emitted cubes, or in
    # the diagram plus its dumped parts (set when run_bdd ends)
    solutions: int = 0
    obdd_nodes: int = 0      # final diagram (diagram engines)
    dumps: int = 0           # parts dumped by refresh (diagram engines)


# attach_clause statuses
OPEN = "open"
SATISFIED = "satisfied"
UNIT = "unit"
FALSIFIED = "falsified"

# per-clause memory estimate: lits + object overhead
_CLAUSE_BASE_BYTES = 64
_LIT_BYTES = 8


class ClauseStore:
    """Problem, learned, and blocking clauses plus their watch lists.

    Blocking clauses are never deleted; learned clauses are kept as well
    since the enumeration engines rely on them to encode exhausted regions.
    """

    def __init__(self, formula: CnfFormula):
        # own copies: propagation reorders literals, and the formula is
        # shared with the caller
        self.problem: list[Clause] = [Clause(list(c.lits), c.cid)
                                      for c in formula.clauses if len(c) > 0]
        self.learned: list[Clause] = []
        self.blocking: list[Clause] = []
        self.watches: list[list[Clause]] = [   # signed literal -> watchers
            [] for _ in range(2 * formula.num_vars + 1)]
        self.pending_units: list[Clause] = []


class Kernel:
    """One solver instance: a trail, a clause store, and heuristic state."""

    def __init__(self, formula: CnfFormula, budget: Budget | None = None):
        self.n = formula.num_vars
        self.store = ClauseStore(formula)
        self.trail = Trail(self.n)
        self.budget = budget or Budget()
        self.stats = SolverStats()
        self.activity = [0.0] * (self.n + 1)
        self.var_inc = 1.0
        self._sort_order()
        self.qhead = 0
        # nothing is assigned yet: watch each problem clause on its first
        # two literals (the store holds no empty clause)
        for c in self.store.problem:
            if len(c) == 1:
                self.store.pending_units.append(c)
            else:
                self.store.watches[c.lits[0]].append(c)
                self.store.watches[c.lits[1]].append(c)
        self.budget.charge(sum(_CLAUSE_BASE_BYTES + _LIT_BYTES * len(c)
                               for c in self.store.problem))

    # ------------------------------------------------------------------
    # clause attachment and the trail

    def attach_clause(self, clause: Clause) -> str:
        """Register a clause under the current trail and report its status.

        Watches go to non-false literals when possible; otherwise to the most
        recently falsified ones so the watch invariant survives backtracking.
        The caller is responsible for acting on UNIT/FALSIFIED.
        """
        self.budget.charge(_CLAUSE_BASE_BYTES + _LIT_BYTES * len(clause))
        lits = clause.lits
        if len(lits) == 0:
            return FALSIFIED
        values = self.trail.values
        if len(lits) == 1:
            self.store.pending_units.append(clause)
            v = values[lits[0]]
            if v == 1:
                return SATISFIED
            if v == 0:
                return FALSIFIED
            return UNIT
        free = [i for i, l in enumerate(lits) if values[l] != 0]
        pos = self.trail.positions
        if len(free) >= 2:
            i0, i1 = free[0], free[1]
            status = OPEN
            if any(values[lits[i]] == 1 for i in free):
                status = SATISFIED
        elif len(free) == 1:
            i0 = free[0]
            false_idx = [i for i in range(len(lits)) if i != i0]
            i1 = max(false_idx, key=lambda i: pos[abs(lits[i])])
            status = SATISFIED if values[lits[i0]] == 1 else UNIT
        else:
            by_pos = sorted(range(len(lits)),
                            key=lambda i: pos[abs(lits[i])], reverse=True)
            i0, i1 = by_pos[0], by_pos[1]
            status = FALSIFIED
        lits[0], lits[i0] = lits[i0], lits[0]
        if i1 == 0:
            i1 = i0   # original head moved there in the swap above
        lits[1], lits[i1] = lits[i1], lits[1]
        self.store.watches[lits[0]].append(clause)
        self.store.watches[lits[1]].append(clause)
        return status

    def add_learned(self, clause: Clause) -> None:
        self.store.learned.append(clause)
        self.stats.learned_clauses += 1

    def add_blocking(self, clause: Clause) -> None:
        self.store.blocking.append(clause)
        self.stats.blocking_clauses += 1

    def cancel_to(self, level: int) -> None:
        self.trail.cancel_to(level)
        self.qhead = min(self.qhead, len(self.trail.lits))

    # ------------------------------------------------------------------
    # unit propagation

    def propagate(self) -> Clause | None:
        """Run unit propagation to fixpoint; return the falsified clause on
        conflict (halting immediately), else None."""
        if time.monotonic() >= self.budget.deadline:
            raise LimitExceeded("time")
        trail = self.trail
        values = trail.values
        watches = self.store.watches
        # single-literal clauses have no watches; re-assert them here
        for c in self.store.pending_units:
            lit = c.lits[0]
            v = values[lit]
            if v == UNASSIGNED:
                trail.assign(lit, c)
                self.stats.propagations += 1
            elif v == 0:
                self.qhead = len(trail.lits)
                self.stats.conflicts += 1
                return c
        trail_lits = trail.lits
        assign = trail.assign
        start = len(trail_lits)
        qhead = self.qhead
        conflict: Clause | None = None
        while qhead < len(trail_lits) and conflict is None:
            false_lit = -trail_lits[qhead]
            qhead += 1
            watchers = watches[false_lit]
            # compact in place: watchers[:j] are the clauses that stay
            i = j = 0
            end = len(watchers)
            while i < end:
                clause = watchers[i]
                i += 1
                lits = clause.lits
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                other = lits[0]
                ov = values[other]
                if ov == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                for k in range(2, len(lits)):
                    cand = lits[k]
                    if values[cand] != 0:
                        lits[1], lits[k] = lits[k], lits[1]
                        watches[cand].append(clause)
                        break
                else:
                    watchers[j] = clause
                    j += 1
                    if ov == 0:
                        conflict = clause
                        break
                    assign(other, clause)
            # on a conflict the unvisited tail watchers[i:] stays as it is
            del watchers[j:i]
        self.stats.propagations += len(trail_lits) - start
        if conflict is not None:
            self.qhead = len(trail_lits)
            self.stats.conflicts += 1
        else:
            self.qhead = qhead
        return conflict

    # ------------------------------------------------------------------
    # decision heuristics

    def bump_activity(self, var: int) -> None:
        self._order_stale = True
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        if act > ACTIVITY_RESCALE:
            inv = 1.0 / ACTIVITY_RESCALE
            for i in range(1, self.n + 1):
                self.activity[i] *= inv
            self.var_inc *= inv

    def decay_activity(self) -> None:
        self.var_inc /= ACTIVITY_DECAY

    def _sort_order(self) -> None:
        """Put the variables in decision order, by decreasing activity (the
        sort is stable, so ties keep the lowest index)."""
        order = sorted(range(1, self.n + 1), key=self.activity.__getitem__,
                       reverse=True)
        # values[0] is never assigned, so a trailing 0 ends every search; a
        # second one keeps the getter returning a tuple when n == 0
        order += (0, 0)
        self._order = order
        self._order_values = itemgetter(*order)
        self._order_stale = False

    def pick_branch_var(self) -> int | None:
        """Next unassigned variable: highest activity, lowest index on
        ties."""
        if self._order_stale:
            self._sort_order()
        first = self._order_values(self.trail.values).index(UNASSIGNED)
        return self._order[first] or None

    def decide(self) -> int | None:
        """Pick the next decision literal, or None when all assigned: the
        heuristic's variable, decided false."""
        var = self.pick_branch_var()
        if var is None:
            return None
        return -var

    def make_decision(self, lit: int) -> None:
        self.trail.decide(lit)
        self.stats.decisions += 1

    # ------------------------------------------------------------------
    # conflict analysis

    def analyze(self, conflict: Clause, scope: str = "level",
                stop_lit: int | None = None) -> LearnedClause:
        """Derive a first-UIP clause from ``conflict``.

        ``scope`` selects the analysis family (see module docstring).  With
        ``stop_lit`` the traversal never expands that literal, so it ends up
        as the clause's UIP (used by conflict-directed backjumping).

        The clause's first literal is the negated UIP.  Literals assigned at
        level 0 are dropped (they are permanent facts).
        """
        trail = self.trail
        dl = trail.level
        var_level = trail.var_level
        var_sub = trail.var_sublevel
        reasons = trail.reasons
        trail_lits = trail.lits

        lits_at_dl = [l for l in conflict.lits if var_level[abs(l)] == dl]
        if not lits_at_dl:
            raise RuntimeError("conflict clause has no current-level literal")
        if scope == "sublevel":
            cur_sub = max(var_sub[abs(l)] for l in lits_at_dl)

            def in_scope(v: int) -> bool:
                return var_level[v] == dl and var_sub[v] == cur_sub
        else:
            def in_scope(v: int) -> bool:
                return var_level[v] == dl

        seen: set[int] = set()
        out: list[int] = []
        pending = 0
        stop_var = abs(stop_lit) if stop_lit is not None else 0

        tainted = trail.tainted

        def absorb(clause_lits, skip_var: int) -> None:
            nonlocal pending
            for q in clause_lits:
                v = abs(q)
                if v == skip_var or v in seen:
                    continue
                if var_level[v] == 0 and not tainted[v]:
                    continue   # formula-entailed fact: safe to drop
                seen.add(v)
                self.bump_activity(v)
                if in_scope(v):
                    pending += 1
                else:
                    out.append(q)

        absorb(conflict.lits, 0)
        idx = len(trail_lits) - 1
        uip = 0
        stop_idx = -1
        while True:
            if stop_idx >= 0 and pending == 1:
                lit = trail_lits[stop_idx]   # only the pivot remains
            else:
                while True:
                    if idx < 0:
                        raise RuntimeError("conflict analysis ran off the trail")
                    lit = trail_lits[idx]
                    v = abs(lit)
                    if v in seen and in_scope(v):
                        if v == stop_var and pending > 1:
                            stop_idx = idx   # defer: pivot must end as UIP
                            idx -= 1
                            continue
                        break
                    idx -= 1
            v = abs(lit)
            pending -= 1
            if pending == 0 and (stop_var == 0 or v == stop_var):
                uip = lit
                break
            # in targeted mode an intermediate sole survivor is expanded,
            # not adopted: the traversal must run on until the pivot
            idx -= 1
            reason = reasons[v]
            if reason is None:
                out.append(-lit)   # flip: not expandable, keep in clause
            else:
                absorb(reason.lits, v)
        if stop_lit is not None and uip != stop_lit:
            raise RuntimeError("targeted analysis did not end at the pivot")

        lits = [-uip] + out
        assert_level = 0
        if out:
            assert_level = max(var_level[abs(l)] for l in out)
        self.decay_activity()
        return LearnedClause(Clause(lits), assert_level)


@dataclass(eq=False)
class LearnedClause:
    """A conflict clause plus the analysis metadata the resolvers need."""

    clause: Clause
    assert_level: int        # highest level among non-UIP literals (0 if unit)

    @property
    def lits(self) -> list[int]:
        return self.clause.lits


def clause_status(kernel: Kernel, clause: Clause) -> tuple[str, int | None]:
    """Evaluate a clause under the current trail.

    Returns (status, unit_literal).  UNIT means exactly one literal is
    unassigned and the rest are false.
    """
    unit_lit = None
    free = 0
    values = kernel.trail.values
    for l in clause.lits:
        v = values[l]
        if v == 1:
            return SATISFIED, None
        if v == UNASSIGNED:
            free += 1
            unit_lit = l
            if free > 1:
                return OPEN, None
    if free == 1:
        return UNIT, unit_lit
    return FALSIFIED, None
