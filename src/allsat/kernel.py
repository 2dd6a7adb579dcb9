"""CDCL kernel: two-watched-literal propagation, decision heuristics, and
the first-UIP conflict analysis family shared by every enumeration engine.

Two analysis scopes, the ``--uip`` schemes, are supported:

* ``sublevel`` - first UIP within the current sublevel; assignments from
                 earlier sublevels of the same level are treated like
                 lower-level literals.
* ``dlevel``   - first UIP over the whole level where flipped decisions
                 (NULL antecedent) are not expanded but negated into the
                 clause.  With no flips, as in the blocking engine's
                 SAT-style search, this is the classic first UIP.

Every clause the kernel holds is a list of literals that it owns and
reorders: a clause's first two literals are its watches.  Watch lists, like
the trail's values, are indexed by the signed literal (``watches[lit]``),
so propagation needs no sign test or encoding.  Above level 0 it writes
implied literals into the trail itself (level 0 goes through
``Trail.assign`` for the taint).  Analysis is one loop; it bumps the
variables it met afterwards, in the order it met them.

``decide`` reads a cached decision order: the variables sorted by
decreasing activity with ties kept in index order, followed by the
never-assigned sentinel ``values[0]``.  An ``itemgetter`` over the order
reads their values in one C call, and ``index(UNASSIGNED)`` on the result
finds the first unassigned variable.  Every activity bump (a rescale
included) marks the order stale, and it is sorted again on the next
decision, so at most once per conflict.  ``free_in_order`` lists the
unassigned variables in the same order.  An engine with an order of its
own (the formula-BDD engine decides the first unassigned variable) never
calls ``decide``, so it never pays for a sort.

Restarts and clause deletion are deliberately absent: enumeration relies on
learned and blocking clauses staying put.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from operator import itemgetter

from .formula import CnfFormula, gc_paused
from .trail import UNASSIGNED, Trail

UIP_SCHEMES = ("sublevel", "dlevel")
ACTIVITY_DECAY = 0.95
ACTIVITY_RESCALE = 1e100
# propagate work (calls plus implied literals) between clock reads; less
# from 4,096 variables on, since each decision reads all n values
CLOCK_STRIDE = 16


class SearchHalted(Exception):
    """Raised inside resolve loops when enumeration is provably finished."""


class LimitExceeded(Exception):
    """A run hit its wall-clock or memory budget."""

    def __init__(self, kind: str):
        super().__init__(f"{kind} limit exceeded")
        self.kind = kind


@dataclass
class Budget:
    """Wall-clock and (accounting-based) memory limits for one run.  The
    search reads the clock in ``Kernel.propagate``, by work (see there)."""

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
    # decisions made; NonBlockingSolver reports the models of a free tail of
    # up to four variables without deciding them (see nonblocking.py)
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

    def __init__(self, num_vars: int):
        self.problem: list[list[int]] = []
        self.learned: list[list[int]] = []
        self.blocking: list[list[int]] = []
        self.watches: list[list[list[int]]] = [   # signed literal -> watchers
            [] for _ in range(2 * num_vars + 1)]
        self.pending_units: list[list[int]] = []


class Kernel:
    """One solver instance: a trail, a clause store, and heuristic state."""

    @gc_paused
    def __init__(self, formula: CnfFormula, budget: Budget | None = None):
        self.n = formula.num_vars
        self.store = ClauseStore(self.n)
        self.trail = Trail(self.n)
        self.budget = budget or Budget()
        self.stats = SolverStats()
        self.activity = [0.0] * (self.n + 1)
        self.var_inc = 1.0
        self._sort_order()
        self.qhead = 0
        self._clock_stride = min(CLOCK_STRIDE, 65536 // (self.n + 1)) or 1
        self._clock_due = 1   # propagations + calls at the next clock read
        # list copies of the non-empty clauses, since propagation reorders
        # literals and the formula's clauses are tuples.  Nothing is
        # assigned yet: watch each on its first two literals.  The deadline
        # is checked every 1,024 clauses.
        problem, watches = self.store.problem, self.store.watches
        for c in formula.clauses:
            if not c:
                continue
            lits = list(c)
            problem.append(lits)
            if len(lits) == 1:
                self.store.pending_units.append(lits)
            else:
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            if not len(problem) & 1023:
                self.budget.check_time()
        self.budget.charge(sum(_CLAUSE_BASE_BYTES + _LIT_BYTES * len(c)
                               for c in self.store.problem))

    # ------------------------------------------------------------------
    # clause attachment and the trail

    def attach_clause(self, lits: list[int]) -> str:
        """Register a clause under the current trail and report its status.

        Watches go to non-false literals when possible; otherwise to the most
        recently falsified ones so the watch invariant survives backtracking.
        The caller is responsible for acting on UNIT/FALSIFIED.
        """
        self.budget.charge(_CLAUSE_BASE_BYTES + _LIT_BYTES * len(lits))
        if len(lits) == 0:
            return FALSIFIED
        values = self.trail.values
        if len(lits) == 1:
            self.store.pending_units.append(lits)
            v = values[lits[0]]
            if v == 1:
                return SATISFIED
            if v == 0:
                return FALSIFIED
            return UNIT
        free = [i for i, l in enumerate(lits) if values[l] != 0]
        index = self.trail.lits.index   # where a false literal's negation is
        if len(free) >= 2:
            i0, i1 = free[0], free[1]
            status = OPEN
            if any(values[lits[i]] == 1 for i in free):
                status = SATISFIED
        elif len(free) == 1:
            i0 = free[0]
            i1 = max((i for i in range(len(lits)) if i != i0),
                     key=lambda i: index(-lits[i]))
            status = SATISFIED if values[lits[i0]] == 1 else UNIT
        else:
            by_pos = sorted(range(len(lits)), key=lambda i: index(-lits[i]),
                            reverse=True)
            i0, i1 = by_pos[0], by_pos[1]
            status = FALSIFIED
        lits[0], lits[i0] = lits[i0], lits[0]
        if i1 == 0:
            i1 = i0   # original head moved there in the swap above
        lits[1], lits[i1] = lits[i1], lits[1]
        self.store.watches[lits[0]].append(lits)
        self.store.watches[lits[1]].append(lits)
        return status

    def add_learned(self, clause: list[int]) -> None:
        self.store.learned.append(clause)
        self.stats.learned_clauses += 1

    def add_blocking(self, clause: list[int]) -> None:
        self.store.blocking.append(clause)
        self.stats.blocking_clauses += 1

    def cancel_to(self, level: int) -> None:
        self.trail.cancel_to(level)
        self.qhead = min(self.qhead, len(self.trail.lits))

    # ------------------------------------------------------------------
    # unit propagation

    def propagate(self) -> list[int] | None:
        """Run unit propagation to fixpoint; return the falsified clause on
        conflict (halting immediately), else None.  The first call checks the
        deadline, and so does each call that completes a stride of work."""
        due = self._clock_due = self._clock_due - 1
        if due <= self.stats.propagations:
            if time.monotonic() >= self.budget.deadline:
                raise LimitExceeded("time")
            self._clock_due = self.stats.propagations + self._clock_stride
        trail = self.trail
        values = trail.values
        watches = self.store.watches
        # single-literal clauses have no watches; re-assert them here
        for c in self.store.pending_units:
            lit = c[0]
            v = values[lit]
            if v == UNASSIGNED:
                trail.assign(lit, c)
                self.stats.propagations += 1
            elif v == 0:
                self.qhead = len(trail.lits)
                self.stats.conflicts += 1
                return c
        trail_lits = trail.lits
        start = len(trail_lits)
        qhead = self.qhead
        level = trail.level
        sub = trail.cur_sublevel[level]
        while qhead < len(trail_lits):
            false_lit = -trail_lits[qhead]
            qhead += 1
            watchers = watches[false_lit]
            # compact in place: watchers[:j] are the clauses that stay
            i = j = 0
            end = len(watchers)
            while i < end:
                clause = watchers[i]
                i += 1
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                other = clause[0]
                ov = values[other]
                if ov == 1:
                    watchers[j] = clause
                    j += 1
                    continue
                k, size = 2, len(clause)
                while k < size:
                    cand = clause[k]
                    if values[cand] != 0:
                        clause[1] = cand
                        clause[k] = false_lit
                        watches[cand].append(clause)
                        break
                    k += 1
                else:
                    watchers[j] = clause
                    j += 1
                    if ov == 0:
                        # the unvisited tail watchers[i:] stays as it is
                        del watchers[j:i]
                        self.stats.propagations += len(trail_lits) - start
                        self.stats.conflicts += 1
                        self.qhead = len(trail_lits)
                        return clause
                    if level:
                        var = other if other > 0 else -other
                        trail_lits.append(other)
                        values[other] = 1
                        values[-other] = 0
                        trail.var_level[var] = level
                        trail.var_sublevel[var] = sub
                        trail.reasons[var] = clause
                    else:
                        trail.assign(other, clause)
            if j < end:
                del watchers[j:]
        self.stats.propagations += len(trail_lits) - start
        self.qhead = qhead
        return None

    # ------------------------------------------------------------------
    # decision heuristics

    def bump_activity(self, var: int) -> None:
        self._order_stale = True
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        if act > ACTIVITY_RESCALE:
            inv = 1.0 / ACTIVITY_RESCALE
            self.activity = [a * inv for a in self.activity]
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

    def decide(self) -> int | None:
        """The unassigned variable of highest activity (ties: lowest index)
        decided false, or None when every variable is assigned."""
        if self._order_stale:
            self._sort_order()
        first = self._order_values(self.trail.values).index(UNASSIGNED)
        return -self._order[first] or None

    def free_in_order(self, count: int) -> list[int]:
        """The first ``count`` unassigned variables in decision order: the
        ones ``decide`` would pick in turn if nothing were bumped between."""
        if self._order_stale:
            self._sort_order()
        values, order = self._order_values(self.trail.values), self._order
        out, i = [], -1
        for _ in range(count):
            i = values.index(UNASSIGNED, i + 1)
            out.append(order[i])
        return out

    def make_decision(self, lit: int) -> None:
        self.trail.decide(lit)
        self.stats.decisions += 1

    # ------------------------------------------------------------------
    # conflict analysis

    def analyze(self, conflict: list[int], uip: str = "dlevel",
                stop_lit: int | None = None) -> LearnedClause:
        """Derive a first-UIP clause from ``conflict``.

        ``uip`` selects the analysis scope, one of ``UIP_SCHEMES`` (see
        module docstring); any other raises ValueError.  With
        ``stop_lit`` the traversal never expands that literal, so it ends up
        as the clause's UIP (used by conflict-directed backjumping).

        The clause's first literal is the negated UIP.  Literals assigned at
        level 0 are dropped (they are permanent facts).
        """
        if uip not in UIP_SCHEMES:
            raise ValueError(f"unknown uip scheme {uip!r}")
        trail = self.trail
        dl = trail.level
        var_level = trail.var_level
        var_sub = trail.var_sublevel
        reasons = trail.reasons
        trail_lits = trail.lits
        tainted = trail.tainted

        lits_at_dl = [l for l in conflict if var_level[abs(l)] == dl]
        if not lits_at_dl:
            raise RuntimeError("conflict clause has no current-level literal")
        # the scope is level dl, or only its sublevel cur_sub (-1: all)
        cur_sub = max(var_sub[abs(l)] for l in lits_at_dl) \
            if uip == "sublevel" else -1

        seen: dict[int, None] = {}   # insertion order is the bump order
        out: list[int] = []
        pending = 0
        stop_var = abs(stop_lit) if stop_lit is not None else 0
        idx = len(trail_lits) - 1
        stop_idx = -1
        absorb, skip_var = conflict, 0
        while True:
            for q in absorb:
                v = abs(q)
                if v == skip_var or v in seen:
                    continue
                lv = var_level[v]
                if lv == 0 and not tainted[v]:
                    continue   # formula-entailed fact: safe to drop
                seen[v] = None
                if lv == dl and (cur_sub < 0 or var_sub[v] == cur_sub):
                    pending += 1
                else:
                    out.append(q)
            if stop_idx >= 0 and pending == 1:
                lit = trail_lits[stop_idx]   # only the pivot remains
            else:
                while True:
                    if idx < 0:
                        raise RuntimeError("conflict analysis ran off the trail")
                    lit = trail_lits[idx]
                    v = abs(lit)
                    # in scope: levels and sublevels only grow along the trail
                    if v in seen:
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
                absorb = ()
            else:
                absorb, skip_var = reason, v
        if stop_lit is not None and uip != stop_lit:
            raise RuntimeError("targeted analysis did not end at the pivot")
        for v in seen:
            self.bump_activity(v)
        self.decay_activity()
        assert_level = max((var_level[abs(l)] for l in out), default=0)
        return LearnedClause([-uip] + out, assert_level)


@dataclass(eq=False)
class LearnedClause:
    """A conflict clause plus the analysis metadata the resolvers need."""

    lits: list[int]
    assert_level: int        # highest level among non-UIP literals (0 if unit)


def clause_status(kernel: Kernel, clause: list[int]) -> tuple[str, int | None]:
    """Evaluate a clause under the current trail.

    Returns (status, unit_literal).  UNIT means exactly one literal is
    unassigned and the rest are false.
    """
    unit_lit = None
    free = 0
    values = kernel.trail.values
    for l in clause:
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
