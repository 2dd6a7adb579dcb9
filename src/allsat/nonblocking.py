"""Enumeration without blocking clauses.

Solutions are left behind by chronological backtracking (BT) that inserts
the flipped decision with NULL antecedent, so the search can never re-enter
an exhausted branch.  Conflict resolution is configurable:

* ``bt``    - learn, then chronological backtracking;
* ``bj``    - backjumping clipped at the limit level (the first level where
              the assignment diverges from the last solution);
* ``cbj``   - conflict-directed backjumping by resolving successive conflict
              clauses;
* ``bjcbj`` - ``bj`` while below the divergence point, ``cbj`` at it.

Either first-UIP scheme (``sublevel`` or ``dlevel``) supplies the learned
clauses.  Learned clauses here are only recorded - no assignment is enqueued
by analysis itself; implications surface through regular propagation.
"""

from __future__ import annotations

from .formula import Clause, CnfFormula
from .kernel import (FALSIFIED, UIP_SCHEMES, UNIT, Budget, Kernel,
                     SearchHalted, clause_status)

STRATEGIES = ("bt", "bj", "cbj", "bjcbj")


def resolve_clauses(c1: Clause, c2: Clause, pivot_var: int) -> Clause:
    """Binary resolution of two clauses on ``pivot_var``."""
    lits: list[int] = []
    seen = set()
    for source in (c1.lits, c2.lits):
        for l in source:
            if abs(l) == pivot_var or l in seen:
                continue
            seen.add(l)
            lits.append(l)
    return Clause(lits)


class NonBlockingSolver:
    """Total-assignment enumerator (Algorithm: propagate / resolve / report /
    backtrack loop with a limit level).  ``uip`` is one of ``UIP_SCHEMES``
    and ``backtrack`` one of ``STRATEGIES``; any other raises ValueError."""

    def __init__(self, formula: CnfFormula, *, uip: str = "dlevel",
                 backtrack: str = "bj", sink=None,
                 budget: Budget | None = None):
        if uip not in UIP_SCHEMES:
            raise ValueError(f"unknown uip scheme {uip!r}")
        if backtrack not in STRATEGIES:
            raise ValueError(f"unknown backtrack strategy {backtrack!r}")
        self.formula = formula
        self.uip = uip
        self.backtrack = backtrack
        self.sink = sink
        self.kernel = Kernel(formula, budget=budget)
        self.lim = 0

    @property
    def stats(self):
        return self.kernel.stats

    # hook point: formula-BDD caching enrolls/prunes right before any
    # assignments are canceled (receives the landing level)
    def _before_cancel(self, level: int) -> None:
        pass

    def _cancel(self, level: int) -> None:
        self._before_cancel(level)
        self.kernel.cancel_to(level)

    def run(self) -> int:
        k = self.kernel
        if self.formula.has_empty_clause():
            return 0
        # bound per run, so that wrappers put on the classes are called
        trail, stats, propagate = k.trail, k.stats, k.propagate
        next_decision, backtrack_bt = self._next_decision, self.backtrack_bt
        pending: Clause | None = None
        try:
            while True:
                if pending is None:
                    pending = propagate()
                if pending is not None:
                    conflict, pending = pending, None
                    if trail.level <= 0:
                        break
                    conflict = self._normalize(conflict)
                    pending = self._resolve(conflict)
                else:
                    lit = next_decision()
                    if lit is not None:
                        trail.decide(lit)
                        stats.decisions += 1
                    elif trail.level <= 0:
                        break
                    else:
                        backtrack_bt()
                        self.lim = trail.level
        except SearchHalted:
            pass
        return stats.solutions

    # hook point: formula-BDD caching looks the prefix up in its cache here
    def _next_decision(self) -> int | None:
        """The next decision literal, or None once the branch is closed (a
        total model, which it reports)."""
        k = self.kernel
        if len(k.trail.lits) == k.n:
            k.stats.solutions += 1
            if self.sink is not None:
                self.sink(tuple(sorted(k.trail.lits, key=abs)))
            return None
        return k.decide()

    def _normalize(self, conflict: Clause) -> Clause:
        """Make sure the conflict touches the current level.

        A clause can be falsified strictly below the current level (e.g. a
        learned clause re-attached after a clipped backjump).  The levels in
        between are then provably solution-free, so canceling them loses
        nothing; a clause false at level 0 ends the search.
        """
        k = self.kernel
        lmax = max(k.trail.var_level[abs(l)] for l in conflict.lits)
        if lmax == 0:
            raise SearchHalted
        if lmax < k.trail.level:
            self._cancel(lmax)
            self.lim = min(self.lim, lmax)
        return conflict

    # ------------------------------------------------------------------
    # backtracking primitives

    def backtrack_bt(self, level: int | None = None) -> None:
        """Cancel ``level`` (the top level by default) and everything above
        it, and insert its flipped decision one level down with NULL
        antecedent, opening a new sublevel there."""
        k = self.kernel
        t = k.trail
        if level is None:
            level = t.level
        self._before_cancel(level - 1)
        pos = t.flip(level)
        # the flipped literal, at the top of the trail, is not propagated yet
        if k.qhead > pos:
            k.qhead = pos

    # the name CBJ calls it by, kept because tracing wraps it by name
    _backtrack_flip_at = backtrack_bt

    # ------------------------------------------------------------------
    # conflict resolution strategies

    def _resolve(self, conflict: Clause) -> Clause | None:
        return getattr(self, "resolve_" + self.backtrack)(conflict)

    def _attach_learned(self, clause: Clause) -> Clause | None:
        """Attach a recorded clause under the post-backtrack trail; enqueue
        its implication if unit, surface it as a conflict if falsified."""
        k = self.kernel
        status = k.attach_clause(clause)
        if status == FALSIFIED:
            return clause
        if status == UNIT:
            k.trail.assign(clause.lits[0], clause)
        return None

    def resolve_bt(self, conflict: Clause) -> Clause | None:
        k = self.kernel
        learned = k.analyze(conflict, self.uip)
        k.add_learned(learned.clause)
        self.backtrack_bt()
        self.lim = k.trail.level
        return self._attach_learned(learned.clause)

    def resolve_bj(self, conflict: Clause) -> Clause | None:
        """Backjump to the asserting level but never below the limit level;
        at the limit, fall back to BT so the flip guards found solutions."""
        k = self.kernel
        learned = k.analyze(conflict, self.uip)
        k.add_learned(learned.clause)
        if self.lim < k.trail.level:
            bl = max(learned.assert_level, self.lim)
            self._cancel(bl)
        else:
            self.backtrack_bt()
            self.lim = k.trail.level
        return self._attach_learned(learned.clause)

    def resolve_cbj(self, conflict: Clause | None) -> Clause | None:
        """Resolution-driven backjumping: pair each conflict clause with the
        clause of the follow-up conflict of its unit implication, resolve,
        and jump below the highest level of the resolvent."""
        k = self.kernel
        stack: list[Clause] = []
        pending = conflict
        while True:
            if pending is not None:
                if k.trail.level <= 0:
                    raise SearchHalted
                pending = self._normalize(pending)
                learned = k.analyze(pending, self.uip)
                pending = None
                k.add_learned(learned.clause)
                stack.append(learned.clause)
                self.backtrack_bt()
                k.attach_clause(learned.clause)
            elif stack:
                cl1 = stack.pop()
                status, unit = clause_status(k, cl1)
                if status == UNIT:
                    k.trail.assign(unit, cl1)
                    follow_up = k.propagate()
                    if follow_up is not None:
                        if k.trail.level <= 0:
                            raise SearchHalted
                        targeted = k.analyze(follow_up, self.uip,
                                             stop_lit=unit)
                        cl3 = resolve_clauses(cl1, targeted.clause, abs(unit))
                        k.add_learned(cl3)
                        stack.append(cl3)
                        if not cl3.lits:
                            raise SearchHalted
                        bl = max(k.trail.var_level[abs(l)] for l in cl3.lits)
                        if bl <= 0:
                            raise SearchHalted
                        self._backtrack_flip_at(bl)
                        k.attach_clause(cl3)
                elif status == FALSIFIED:
                    pending = cl1
                    continue
            else:
                break
            follow_up = k.propagate()
            if follow_up is not None:
                pending = follow_up
        self.lim = k.trail.level
        return None

    def resolve_bjcbj(self, conflict: Clause) -> Clause | None:
        if self.lim < self.kernel.trail.level:
            return self.resolve_bj(conflict)
        return self.resolve_cbj(conflict)

