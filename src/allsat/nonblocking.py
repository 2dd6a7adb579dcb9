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

The search loop ``run`` is ``kernel.Engine``'s.  This engine supplies the
decision step (free tails, below), the close step (stop at level 0, else
flip the top decision, which sets the limit level) and a strategy as its
conflict step; ``bj`` is the shared learn-and-backjump step.

A branch on which propagation ends without a conflict is closed at once
when it leaves a free tail: k variables unassigned, k at most
``FREE_TAIL_MAX``, and every clause watched by a literal of a tail
variable has its other watch true.  Deciding the tail would then change
nothing but the trail.  The search would decide the tail variables in
``Kernel.decide`` order, false first, and flip each in turn.  Each such
step makes one tail literal false, and propagation visits only the clauses
that literal watches; it finds their other watch true and keeps them, so
there is no implication, no conflict, no watch move and no activity bump,
and every one of the 2^k extensions is reported as a model.  The branch
reports exactly those models in that order (``itertools.product`` order,
the first variable ``decide`` picks most significant) without deciding,
propagating or flipping a tail variable.  The trail after the next
backtrack, the watch lists, the conflicts, the learned clauses and the
propagations are those of deciding the tail; ``stats.decisions`` counts
only the decisions made, so a closed tail of k variables saves
2^(k-1) - 1 of them.

One variable x left unassigned needs no check: no clause is unit then, so
every clause over x is true by its other, assigned literals.  With two or
more, a clause can be true by a literal it does not watch while both of
its watches are free; deciding the tail would move such a watch, and the
later search would visit the watch lists in another order, so that tail
is decided as usual.  The bound keeps the check cheap and the enumeration
one model at a time: without it, a formula whose models are all free
tails would be counted at once.
"""

from __future__ import annotations

from itertools import product

from .formula import CnfFormula
from .kernel import (FALSIFIED, UIP_SCHEMES, UNIT, Budget, Engine,
                     SearchHalted, clause_status)
from .trail import UNASSIGNED

STRATEGIES = ("bt", "bj", "cbj", "bjcbj")
# the most unassigned variables a branch is closed with (module docstring)
FREE_TAIL_MAX = 4


def resolve_clauses(c1: list[int], c2: list[int], pivot_var: int) -> list[int]:
    """Binary resolution of two clauses on ``pivot_var``."""
    lits: list[int] = []
    seen = set()
    for source in (c1, c2):
        for l in source:
            if abs(l) == pivot_var or l in seen:
                continue
            seen.add(l)
            lits.append(l)
    return lits


class NonBlockingSolver(Engine):
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
        super().__init__(formula, sink=sink, budget=budget)
        self.uip = uip
        self.backtrack = backtrack

    # hook point: formula-BDD caching looks the prefix up in its cache here
    def _next_decision(self) -> int | None:
        """The next decision literal, or None once the branch is closed and
        its models are reported: a total model, or the 2^k models of a free
        tail of k variables (module docstring).

        It is called only after ``propagate`` found no conflict, so no
        clause is unit, and one free variable is a free tail by itself.
        With 2 to ``FREE_TAIL_MAX`` free, the variable ``decide`` picks is
        checked first, since most tails fail on it, and its literal is then
        the decision; the other free variables follow in index order.  With
        a sink the models go out in the order deciding the tail would give
        them.  No tail variable is decided, propagated or counted in
        ``stats.decisions``."""
        k = self.kernel
        free = k.n - len(k.trail.lits)
        if free > 1:
            lit = k.decide()
            if free > FREE_TAIL_MAX or not self._inert(-lit):
                return lit
            values = k.trail.values
            var = 0
            for _ in range(free):
                var = values.index(UNASSIGNED, var + 1)
                if var != -lit and not self._inert(var):
                    return lit
        sink = self.sink
        if sink is None:
            k.stats.solutions += 1 << free
            return None
        tail = k.free_in_order(free)
        model = sorted(k.trail.lits, key=abs)
        for var in sorted(tail):
            model.insert(var - 1, -var)
        for lits in product(*[(-var, var) for var in tail]):
            for lit in lits:
                model[abs(lit) - 1] = lit
            k.stats.solutions += 1
            sink(tuple(model))
        return None

    def _inert(self, var: int) -> bool:
        """Whether every clause watched by ``var`` or ``-var`` has a true
        watch, so that assigning the unassigned ``var`` either way implies
        nothing and moves no watch.  A clause a literal of ``var`` watches
        has it in its first two places, and that one is unassigned."""
        values = self.kernel.trail.values
        watches = self.kernel.store.watches
        for clause in watches[var]:
            if values[clause[0]] != 1 and values[clause[1]] != 1:
                return False
        for clause in watches[-var]:
            if values[clause[0]] != 1 and values[clause[1]] != 1:
                return False
        return True

    def _close(self) -> None:
        """Stop at level 0; otherwise flip the top decision, which makes
        its level the limit level."""
        if self.kernel.trail.level <= 0:
            raise SearchHalted
        self.backtrack_bt()
        self.lim = self.kernel.trail.level

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

    def _resolve(self, conflict: list[int]) -> list[int] | None:
        return getattr(self, "resolve_" + self.backtrack)(conflict)

    def resolve_bt(self, conflict: list[int]) -> list[int] | None:
        k = self.kernel
        learned = k.analyze(conflict, self.uip)
        k.add_learned(learned.lits)
        self.backtrack_bt()
        self.lim = k.trail.level
        return self._attach(learned.lits)

    def resolve_bj(self, conflict: list[int]) -> list[int] | None:
        """Backjump to the asserting level but never below the limit level;
        at the limit, fall back to BT so the flip guards found solutions."""
        if self.lim < self.kernel.trail.level:
            return self._backjump(conflict)
        return self.resolve_bt(conflict)

    def resolve_cbj(self, conflict: list[int] | None) -> list[int] | None:
        """Resolution-driven backjumping: pair each conflict clause with the
        clause of the follow-up conflict of its unit implication, resolve,
        and jump below the highest level of the resolvent."""
        k = self.kernel
        stack: list[list[int]] = []
        pending = conflict
        while True:
            if pending is not None:
                if k.trail.level <= 0:
                    raise SearchHalted
                pending = self._normalize(pending)
                learned = k.analyze(pending, self.uip)
                pending = None
                k.add_learned(learned.lits)
                stack.append(learned.lits)
                self.backtrack_bt()
                k.attach_clause(learned.lits)
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
                        cl3 = resolve_clauses(cl1, targeted.lits, abs(unit))
                        k.add_learned(cl3)
                        stack.append(cl3)
                        if not cl3:
                            raise SearchHalted
                        bl = max(k.trail.var_level[abs(l)] for l in cl3)
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

    def resolve_bjcbj(self, conflict: list[int]) -> list[int] | None:
        if self.lim < self.kernel.trail.level:
            return self.resolve_bj(conflict)
        return self.resolve_cbj(conflict)

