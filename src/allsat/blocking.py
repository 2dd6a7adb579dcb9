"""Enumeration by repeated solving with blocking clauses.

After every reported solution a blocking clause is added and the search
restarts from the root level.  The default clause negates the decision
literals only (the implied part is forced anyway); optional simplification
drops decisions that neither fed an implication nor are needed to satisfy a
clause, widening each reported cube.  Optional continuation replays the
pre-restart decisions to return the search to where it left off.

``all_literals`` switches to the textbook loop that blocks the full
assignment and only stops when the extended formula becomes unsatisfiable.

The search loop ``run`` is ``kernel.Engine``'s; only the decision (the
kernel's heuristic), close (report, block and restart) and conflict (the
shared learn-and-backjump, with limit level 0) steps are this engine's.

``run`` returns the models the emitted cubes cover, ``stats.solutions``; a
simplified cube stands for every model that extends it, so the cubes
themselves are counted at the sink.
"""

from __future__ import annotations

from .formula import CnfFormula
from .kernel import Budget, ClauseStore, Engine, Kernel, SearchHalted
from .trail import UNASSIGNED, Trail


def simplify_assignment(trail: Trail, store: ClauseStore) -> list[int]:
    """Select the decision subset that keeps every clause satisfied.

    Step 1 keeps each decision whose negation appears in the antecedent of
    some implied variable.  Step 2 walks the remaining unsatisfied problem
    and blocking clauses and adds, per clause, the satisfying decision of
    lowest level.  Returns the selected decision literals in level order.
    """
    decisions_in_order = trail.decisions()
    decision_lits = set(decisions_in_order)
    implied = set(trail.lits) - decision_lits

    related: set[int] = set()
    for lit in trail.lits:
        reason = trail.reasons[abs(lit)]
        if reason is None:
            continue
        for q in reason:
            if -q in decision_lits:
                related.add(-q)

    sat_set = related | implied
    for clause in store.problem + store.blocking:
        if any(l in sat_set for l in clause):
            continue
        in_clause = set(clause)
        for d in decisions_in_order:
            if d in in_clause:
                related.add(d)
                sat_set.add(d)
                break
        else:
            raise RuntimeError("satisfied trail leaves a clause uncovered")
    return [d for d in decisions_in_order if d in related]


def replay_decisions(kernel: Kernel, saved: list[int]) -> list[int] | None:
    """Re-make the saved decision literals in level order after a restart.

    Stops at the first conflict (returned for the caller's diagnose stage)
    or at the first saved decision whose variable is already assigned the
    opposite value; same-value variables are skipped.
    """
    values = kernel.trail.values
    for lit in saved:
        value = values[lit]
        if value != UNASSIGNED:
            if value == 1:
                continue
            return None
        kernel.make_decision(lit)
        conflict = kernel.propagate()
        if conflict is not None:
            return conflict
    return None


class BlockingSolver(Engine):
    """One enumeration run over a formula (single-threaded)."""

    def __init__(self, formula: CnfFormula, *, simplify: bool = False,
                 continue_search: bool = False, all_literals: bool = False,
                 sink=None, budget: Budget | None = None):
        super().__init__(formula, sink=sink, budget=budget)
        self.simplify = simplify
        self.continue_search = continue_search
        self.all_literals = all_literals
        self.saved: list[int] = []   # decisions before the last restart

    def _next_decision(self) -> int | None:
        # looked up on each call, so a patched ``decide`` takes over
        return self.kernel.decide()

    _resolve = Engine._backjump

    def _emit(self, lits: list[int]) -> None:
        """Report the cube of ``lits``, in any order."""
        self.kernel.stats.solutions += 1 << (self.formula.num_vars - len(lits))
        if self.sink is not None:
            self.sink(tuple(sorted(lits, key=abs)))

    def _close(self) -> list[int] | None:
        """Report the current total assignment (or its simplified cube),
        block it by negating every literal, the simplified decisions or
        every decision, and restart; returns the pending conflict.  With
        nothing to negate (at level 0 there are no decisions) the search
        halts instead."""
        t = self.kernel.trail
        cube = t.lits
        if self.all_literals:
            negate = t.lits
        elif self.simplify:
            negate = simplify_assignment(t, self.kernel.store)
            dropped = set(t.decisions()).difference(negate)
            cube = [l for l in t.lits if l not in dropped]
        else:
            negate = t.decisions()
        self._emit(cube)
        if not negate:
            raise SearchHalted
        return self._block_and_restart([-l for l in negate])

    def _block_and_restart(self, clause: list[int]) -> list[int] | None:
        k = self.kernel
        if self.continue_search:
            self.saved = k.trail.decisions()
        self._cancel(0)
        k.add_blocking(clause)
        pending = self._attach(clause)
        if pending is None and self.continue_search:
            return replay_decisions(k, self.saved)
        return pending
